// The benchmark's three workloads over one deployment shape (Chord, 224
// peers, r = 10, LogNormal link latency on the simulator, a paper-like
// corpus from workload::CorpusGenerator). See perfbench/README.md for what
// each workload stresses and how every metric is defined.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunConfig {
  std::string workload;  ///< "sim-zipf", "tcp-zipf" or "sim-unique-write"
  std::uint64_t seed = 1;
  /// Sizes the measured work: about this many seconds on a 4-vCPU Xeon.
  double seconds = 10.0;
  bool trace = false;     ///< per-layer run instead of the end-to-end run
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< queries + writes issued while measuring
  std::uint64_t failed = 0;     ///< failed, timed out, shed or wrong
  std::vector<std::string> errors;  ///< first few correctness failures
  /// End-to-end metrics (trace = false) or per-layer metrics (trace = true).
  std::vector<Metric> metrics;
  /// Context printed next to the metrics: sample counts, scale, rates.
  std::vector<std::pair<std::string, std::string>> info;
};

RunResult run_workload(const RunConfig& cfg);

/// Everything a simulator run lets a caller observe, for the determinism
/// test: one line per finished operation (engine record fields, or the
/// full hit sequence and stats of a direct search / write), plus the two
/// model metrics over the whole run.
struct Fingerprint {
  std::vector<std::string> lines;
  double msgs_per_query = 0.0;
  double model_p99_ticks = 0.0;
};

/// Runs exactly `ops` operations of a simulator workload on a fresh
/// deployment of `objects` objects. `timed` puts the TimingTransport and
/// the span clock under the deployment; `library_driver` (sim-zipf only)
/// paces arrivals with engine::LoadDriver instead of the benchmark's timed
/// copy of it.
Fingerprint sim_fingerprint(const std::string& workload, std::uint64_t seed,
                            std::size_t ops, std::size_t objects, bool timed,
                            bool library_driver = false);

}  // namespace perfbench
