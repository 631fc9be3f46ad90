// Host-speed probe: a fixed kernel, timed at short intervals while the
// benchmark measures, so that its timed metrics can be stated at one
// reference host speed.
//
// On a VM that shares its host, the same work costs different CPU time from
// one stretch to the next, with no steal time to show for it. On 4 vCPUs of
// a shared Xeon, CPU time per query moved by up to 2x between runs ten
// seconds apart and by 1.3x between one-second windows of one run, so
// neither a longer run nor an in-run statistic averages it away.
// Memory-heavy processes on the VM's other vCPUs moved it by only 3%: the
// cause sits below the VM.
//
// The probe makes random read-modify-writes into a 3 MiB table that it
// warms first. The table is larger than the core's 2 MiB L2, so the probe
// works the private and the shared cache levels as the benchmarked code
// does, but never waits on memory, whatever that code left in the caches.
// The steps are timed in thread CPU time. The table sits in transparent huge
// pages where the kernel allows them: on 4 KiB pages its cache placement,
// and with it the probe's mean step time, differs from process to process.
//
// Measured over five seeds per workload in a slow stretch of the host
// (runs 1.3x to 1.6x slower than in a quiet one), scaling by the probe cut
// the run-to-run spread (interquartile range over median) of the timed
// metrics from 0.15-0.35 to 0.02-0.11. Smaller tables tracked the slowdown
// less well: a 512 KiB one moved by only a third as much as the workloads.
//
// A duration d measured over a window in which the probe's mean step time
// was p is reported as d * kReferenceNs / p, and a rate r as
// r * p / kReferenceNs. The unscaled figures are printed beside them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "timing_transport.hpp"

namespace perfbench {

class HostProbe {
 public:
  /// Probe step time the timed metrics are scaled to: about what a quiet
  /// 4-vCPU Xeon host gives while the benchmark runs.
  static constexpr double kReferenceNs = 8.0;
  /// Wall time between samples taken by tick().
  static constexpr Nanos kInterval = 40'000'000;

  HostProbe();

  /// Takes a sample if kInterval has passed since the last one.
  void tick() {
    if (now_ns() - last_ >= kInterval) sample();
  }
  /// Takes a sample now: a warm-up pass over the table and 10 000 timed
  /// steps, about 0.2 ms.
  void sample();

  /// Mean step time (ns) of the samples taken between `from` and `to`
  /// (wall, now_ns()). A window shorter than two intervals is widened to
  /// that around its middle; one with no sample in it takes the nearest.
  /// Needs at least one sample.
  double mean_ns(Nanos from, Nanos to) const;
  /// Factor that states a duration measured over [from, to] at the
  /// reference speed: kReferenceNs / mean_ns(from, to).
  double time_scale(Nanos from, Nanos to) const {
    return kReferenceNs / mean_ns(from, to);
  }

 private:
  struct Free {
    void operator()(std::uint64_t* p) const;
  };
  std::unique_ptr<std::uint64_t[], Free> table_;
  std::uint64_t state_ = 1;
  Nanos last_ = 0;
  std::vector<Nanos> at_;     ///< wall time of each sample, ascending
  std::vector<double> sums_;  ///< sums_[i]: step times of samples < i
};

/// The process's probe. The benchmark uses it from its measuring thread
/// only.
HostProbe& host_probe();

}  // namespace perfbench
