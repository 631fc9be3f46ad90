#include "workloads.hpp"

#include <dirent.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "cube/hypercube.hpp"
#include "dht/chord_network.hpp"
#include "engine/load_driver.hpp"
#include "engine/query_engine.hpp"
#include "host_probe.hpp"
#include "index/logical_index.hpp"
#include "index/ranking.hpp"
#include "index/service.hpp"
#include "net/tcp_transport.hpp"
#include "net/wire.hpp"
#include "sim/network.hpp"
#include "timing_transport.hpp"
#include "workload/arrivals.hpp"
#include "workload/corpus_generator.hpp"
#include "workload/query_generator.hpp"

namespace perfbench {
namespace {

using namespace hkws;
using Answer = index::KeywordSearchService::Answer;
using Span = LayerClock::Span;

// --- Deployment shape and workload scale ------------------------------------------

constexpr std::size_t kPeers = 224;
constexpr std::size_t kSearchers = 32;  ///< searches rotate over endpoints 1..32
constexpr int kR = 10;
constexpr double kLatencyMedian = 30.0;  ///< ticks (~ms): WAN-ish one-way
constexpr double kLatencySigma = 0.45;
constexpr std::size_t kCacheRecords = 64;  ///< per-node query-cache records
constexpr std::size_t kZipfLimit = 64;
/// sim-zipf offered rate (queries per simulated second): the middle rate of
/// the serving bench, well below its SLO knee.
constexpr double kOfferedQps = 160.0;
constexpr std::size_t kLogQueries = 50000;  ///< Zipf log length (cycled)
constexpr std::size_t kObjects = 10000;     ///< corpus published at set-up
constexpr std::size_t kWritePool = 2048;    ///< objects the writes cycle over
/// Work per second of --seconds: queries (searches, on sim-unique-write)
/// a run issues. A run does a fixed amount of work, sized to take about
/// --seconds on a 4-vCPU Xeon, rather than running for a fixed time: the
/// query caches warm up over the whole run, so a time-bounded run's mix of
/// cold and warm queries would depend on the speed of the host, and a slow
/// moment on a shared host would cost twice.
constexpr double kZipfPerSecond = 1200.0;
constexpr double kTcpPerSecond = 400.0;
constexpr double kWritePerSecond = 800.0;
/// Share of a run's completions before wall-clock measurement starts
/// (cold contact and query caches).
constexpr double kWarmupShare = 0.2;
/// Publish + withdraw pairs of the write probe on the Zipf workloads.
constexpr std::size_t kProbePairs = 5000;
/// Writes per batch of the write probe on tcp-zipf (about 20 ms).
constexpr std::size_t kTcpWriteBatch = 200;
/// Segments of the tcp-zipf read phase, with a write burst after each.
constexpr std::size_t kTcpSegments = 20;
constexpr std::size_t kScanReplay = 2000;   ///< queries replayed through tables
constexpr std::size_t kCodecReplay = 20000; ///< envelopes replayed through codec
constexpr int kSetups = 5;                  ///< set-ups per end-to-end run
constexpr std::size_t kMaxCallers = 4;      ///< tcp-zipf closed-loop callers
constexpr std::size_t kStallMarks = 1500;   ///< 30 s of 20 ms progress marks
constexpr sim::Time kSlice = 1000;          ///< sim-zipf clock slice (ticks)

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double seconds_since(Nanos t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::set<long> task_ids() {
  std::set<long> out;
  if (DIR* d = opendir("/proc/self/task")) {
    while (dirent* e = readdir(d))
      if (e->d_name[0] != '.') out.insert(std::atol(e->d_name));
    closedir(d);
  }
  return out;
}

/// User + system CPU seconds of one thread of this process.
double thread_cpu_s(long tid) {
  if (tid <= 0) return 0.0;
  std::ifstream f("/proc/self/task/" + std::to_string(tid) + "/stat");
  std::string line;
  if (!std::getline(f, line)) return 0.0;
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Order-sensitive digest of a hit sequence (objects and keyword sets).
std::uint64_t digest(const std::vector<index::Hit>& hits) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto feed = [&h](std::uint64_t x) {
    h = (h ^ x) * 0x100000001b3ULL;
    h ^= h >> 29;
  };
  for (const index::Hit& hit : hits) {
    feed(hit.object);
    feed(hit.keywords.hash(0));
  }
  feed(hits.size());
  return h;
}

/// Identity of one hit: its object and the keyword set it is indexed under.
std::uint64_t hit_key(const index::Hit& hit) {
  return mix(hit.object, hit.keywords.hash(0));
}

std::vector<std::uint64_t> hit_keys(const std::vector<index::Hit>& hits) {
  std::vector<std::uint64_t> keys;
  keys.reserve(hits.size());
  for (const index::Hit& h : hits) keys.push_back(hit_key(h));
  return keys;
}

std::string hits_text(const std::vector<index::Hit>& hits) {
  std::string out;
  for (const index::Hit& h : hits)
    out += std::to_string(h.object) + h.keywords.to_string() + ";";
  return out;
}

std::string stats_text(const index::SearchStats& s) {
  std::ostringstream o;
  o << "nodes=" << s.nodes_contacted << " msgs=" << s.messages
    << " rounds=" << s.rounds << " levels=" << s.levels
    << " cache=" << s.cache_hit << " complete=" << s.complete
    << " batches=" << s.coalesced_batches << " cvisits=" << s.coalesced_visits
    << " failed=" << s.failed;
  return o.str();
}

/// Wire messages of the DHT layer (routing and DOLR) counted so far.
std::uint64_t dht_messages(const sim::Metrics& m) {
  std::uint64_t sum = 0;
  for (const char* prefix : {"msg.dht.", "msg.dolr."}) {
    const std::string p(prefix);
    for (auto it = m.counters().lower_bound(p);
         it != m.counters().end() && it->first.starts_with(p); ++it)
      sum += it->second;
  }
  return sum;
}

// --- Inputs ----------------------------------------------------------------------

struct Inputs {
  workload::Corpus corpus;                  ///< published at set-up
  std::vector<workload::ObjectRecord> pool; ///< published/withdrawn by writes
  workload::QueryLog log;                   ///< Zipf workloads only
};

bool is_zipf(const std::string& w) { return w == "sim-zipf" || w == "tcp-zipf"; }

/// The dataset is fixed: the library's default paper-like corpus (its
/// first `objects` records, plus the write pool after them) and its default
/// query universe and Zipf popularity. The seed draws the traffic over it —
/// the query stream, arrival times, link latencies, the unique queries and
/// the order of writes. With a per-seed dataset the Zipf head (ten random
/// keyword sets carrying ~60% of the volume) moves the cost per query by
/// +-30% from seed to seed, which no regression bound could absorb.
Inputs make_inputs(const std::string& w, std::uint64_t seed,
                   std::size_t objects) {
  workload::CorpusConfig cc;
  cc.object_count = objects + kWritePool;
  const workload::Corpus all = workload::CorpusGenerator(cc).generate();
  Inputs in;
  std::vector<workload::ObjectRecord> base(
      all.records().begin(),
      all.records().begin() + static_cast<std::ptrdiff_t>(objects));
  in.pool.assign(all.records().begin() + static_cast<std::ptrdiff_t>(objects),
                 all.records().end());
  in.corpus = workload::Corpus(std::move(base));
  if (is_zipf(w)) {
    // QueryLogGenerator::generate() with the seed's own draw of ranks.
    const workload::QueryLogGenerator gen(in.corpus, {});
    const ZipfDistribution popularity(gen.universe().size(),
                                      gen.zipf_exponent());
    Rng rng(mix(seed, 2));
    std::vector<workload::Query> queries;
    queries.reserve(kLogQueries);
    for (std::size_t t = 0; t < kLogQueries; ++t)
      queries.push_back(workload::Query{gen.universe()[popularity.sample(rng)],
                                        t});
    in.log = workload::QueryLog(std::move(queries));
  }
  return in;
}

/// Keyword sets of 2-3 keywords drawn from corpus objects, each returned
/// once: every query matches at least its source object, and no query
/// repeats, so the query cache can never answer one.
class UniqueQueries {
 public:
  UniqueQueries(const workload::Corpus& corpus, std::uint64_t seed)
      : corpus_(corpus), rng_(seed) {}

  KeywordSet next() {
    for (;;) {
      const auto& words =
          corpus_[rng_.next_below(corpus_.size())].keywords.words();
      if (words.size() < 2) continue;
      const std::size_t m = std::min<std::size_t>(words.size(),
                                                  2 + rng_.next_below(2));
      std::vector<Keyword> pick;
      std::set<std::size_t> used;
      while (pick.size() < m) {
        const std::size_t i = rng_.next_below(words.size());
        if (used.insert(i).second) pick.push_back(words[i]);
      }
      KeywordSet q(std::move(pick));
      if (seen_.insert(q).second) return q;
    }
  }

 private:
  const workload::Corpus& corpus_;
  Rng rng_;
  std::set<KeywordSet> seen_;
};

// --- Deployment ------------------------------------------------------------------

index::KeywordSearchService::Options service_options() {
  index::KeywordSearchService::Options opts;
  opts.r = kR;
  opts.cache_capacity = kCacheRecords;
  return opts;
}

/// One deployment: the backend (simulator or loopback TCP), optionally the
/// TimingTransport over it, and Chord + the keyword-search service on top.
class Deployment {
 public:
  Deployment(bool tcp, std::uint64_t seed, LayerClock* clock) {
    if (tcp) {
      const std::set<long> before = task_ids();
      net::TcpTransport::Config tc;
      tc.seed = mix(seed, 4);
      tcp_ = std::make_unique<net::TcpTransport>(tc);
      on_strand([this] { strand_tid_ = syscall(SYS_gettid); });
      for (long tid : task_ids())
        if (!before.count(tid) && tid != strand_tid_) io_tid_ = tid;
    } else {
      sim_ = std::make_unique<sim::Network>(
          clock_,
          std::make_unique<sim::LogNormalLatency>(kLatencyMedian,
                                                  kLatencySigma),
          mix(seed, 5));
    }
    if (clock != nullptr)
      timing_ = std::make_unique<TimingTransport>(base(), *clock);
    dht_ = std::make_unique<dht::ChordNetwork>(
        dht::ChordNetwork::build(wire(), kPeers, {}));
    service_ = std::make_unique<index::KeywordSearchService>(
        *dht_, service_options());
  }

  ~Deployment() {
    // Stop the strand before the protocol objects its handlers point into.
    if (tcp_) tcp_->stop();
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  bool is_tcp() const { return tcp_ != nullptr; }
  net::Transport& base() {
    return tcp_ ? static_cast<net::Transport&>(*tcp_) : *sim_;
  }
  net::Transport& wire() {
    return timing_ ? static_cast<net::Transport&>(*timing_) : base();
  }
  sim::EventQueue& clock() { return clock_; }
  net::TcpTransport& tcp() { return *tcp_; }
  index::KeywordSearchService& service() { return *service_; }
  TimingTransport* timing() { return timing_.get(); }
  long strand_tid() const { return strand_tid_; }
  long io_tid() const { return io_tid_; }

  /// Runs `fn` on the TCP dispatch strand and waits for it to return.
  void on_strand(const std::function<void()>& fn) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    tcp_->schedule_in(0, [&] {
      fn();
      std::lock_guard<std::mutex> lk(mu);
      done = true;
      cv.notify_all();
    });
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return done; });
  }

  /// Waits until nothing is in flight. Returns false on a stuck runtime.
  bool drain() {
    if (tcp_) return tcp_->wait_idle(std::chrono::seconds(60));
    clock_.run();
    return true;
  }

  void publish_corpus(const workload::Corpus& corpus) {
    constexpr std::size_t kBatch = 512;
    for (std::size_t lo = 0; lo < corpus.size(); lo += kBatch) {
      const std::size_t hi = std::min(corpus.size(), lo + kBatch);
      const auto batch = [&] {
        for (std::size_t i = lo; i < hi; ++i)
          service_->publish(1 + i % kPeers, corpus[i].id, corpus[i].keywords);
      };
      if (tcp_)
        on_strand(batch);
      else
        batch();
      if (!drain()) throw std::runtime_error("set-up: publish did not drain");
      host_probe().tick();
    }
  }

  /// The conservation identity net.messages == net.delivered + net.lost,
  /// read once traffic has drained; on TCP also zero decode errors.
  std::string accounting_error() {
    if (!drain()) return "runtime did not drain";
    const sim::Metrics& m = base().metrics();
    const std::uint64_t msgs = m.counter("net.messages");
    const std::uint64_t delivered = m.counter("net.delivered");
    const std::uint64_t lost = m.counter("net.lost");
    if (msgs != delivered + lost)
      return "conservation: net.messages=" + std::to_string(msgs) +
             " != net.delivered=" + std::to_string(delivered) +
             " + net.lost=" + std::to_string(lost);
    if (tcp_ && tcp_->decode_errors() != 0)
      return "decode_errors=" + std::to_string(tcp_->decode_errors());
    return "";
  }

 private:
  sim::EventQueue clock_;
  std::unique_ptr<sim::Network> sim_;
  std::unique_ptr<net::TcpTransport> tcp_;
  std::unique_ptr<TimingTransport> timing_;
  std::unique_ptr<dht::ChordNetwork> dht_;
  std::unique_ptr<index::KeywordSearchService> service_;
  long strand_tid_ = 0;
  long io_tid_ = 0;
};

// --- Measurement records ------------------------------------------------------------

/// One answered search, kept for the correctness check after the phase.
struct Answered {
  std::size_t pos = 0;       ///< log position (Zipf workloads)
  std::size_t count = 0;     ///< hits returned
  std::uint64_t digest = 0;  ///< hit sequence digest (sim-unique-write)
  /// hit_key of each hit, in answer order (tcp-zipf; empty on sim-zipf,
  /// where the engine reports only the count).
  std::vector<std::uint64_t> keys;
};

enum class OpKind { kSearch, kPublish, kWithdraw };

/// One sim-unique-write operation, replayed on LogicalIndex afterwards.
struct Op {
  OpKind kind = OpKind::kSearch;
  KeywordSet query;        ///< kSearch
  std::size_t object = 0;  ///< pool index, writes
  Answered answer;         ///< kSearch
  bool answered = false;   ///< kSearch: an answer arrived and did not fail
};

/// A point on a run's progress curve.
struct Mark {
  Nanos wall = 0;
  double cpu_s = 0.0;
  std::uint64_t done = 0;  ///< searches completed so far
  bool after_gap = false;  ///< the stretch ending here was a write burst
};

struct Phase {
  double wall_s = 0.0;
  std::uint64_t issued = 0;   ///< queries issued
  std::uint64_t searches = 0; ///< queries answered without failure
  std::uint64_t writes = 0;   ///< writes issued
  std::uint64_t failed = 0;   ///< failed / timed out / shed / unacknowledged
  std::vector<double> query_ms;   ///< wall latency, issue -> hits returned
  std::vector<double> write_us;   ///< wall latency, issue -> acknowledged
  std::vector<Nanos> query_end, write_end;  ///< when each sample ended
  std::vector<double> model_ticks;  ///< latency in transport time, per answer
  std::uint64_t msgs = 0;            ///< SearchStats::messages, all answers
  std::uint64_t answered = 0;        ///< searches answered (stats counted)
  std::uint64_t cache_hits = 0;
  std::uint64_t coalesced_visits = 0;
  std::uint64_t nodes_contacted = 0;
  std::uint64_t events = 0;          ///< simulator events executed
  std::uint64_t write_dht_msgs = 0;  ///< dht.* / dolr.* messages of writes
  std::uint64_t wire_bytes = 0;      ///< TCP frame bytes written
  double strand_cpu_s = 0.0;
  double io_cpu_s = 0.0;
  std::vector<KeywordSet> scan_sample;  ///< first queries, for the scan replay
  std::vector<Answered> answers;        ///< Zipf workloads
  std::vector<Op> ops;                  ///< sim-unique-write
  std::vector<std::string> errors;
  std::vector<Mark> marks;  ///< progress, for the rates
  /// Write bursts of the Zipf workloads' write probe inside the read phase
  /// (wall): left out of the read figures.
  std::vector<std::pair<Nanos, Nanos>> gaps;
  std::uint64_t warmup = 0; ///< completions before wall-clock samples count
};

void mark(Phase& p, std::uint64_t done) {
  p.marks.push_back(Mark{now_ns(), process_cpu_s(), done});
  host_probe().tick();
}

/// Wall time in [from, to] that the phase spent in write bursts.
Nanos gap_overlap(const Phase& p, Nanos from, Nanos to) {
  Nanos sum = 0;
  for (auto g = p.gaps.rbegin(); g != p.gaps.rend() && g->second > from; ++g)
    if (g->first < to) sum += std::min(g->second, to) - std::max(g->first, from);
  return sum;
}

Nanos total_gaps(const Phase& p) {
  Nanos sum = 0;
  for (const auto& g : p.gaps) sum += g.second - g.first;
  return sum;
}

/// Throughput and CPU cost over the measured window, from the first mark
/// at or past `warmup` completions to the last mark. With `scaled`, each
/// stretch between two marks counts at the host probe's reference speed
/// (see host_probe.hpp), by the probe's samples around that stretch.
struct Rates {
  double qps = 0.0;
  double cpu_ms_per_query = 0.0;
};

Rates window_rates(const std::vector<Mark>& marks, std::uint64_t warmup,
                   bool scaled) {
  Rates out;
  const auto first = std::find_if(marks.begin(), marks.end(), [&](const Mark& m) {
    return m.done >= warmup;
  });
  if (first == marks.end() || marks.back().done <= first->done) return out;
  double wall_ns = 0.0, cpu_s = 0.0;
  for (auto m = first; m + 1 != marks.end(); ++m) {
    if ((m + 1)->after_gap) continue;
    const double scale =
        scaled ? host_probe().time_scale(m->wall, (m + 1)->wall) : 1.0;
    wall_ns += static_cast<double>((m + 1)->wall - m->wall) * scale;
    cpu_s += ((m + 1)->cpu_s - m->cpu_s) * scale;
  }
  const auto n = static_cast<double>(marks.back().done - first->done);
  out.qps = n * 1e9 / wall_ns;
  out.cpu_ms_per_query = cpu_s * 1e3 / n;
  return out;
}

/// Latency samples, each stated at the host probe's reference speed by the
/// probe's samples around the interval it spans.
std::vector<double> scaled_latencies(const std::vector<double>& values,
                                     const std::vector<Nanos>& ends,
                                     double ns_per_unit) {
  std::vector<double> out;
  out.reserve(values.size());
  for (std::size_t i = 0; i < values.size() && i < ends.size(); ++i) {
    const auto span = static_cast<Nanos>(values[i] * ns_per_unit);
    out.push_back(values[i] *
                  host_probe().time_scale(ends[i] - span, ends[i]));
  }
  return out;
}

void note_error(Phase& p, std::string what) {
  if (p.errors.size() < 8) p.errors.push_back(std::move(what));
}

void count_stats(Phase& p, const index::SearchStats& s) {
  ++p.answered;
  p.msgs += s.messages;
  p.cache_hits += s.cache_hit ? 1 : 0;
  p.coalesced_visits += s.coalesced_visits;
  p.nodes_contacted += s.nodes_contacted;
}

class WriteProbe;
void write_burst(WriteProbe& writes, Phase& p, double share);

// --- sim-zipf: open-loop Poisson arrivals through the QueryEngine -----------------

/// Fixed admission limits well above the offered concurrency (160 qps x
/// ~1.5 s simulated latency ~ 240 in flight), so the open loop stays below
/// the knee for any run length: nothing queues, nothing is shed. (The AIMD
/// controller of the serving bench halves its limit on tail completions
/// over its 4000-tick target and sheds after ~10^4 queries at this rate.)
engine::EngineConfig zipf_engine_config() {
  engine::EngineConfig cfg;
  cfg.max_in_flight = 1024;
  cfg.max_backlog = 4096;
  cfg.search.limit = kZipfLimit;
  cfg.search.strategy = index::SearchStrategy::kLevelParallel;
  cfg.latency_reservoir = 4096;
  cfg.record_traces = false;
  return cfg;
}

/// engine::LoadDriver's pacing, step for step (arm the next arrival, then
/// submit; searchers round-robin over 1..kSearchers), with the submit call
/// timed and stamped. The log is cycled, so a run may outlast it.
class OpenLoop {
 public:
  OpenLoop(engine::QueryEngine& engine, sim::EventQueue& clock,
           const workload::QueryLog& log, std::uint64_t seed,
           LayerClock* spans)
      : engine_(engine),
        clock_(clock),
        log_(log),
        arrivals_(kOfferedQps, mix(seed, 3)),
        spans_(spans) {}

  ~OpenLoop() { stop(); }
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  void start(std::size_t submissions) {
    max_ = submissions;
    arm_next();
  }

  void stop() {
    if (timer_ != 0) clock_.cancel_timer(timer_);
    timer_ = 0;
  }

  std::size_t submitted() const { return position_; }
  /// Wall time of each submission, indexed by engine id - 1.
  Nanos submitted_at(std::uint64_t id) const { return submit_ns_[id - 1]; }

 private:
  void arm_next() {
    const workload::Ticks gap = arrivals_.next_gap();
    timer_ = clock_.set_timer(static_cast<sim::Time>(gap), [this] { fire(); });
  }

  void fire() {
    timer_ = 0;
    const std::size_t pos = position_++;
    const workload::Query& q = log_[pos % log_.size()];
    if (position_ < max_) arm_next();
    submit_ns_.push_back(now_ns());
    Span span(spans_, Layer::kEngine);
    engine_.submit(1 + pos % kSearchers, q.keywords);
  }

  engine::QueryEngine& engine_;
  sim::EventQueue& clock_;
  const workload::QueryLog& log_;
  workload::PoissonArrivals arrivals_;
  LayerClock* spans_;
  std::size_t max_ = 0;
  std::size_t position_ = 0;
  sim::EventQueue::TimerId timer_ = 0;
  std::vector<Nanos> submit_ns_;
};

std::string record_text(const engine::QueryRecord& rec) {
  std::ostringstream o;
  o << "id=" << rec.id << " outcome=" << engine::to_string(rec.outcome)
    << " submitted=" << rec.submitted << " admitted=" << rec.admitted
    << " finished=" << rec.finished << " hits=" << rec.hits << " "
    << stats_text(rec.stats);
  return o.str();
}

/// Submits `ops` queries on the open loop's schedule, then drains.
Phase sim_zipf_phase(Deployment& dep, const Inputs& in, std::uint64_t seed,
                     std::size_t ops, LayerClock* spans, bool library_driver,
                     Fingerprint* fp, WriteProbe* writes = nullptr) {
  Phase p;
  p.warmup = static_cast<std::uint64_t>(kWarmupShare * static_cast<double>(ops));
  engine::QueryEngine engine(dep.service(), dep.clock(), zipf_engine_config());
  OpenLoop loop(engine, dep.clock(), in.log, seed, spans);
  std::unique_ptr<workload::QueryLog> head;
  std::unique_ptr<workload::PoissonArrivals> arrivals;
  std::unique_ptr<engine::LoadDriver> driver;
  if (library_driver) {
    head = std::make_unique<workload::QueryLog>(std::vector<workload::Query>(
        in.log.queries().begin(),
        in.log.queries().begin() + static_cast<std::ptrdiff_t>(ops)));
    arrivals = std::make_unique<workload::PoissonArrivals>(kOfferedQps,
                                                           mix(seed, 3));
    std::vector<sim::EndpointId> searchers;
    for (std::size_t i = 1; i <= kSearchers; ++i) searchers.push_back(i);
    driver = std::make_unique<engine::LoadDriver>(engine, dep.clock(),
                                                  searchers);
  }

  engine.set_on_finished([&](const engine::QueryRecord& rec) {
    Span span(spans, Layer::kBench);
    const Nanos t = now_ns();
    const std::size_t pos = static_cast<std::size_t>(rec.id - 1);
    if (rec.outcome == engine::QueryOutcome::kCompleted) {
      ++p.searches;
      const Nanos at = library_driver ? t : loop.submitted_at(rec.id);
      if (!library_driver && p.searches > p.warmup)
        p.query_ms.push_back(
            static_cast<double>(t - at - gap_overlap(p, at, t)) * 1e-6);
      if (!library_driver && p.searches > p.warmup) p.query_end.push_back(t);
    } else {
      ++p.failed;
      note_error(p, "query " + std::to_string(rec.id) + " " +
                        engine::to_string(rec.outcome));
    }
    p.model_ticks.push_back(static_cast<double>(rec.latency()));
    count_stats(p, rec.stats);
    if (rec.outcome == engine::QueryOutcome::kCompleted)
      p.answers.push_back(Answered{pos, rec.hits, 0, {}});
    if (p.scan_sample.size() < kScanReplay)
      p.scan_sample.push_back(in.log[pos % in.log.size()].keywords);
    if (fp != nullptr) fp->lines.push_back(record_text(rec));
  });

  const Nanos t0 = now_ns();
  mark(p, 0);
  if (library_driver)
    driver->start(*head, *arrivals);
  else
    loop.start(ops);
  const auto submitted = [&] {
    return library_driver ? driver->submitted() : loop.submitted();
  };
  while (submitted() < ops) {
    {
      Span span(spans, Layer::kQueue);
      p.events += dep.clock().run_until(dep.clock().now() + kSlice);
    }
    mark(p, p.searches);
    if (writes != nullptr)
      write_burst(*writes, p,
                  static_cast<double>(submitted()) / static_cast<double>(ops));
  }
  {
    Span span(spans, Layer::kQueue);
    p.events += dep.clock().run();
  }
  mark(p, p.searches);
  if (writes != nullptr) write_burst(*writes, p, 1.0);
  p.wall_s = seconds_since(t0) - static_cast<double>(total_gaps(p)) * 1e-9;
  p.issued = engine.records().size();
  return p;
}

// --- tcp-zipf: closed loop over loopback TCP --------------------------------------

Phase tcp_zipf_phase(Deployment& dep, const Inputs& in, std::size_t ops,
                     LayerClock* spans, WriteProbe* writes) {
  Phase p;
  p.warmup = static_cast<std::uint64_t>(kWarmupShare * static_cast<double>(ops));
  const std::size_t callers = std::min<std::size_t>(
      kMaxCallers, std::max(1u, std::thread::hardware_concurrency()));
  const index::KeywordSearchService::SearchOptions opts{
      .limit = kZipfLimit, .strategy = index::SearchStrategy::kLevelParallel};
  const std::uint64_t bytes0 = dep.base().metrics().counter("net.wire_bytes");

  std::atomic<std::uint64_t> done{0};  // p.searches, readable off the strand
  std::mutex mu;
  std::condition_variable cv;
  std::size_t active = 0;  // guarded by mu
  std::size_t next = 0;    // strand-only
  std::size_t end = 0;     // set while no caller runs

  // Each caller issues its next search from the previous one's completion
  // callback, on the dispatch strand: the load adds no threads. The run is
  // cut into segments with a write burst between them; a caller retires
  // once its segment's searches have been issued.
  std::function<void()> issue = [&] {
    if (next >= end) {
      std::lock_guard<std::mutex> lk(mu);
      if (--active == 0) cv.notify_all();
      return;
    }
    const std::size_t pos = next++;
    ++p.issued;
    const KeywordSet& q = in.log[pos % in.log.size()].keywords;
    if (p.scan_sample.size() < kScanReplay) p.scan_sample.push_back(q);
    const Nanos t = now_ns();
    const net::Time tick = dep.wire().now();
    Span span(spans, Layer::kIndex);
    dep.service().search(
        1 + pos % kSearchers, q, opts, [&, pos, t, tick](const Answer& a) {
          {
            Span bench(spans, Layer::kBench);
            if (a.stats.failed) {
              ++p.failed;
              note_error(p, "query at log position " + std::to_string(pos) +
                                " failed");
            } else {
              done.store(++p.searches, std::memory_order_relaxed);
              if (p.searches > p.warmup) {
                const Nanos at = now_ns();
                p.query_ms.push_back(static_cast<double>(at - t) * 1e-6);
                p.query_end.push_back(at);
              }
              p.answers.push_back(
                  Answered{pos, a.hits.size(), 0, hit_keys(a.hits)});
            }
            p.model_ticks.push_back(
                static_cast<double>(dep.wire().now() - tick));
            count_stats(p, a.stats);
          }
          issue();
        });
  };

  const Nanos t0 = now_ns();
  const double strand0 = thread_cpu_s(dep.strand_tid());
  const double io0 = thread_cpu_s(dep.io_tid());
  mark(p, 0);
  for (std::size_t seg = 1; seg <= kTcpSegments; ++seg) {
    end = ops * seg / kTcpSegments;
    {
      std::lock_guard<std::mutex> lk(mu);
      active = callers;
    }
    dep.on_strand([&] {
      for (std::size_t c = 0; c < callers; ++c) issue();
    });
    for (bool finished = false; !finished;) {
      {
        std::unique_lock<std::mutex> lk(mu);
        finished = cv.wait_for(lk, std::chrono::milliseconds(20),
                               [&] { return active == 0; });
      }
      mark(p, done.load(std::memory_order_relaxed));
      const Mark* before = p.marks.size() > kStallMarks
                               ? &p.marks[p.marks.size() - 1 - kStallMarks]
                               : nullptr;
      if (!finished && before != nullptr &&
          before->done == p.marks.back().done) {
        // Stop the strand first: its callbacks point into this frame.
        dep.tcp().stop();
        throw std::runtime_error("tcp-zipf: no search completed for 30 s");
      }
    }
    if (writes != nullptr)
      write_burst(*writes, p,
                  static_cast<double>(seg) / static_cast<double>(kTcpSegments));
  }
  p.wall_s = seconds_since(t0) - static_cast<double>(total_gaps(p)) * 1e-9;
  p.strand_cpu_s = thread_cpu_s(dep.strand_tid()) - strand0;
  p.io_cpu_s = thread_cpu_s(dep.io_tid()) - io0;
  dep.drain();
  p.wire_bytes = dep.base().metrics().counter("net.wire_bytes") - bytes0;
  return p;
}

// --- Writes ------------------------------------------------------------------------

/// Issues one publish (or withdraw) of pool object `obj` and calls `done`
/// with its wall latency and whether the index acknowledged the change.
void issue_write(Deployment& dep, const Inputs& in, std::size_t obj,
                 bool publish, LayerClock* spans,
                 std::function<void(double us, bool ok)> done) {
  const workload::ObjectRecord& rec = in.pool[obj % in.pool.size()];
  const sim::EndpointId publisher = 1 + obj % kPeers;
  const Nanos t = now_ns();
  Span span(spans, Layer::kIndex);
  if (publish) {
    dep.service().publish(
        publisher, rec.id, rec.keywords,
        [t, done](const index::OverlayIndex::PublishResult& r) {
          done(static_cast<double>(now_ns() - t) * 1e-3, r.indexed);
        });
  } else {
    dep.service().withdraw(
        publisher, rec.id, rec.keywords,
        [t, done](const index::OverlayIndex::WithdrawResult& r) {
          done(static_cast<double>(now_ns() - t) * 1e-3, r.index_removed);
        });
  }
}

/// Records one finished write into the phase.
void note_write(Phase& p, std::size_t obj, bool publish, double us, bool ok,
                bool sample = true) {
  if (sample) {
    p.write_us.push_back(us);
    p.write_end.push_back(now_ns());
  }
  if (!ok) {
    ++p.failed;
    note_error(p, std::string(publish ? "publish" : "withdraw") +
                      " of pool object " + std::to_string(obj) +
                      " not acknowledged by the index");
  }
}

/// The write probe of the Zipf workloads: publish then withdraw kProbePairs
/// pool objects, one write at a time, each pair leaving the index as it
/// was. It writes to a deployment of its own with the same corpus (the
/// set-up before the measured one), because any write to the read
/// deployment would void its query caches. Its writes come in bursts
/// between stretches of the read phase, so they sample the same stretches
/// of the host as the reads; the bursts are left out of the read figures.
class WriteProbe {
 public:
  WriteProbe(Deployment& dep, const Inputs& in) : dep_(dep), in_(in) {}

  Deployment& deployment() { return dep_; }

  /// Issues writes until `share` of the probe's writes are done. Returns
  /// whether it issued any.
  bool run_to(Phase& p, double share) {
    const auto target = std::min(
        kTotal, static_cast<std::size_t>(std::llround(
                    share * static_cast<double>(kTotal))));
    if (done_ >= target) return false;
    const std::uint64_t dht0 = dht_messages(dep_.base().metrics());
    p.writes += target - done_;
    if (dep_.is_tcp()) {
      // Chained on the strand in batches, each acknowledgement issuing the
      // next write; the host probe samples between batches, while no write
      // is in flight.
      while (done_ < target) {
        const std::size_t hi = std::min(target, done_ + kTcpWriteBatch);
        tcp_batch(p, hi);
        host_probe().sample();
      }
    } else {
      for (; done_ < target; ++done_) {
        const std::size_t k = done_;
        const bool publish = k % 2 == 0;
        bool acked = false;
        issue_write(dep_, in_, k / 2, publish, nullptr,
                    [&](double us, bool ok) {
                      acked = true;
                      note_write(p, k / 2, publish, us, ok);
                    });
        dep_.clock().run();
        if (!acked) note_write(p, k / 2, publish, 0.0, false, false);
        host_probe().tick();
      }
    }
    p.write_dht_msgs += dht_messages(dep_.base().metrics()) - dht0;
    return true;
  }

 private:
  static constexpr std::size_t kTotal = 2 * kProbePairs;

  /// Writes done_ .. end - 1 one after another on the strand.
  void tcp_batch(Phase& p, std::size_t end) {
    std::mutex mu;
    std::condition_variable cv;
    bool finished = false;
    std::function<void(std::size_t)> step = [&](std::size_t k) {
      const bool publish = k % 2 == 0;
      issue_write(dep_, in_, k / 2, publish, nullptr,
                  [&, k, publish](double us, bool ok) {
                    note_write(p, k / 2, publish, us, ok);
                    if (k + 1 < end) {
                      step(k + 1);
                      return;
                    }
                    std::lock_guard<std::mutex> lk(mu);
                    finished = true;
                    cv.notify_all();
                  });
    };
    dep_.on_strand([&] { step(done_); });
    std::unique_lock<std::mutex> lk(mu);
    if (!cv.wait_for(lk, std::chrono::seconds(60), [&] { return finished; })) {
      lk.unlock();
      dep_.tcp().stop();  // its callbacks point into this frame
      throw std::runtime_error("write probe stalled");
    }
    done_ = end;
  }

  Deployment& dep_;
  const Inputs& in_;
  std::size_t done_ = 0;
};

/// One write burst inside a read phase, recorded as a gap of the phase.
void write_burst(WriteProbe& writes, Phase& p, double share) {
  const Nanos from = now_ns();
  if (!writes.run_to(p, share)) return;
  const Nanos to = now_ns();
  p.gaps.emplace_back(from, to);
  p.marks.push_back(
      Mark{to, process_cpu_s(), p.marks.empty() ? 0 : p.marks.back().done,
           true});
}

// --- sim-unique-write: one closed-loop caller, searches alternating with writes ----

/// Runs `ops` operations: searches at even positions, writes at odd ones.
Phase unique_write_phase(Deployment& dep, const Inputs& in, std::uint64_t seed,
                         std::size_t ops, LayerClock* spans, Fingerprint* fp) {
  Phase p;
  p.warmup =
      static_cast<std::uint64_t>(kWarmupShare * static_cast<double>(ops / 2));
  UniqueQueries unique(in.corpus, mix(seed, 6));
  const index::KeywordSearchService::SearchOptions opts{
      .limit = 0, .strategy = index::SearchStrategy::kLevelParallel};
  std::size_t writes = 0;
  const Nanos t0 = now_ns();
  for (std::size_t op = 0; op < ops; ++op) {
    if (op % 2 == 0) {
      mark(p, p.searches);
      Op rec;
      rec.query = unique.next();
      bool answered = false;
      ++p.issued;
      if (p.scan_sample.size() < kScanReplay) p.scan_sample.push_back(rec.query);
      const Nanos t = now_ns();
      const sim::Time tick = dep.clock().now();
      {
        Span span(spans, Layer::kIndex);
        dep.service().search(
            1 + p.issued % kSearchers, rec.query, opts, [&](const Answer& a) {
              Span bench(spans, Layer::kBench);
              answered = true;
              rec.answered = !a.stats.failed;
              if (a.stats.failed) {
                ++p.failed;
                note_error(p, "search " + rec.query.to_string() + " failed");
              } else {
                ++p.searches;
                if (p.searches > p.warmup) {
                  const Nanos at = now_ns();
                  p.query_ms.push_back(static_cast<double>(at - t) * 1e-6);
                  p.query_end.push_back(at);
                }
              }
              p.model_ticks.push_back(
                  static_cast<double>(dep.clock().now() - tick));
              count_stats(p, a.stats);
              rec.answer.count = a.hits.size();
              rec.answer.digest = digest(a.hits);
              if (fp != nullptr)
                fp->lines.push_back(rec.query.to_string() + " -> " +
                                    hits_text(a.hits) + " " +
                                    stats_text(a.stats));
            });
      }
      {
        Span span(spans, Layer::kQueue);
        p.events += dep.clock().run();
      }
      if (!answered) {
        ++p.failed;
        note_error(p, "search " + rec.query.to_string() + " never answered");
      }
      p.ops.push_back(std::move(rec));
    } else {
      // Writes alternate publish / withdraw of the same pool object, so the
      // index size stays put and every write changes the index.
      const std::size_t obj = writes / 2;
      const bool publish = writes % 2 == 0;
      ++writes;
      ++p.writes;
      const std::uint64_t dht0 = dht_messages(dep.base().metrics());
      bool acked = false;
      issue_write(dep, in, obj, publish, spans, [&](double us, bool ok) {
        acked = true;
        note_write(p, obj, publish, us, ok, p.searches > p.warmup);
        if (fp != nullptr)
          fp->lines.push_back(std::string(publish ? "publish " : "withdraw ") +
                              std::to_string(obj) + " ok=" +
                              std::to_string(ok) + " at " +
                              std::to_string(dep.clock().now()));
      });
      {
        Span span(spans, Layer::kQueue);
        p.events += dep.clock().run();
      }
      if (!acked) note_write(p, obj, publish, 0.0, false, false);
      p.write_dht_msgs += dht_messages(dep.base().metrics()) - dht0;
      Op rec;
      rec.kind = publish ? OpKind::kPublish : OpKind::kWithdraw;
      rec.object = obj;
      p.ops.push_back(std::move(rec));
    }
  }
  mark(p, p.searches);
  p.wall_s = seconds_since(t0);
  return p;
}

// --- Correctness ---------------------------------------------------------------------

/// Exhaustive reference answer of LogicalIndex, ranked the way the
/// service ranks. Exhaustive level-parallel search returns exactly this
/// sequence (tests/test_search_equivalence.cpp pins it).
std::vector<index::Hit> reference(index::LogicalIndex& logical,
                                  const KeywordSet& q) {
  index::SearchResult r =
      logical.superset_search(q, 0, index::SearchStrategy::kLevelParallel);
  index::order_hits(r.hits, q, index::RankingPreference::kGeneralFirst);
  return std::move(r.hits);
}

/// Why a limit-64 answer breaks the level-parallel contract, or "" if it
/// keeps it. Level-parallel search explores whole tree levels, so it may
/// return more than the limit, and which extra hits arrive depends on
/// timing; what holds is: at least min(limit, |O_K|) hits, every hit an
/// indexed superset of the query with its indexed keyword set, no
/// duplicates, ranked general-first.
std::string zipf_violation(const Answered& a,
                           const std::map<std::uint64_t, std::size_t>& extra) {
  if (a.count < std::min(kZipfLimit, extra.size()) || a.count > extra.size())
    return std::to_string(a.count) + " hits of " +
           std::to_string(extra.size());
  if (a.keys.empty()) return "";
  if (a.keys.size() != a.count) return "hit list does not match its count";
  std::set<std::uint64_t> seen;
  std::size_t last = 0;
  for (std::uint64_t key : a.keys) {
    const auto it = extra.find(key);
    if (it == extra.end()) return "hit not in the reference answer";
    if (!seen.insert(key).second) return "duplicate hit";
    if (it->second < last) return "hits not ranked general-first";
    last = it->second;
  }
  return "";
}

/// Checks every answer of a Zipf phase against LogicalIndex over the same
/// corpus. Returns the number of wrong answers.
std::uint64_t check_zipf(const Inputs& in, Phase& p) {
  index::LogicalIndex logical({.r = kR});
  for (const auto& rec : in.corpus.records()) logical.insert(rec.id, rec.keywords);
  // Per distinct query: hit_key -> extra keywords of the reference hits.
  std::map<KeywordSet, std::map<std::uint64_t, std::size_t>> memo;
  std::uint64_t wrong = 0;
  for (const Answered& a : p.answers) {
    const KeywordSet& q = in.log[a.pos % in.log.size()].keywords;
    auto it = memo.find(q);
    if (it == memo.end()) {
      std::map<std::uint64_t, std::size_t> extra;
      for (const index::Hit& h : reference(logical, q))
        extra.emplace(hit_key(h), h.keywords.size() - q.size());
      it = memo.emplace(q, std::move(extra)).first;
    }
    const std::string why = zipf_violation(a, it->second);
    if (!why.empty()) {
      ++wrong;
      note_error(p, "wrong answer for " + q.to_string() + ": " + why);
    }
  }
  return wrong;
}

/// Replays a sim-unique-write phase on LogicalIndex, mutating it in
/// lock-step with the writes. Returns the number of wrong answers.
std::uint64_t check_unique_write(const Inputs& in, Phase& p) {
  index::LogicalIndex logical({.r = kR});
  for (const auto& rec : in.corpus.records()) logical.insert(rec.id, rec.keywords);
  std::uint64_t wrong = 0;
  for (const Op& op : p.ops) {
    const workload::ObjectRecord& obj = in.pool[op.object % in.pool.size()];
    switch (op.kind) {
      case OpKind::kPublish:
        logical.insert(obj.id, obj.keywords);
        break;
      case OpKind::kWithdraw:
        logical.remove(obj.id, obj.keywords);
        break;
      case OpKind::kSearch: {
        if (!op.answered) break;  // already counted as a failure
        const std::vector<index::Hit> want = reference(logical, op.query);
        if (op.answer.count != want.size() ||
            op.answer.digest != digest(want)) {
          ++wrong;
          note_error(p, "wrong answer for " + op.query.to_string() + ": " +
                            std::to_string(op.answer.count) +
                            " hits, want this exact sequence of " +
                            std::to_string(want.size()));
        }
        break;
      }
    }
  }
  return wrong;
}

// --- Per-layer replays -------------------------------------------------------------

struct ScanReplay {
  double us_per_query = 0.0;
  double candidates_per_query = 0.0;
  double match_frac = 0.0;
};

/// Replays IndexTable::supersets_into over each sampled query's induced
/// subcube, table by table through OverlayIndex::table_of: the exhaustive
/// scan work of the query, timed, with the tables' own work counters.
ScanReplay replay_scans(const index::OverlayIndex& idx,
                        const std::vector<KeywordSet>& queries) {
  ScanReplay out;
  if (queries.empty()) return out;
  const cube::Hypercube cube(kR);
  std::vector<index::Hit> buf;
  Nanos busy = 0;
  std::uint64_t candidates = 0, matches = 0;
  for (const KeywordSet& q : queries) {
    const std::vector<cube::CubeId> nodes =
        cube.subcube_members(idx.responsible_node(q));
    const Nanos t = now_ns();
    for (cube::CubeId w : nodes) {
      const index::IndexTable* table = idx.table_of(w);
      if (table == nullptr) continue;
      const index::IndexTable::ScanStats before = table->scan_stats();
      table->supersets_into(q, 0, nullptr, buf);
      candidates += table->scan_stats().candidates - before.candidates;
      matches += table->scan_stats().matches - before.matches;
    }
    busy += now_ns() - t;
  }
  const auto n = static_cast<double>(queries.size());
  out.us_per_query = static_cast<double>(busy) * 1e-3 / n;
  out.candidates_per_query = static_cast<double>(candidates) / n;
  out.match_frac = ratio(static_cast<double>(matches),
                         static_cast<double>(candidates));
  return out;
}

/// Encodes and decodes envelopes shaped like the observed wire sends (same
/// kind, endpoints and declared size, so the same padding). Nanoseconds per
/// message, encode + decode.
double replay_codec(const std::vector<TimingTransport::SendSample>& sends) {
  const std::size_t n = std::min(sends.size(), kCodecReplay);
  if (n == 0) return 0.0;
  std::vector<net::EnvelopeMsg> envs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& s = sends[i];
    net::EnvelopeMsg& env = envs[i];
    const std::optional<net::MsgKind> known = net::kind_of(s.kind);
    env.inner_kind = known.value_or(net::MsgKind::kOpaque);
    if (!known.has_value()) env.label = s.kind;
    env.msg_id = i + 1;
    env.from = s.from;
    env.to = s.to;
    env.declared_bytes = s.bytes;
    env.pad = static_cast<std::uint32_t>(
        std::min<std::size_t>(s.bytes, net::TcpTransport::Config{}.max_pad));
  }
  std::size_t decoded = 0;
  const Nanos t = now_ns();
  for (const net::EnvelopeMsg& env : envs) {
    const std::vector<std::uint8_t> frame =
        net::encode_frame(net::MsgKind::kEnvelope, net::WireMessage{env});
    if (net::decode_frame(frame.data(), frame.size()).has_value()) ++decoded;
  }
  const Nanos busy = now_ns() - t;
  if (decoded != n) throw std::runtime_error("codec replay: decode failed");
  return static_cast<double>(busy) / static_cast<double>(n);
}

/// What the traced phase recorded, frozen before the write probe and the
/// checks that follow it add spans of their own.
struct TraceSnapshot {
  std::array<Nanos, kLayerCount> layer_ns{};
  std::uint64_t wire_sends = 0;
  Nanos wire_send_ns = 0;
  Nanos handler_busy_ns = 0;
  std::vector<Nanos> deliver_waits;
  std::vector<TimingTransport::SendSample> sends;
};

TraceSnapshot snapshot(const LayerClock& spans, const TimingTransport& t) {
  TraceSnapshot s;
  for (std::size_t i = 0; i < kLayerCount; ++i)
    s.layer_ns[i] = spans.self_ns(static_cast<Layer>(i));
  s.wire_sends = t.wire_sends();
  s.wire_send_ns = t.wire_send_ns();
  s.handler_busy_ns = t.handler_busy_ns();
  s.deliver_waits = t.deliver_waits();
  s.sends = t.send_samples();
  return s;
}

// --- Runs ------------------------------------------------------------------------------

/// Runs the workload's fixed amount of work for `seconds` of nominal time.
Phase run_phase(const RunConfig& cfg, Deployment& dep, const Inputs& in,
                double seconds, LayerClock* spans, WriteProbe* writes) {
  const auto work = [seconds](double per_second) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(per_second * seconds)));
  };
  if (cfg.workload == "sim-zipf")
    return sim_zipf_phase(dep, in, cfg.seed, work(kZipfPerSecond), spans,
                          false, nullptr, writes);
  if (cfg.workload == "tcp-zipf")
    return tcp_zipf_phase(dep, in, work(kTcpPerSecond), spans, writes);
  return unique_write_phase(dep, in, cfg.seed, 2 * work(kWritePerSecond),
                            spans, nullptr);
}

/// Runs one measured phase and everything that must follow it: the
/// accounting identities (of the write probe's deployment too) and the
/// answer check. `writer` is the Zipf workloads' write-probe deployment.
Phase measure(const RunConfig& cfg, Deployment& dep, const Inputs& in,
              double seconds, LayerClock* spans, TraceSnapshot* trace,
              Deployment* writer) {
  std::optional<WriteProbe> writes;
  if (writer != nullptr) writes.emplace(*writer, in);
  if (spans != nullptr) {
    spans->reset();
    dep.timing()->reset_stats();
  }
  Phase p = run_phase(cfg, dep, in, seconds, spans,
                      writes ? &*writes : nullptr);
  if (trace != nullptr) *trace = snapshot(*spans, *dep.timing());
  for (Deployment* d : {&dep, writer}) {
    if (d == nullptr) continue;
    const std::string acct = d->accounting_error();
    if (!acct.empty()) {
      ++p.failed;
      note_error(p, acct);
    }
  }
  p.failed += is_zipf(cfg.workload) ? check_zipf(in, p)
                                    : check_unique_write(in, p);
  return p;
}

/// Wall time of one set-up, and the host probe's scale over it.
struct SetupTime {
  double seconds = 0.0;
  double scale = 1.0;
};

std::unique_ptr<Deployment> set_up(const RunConfig& cfg, const Inputs& in,
                                   LayerClock* spans, SetupTime* time) {
  host_probe().sample();
  const Nanos t0 = now_ns();
  auto dep = std::make_unique<Deployment>(cfg.workload == "tcp-zipf",
                                          cfg.seed, spans);
  dep->publish_corpus(in.corpus);
  const Nanos t1 = now_ns();
  host_probe().sample();
  time->seconds = static_cast<double>(t1 - t0) * 1e-9;
  time->scale = host_probe().time_scale(t0, t1);
  return dep;
}

void add(RunResult& r, std::string name, double value, std::string unit) {
  r.metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void info(RunResult& r, std::string key, std::string value) {
  r.info.emplace_back(std::move(key), std::move(value));
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void account(RunResult& r, const Phase& p) {
  r.attempted += p.issued + p.writes;
  r.failed += p.failed;
  for (const std::string& e : p.errors)
    if (r.errors.size() < 8) r.errors.push_back(e);
}

double qps(const Phase& p) {
  return ratio(static_cast<double>(p.searches), p.wall_s);
}

/// Queries per second over the measured window, at the host probe's
/// reference speed.
double scaled_qps(const Phase& p) {
  return window_rates(p.marks, p.warmup, true).qps;
}

std::string join(const std::vector<double>& v) {
  std::string out;
  for (double x : v) {
    if (!out.empty()) out += ',';
    out += fmt(x);
  }
  return out;
}

/// Timed metrics are stated at the host probe's reference speed (see
/// host_probe.hpp), each stretch or sample by the probe around it. The
/// unscaled figures follow in the info lines.
void end_to_end(RunResult& r, const RunConfig& cfg, const Phase& p,
                const std::vector<SetupTime>& setups) {
  const Rates raw = window_rates(p.marks, p.warmup, false);
  const Rates rt = window_rates(p.marks, p.warmup, true);
  const std::vector<double> query_ms =
      scaled_latencies(p.query_ms, p.query_end, 1e6);
  const std::vector<double> write_us =
      scaled_latencies(p.write_us, p.write_end, 1e3);
  std::vector<double> setup_raw, setup_scaled;
  for (const SetupTime& t : setups) {
    setup_raw.push_back(t.seconds);
    setup_scaled.push_back(t.seconds * t.scale);
  }
  // Transport time is wall time on TCP (the runtime's tick clock), so it
  // takes the read phase's scale; simulated time is the same on any host.
  const double model_p99 = percentile(p.model_ticks, 0.99);
  const double model_scale =
      cfg.workload == "tcp-zipf" && raw.qps > 0.0 ? raw.qps / rt.qps : 1.0;

  add(r, "setup_s", median(setup_scaled), "s");
  add(r, "qps", rt.qps, "1/s");
  add(r, "p50_ms", percentile(query_ms, 0.50), "ms");
  add(r, "p99_ms", percentile(query_ms, 0.99), "ms");
  add(r, "cpu_ms_per_query", rt.cpu_ms_per_query, "ms");
  add(r, "msgs_per_query",
      ratio(static_cast<double>(p.msgs), static_cast<double>(p.answered)),
      "msgs");
  add(r, "write_p50_us", percentile(write_us, 0.50), "us");
  add(r, "write_p99_us", percentile(write_us, 0.99), "us");
  add(r, "model_p99_ticks", model_p99 * model_scale, "ticks");

  info(r, "latency_samples", std::to_string(p.query_ms.size()));
  info(r, "write_samples", std::to_string(p.write_us.size()));
  info(r, "queries", std::to_string(p.answered));
  info(r, "measured_wall_s", fmt(p.wall_s));
  info(r, "raw_setup_samples_s", join(setup_raw));
  info(r, "raw_qps", fmt(raw.qps));
  info(r, "raw_p50_ms", fmt(percentile(p.query_ms, 0.50)));
  info(r, "raw_p99_ms", fmt(percentile(p.query_ms, 0.99)));
  info(r, "raw_cpu_ms_per_query", fmt(raw.cpu_ms_per_query));
  info(r, "raw_write_p50_us", fmt(percentile(p.write_us, 0.50)));
  info(r, "raw_write_p99_us", fmt(percentile(p.write_us, 0.99)));
  info(r, "raw_model_p99_ticks", fmt(model_p99));
  info(r, "host_slowdown",
       fmt(ratio(raw.cpu_ms_per_query, rt.cpu_ms_per_query)));
}

void per_layer(RunResult& r, const RunConfig& cfg, Deployment& dep,
               const Phase& plain, const Phase& traced,
               const TraceSnapshot& trace) {
  const std::array<Nanos, kLayerCount>& ns = trace.layer_ns;
  const bool tcp = dep.is_tcp();
  const bool sim = !tcp;
  const auto queries = static_cast<double>(std::max<std::uint64_t>(
      1, traced.searches));
  const auto per_query_us = [&](Layer l) {
    return static_cast<double>(ns[static_cast<std::size_t>(l)]) * 1e-3 /
           queries;
  };
  const double wall_ns = traced.wall_s * 1e9;

  // Engine: only sim-zipf drives the QueryEngine.
  add(r, "engine.submit_us_per_query",
      cfg.workload == "sim-zipf" ? per_query_us(Layer::kEngine) : 0.0, "us");

  // Index.
  add(r, "index.self_us_per_query", per_query_us(Layer::kIndex), "us");
  add(r, "index.cache_hit_frac",
      ratio(static_cast<double>(traced.cache_hits),
            static_cast<double>(traced.answered)),
      "frac");
  add(r, "index.coalesced_visit_frac",
      ratio(static_cast<double>(traced.coalesced_visits),
            static_cast<double>(traced.nodes_contacted)),
      "frac");
  ScanReplay scans;
  if (tcp)
    dep.on_strand([&] {
      scans = replay_scans(dep.service().primary_index(), traced.scan_sample);
    });
  else
    scans = replay_scans(dep.service().primary_index(), traced.scan_sample);
  add(r, "index.scan_us_per_query", scans.us_per_query, "us");
  add(r, "index.scan_candidates_per_query", scans.candidates_per_query,
      "count");
  add(r, "index.scan_match_frac", scans.match_frac, "frac");

  // DHT.
  // Zipf runs write only in their probe, on an untraced deployment.
  const auto ops = static_cast<double>(
      traced.searches + (is_zipf(cfg.workload) ? 0 : traced.writes));
  add(r, "dht.self_us_per_op",
      ratio(static_cast<double>(ns[static_cast<std::size_t>(Layer::kDht)]) *
                1e-3,
            ops),
      "us");
  add(r, "dht.msgs_per_write",
      ratio(static_cast<double>(traced.write_dht_msgs),
            static_cast<double>(traced.writes)),
      "msgs");

  // Simulator event queue: run() time no handler accounts for, which
  // includes the event-queue inserts of sends and timers.
  const Nanos queue_ns = ns[static_cast<std::size_t>(Layer::kQueue)] +
                         ns[static_cast<std::size_t>(Layer::kSend)] +
                         ns[static_cast<std::size_t>(Layer::kTimer)];
  add(r, "sim.queue_self_us_per_query",
      sim ? static_cast<double>(queue_ns) * 1e-3 / queries : 0.0, "us");
  add(r, "sim.events_per_query",
      sim ? static_cast<double>(traced.events) / queries : 0.0, "count");

  // Socket runtime (tcp-zipf only).
  std::vector<double> waits;
  for (Nanos w : trace.deliver_waits) waits.push_back(static_cast<double>(w));
  add(r, "net.send_us_per_msg",
      tcp ? ratio(static_cast<double>(trace.wire_send_ns) * 1e-3,
                  static_cast<double>(trace.wire_sends))
          : 0.0,
      "us");
  add(r, "net.deliver_wait_us_p50", tcp ? percentile(waits, 0.5) * 1e-3 : 0.0,
      "us");
  add(r, "net.strand_busy_frac",
      tcp ? ratio(static_cast<double>(trace.handler_busy_ns), wall_ns) : 0.0,
      "frac");
  add(r, "net.strand_cpu_ms_per_query",
      tcp ? traced.strand_cpu_s * 1e3 / queries : 0.0, "ms");
  add(r, "net.io_cpu_ms_per_query", tcp ? traced.io_cpu_s * 1e3 / queries : 0.0,
      "ms");
  add(r, "net.wire_bytes_per_query",
      tcp ? static_cast<double>(traced.wire_bytes) / queries : 0.0, "bytes");
  add(r, "net.codec_ns_per_msg", tcp ? replay_codec(trace.sends) : 0.0,
      "ns");

  // Tracing itself.
  add(r, "trace.overhead_frac",
      1.0 - ratio(scaled_qps(traced), scaled_qps(plain)), "frac");
  Nanos spanned = 0;
  for (Nanos v : ns) spanned += v;
  double unattributed = 0.0;
  if (sim) {
    unattributed = wall_ns > static_cast<double>(spanned)
                       ? (wall_ns - static_cast<double>(spanned)) / wall_ns
                       : 0.0;
  } else {
    // The strand's CPU time spent outside any protocol callback.
    const double outside =
        traced.strand_cpu_s * 1e9 - static_cast<double>(trace.handler_busy_ns);
    unattributed = outside > 0.0 ? outside / wall_ns : 0.0;
  }
  add(r, "trace.unattributed_frac", unattributed, "frac");

  info(r, "traced_qps", fmt(qps(traced)));
  info(r, "untraced_qps", fmt(qps(plain)));
  info(r, "traced_queries", std::to_string(traced.searches));
  info(r, "wire_sends", std::to_string(trace.wire_sends));
}

}  // namespace

RunResult run_workload(const RunConfig& cfg) {
  if (cfg.workload != "sim-zipf" && cfg.workload != "tcp-zipf" &&
      cfg.workload != "sim-unique-write")
    throw std::invalid_argument("unknown workload " + cfg.workload);
  const Inputs in = make_inputs(cfg.workload, cfg.seed, kObjects);
  RunResult r;
  info(r, "objects", std::to_string(kObjects));
  info(r, "peers", std::to_string(kPeers));
  info(r, "r", std::to_string(kR));

  if (!cfg.trace) {
    // The Zipf workloads keep the set-up before the measured one for their
    // write probe.
    std::vector<SetupTime> setups;
    std::unique_ptr<Deployment> writer, dep;
    for (int i = 0; i < kSetups; ++i) {
      writer.reset();
      if (is_zipf(cfg.workload)) writer = std::move(dep);
      dep.reset();
      SetupTime t;
      dep = set_up(cfg, in, nullptr, &t);
      setups.push_back(t);
    }
    const Phase p =
        measure(cfg, *dep, in, cfg.seconds, nullptr, nullptr, writer.get());
    account(r, p);
    end_to_end(r, cfg, p, setups);
  } else {
    // Untraced and traced halves, each on its own fresh deployment; the
    // qps of the two gives the tracing overhead.
    // The untraced half's deployment takes the write probe of the traced
    // half.
    SetupTime s;
    std::unique_ptr<Deployment> writer;
    if (is_zipf(cfg.workload)) writer = set_up(cfg, in, nullptr, &s);
    auto plain_dep = set_up(cfg, in, nullptr, &s);
    const Phase plain = measure(cfg, *plain_dep, in, cfg.seconds / 2, nullptr,
                                nullptr, writer.get());
    writer.reset();
    if (is_zipf(cfg.workload)) writer = std::move(plain_dep);
    plain_dep.reset();
    LayerClock spans;
    auto dep = set_up(cfg, in, &spans, &s);
    TraceSnapshot trace;
    const Phase traced = measure(cfg, *dep, in, cfg.seconds / 2, &spans,
                                 &trace, writer.get());
    account(r, plain);
    account(r, traced);
    per_layer(r, cfg, *dep, plain, traced, trace);
  }
  r.correct = r.failed == 0;
  info(r, "fail_frac", fmt(ratio(static_cast<double>(r.failed),
                                 static_cast<double>(r.attempted))));
  return r;
}

Fingerprint sim_fingerprint(const std::string& workload, std::uint64_t seed,
                            std::size_t ops, std::size_t objects, bool timed,
                            bool library_driver) {
  const Inputs in = make_inputs(workload, seed, objects);
  LayerClock spans;
  Deployment dep(false, seed, timed ? &spans : nullptr);
  dep.publish_corpus(in.corpus);
  Fingerprint fp;
  LayerClock* clock = timed ? &spans : nullptr;
  const Phase p =
      workload == "sim-zipf"
          ? sim_zipf_phase(dep, in, seed, ops, clock, library_driver, &fp)
          : unique_write_phase(dep, in, seed, ops, clock, &fp);
  fp.msgs_per_query =
      ratio(static_cast<double>(p.msgs), static_cast<double>(p.answered));
  fp.model_p99_ticks = percentile(p.model_ticks, 0.99);
  return fp;
}

}  // namespace perfbench
