#include "host_probe.hpp"

#include <sys/mman.h>
#include <time.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <stdexcept>

namespace perfbench {
namespace {

constexpr std::size_t kHugePage = std::size_t{2} << 20;
constexpr std::size_t kTableBytes = std::size_t{3} << 20;
constexpr std::size_t kAllocBytes = 2 * kHugePage;
constexpr std::size_t kWords = kTableBytes / sizeof(std::uint64_t);
constexpr std::size_t kWordsPerLine = 8;
constexpr int kSteps = 10000;

Nanos thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<Nanos>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<Nanos>(ts.tv_nsec);
}

}  // namespace

void HostProbe::Free::operator()(std::uint64_t* p) const { std::free(p); }

HostProbe::HostProbe()
    : table_(static_cast<std::uint64_t*>(
          std::aligned_alloc(kHugePage, kAllocBytes))) {
  if (!table_) throw std::bad_alloc();
  madvise(table_.get(), kAllocBytes, MADV_HUGEPAGE);  // a hint: 4 KiB pages work
  for (std::size_t i = 0; i < kWords; ++i) table_[i] = i;
}

void HostProbe::sample() {
  for (std::size_t i = 0; i < kWords; i += kWordsPerLine) ++table_[i];
  std::uint64_t x = state_;
  const Nanos t0 = thread_cpu_ns();
  for (int i = 0; i < kSteps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    table_[(x >> 40) % kWords] += x;
  }
  const Nanos t1 = thread_cpu_ns();
  state_ = x;
  last_ = now_ns();
  if (sums_.empty()) sums_.push_back(0.0);
  at_.push_back(last_);
  sums_.push_back(sums_.back() + static_cast<double>(t1 - t0) / kSteps);
}

double HostProbe::mean_ns(Nanos from, Nanos to) const {
  if (at_.empty()) throw std::logic_error("host probe: no samples");
  if (to < from) to = from;
  if (to - from < 2 * kInterval) {
    const Nanos mid = from + (to - from) / 2;
    from = mid > kInterval ? mid - kInterval : 0;
    to = mid + kInterval;
  }
  auto lo = static_cast<std::size_t>(
      std::lower_bound(at_.begin(), at_.end(), from) - at_.begin());
  auto hi = static_cast<std::size_t>(
      std::upper_bound(at_.begin(), at_.end(), to) - at_.begin());
  if (lo == hi) {  // none inside: the nearest sample
    if (hi == at_.size() || (lo > 0 && from - at_[lo - 1] < at_[hi] - to))
      --lo;
    else
      ++hi;
  }
  return (sums_[hi] - sums_[lo]) / static_cast<double>(hi - lo);
}

HostProbe& host_probe() {
  static HostProbe probe;
  return probe;
}

}  // namespace perfbench
