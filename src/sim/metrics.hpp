// Named counters and samples for experiment accounting: message counts per
// protocol type, bytes, hops, nodes contacted, etc. All experiment numbers
// the bench harnesses print flow through a Metrics instance.
//
// Sample series are exact by default (every observation retained). Long
// open-loop serving runs observe millions of latencies, so a series can
// instead be put into *bounded-reservoir* mode: at most `cap` observations
// are kept, replaced by uniform reservoir sampling (Vitter's algorithm R),
// while the observation count and sum — and therefore sample_mean() — stay
// exact. Percentiles computed from a reservoir are approximations whose
// accuracy grows with the cap.
//
// Counters live in one std::map, whose nodes never move. A caller that
// bumps the same counters on every message (the ledger, net/ledger.cpp)
// resolves each through slot() once per Metrics and then writes the map
// node directly: no lookup, no string built, and counter(), counters() and
// to_string() still read the live value.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"

namespace hkws::sim {

/// Simple registry of named monotonic counters and value samples.
class Metrics {
 public:
  /// Adds `delta` to counter `name` (creating it at zero).
  void count(const std::string& name, std::uint64_t delta = 1);

  /// Current value of counter `name` (0 if never touched).
  std::uint64_t counter(const std::string& name) const;

  /// Fixed slot ids per Metrics (see slot()).
  static constexpr std::size_t kSlots = 8;
  /// Counter-family slot ids per Metrics (see slot()).
  static constexpr std::size_t kSlotFamilies = 1;

  /// Storage of counter `name`, cached under `id` (< kSlots): the first
  /// call looks it up, creating it at zero like count(); later calls return
  /// the cached node. The caller must pair each id with one name.
  std::uint64_t& slot(std::size_t id, const char* name) {
    std::uint64_t*& cached = slots_.fixed[id];
    if (cached == nullptr) cached = &counters_[name];
    return *cached;
  }

  /// Storage of counter `prefix + key`, cached per key in family `id`
  /// (< kSlotFamilies), e.g. msg.<kind>. The caller must pair each family
  /// id with one prefix.
  std::uint64_t& slot(std::size_t id, const char* prefix,
                      const std::string& key) {
    auto& family = slots_.families[id];
    auto it = family.find(key);
    if (it == family.end())
      it = family.emplace(key, &counters_[prefix + key]).first;
    return *it->second;
  }

  /// Records one observation of the sampled series `name`.
  void observe(const std::string& name, double value);

  /// Stored observations of series `name` (empty if none). In reservoir
  /// mode this is a uniform subsample of everything observed; use
  /// sample_count() for the true observation count.
  const std::vector<double>& samples(const std::string& name) const;

  /// Total observations of series `name`, regardless of retention mode.
  std::uint64_t sample_count(const std::string& name) const;

  /// Exact mean of all observations (running sum, even in reservoir mode).
  double sample_mean(const std::string& name) const;

  /// Caps series `name` at `cap` retained observations (0 restores exact
  /// mode for future series growth; already-dropped values are gone). An
  /// existing oversized series is subsampled down to the cap.
  void set_reservoir(const std::string& name, std::size_t cap);

  /// Default cap applied to series created after this call (0 = exact).
  void set_default_reservoir(std::size_t cap) { default_cap_ = cap; }

  /// Resets every counter and sample series (per-series caps included; the
  /// default reservoir cap survives), drops every cached slot, and re-seeds
  /// the reservoir RNG, so a seeded run that resets between phases draws
  /// identical reservoir subsamples in every phase.
  void reset();

  const std::map<std::string, std::uint64_t>& counters() const noexcept {
    return counters_;
  }

  /// Human-readable dump, one "name = value" per line, sorted by name.
  std::string to_string() const;

 private:
  struct Series {
    std::vector<double> values;  ///< all (exact) or a reservoir subset
    std::uint64_t n = 0;         ///< total observations
    double sum = 0.0;            ///< exact running sum
    std::size_t cap = 0;         ///< 0 = exact mode
  };

  /// Cached counter nodes. They point into this Metrics' own map, so a
  /// copy starts empty and a move empties both sides: a copied or moved
  /// Metrics only ever counts into its own map.
  struct SlotCache {
    std::array<std::uint64_t*, kSlots> fixed{};
    std::array<std::unordered_map<std::string, std::uint64_t*>, kSlotFamilies>
        families;

    SlotCache() = default;
    SlotCache(const SlotCache&) noexcept {}
    SlotCache(SlotCache&& other) noexcept { other.clear(); }
    SlotCache& operator=(const SlotCache&) noexcept {
      clear();
      return *this;
    }
    SlotCache& operator=(SlotCache&& other) noexcept {
      clear();
      other.clear();
      return *this;
    }
    void clear() noexcept {
      fixed.fill(nullptr);
      for (auto& family : families) family.clear();
    }
  };

  static constexpr std::uint64_t kReservoirSeed = 0x9e3779b97f4a7c15ULL;

  std::map<std::string, std::uint64_t> counters_;
  SlotCache slots_;
  std::map<std::string, Series> series_;
  std::size_t default_cap_ = 0;
  Rng reservoir_rng_{kReservoirSeed};
};

}  // namespace hkws::sim
