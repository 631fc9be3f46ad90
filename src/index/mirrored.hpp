// Index replication via a secondary hypercube (paper §3.4: "replication can
// be done ... by building a secondary hypercube"). The mirror uses an
// independent keyword hash h' and an independent logical-to-physical map g',
// so the mirror entry of an object lives on a different peer than its
// primary entry with overwhelming probability; a single peer failure can
// therefore never silence a keyword set.
//
// Write path: the primary publish creates the DOLR reference and primary
// entry; the mirror entry rides one extra routed message. Read path:
// mirrored searches run the protocol on both cubes and union the results —
// roughly twice the cost, in exchange for single-fault tolerance of the
// index itself (reference replication is the DOLR's separate concern).
#pragma once

#include <memory>
#include <set>
#include <unordered_map>
#include <utility>

#include "index/overlay_index.hpp"

namespace hkws::obs {
class WindowedMetrics;
}

namespace hkws::index {

class MirroredIndex {
 public:
  /// @param cfg  primary cube configuration; the mirror derives its own
  ///             hash seed and placement salt from it.
  MirroredIndex(dht::Dolr& dolr, OverlayIndex::Config cfg);

  /// Publishes the reference (DOLR) and, for first copies, both index
  /// entries. The callback reports the primary's result.
  void publish(sim::EndpointId publisher, ObjectId object,
               const KeywordSet& keywords,
               OverlayIndex::PublishCallback done = nullptr);

  /// Withdraws the copy; on last-copy removal both entries are deleted.
  void withdraw(sim::EndpointId publisher, ObjectId object,
                const KeywordSet& keywords,
                OverlayIndex::WithdrawCallback done = nullptr);

  /// Superset search over both cubes; hits are unioned by object id. The
  /// reported stats are the sums; `complete` holds if either traversal was
  /// complete (that is the availability win). Returns a ticket usable with
  /// cancel() while either traversal is still in flight.
  std::uint64_t superset_search(sim::EndpointId searcher,
                                const KeywordSet& query,
                                std::size_t threshold, SearchStrategy strategy,
                                OverlayIndex::SearchCallback done);

  /// Abandons both in-flight traversals of a superset search; the callback
  /// is never invoked. Returns false if the ticket already completed.
  bool cancel(std::uint64_t ticket);

  /// Pin search over both cubes, unioned.
  void pin_search(sim::EndpointId searcher, const KeywordSet& keywords,
                  OverlayIndex::SearchCallback done);

  /// Churn maintenance for both cubes.
  std::uint64_t repair_placement();
  std::uint64_t repair_placement(std::size_t max_entries);
  std::size_t misplaced_entries() const;
  void purge_dead();

  /// Anti-entropy between the cubes: for up to `max_entries` entries that
  /// one cube holds (at a live peer) and the other lost with a failed peer,
  /// issues a routed reindex into the missing side. Idempotent; repeated
  /// budgeted calls converge until both cubes index the same entry set.
  /// Entries of a withdraw in progress are skipped (see withdrawing_).
  /// Returns reindex messages issued.
  std::uint64_t resync(std::size_t max_entries);

  /// Entries currently present in one cube but missing from the other —
  /// the mirror-resync backlog the maintenance plane drains. Entries of a
  /// withdraw in progress are not backlog.
  std::size_t resync_backlog() const;

  /// Failovers observed at merge time: searches where exactly one cube
  /// failed and the other served the query alone (primary-miss ->
  /// mirror-hit and vice versa). Cumulative; also counted into the
  /// "kws.mirror_failover" network metric and, when set_windows() was
  /// called, the "mirror.failover" windowed counter.
  std::uint64_t failover_count() const noexcept { return failovers_; }

  /// Installs a windowed-metrics sink for per-window failover observability
  /// (nullptr to remove; not owned, must outlive this object).
  void set_windows(obs::WindowedMetrics* windows) { windows_ = windows; }

  OverlayIndex& primary() noexcept { return *primary_; }
  OverlayIndex& mirror() noexcept { return *mirror_; }
  const OverlayIndex& primary() const noexcept { return *primary_; }
  const OverlayIndex& mirror() const noexcept { return *mirror_; }

 private:
  static OverlayIndex::Config mirror_config(OverlayIndex::Config cfg);
  /// Merges two finished results (union by object id, summed costs);
  /// detects and counts single-cube failovers.
  SearchResult merge(const SearchResult& a, const SearchResult& b);
  /// Entries `src` holds at live peers that `dst` does not index, less
  /// those of a withdraw in progress.
  std::size_t missing_entries(const OverlayIndex& src,
                              const OverlayIndex& dst) const;
  bool withdrawing(ObjectId object, const KeywordSet& keywords) const {
    return !withdrawing_.empty() && withdrawing_.contains({object, keywords});
  }

  std::unique_ptr<OverlayIndex> primary_;
  std::unique_ptr<OverlayIndex> mirror_;
  obs::WindowedMetrics* windows_ = nullptr;
  std::uint64_t failovers_ = 0;
  /// In-flight superset tickets -> the two underlying request ids.
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
      active_;
  /// Withdraw tombstones. A withdraw deletes the primary entry first and
  /// the mirror entry one fire-and-forget deindex later; in between, the
  /// cubes disagree, and a resync would copy the mirror entry back into
  /// the primary, reviving the withdrawn object. Set when the withdraw
  /// starts; cleared when it removed no index entry, once neither cube
  /// holds the entry any more, or when the object is published again.
  std::set<std::pair<ObjectId, KeywordSet>> withdrawing_;
  std::uint64_t next_ticket_ = 1;
};

}  // namespace hkws::index
