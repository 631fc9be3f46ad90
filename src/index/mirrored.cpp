#include "index/mirrored.hpp"

#include <memory>
#include <set>

#include "obs/windowed.hpp"

namespace hkws::index {

OverlayIndex::Config MirroredIndex::mirror_config(OverlayIndex::Config cfg) {
  cfg.hash_seed = mix64(cfg.hash_seed ^ 0x5ec0dc0beULL);
  cfg.ring_salt = mix64(cfg.ring_salt ^ 0x5ec0dc0beULL);
  // Hot-cell replication is a primary-cube concern: mirror traffic exists
  // to cover primary failures, and replicating it too would double the
  // replica footprint for cells that are only hot on one salt anyway.
  cfg.hot.enabled = false;
  return cfg;
}

MirroredIndex::MirroredIndex(dht::Dolr& dolr, OverlayIndex::Config cfg)
    : primary_(std::make_unique<OverlayIndex>(dolr, cfg)),
      mirror_(std::make_unique<OverlayIndex>(dolr, mirror_config(cfg))) {}

void MirroredIndex::publish(sim::EndpointId publisher, ObjectId object,
                            const KeywordSet& keywords,
                            OverlayIndex::PublishCallback done) {
  withdrawing_.erase({object, keywords});
  primary_->publish(
      publisher, object, keywords,
      [this, publisher, object, keywords, done = std::move(done)](
          const OverlayIndex::PublishResult& r) {
        // First copy: the mirror entry rides one extra routed message.
        if (r.indexed) mirror_->reindex(publisher, object, keywords);
        if (done) done(r);
      });
}

void MirroredIndex::withdraw(sim::EndpointId publisher, ObjectId object,
                             const KeywordSet& keywords,
                             OverlayIndex::WithdrawCallback done) {
  withdrawing_.insert({object, keywords});
  primary_->withdraw(
      publisher, object, keywords,
      [this, publisher, object, keywords, done = std::move(done)](
          const OverlayIndex::WithdrawResult& r) {
        if (r.index_removed)
          mirror_->deindex(publisher, object, keywords);
        else
          withdrawing_.erase({object, keywords});  // other copies remain
        if (done) done(r);
      });
}

SearchResult MirroredIndex::merge(const SearchResult& a,
                                  const SearchResult& b) {
  SearchResult merged;
  std::set<ObjectId> seen;
  for (const auto* part : {&a, &b}) {
    for (const Hit& h : part->hits)
      if (seen.insert(h.object).second) merged.hits.push_back(h);
  }
  merged.stats.nodes_contacted =
      a.stats.nodes_contacted + b.stats.nodes_contacted;
  merged.stats.messages = a.stats.messages + b.stats.messages;
  merged.stats.rounds = a.stats.rounds + b.stats.rounds;
  merged.stats.levels = a.stats.levels + b.stats.levels;
  merged.stats.cache_hit = a.stats.cache_hit && b.stats.cache_hit;
  merged.stats.complete = a.stats.complete || b.stats.complete;
  merged.stats.retransmits = a.stats.retransmits + b.stats.retransmits;
  merged.stats.coalesced_batches =
      a.stats.coalesced_batches + b.stats.coalesced_batches;
  merged.stats.coalesced_visits =
      a.stats.coalesced_visits + b.stats.coalesced_visits;
  merged.stats.failovers = a.stats.failovers + b.stats.failovers;
  merged.stats.degraded = a.stats.degraded || b.stats.degraded;
  // Either cube answering in full serves the query; failed only when both
  // traversals gave up (the whole point of mirroring, §3.4).
  merged.stats.failed = a.stats.failed && b.stats.failed;
  if (a.stats.failed != b.stats.failed) {
    // Exactly one cube gave up: the other served the query alone. That is
    // the primary-miss -> mirror-hit failover (or its converse) — the
    // availability event degraded-mode observability is about.
    ++merged.stats.failovers;
    merged.stats.degraded = true;
    ++failovers_;
    net::Transport& net = primary_->dolr().overlay().transport();
    net.metrics().count("kws.mirror_failover");
    if (windows_ != nullptr)
      windows_->count(net.now(), "mirror.failover");
  }
  return merged;
}

std::uint64_t MirroredIndex::superset_search(
    sim::EndpointId searcher, const KeywordSet& query, std::size_t threshold,
    SearchStrategy strategy, OverlayIndex::SearchCallback done) {
  // Fan out to both cubes; merge when both have answered.
  struct Pending {
    SearchResult first;
    bool have_first = false;
    OverlayIndex::SearchCallback done;
  };
  const std::uint64_t ticket = next_ticket_++;
  auto pending = std::make_shared<Pending>();
  pending->done = std::move(done);
  auto on_result = [this, pending, threshold, ticket](const SearchResult& r) {
    if (!pending->have_first) {
      pending->first = r;
      pending->have_first = true;
      return;
    }
    active_.erase(ticket);
    SearchResult merged = merge(pending->first, r);
    // min(t, |O_K|) semantics survive the union.
    if (threshold != 0 && merged.hits.size() > threshold)
      merged.hits.resize(threshold);
    pending->done(merged);
  };
  const std::uint64_t a =
      primary_->superset_search(searcher, query, threshold, strategy,
                                on_result);
  const std::uint64_t b =
      mirror_->superset_search(searcher, query, threshold, strategy,
                               on_result);
  active_.emplace(ticket, std::make_pair(a, b));
  return ticket;
}

bool MirroredIndex::cancel(std::uint64_t ticket) {
  const auto it = active_.find(ticket);
  if (it == active_.end()) return false;
  const auto [a, b] = it->second;
  active_.erase(it);
  // Either traversal may have finished on its own already; cancelling the
  // other is what guarantees the merged callback can no longer fire.
  primary_->cancel(a);
  mirror_->cancel(b);
  return true;
}

void MirroredIndex::pin_search(sim::EndpointId searcher,
                               const KeywordSet& keywords,
                               OverlayIndex::SearchCallback done) {
  struct Pending {
    SearchResult first;
    bool have_first = false;
    OverlayIndex::SearchCallback done;
  };
  auto pending = std::make_shared<Pending>();
  pending->done = std::move(done);
  auto on_result = [this, pending](const SearchResult& r) {
    if (!pending->have_first) {
      pending->first = r;
      pending->have_first = true;
      return;
    }
    pending->done(merge(pending->first, r));
  };
  primary_->pin_search(searcher, keywords, on_result);
  mirror_->pin_search(searcher, keywords, on_result);
}

std::uint64_t MirroredIndex::repair_placement() {
  return primary_->repair_placement() + mirror_->repair_placement();
}

std::uint64_t MirroredIndex::repair_placement(std::size_t max_entries) {
  const std::uint64_t a = primary_->repair_placement(max_entries);
  const std::uint64_t b = mirror_->repair_placement(
      max_entries > a ? max_entries - static_cast<std::size_t>(a) : 0);
  return a + b;
}

std::size_t MirroredIndex::misplaced_entries() const {
  return primary_->misplaced_entries() + mirror_->misplaced_entries();
}

void MirroredIndex::purge_dead() {
  primary_->purge_dead();
  mirror_->purge_dead();
}

std::size_t MirroredIndex::missing_entries(const OverlayIndex& src,
                                           const OverlayIndex& dst) const {
  const dht::Overlay& overlay = src.dolr().overlay();
  std::size_t missing = 0;
  src.for_each_entry([&](cube::CubeId, const KeywordSet& k, ObjectId o,
                         sim::EndpointId holder) {
    // Entries still held for a dead peer are about to be purged; only a
    // live copy can seed the other cube.
    if (!overlay.is_live(holder)) return;
    if (!dst.has_entry(k, o) && !withdrawing(o, k)) ++missing;
  });
  return missing;
}

std::uint64_t MirroredIndex::resync(std::size_t max_entries) {
  struct Seed {
    sim::EndpointId holder;
    ObjectId object;
    KeywordSet keywords;
    bool into_mirror;
  };
  // A tombstone has done its job once the mirror's deindex has landed.
  std::erase_if(withdrawing_, [this](const auto& w) {
    return !primary_->has_entry(w.second, w.first) &&
           !mirror_->has_entry(w.second, w.first);
  });
  std::vector<Seed> seeds;
  const auto collect = [&](const OverlayIndex& src, const OverlayIndex& dst,
                           bool into_mirror) {
    const dht::Overlay& overlay = src.dolr().overlay();
    src.for_each_entry([&](cube::CubeId, const KeywordSet& k, ObjectId o,
                           sim::EndpointId holder) {
      if (seeds.size() >= max_entries) return;
      if (!overlay.is_live(holder)) return;
      if (dst.has_entry(k, o) || withdrawing(o, k)) return;
      seeds.push_back(Seed{holder, o, k, into_mirror});
    });
  };
  collect(*primary_, *mirror_, true);
  collect(*mirror_, *primary_, false);
  for (const Seed& s : seeds) {
    // Anti-entropy from the survivor: the peer still holding the entry
    // routes a reindex into the cube that lost it.
    OverlayIndex& dst = s.into_mirror ? *mirror_ : *primary_;
    dst.reindex(s.holder, s.object, s.keywords);
  }
  if (!seeds.empty())
    primary_->dolr().overlay().transport().metrics().count("kws.resync",
                                                     seeds.size());
  return seeds.size();
}

std::size_t MirroredIndex::resync_backlog() const {
  return missing_entries(*primary_, *mirror_) +
         missing_entries(*mirror_, *primary_);
}

}  // namespace hkws::index
