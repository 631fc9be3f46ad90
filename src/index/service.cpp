#include "index/service.hpp"

#include <stdexcept>
#include <utility>

namespace hkws::index {

KeywordSearchService::KeywordSearchService(dht::Overlay& overlay,
                                           Options options)
    : dolr_(overlay, dht::Dolr::Config{options.replication_factor}) {
  if (options.mirror_index) {
    mirrored_ = std::make_unique<MirroredIndex>(dolr_, options);
    mirrored_->set_windows(options.windows);
  } else {
    plain_ = std::make_unique<OverlayIndex>(dolr_, options);
  }
}

OverlayIndex& KeywordSearchService::primary_index() {
  return mirrored_ ? mirrored_->primary() : *plain_;
}

const OverlayIndex& KeywordSearchService::primary_index() const {
  return mirrored_ ? mirrored_->primary() : *plain_;
}

const OverlayIndex* KeywordSearchService::mirror_index() const {
  return mirrored_ ? &mirrored_->mirror() : nullptr;
}

std::uint64_t KeywordSearchService::replication_step(std::size_t max_entries) {
  return primary_index().replication_step(max_entries);
}

std::size_t KeywordSearchService::replication_backlog() const {
  return primary_index().replication_backlog();
}

void KeywordSearchService::publish(sim::EndpointId peer, ObjectId object,
                                   const KeywordSet& keywords,
                                   OverlayIndex::PublishCallback done) {
  if (mirrored_)
    mirrored_->publish(peer, object, keywords, std::move(done));
  else
    plain_->publish(peer, object, keywords, std::move(done));
}

void KeywordSearchService::withdraw(sim::EndpointId peer, ObjectId object,
                                    const KeywordSet& keywords,
                                    OverlayIndex::WithdrawCallback done) {
  if (mirrored_)
    mirrored_->withdraw(peer, object, keywords, std::move(done));
  else
    plain_->withdraw(peer, object, keywords, std::move(done));
}

KeywordSearchService::Answer KeywordSearchService::decorate(
    SearchResult result, const KeywordSet& query,
    const SearchOptions& options) const {
  Answer answer;
  answer.stats = result.stats;
  answer.hits = std::move(result.hits);
  order_hits(answer.hits, query, options.order);
  if (options.refinement_categories != 0)
    answer.refinements = sample_refinements(answer.hits, query, 3,
                                            options.refinement_categories);
  if (options.suggest_expansion)
    answer.expansion = expand_query(answer.hits, query);
  return answer;
}

void KeywordSearchService::pin(sim::EndpointId searcher,
                               const KeywordSet& keywords,
                               AnswerCallback done) {
  auto wrap = [this, keywords, done = std::move(done)](
                  const SearchResult& r) {
    done(decorate(r, keywords, SearchOptions{}));
  };
  if (mirrored_)
    mirrored_->pin_search(searcher, keywords, std::move(wrap));
  else
    plain_->pin_search(searcher, keywords, std::move(wrap));
}

std::uint64_t KeywordSearchService::search(sim::EndpointId searcher,
                                           const KeywordSet& query,
                                           const SearchOptions& options,
                                           AnswerCallback done) {
  auto wrap = [this, query, options, done = std::move(done)](
                  const SearchResult& r) {
    done(decorate(r, query, options));
  };
  if (mirrored_)
    return mirrored_->superset_search(searcher, query, options.limit,
                                      options.strategy, std::move(wrap));
  return plain_->superset_search(searcher, query, options.limit,
                                 options.strategy, std::move(wrap));
}

bool KeywordSearchService::cancel_search(std::uint64_t ticket) {
  return mirrored_ ? mirrored_->cancel(ticket) : plain_->cancel(ticket);
}

std::uint64_t KeywordSearchService::open_browse(sim::EndpointId searcher,
                                                const KeywordSet& query) {
  return primary_index().open_cumulative(searcher, query);
}

void KeywordSearchService::browse_next(std::uint64_t session,
                                       std::size_t page_size,
                                       AnswerCallback done) {
  primary_index().cumulative_next(
      session, page_size,
      [this, done = std::move(done)](const SearchResult& r) {
        Answer answer;
        answer.hits = r.hits;
        answer.stats = r.stats;
        done(answer);
      });
}

bool KeywordSearchService::browse_done(std::uint64_t session) const {
  return mirrored_ ? mirrored_->primary().cumulative_exhausted(session)
                   : plain_->cumulative_exhausted(session);
}

void KeywordSearchService::close_browse(std::uint64_t session) {
  primary_index().close_cumulative(session);
}

void KeywordSearchService::resolve(sim::EndpointId reader, ObjectId object,
                                   dht::Dolr::ReadCallback done) {
  dolr_.read(reader, object, std::move(done));
}

std::uint64_t KeywordSearchService::repair() {
  std::uint64_t moved = 0;
  if (mirrored_) {
    mirrored_->purge_dead();
    moved += mirrored_->repair_placement();
  } else {
    plain_->purge_dead();
    moved += plain_->repair_placement();
  }
  dolr_.repair_replicas();
  return moved;
}

std::uint64_t KeywordSearchService::repair_step(std::size_t entry_budget,
                                                std::size_t ref_budget) {
  std::uint64_t work = 0;
  if (mirrored_) {
    mirrored_->purge_dead();
    const std::uint64_t moved = mirrored_->repair_placement(entry_budget);
    work += moved;
    const std::size_t left =
        entry_budget > moved ? entry_budget - static_cast<std::size_t>(moved)
                             : 0;
    work += mirrored_->resync(left);
  } else {
    plain_->purge_dead();
    work += plain_->repair_placement(entry_budget);
  }
  work += dolr_.repair_replicas(ref_budget);
  return work;
}

std::size_t KeywordSearchService::repair_backlog() const {
  std::size_t backlog = dolr_.replication_backlog();
  if (mirrored_)
    backlog += mirrored_->misplaced_entries() + mirrored_->resync_backlog();
  else
    backlog += plain_->misplaced_entries() + plain_->replication_backlog();
  return backlog;
}

}  // namespace hkws::index
