// Document retrieval over the keyword-search layer (one of the paper's
// Fig. 2 application layers): free-text snippets are tokenized into
// keyword sets (workload/text.hpp) and served through the high-level
// KeywordSearchService facade — publish, ranked search with refinement
// advice, browse, resolve.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "dht/chord_network.hpp"
#include "index/service.hpp"
#include "workload/text.hpp"

namespace {

using namespace hkws;

struct Document {
  ObjectId id;
  const char* title;
  const char* body;
};

std::vector<Document> library() {
  return {
      {1, "Chord",
       "Chord: a scalable peer-to-peer lookup service for internet "
       "applications, using consistent hashing on a ring."},
      {2, "Pastry",
       "Pastry: scalable, decentralized object location and routing for "
       "large-scale peer-to-peer systems with prefix routing."},
      {3, "CAN",
       "A scalable content-addressable network partitions a d-dimensional "
       "torus among peers."},
      {4, "HyperCuP",
       "HyperCuP: hypercubes, ontologies and efficient search on "
       "peer-to-peer networks."},
      {5, "Inverted index survey",
       "Inverted index structures for keyword search in information "
       "retrieval systems."},
      {6, "This paper",
       "Keyword search in DHT-based peer-to-peer networks with a hypercube "
       "index over keyword sets."},
  };
}

}  // namespace

int main() {
  sim::EventQueue clock;
  sim::Network net(clock);
  auto overlay = dht::ChordNetwork::build(net, 32, {});
  index::KeywordSearchService::Options options;
  options.r = 8;
  options.replication_factor = 2;
  index::KeywordSearchService service(overlay, options);

  // Publish each document under the keyword set of its title + body.
  for (const auto& doc : library()) {
    const KeywordSet keywords = workload::keywords_from_text(
        std::string(doc.title) + " " + doc.body);
    std::printf("indexing #%llu %-22s [%s]\n",
                static_cast<unsigned long long>(doc.id), doc.title,
                keywords.to_string().c_str());
    service.publish(1 + doc.id % 32, doc.id, keywords);
  }
  clock.run();

  // A ranked search with refinement advice.
  const KeywordSet query = workload::keywords_from_text("peer-to-peer search");
  index::KeywordSearchService::SearchOptions opts;
  opts.order = index::RankingPreference::kGeneralFirst;
  opts.refinement_categories = 4;
  opts.suggest_expansion = true;
  std::optional<index::KeywordSearchService::Answer> answer;
  service.search(5, query, opts,
                 [&](const index::KeywordSearchService::Answer& a) {
                   answer = a;
                 });
  clock.run();

  std::printf("\nquery [%s]: %zu documents (%zu nodes contacted)\n",
              query.to_string().c_str(), answer->hits.size(),
              answer->stats.nodes_contacted);
  for (const auto& h : answer->hits)
    std::printf("  doc #%llu (+%zu extra keywords)\n",
                static_cast<unsigned long long>(h.object),
                h.keywords.size() - query.size());
  for (const auto& r : answer->refinements)
    std::printf("  refine: +[%s] (%zu docs)\n", r.extra.to_string().c_str(),
                r.category_size);
  if (answer->expansion)
    std::printf("  suggested narrower query: [%s]\n",
                answer->expansion->to_string().c_str());

  // Resolve a hit to its replica holders (the download step).
  service.resolve(5, answer->hits.front().object,
                  [](const dht::Dolr::ReadResult& r) {
                    std::printf("\ntop document held by %zu peer(s), %d "
                                "routing hops to resolve\n",
                                r.holders.size(), r.hops);
                  });
  clock.run();
  return 0;
}
