#include "cube/sbt.hpp"

#include <stdexcept>

namespace hkws::cube {

SpanningBinomialTree::SpanningBinomialTree(const Hypercube& cube, CubeId root)
    : root_(root), free_(cube.full_mask() & ~root) {
  if (!cube.valid(root))
    throw std::invalid_argument("SBT: root outside the cube");
}

SpanningBinomialTree::SpanningBinomialTree(CubeId root, std::uint64_t free_mask)
    : root_(root), free_(free_mask) {
  if ((root & free_mask) != 0)
    throw std::invalid_argument("SBT: free_mask intersects the root");
}

std::optional<CubeId> SpanningBinomialTree::parent(CubeId v) const {
  const std::uint64_t diff = v ^ root_;
  if (diff == 0) return std::nullopt;
  // Clear the lowest differing bit: one step toward the root.
  return v ^ (1ULL << lowest_set_bit(diff));
}

std::uint64_t SpanningBinomialTree::child_mask(CubeId v) const {
  // Free dimensions strictly below v's lowest root-differing bit; all free
  // dimensions for the root itself (p = -1 case of Def. 3.2).
  const std::uint64_t diff = v ^ root_;
  return diff == 0 ? free_ : free_ & low_mask(lowest_set_bit(diff));
}

std::vector<int> SpanningBinomialTree::child_dimensions(CubeId v) const {
  const std::uint64_t eligible = child_mask(v);
  std::vector<int> dims;
  dims.reserve(static_cast<std::size_t>(popcount64(eligible)));
  for_each_set_bit(eligible, [&](int i) { dims.push_back(i); });
  return dims;
}

std::vector<CubeId> SpanningBinomialTree::children(CubeId v) const {
  std::vector<CubeId> out;
  for (int d : child_dimensions(v)) out.push_back(v | (1ULL << d));
  return out;
}

std::vector<CubeId> SpanningBinomialTree::bfs_order() const {
  // Exactly the paper's queue discipline, with the output as the queue: the
  // node under the read cursor appends its children in ascending dimension
  // (the root first, so its neighbors lead).
  std::vector<CubeId> order;
  order.reserve(size());
  order.push_back(root_);
  for (std::size_t next = 0; next < order.size(); ++next) {
    const CubeId v = order[next];
    for_each_set_bit(child_mask(v),
                     [&](int d) { order.push_back(v | (1ULL << d)); });
  }
  return order;
}

std::vector<std::vector<CubeId>> SpanningBinomialTree::levels() const {
  std::vector<std::vector<CubeId>> by_depth(
      static_cast<std::size_t>(popcount64(free_)) + 1);
  for (CubeId v : bfs_order())
    by_depth[static_cast<std::size_t>(depth(v))].push_back(v);
  return by_depth;
}

std::vector<CubeId> SpanningBinomialTree::bottom_up_order() const {
  std::vector<CubeId> order;
  order.reserve(size());
  const auto by_depth = levels();
  for (auto it = by_depth.rbegin(); it != by_depth.rend(); ++it)
    for (CubeId v : *it) order.push_back(v);
  return order;
}

}  // namespace hkws::cube
