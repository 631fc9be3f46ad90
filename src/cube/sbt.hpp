// Spanning binomial trees (paper Def. 3.2) on H_r and on induced
// subhypercubes H_r(u). The tree rooted at `root` with free-dimension mask
// `free_mask` (= Zero(root) restricted to the cube for the induced tree,
// or all r bits for the full cube) has:
//
//   * parent(v)  = v with its lowest root-differing bit cleared,
//   * children(v) = v with one free bit below its lowest root-differing bit
//                   flipped on (all free bits if v == root),
//   * depth(v)   = Hamming(v, root).
//
// The superset-search protocol (§3.3) explores exactly this tree breadth-
// first; Lemma 3.2 (depth d => >= d extra keywords) rests on the depth
// property, which the tests verify exhaustively.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cube/hypercube.hpp"

namespace hkws::cube {

/// A spanning binomial tree over the nodes {root | any subset of free_mask}.
class SpanningBinomialTree {
 public:
  /// Tree over the subhypercube induced by `root` inside `cube`
  /// (free dimensions = Zero(root)).
  SpanningBinomialTree(const Hypercube& cube, CubeId root);

  /// Tree with an explicit free-dimension mask (must not intersect root).
  SpanningBinomialTree(CubeId root, std::uint64_t free_mask);

  CubeId root() const noexcept { return root_; }
  std::uint64_t free_mask() const noexcept { return free_; }

  /// Number of nodes in the tree (= subhypercube size).
  std::uint64_t size() const noexcept {
    return 1ULL << popcount64(free_);
  }

  /// Tree depth of v (Hamming distance to the root). v must be a member.
  int depth(CubeId v) const noexcept { return popcount64(v ^ root_); }

  bool is_member(CubeId v) const noexcept {
    return (v & ~(root_ | free_)) == 0 && (v & root_) == root_;
  }

  /// Parent in the tree; nullopt for the root.
  std::optional<CubeId> parent(CubeId v) const;

  /// Children of v, in descending dimension order (the order the paper's
  /// queue discipline generates them is ascending; callers choose).
  std::vector<CubeId> children(CubeId v) const;

  /// The paper's child rule: dimensions eligible for children of v are the
  /// free dimensions strictly below v's lowest root-differing bit
  /// (all free dimensions when v == root).
  std::vector<int> child_dimensions(CubeId v) const;

  /// Full breadth-first order starting at the root (the top-down search
  /// order; level by level, ascending dimension inside a level's expansion).
  std::vector<CubeId> bfs_order() const;

  /// Nodes grouped by depth: levels()[d] = all nodes at depth d.
  std::vector<std::vector<CubeId>> levels() const;

  /// Bottom-up order: deepest level first (the specific-objects-first
  /// ranking variant of §3.3).
  std::vector<CubeId> bottom_up_order() const;

 private:
  /// Bit mask of child_dimensions(v).
  std::uint64_t child_mask(CubeId v) const;

  CubeId root_;
  std::uint64_t free_;
};

}  // namespace hkws::cube
