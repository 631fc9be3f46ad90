// The generalized DHT model of paper §2.1, as an abstract interface.
//
// The paper deliberately does not fix the overlay: it requires only (i) an
// identifier space, (ii) a deterministic owner mapping with surrogate
// routing for absent IDs, and (iii) hop-by-hop routing between any two
// nodes. Everything above — the DOLR reference service and the hypercube
// keyword-search layer — is written against this interface, and the
// repository ships two implementations (Chord-style successor routing and
// Pastry-style prefix routing) to demonstrate the claim.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "dht/node_id.hpp"
#include "net/transport.hpp"
#include "sim/network.hpp"

namespace hkws::dht {

class OverlayNode;

class Overlay {
 public:
  virtual ~Overlay() = default;

  // --- Identifier space ---------------------------------------------------

  virtual const RingSpace& space() const = 0;

  /// Hashes an arbitrary label onto the identifier space.
  RingId key_of(std::string_view label, std::uint64_t salt) const;

  // --- Membership -----------------------------------------------------------

  virtual std::size_t size() const = 0;
  virtual bool is_live(sim::EndpointId endpoint) const = 0;
  virtual std::optional<RingId> ring_id_of(sim::EndpointId endpoint) const = 0;
  virtual sim::EndpointId endpoint_of(RingId id) const = 0;
  /// Live node ids in increasing order.
  virtual std::vector<RingId> live_ids() const = 0;

  /// Per-node state shared by all overlays (the DOLR reference store).
  virtual OverlayNode& state_of(RingId id) = 0;
  virtual const OverlayNode& state_of(RingId id) const = 0;

  // --- Ownership / routing ---------------------------------------------------

  /// Ground-truth owner of `key` under this overlay's surrogate rule
  /// (successor for Chord, numerically closest for Pastry). Global
  /// knowledge — used by experiments and tests, never by routed protocols.
  virtual RingId owner_of(RingId key) const = 0;

  struct RouteResult {
    RingId owner;  ///< node the message arrived at
    int hops;      ///< overlay hops traversed (0 if origin owns the key)
  };
  using RouteCallback = std::function<void(const RouteResult&)>;

  /// Routes a `kind` message of `payload_bytes` from the peer at `from`
  /// toward the owner of `key`, hop by hop using node-local state only;
  /// invokes `on_owner` at the owner as a simulated event.
  virtual void route(sim::EndpointId from, RingId key, std::string kind,
                     std::size_t payload_bytes, RouteCallback on_owner) = 0;

  /// Synchronous walk of the hop sequence route() would take; records
  /// each hop as a ledger charge under `kind` (net/ledger.hpp).
  virtual RouteResult lookup_now(RingId start, RingId key,
                                 const std::string& kind) = 0;

  /// Nodes that should hold replicas of content owned by `owner` (its
  /// successor list / leaf set), at most `count` of them, excluding owner.
  virtual std::vector<RingId> replica_targets(RingId owner,
                                              int count) const = 0;

  /// The message fabric this overlay routes over: the deterministic
  /// simulator (sim::Network) or the real socket runtime (net::TcpTransport).
  /// Every protocol layer above reaches the wire exclusively through this.
  virtual net::Transport& transport() = 0;
};

}  // namespace hkws::dht
