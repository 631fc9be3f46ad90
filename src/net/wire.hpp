// Binary wire codec for the protocol of docs/PROTOCOL.md ("Wire format"
// section): a compact, versioned, length-prefixed frame for every message
// kind the system puts on a wire — the DOLR reference service (`dolr.*`),
// keyword-index maintenance and search (`kws.*`, including the VisitBatch
// fast-path kinds), the physical hypercube (`hc.*`), overlay maintenance
// (`dht.*`), and the peerd front-end pair (`fe.*`).
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//   0       2     magic 0x4B48 ("HK")
//   2       1     version (kWireVersion)
//   3       1     reserved (0)
//   4       2     kind id (MsgKind)
//   6       2     reserved (0)
//   8       4     body length in bytes (<= kMaxBody)
//   12      n     body — kind-specific fields, see the payload structs
//
// Field encodings: u8/u16/u32/u64 fixed-width little-endian; strings and
// vectors are length-prefixed (u32 count, then elements). Strings cap at
// kMaxString bytes, collections at kMaxCount elements.
//
// Decode discipline — malformed input is DATA, not a programming error:
// every decode path returns std::nullopt on any violation (bad magic,
// unknown version or kind, truncation, oversized length prefix, trailing
// garbage) and never throws, crashes, or allocates memory beyond a small
// multiple of the input size. Length prefixes are validated against the
// bytes actually present *before* any allocation, so a hostile 4-billion
// count costs nothing. The fuzz corpus in tests/test_wire.cpp holds this
// contract under ASan/UBSan.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace hkws::net {

inline constexpr std::uint16_t kWireMagic = 0x4B48;  // "HK"
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kWireHeaderSize = 12;
inline constexpr std::size_t kMaxBody = 1u << 24;    // 16 MiB per frame
inline constexpr std::size_t kMaxString = 1u << 16;  // per keyword/label
inline constexpr std::size_t kMaxCount = 1u << 20;   // per collection

/// Every message kind with a wire identity. Values are the on-wire ids —
/// append only, never renumber (the version byte covers layout changes).
enum class MsgKind : std::uint16_t {
  kOpaque = 0,  ///< unregistered kind; the envelope carries its label

  // DOLR reference service (paper §2.1).
  kDolrInsert = 1,
  kDolrReplicate = 2,
  kDolrDelete = 3,
  kDolrUnreplicate = 4,
  kDolrRead = 5,
  kDolrReply = 6,

  // Keyword-index maintenance (paper §3.3).
  kKwsInsert = 16,
  kKwsDelete = 17,

  // Pin search.
  kKwsPin = 24,
  kKwsPinReply = 25,

  // Superset search, top-down protocol.
  kKwsTQuery = 32,
  kKwsTCont = 33,
  kKwsTStop = 34,
  kKwsResults = 35,
  kKwsDone = 36,
  kKwsSReply = 37,

  // Co-host visit coalescing (level-parallel fast path).
  kKwsVisitBatch = 40,
  kKwsBatchResults = 41,
  kKwsBatchReply = 42,

  // Cumulative search.
  kKwsCOpen = 48,
  kKwsCNext = 49,
  kKwsCQuery = 50,
  kKwsCCont = 51,
  kKwsCResults = 52,
  kKwsCDone = 53,

  // Physical hypercube (paper §3.2).
  kHcInsert = 64,
  kHcDelete = 65,
  kHcPin = 66,
  kHcPinReply = 67,
  kHcSQuery = 68,
  kHcResults = 69,
  kHcSDone = 70,
  kHcDone = 71,

  // Overlay maintenance.
  kDhtJoin = 80,
  kDhtFixFinger = 81,

  // peerd front-end protocol (tools/peerd).
  kFeQuery = 96,
  kFeReply = 97,

  // Transport envelope (TcpTransport framing; carries any inner kind).
  kEnvelope = 128,
};

/// Wire name of a kind — exactly the `msg.<kind>` metrics label of
/// docs/PROTOCOL.md. Returns "" for kOpaque and unknown values.
const char* kind_name(MsgKind kind);

/// Inverse of kind_name. Unregistered labels (ad-hoc test kinds,
/// "maint.ping", ...) map to nullopt; the envelope then carries the label
/// inline as an opaque kind.
std::optional<MsgKind> kind_of(const std::string& name);

// --- Payload structs --------------------------------------------------------
//
// One struct per field layout; several kinds share a layout (the kind id in
// the frame header disambiguates). Field meaning per kind is documented in
// docs/PROTOCOL.md's tables.

/// One search hit: the object and its full keyword set (ranking needs the
/// keywords; see index::Hit).
struct WireHit {
  std::uint64_t object = 0;
  std::vector<std::string> keywords;
  bool operator==(const WireHit&) const = default;
};

/// dolr.insert / dolr.replicate / dolr.delete / dolr.unreplicate: one
/// object reference (sigma, holder) plus its ring key.
struct RefMsg {
  std::uint64_t key = 0;     ///< L(sigma)
  std::uint64_t object = 0;  ///< sigma
  std::uint64_t holder = 0;  ///< endpoint holding the copy
  bool operator==(const RefMsg&) const = default;
};

/// dolr.read: resolve an object to its holder list.
struct ReadMsg {
  std::uint64_t object = 0;
  std::uint64_t reader = 0;  ///< endpoint the reply goes to
  bool operator==(const ReadMsg&) const = default;
};

/// dolr.reply: the holder list.
struct HoldersMsg {
  std::uint64_t object = 0;
  std::vector<std::uint64_t> holders;
  bool operator==(const HoldersMsg&) const = default;
};

/// kws.insert / kws.delete / hc.insert / hc.delete: one index entry
/// <keywords, object>. `request`/`publisher` are 0 for fire-and-forget
/// inserts; a guarded publish (PeerSlice over a lossy wire) sets both so
/// the owner can acknowledge with kws.done back to the publisher.
struct EntryMsg {
  std::uint64_t object = 0;
  std::vector<std::string> keywords;
  std::uint64_t request = 0;    ///< publish-ack correlation id (0 = no ack)
  std::uint64_t publisher = 0;  ///< endpoint the ack goes to
  bool operator==(const EntryMsg&) const = default;
};

/// kws.pin / hc.pin: exact-set lookup.
struct PinMsg {
  std::uint64_t request = 0;
  std::uint64_t searcher = 0;
  std::vector<std::string> keywords;
  bool operator==(const PinMsg&) const = default;
};

/// kws.pin_reply / kws.results / kws.c_results / hc.pin_reply / hc.results:
/// one node's result batch, shipped directly to the searcher.
struct HitsMsg {
  std::uint64_t request = 0;
  std::uint64_t node = 0;  ///< contributing cube node (0 for pin replies)
  std::vector<WireHit> hits;
  bool operator==(const HitsMsg&) const = default;
};

/// kws.t_query / kws.c_query / hc.s_query: visit a cube node for a query.
/// `offset` is the cumulative-search consumption offset (0 elsewhere);
/// `want` the remaining result credit (0 = unlimited).
struct QueryMsg {
  std::uint64_t request = 0;
  std::uint64_t node = 0;
  std::uint64_t searcher = 0;
  std::uint64_t want = 0;
  std::uint64_t offset = 0;
  std::vector<std::string> query;
  bool operator==(const QueryMsg&) const = default;
};

/// kws.t_cont / kws.t_stop / kws.c_cont / hc.s_done: per-node control
/// reply to the coordinator.
struct ControlMsg {
  std::uint64_t request = 0;
  std::uint64_t node = 0;
  std::uint64_t count = 0;  ///< matches found (c_cont: taken)
  bool stop = false;        ///< threshold met, stop exploring
  bool operator==(const ControlMsg&) const = default;
};

/// kws.done / kws.c_done / hc.done: search complete. `results_expected`
/// lets the searcher complete exactly under arbitrary reordering.
struct DoneMsg {
  std::uint64_t request = 0;
  std::uint64_t results_expected = 0;
  bool operator==(const DoneMsg&) const = default;
};

/// kws.s_reply: a split-overlay search completion, coordinator -> searcher.
/// Carries the assembled deterministic hit sequence (concatenated in visit
/// order at the coordinator, so it is byte-identical to the LogicalIndex
/// traversal regardless of message arrival order) plus the paper-unit cost
/// accounting of the traversal. Acknowledged by the searcher with kws.done
/// so the coordinator can retire its state under loss.
struct SearchReplyMsg {
  std::uint64_t request = 0;
  std::uint64_t nodes_contacted = 0;
  std::uint64_t messages = 0;
  std::uint64_t rounds = 0;
  std::uint64_t retransmits = 0;
  bool complete = false;
  bool failed = false;  ///< a protocol step exhausted its retry budget
  std::vector<WireHit> hits;
  bool operator==(const SearchReplyMsg&) const = default;
};

/// kws.visit_batch: visit these co-hosted cube nodes (one wire message
/// replacing one t_query per node).
struct VisitBatchMsg {
  std::uint64_t request = 0;
  std::uint64_t want = 0;
  std::vector<std::uint64_t> nodes;
  std::vector<std::string> query;
  bool operator==(const VisitBatchMsg&) const = default;
};

/// kws.batch_results: the round's matches, batched per logical node (empty
/// nodes ride free).
struct BatchResultsMsg {
  struct NodeBatch {
    std::uint64_t node = 0;
    std::vector<WireHit> hits;
    bool operator==(const NodeBatch&) const = default;
  };
  std::uint64_t request = 0;
  std::vector<NodeBatch> batches;
  bool operator==(const BatchResultsMsg&) const = default;
};

/// kws.batch_reply: per-node (count, verdict) control replies, merged.
struct BatchReplyMsg {
  struct NodeVerdict {
    std::uint64_t node = 0;
    std::uint64_t count = 0;
    bool stop = false;
    bool operator==(const NodeVerdict&) const = default;
  };
  std::uint64_t request = 0;
  std::vector<NodeVerdict> verdicts;
  bool operator==(const BatchReplyMsg&) const = default;
};

/// kws.c_open: open a cumulative browsing session at the root.
struct COpenMsg {
  std::uint64_t session = 0;
  std::uint64_t searcher = 0;
  std::vector<std::string> query;
  bool operator==(const COpenMsg&) const = default;
};

/// kws.c_next: fetch the next page.
struct CNextMsg {
  std::uint64_t session = 0;
  std::uint64_t count = 0;
  bool operator==(const CNextMsg&) const = default;
};

/// dht.join: locate the joiner's position from a bootstrap node.
struct JoinMsg {
  std::uint64_t joiner = 0;
  std::uint64_t bootstrap = 0;
  bool operator==(const JoinMsg&) const = default;
};

/// dht.fix_finger: repair one finger (Chord stabilization).
struct FixFingerMsg {
  std::uint64_t node = 0;
  std::uint32_t finger = 0;
  bool operator==(const FixFingerMsg&) const = default;
};

/// fe.query: a front-end superset query against a peerd shard.
struct FeQueryMsg {
  std::uint64_t threshold = 0;
  std::uint8_t strategy = 0;  ///< index::SearchStrategy value
  std::vector<std::string> keywords;
  bool operator==(const FeQueryMsg&) const = default;
};

/// fe.reply: a shard's answer — the deterministic hit sequence plus the
/// wire-message cost of serving it.
struct FeReplyMsg {
  bool complete = false;
  std::uint64_t messages = 0;
  std::vector<WireHit> hits;
  bool operator==(const FeReplyMsg&) const = default;
};

/// net.envelope: the socket-transport frame wrapped around every in-flight
/// protocol message. `inner_kind`/`label` identify the protocol kind for
/// accounting; `declared_bytes` is the protocol-level payload size (the
/// byte accounting of the cost model).
///
/// Two delivery modes share this frame (docs/PROTOCOL.md "Addressing &
/// delivery"):
///  * `payload` empty — legacy parked-handler mode: the envelope is an
///    addressed receipt; the delivery closure waits at the sender and is
///    redeemed by `msg_id` when the envelope returns off the socket. `pad`
///    zero bytes (capped by the transport) follow the fields so
///    serialization cost tracks the modeled message size.
///  * `payload` non-empty — cross-process mode: the bytes are a complete
///    encoded inner frame (header + body of `inner_kind`), decoded and
///    dispatched to the destination process's payload handler. No handler
///    is parked; `pad` is 0 (the payload itself is the serialization cost).
struct EnvelopeMsg {
  MsgKind inner_kind = MsgKind::kOpaque;
  std::string label;  ///< set when inner_kind == kOpaque
  std::uint64_t msg_id = 0;
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  std::uint64_t declared_bytes = 0;
  std::vector<std::uint8_t> payload;  ///< encoded inner frame ("" = parked)
  std::uint32_t pad = 0;  ///< padding bytes appended to the body
  bool operator==(const EnvelopeMsg&) const = default;
};

using WireMessage =
    std::variant<RefMsg, ReadMsg, HoldersMsg, EntryMsg, PinMsg, HitsMsg,
                 QueryMsg, ControlMsg, DoneMsg, SearchReplyMsg, VisitBatchMsg,
                 BatchResultsMsg, BatchReplyMsg, COpenMsg, CNextMsg, JoinMsg,
                 FixFingerMsg, FeQueryMsg, FeReplyMsg, EnvelopeMsg>;

// --- Encode / decode --------------------------------------------------------

/// Serializes one frame (header + body). The message's alternative must
/// match `kind`'s layout (checked; mismatch returns an empty vector, which
/// encode never otherwise produces).
std::vector<std::uint8_t> encode_frame(MsgKind kind, const WireMessage& msg);

/// Appends one frame to `out` (the append-into form of encode_frame, so a
/// sender can encode straight into a reused buffer). Returns false, leaving
/// `out` as it was, on a layout mismatch or an oversized body.
bool encode_frame_into(MsgKind kind, const WireMessage& msg,
                       std::vector<std::uint8_t>& out);

struct DecodedFrame {
  MsgKind kind = MsgKind::kOpaque;
  WireMessage msg;
  std::size_t frame_size = 0;  ///< header + body bytes consumed
};

/// Parses one complete frame from the front of [data, data+len). Returns
/// nullopt on any malformation; never throws. Extra bytes after the frame
/// are ignored (frame_size tells the caller where the next frame starts).
std::optional<DecodedFrame> decode_frame(const std::uint8_t* data,
                                         std::size_t len);

/// Stream framing helper: how many bytes the frame at the front of the
/// buffer occupies in total. Returns 0 if the header is incomplete (read
/// more), nullopt if the header is malformed (drop the connection).
std::optional<std::size_t> frame_size(const std::uint8_t* data,
                                      std::size_t len);

}  // namespace hkws::net
