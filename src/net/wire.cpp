#include "net/wire.hpp"

#include <cstring>
#include <unordered_map>

namespace hkws::net {
namespace {

// --- Primitives -------------------------------------------------------------

/// Appends to a caller-owned buffer, so a frame can be encoded straight
/// into an outbox.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void strings(const std::vector<std::string>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& s : v) str(s);
  }
  void u64s(const std::vector<std::uint64_t>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (std::uint64_t x : v) u64(x);
  }
  void bytes(const std::vector<std::uint8_t>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    out_.insert(out_.end(), v.begin(), v.end());
  }
  void zeros(std::size_t n) { out_.insert(out_.end(), n, 0); }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked reader. Every accessor validates the remaining length
/// first and latches a failure flag; after a failure all reads return
/// zero values and ok() is false. Length prefixes are checked against the
/// bytes actually remaining before anything is allocated.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len) : p_(data), end_(data + len) {}

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return *p_++;
  }
  std::uint16_t u16() {
    if (!need(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(p_[0] | (p_[1] << 8));
    p_ += 2;
    return v;
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p_[i]) << (8 * i);
    p_ += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p_[i]) << (8 * i);
    p_ += 8;
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (n > kMaxString || !need(n)) {
      fail();
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return s;
  }
  std::vector<std::string> strings() {
    const std::uint32_t n = u32();
    // Each element costs >= 4 bytes of length prefix, so a count larger
    // than remaining()/4 is provably a lie — reject before allocating.
    if (n > kMaxCount || n > remaining() / 4) {
      fail();
      return {};
    }
    std::vector<std::string> v;
    v.reserve(n);
    for (std::uint32_t i = 0; i < n && ok(); ++i) v.push_back(str());
    return v;
  }
  std::vector<std::uint64_t> u64s() {
    const std::uint32_t n = u32();
    if (n > kMaxCount || n > remaining() / 8) {
      fail();
      return {};
    }
    std::vector<std::uint64_t> v;
    v.reserve(n);
    for (std::uint32_t i = 0; i < n && ok(); ++i) v.push_back(u64());
    return v;
  }
  std::vector<std::uint8_t> bytes() {
    const std::uint32_t n = u32();
    if (n > kMaxBody || !need(n)) {
      fail();
      return {};
    }
    std::vector<std::uint8_t> v(p_, p_ + n);
    p_ += n;
    return v;
  }
  void skip(std::size_t n) {
    if (need(n)) p_ += n;
  }

  std::size_t remaining() const {
    return ok_ ? static_cast<std::size_t>(end_ - p_) : 0;
  }
  bool ok() const { return ok_; }
  void fail() { ok_ = false; }
  /// Frame bodies must be fully consumed: trailing garbage is a malformed
  /// frame, not padding.
  bool done() const { return ok_ && p_ == end_; }

 private:
  bool need(std::size_t n) {
    if (!ok_ || static_cast<std::size_t>(end_ - p_) < n) {
      ok_ = false;
      return false;
    }
    return true;
  }
  const std::uint8_t* p_;
  const std::uint8_t* end_;
  bool ok_ = true;
};

// --- Per-layout encode/decode ----------------------------------------------

void put(Writer& w, const WireHit& h) {
  w.u64(h.object);
  w.strings(h.keywords);
}
WireHit get_hit(Reader& r) {
  WireHit h;
  h.object = r.u64();
  h.keywords = r.strings();
  return h;
}
void put_hits(Writer& w, const std::vector<WireHit>& hits) {
  w.u32(static_cast<std::uint32_t>(hits.size()));
  for (const auto& h : hits) put(w, h);
}
std::vector<WireHit> get_hits(Reader& r) {
  const std::uint32_t n = r.u32();
  if (n > kMaxCount || n > r.remaining() / 12) {  // u64 + empty strings
    r.fail();
    return {};
  }
  std::vector<WireHit> v;
  v.reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) v.push_back(get_hit(r));
  return v;
}

void put(Writer& w, const RefMsg& m) {
  w.u64(m.key);
  w.u64(m.object);
  w.u64(m.holder);
}
void put(Writer& w, const ReadMsg& m) {
  w.u64(m.object);
  w.u64(m.reader);
}
void put(Writer& w, const HoldersMsg& m) {
  w.u64(m.object);
  w.u64s(m.holders);
}
void put(Writer& w, const EntryMsg& m) {
  w.u64(m.object);
  w.strings(m.keywords);
  w.u64(m.request);
  w.u64(m.publisher);
}
void put(Writer& w, const PinMsg& m) {
  w.u64(m.request);
  w.u64(m.searcher);
  w.strings(m.keywords);
}
void put(Writer& w, const HitsMsg& m) {
  w.u64(m.request);
  w.u64(m.node);
  put_hits(w, m.hits);
}
void put(Writer& w, const QueryMsg& m) {
  w.u64(m.request);
  w.u64(m.node);
  w.u64(m.searcher);
  w.u64(m.want);
  w.u64(m.offset);
  w.strings(m.query);
}
void put(Writer& w, const ControlMsg& m) {
  w.u64(m.request);
  w.u64(m.node);
  w.u64(m.count);
  w.u8(m.stop ? 1 : 0);
}
void put(Writer& w, const DoneMsg& m) {
  w.u64(m.request);
  w.u64(m.results_expected);
}
void put(Writer& w, const SearchReplyMsg& m) {
  w.u64(m.request);
  w.u64(m.nodes_contacted);
  w.u64(m.messages);
  w.u64(m.rounds);
  w.u64(m.retransmits);
  w.u8(m.complete ? 1 : 0);
  w.u8(m.failed ? 1 : 0);
  put_hits(w, m.hits);
}
void put(Writer& w, const VisitBatchMsg& m) {
  w.u64(m.request);
  w.u64(m.want);
  w.u64s(m.nodes);
  w.strings(m.query);
}
void put(Writer& w, const BatchResultsMsg& m) {
  w.u64(m.request);
  w.u32(static_cast<std::uint32_t>(m.batches.size()));
  for (const auto& b : m.batches) {
    w.u64(b.node);
    put_hits(w, b.hits);
  }
}
void put(Writer& w, const BatchReplyMsg& m) {
  w.u64(m.request);
  w.u32(static_cast<std::uint32_t>(m.verdicts.size()));
  for (const auto& v : m.verdicts) {
    w.u64(v.node);
    w.u64(v.count);
    w.u8(v.stop ? 1 : 0);
  }
}
void put(Writer& w, const COpenMsg& m) {
  w.u64(m.session);
  w.u64(m.searcher);
  w.strings(m.query);
}
void put(Writer& w, const CNextMsg& m) {
  w.u64(m.session);
  w.u64(m.count);
}
void put(Writer& w, const JoinMsg& m) {
  w.u64(m.joiner);
  w.u64(m.bootstrap);
}
void put(Writer& w, const FixFingerMsg& m) {
  w.u64(m.node);
  w.u32(m.finger);
}
void put(Writer& w, const FeQueryMsg& m) {
  w.u64(m.threshold);
  w.u8(m.strategy);
  w.strings(m.keywords);
}
void put(Writer& w, const FeReplyMsg& m) {
  w.u8(m.complete ? 1 : 0);
  w.u64(m.messages);
  put_hits(w, m.hits);
}
void put(Writer& w, const EnvelopeMsg& m) {
  w.u16(static_cast<std::uint16_t>(m.inner_kind));
  if (m.inner_kind == MsgKind::kOpaque) w.str(m.label);
  w.u64(m.msg_id);
  w.u64(m.from);
  w.u64(m.to);
  w.u64(m.declared_bytes);
  w.bytes(m.payload);
  w.u32(m.pad);
  w.zeros(m.pad);
}

template <typename T>
std::optional<WireMessage> finish(Reader& r, T&& msg) {
  if (!r.done()) return std::nullopt;
  return WireMessage{std::forward<T>(msg)};
}

std::optional<WireMessage> decode_body(MsgKind kind, Reader& r) {
  switch (kind) {
    case MsgKind::kDolrInsert:
    case MsgKind::kDolrReplicate:
    case MsgKind::kDolrDelete:
    case MsgKind::kDolrUnreplicate: {
      RefMsg m;
      m.key = r.u64();
      m.object = r.u64();
      m.holder = r.u64();
      return finish(r, m);
    }
    case MsgKind::kDolrRead: {
      ReadMsg m;
      m.object = r.u64();
      m.reader = r.u64();
      return finish(r, m);
    }
    case MsgKind::kDolrReply: {
      HoldersMsg m;
      m.object = r.u64();
      m.holders = r.u64s();
      return finish(r, m);
    }
    case MsgKind::kKwsInsert:
    case MsgKind::kKwsDelete:
    case MsgKind::kHcInsert:
    case MsgKind::kHcDelete: {
      EntryMsg m;
      m.object = r.u64();
      m.keywords = r.strings();
      m.request = r.u64();
      m.publisher = r.u64();
      return finish(r, m);
    }
    case MsgKind::kKwsPin:
    case MsgKind::kHcPin: {
      PinMsg m;
      m.request = r.u64();
      m.searcher = r.u64();
      m.keywords = r.strings();
      return finish(r, m);
    }
    case MsgKind::kKwsPinReply:
    case MsgKind::kKwsResults:
    case MsgKind::kKwsCResults:
    case MsgKind::kHcPinReply:
    case MsgKind::kHcResults: {
      HitsMsg m;
      m.request = r.u64();
      m.node = r.u64();
      m.hits = get_hits(r);
      return finish(r, m);
    }
    case MsgKind::kKwsTQuery:
    case MsgKind::kKwsCQuery:
    case MsgKind::kHcSQuery: {
      QueryMsg m;
      m.request = r.u64();
      m.node = r.u64();
      m.searcher = r.u64();
      m.want = r.u64();
      m.offset = r.u64();
      m.query = r.strings();
      return finish(r, m);
    }
    case MsgKind::kKwsTCont:
    case MsgKind::kKwsTStop:
    case MsgKind::kKwsCCont:
    case MsgKind::kHcSDone: {
      ControlMsg m;
      m.request = r.u64();
      m.node = r.u64();
      m.count = r.u64();
      m.stop = r.u8() != 0;
      return finish(r, m);
    }
    case MsgKind::kKwsDone:
    case MsgKind::kKwsCDone:
    case MsgKind::kHcDone: {
      DoneMsg m;
      m.request = r.u64();
      m.results_expected = r.u64();
      return finish(r, m);
    }
    case MsgKind::kKwsSReply: {
      SearchReplyMsg m;
      m.request = r.u64();
      m.nodes_contacted = r.u64();
      m.messages = r.u64();
      m.rounds = r.u64();
      m.retransmits = r.u64();
      m.complete = r.u8() != 0;
      m.failed = r.u8() != 0;
      m.hits = get_hits(r);
      return finish(r, m);
    }
    case MsgKind::kKwsVisitBatch: {
      VisitBatchMsg m;
      m.request = r.u64();
      m.want = r.u64();
      m.nodes = r.u64s();
      m.query = r.strings();
      return finish(r, m);
    }
    case MsgKind::kKwsBatchResults: {
      BatchResultsMsg m;
      m.request = r.u64();
      const std::uint32_t n = r.u32();
      if (n > kMaxCount || n > r.remaining() / 12) return std::nullopt;
      m.batches.reserve(n);
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        BatchResultsMsg::NodeBatch b;
        b.node = r.u64();
        b.hits = get_hits(r);
        m.batches.push_back(std::move(b));
      }
      return finish(r, std::move(m));
    }
    case MsgKind::kKwsBatchReply: {
      BatchReplyMsg m;
      m.request = r.u64();
      const std::uint32_t n = r.u32();
      if (n > kMaxCount || n > r.remaining() / 17) return std::nullopt;
      m.verdicts.reserve(n);
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        BatchReplyMsg::NodeVerdict v;
        v.node = r.u64();
        v.count = r.u64();
        v.stop = r.u8() != 0;
        m.verdicts.push_back(v);
      }
      return finish(r, std::move(m));
    }
    case MsgKind::kKwsCOpen: {
      COpenMsg m;
      m.session = r.u64();
      m.searcher = r.u64();
      m.query = r.strings();
      return finish(r, m);
    }
    case MsgKind::kKwsCNext: {
      CNextMsg m;
      m.session = r.u64();
      m.count = r.u64();
      return finish(r, m);
    }
    case MsgKind::kDhtJoin: {
      JoinMsg m;
      m.joiner = r.u64();
      m.bootstrap = r.u64();
      return finish(r, m);
    }
    case MsgKind::kDhtFixFinger: {
      FixFingerMsg m;
      m.node = r.u64();
      m.finger = r.u32();
      return finish(r, m);
    }
    case MsgKind::kFeQuery: {
      FeQueryMsg m;
      m.threshold = r.u64();
      m.strategy = r.u8();
      m.keywords = r.strings();
      return finish(r, m);
    }
    case MsgKind::kFeReply: {
      FeReplyMsg m;
      m.complete = r.u8() != 0;
      m.messages = r.u64();
      m.hits = get_hits(r);
      return finish(r, m);
    }
    case MsgKind::kEnvelope: {
      EnvelopeMsg m;
      const std::uint16_t inner = r.u16();
      m.inner_kind = static_cast<MsgKind>(inner);
      if (m.inner_kind != MsgKind::kOpaque &&
          kind_name(m.inner_kind)[0] == '\0')
        return std::nullopt;  // unknown inner kind id
      if (m.inner_kind == MsgKind::kOpaque) m.label = r.str();
      m.msg_id = r.u64();
      m.from = r.u64();
      m.to = r.u64();
      m.declared_bytes = r.u64();
      m.payload = r.bytes();
      m.pad = r.u32();
      if (m.pad > r.remaining()) return std::nullopt;
      r.skip(m.pad);
      return finish(r, std::move(m));
    }
    case MsgKind::kOpaque:
      return std::nullopt;  // opaque kinds travel only inside envelopes
  }
  return std::nullopt;  // unknown kind id
}

struct KindEntry {
  MsgKind kind;
  const char* name;
  std::size_t layout;  ///< WireMessage variant index this kind decodes to
};

template <typename T>
std::size_t layout_of() {
  return WireMessage(std::in_place_type<T>).index();
}

const KindEntry kKinds[] = {
    {MsgKind::kDolrInsert, "dolr.insert", layout_of<RefMsg>()},
    {MsgKind::kDolrReplicate, "dolr.replicate", layout_of<RefMsg>()},
    {MsgKind::kDolrDelete, "dolr.delete", layout_of<RefMsg>()},
    {MsgKind::kDolrUnreplicate, "dolr.unreplicate", layout_of<RefMsg>()},
    {MsgKind::kDolrRead, "dolr.read", layout_of<ReadMsg>()},
    {MsgKind::kDolrReply, "dolr.reply", layout_of<HoldersMsg>()},
    {MsgKind::kKwsInsert, "kws.insert", layout_of<EntryMsg>()},
    {MsgKind::kKwsDelete, "kws.delete", layout_of<EntryMsg>()},
    {MsgKind::kKwsPin, "kws.pin", layout_of<PinMsg>()},
    {MsgKind::kKwsPinReply, "kws.pin_reply", layout_of<HitsMsg>()},
    {MsgKind::kKwsTQuery, "kws.t_query", layout_of<QueryMsg>()},
    {MsgKind::kKwsTCont, "kws.t_cont", layout_of<ControlMsg>()},
    {MsgKind::kKwsTStop, "kws.t_stop", layout_of<ControlMsg>()},
    {MsgKind::kKwsResults, "kws.results", layout_of<HitsMsg>()},
    {MsgKind::kKwsDone, "kws.done", layout_of<DoneMsg>()},
    {MsgKind::kKwsSReply, "kws.s_reply", layout_of<SearchReplyMsg>()},
    {MsgKind::kKwsVisitBatch, "kws.visit_batch", layout_of<VisitBatchMsg>()},
    {MsgKind::kKwsBatchResults, "kws.batch_results",
     layout_of<BatchResultsMsg>()},
    {MsgKind::kKwsBatchReply, "kws.batch_reply", layout_of<BatchReplyMsg>()},
    {MsgKind::kKwsCOpen, "kws.c_open", layout_of<COpenMsg>()},
    {MsgKind::kKwsCNext, "kws.c_next", layout_of<CNextMsg>()},
    {MsgKind::kKwsCQuery, "kws.c_query", layout_of<QueryMsg>()},
    {MsgKind::kKwsCCont, "kws.c_cont", layout_of<ControlMsg>()},
    {MsgKind::kKwsCResults, "kws.c_results", layout_of<HitsMsg>()},
    {MsgKind::kKwsCDone, "kws.c_done", layout_of<DoneMsg>()},
    {MsgKind::kHcInsert, "hc.insert", layout_of<EntryMsg>()},
    {MsgKind::kHcDelete, "hc.delete", layout_of<EntryMsg>()},
    {MsgKind::kHcPin, "hc.pin", layout_of<PinMsg>()},
    {MsgKind::kHcPinReply, "hc.pin_reply", layout_of<HitsMsg>()},
    {MsgKind::kHcSQuery, "hc.s_query", layout_of<QueryMsg>()},
    {MsgKind::kHcResults, "hc.results", layout_of<HitsMsg>()},
    {MsgKind::kHcSDone, "hc.s_done", layout_of<ControlMsg>()},
    {MsgKind::kHcDone, "hc.done", layout_of<DoneMsg>()},
    {MsgKind::kDhtJoin, "dht.join", layout_of<JoinMsg>()},
    {MsgKind::kDhtFixFinger, "dht.fix_finger", layout_of<FixFingerMsg>()},
    {MsgKind::kFeQuery, "fe.query", layout_of<FeQueryMsg>()},
    {MsgKind::kFeReply, "fe.reply", layout_of<FeReplyMsg>()},
    {MsgKind::kEnvelope, "net.envelope", layout_of<EnvelopeMsg>()},
};

const KindEntry* entry_of(MsgKind kind) {
  for (const auto& e : kKinds)
    if (e.kind == kind) return &e;
  return nullptr;
}

}  // namespace

const char* kind_name(MsgKind kind) {
  const KindEntry* e = entry_of(kind);
  return e != nullptr ? e->name : "";
}

std::optional<MsgKind> kind_of(const std::string& name) {
  static const std::unordered_map<std::string, MsgKind> index = [] {
    std::unordered_map<std::string, MsgKind> m;
    for (const auto& e : kKinds) m.emplace(e.name, e.kind);
    return m;
  }();
  const auto it = index.find(name);
  if (it == index.end()) return std::nullopt;
  return it->second;
}

bool encode_frame_into(MsgKind kind, const WireMessage& msg,
                       std::vector<std::uint8_t>& out) {
  const KindEntry* e = entry_of(kind);
  if (e == nullptr || e->layout != msg.index()) return false;
  const std::size_t start = out.size();
  Writer w(out);
  w.u16(kWireMagic);
  w.u8(kWireVersion);
  w.u8(0);
  w.u16(static_cast<std::uint16_t>(kind));
  w.u16(0);
  w.u32(0);  // body length, patched once the body is written
  std::visit([&w](const auto& m) { put(w, m); }, msg);
  const std::size_t body = out.size() - start - kWireHeaderSize;
  if (body > kMaxBody) {
    out.resize(start);
    return false;
  }
  for (int i = 0; i < 4; ++i)
    out[start + kWireHeaderSize - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(body >> (8 * i));
  return true;
}

std::vector<std::uint8_t> encode_frame(MsgKind kind, const WireMessage& msg) {
  std::vector<std::uint8_t> out;
  if (!encode_frame_into(kind, msg, out)) return {};
  return out;
}

std::optional<std::size_t> frame_size(const std::uint8_t* data,
                                      std::size_t len) {
  if (len < kWireHeaderSize) return 0;  // need more bytes
  Reader r(data, kWireHeaderSize);
  if (r.u16() != kWireMagic) return std::nullopt;
  if (r.u8() != kWireVersion) return std::nullopt;
  r.u8();   // reserved
  r.u16();  // kind (validated by decode_frame)
  r.u16();  // reserved
  const std::uint32_t body = r.u32();
  if (body > kMaxBody) return std::nullopt;
  return kWireHeaderSize + body;
}

std::optional<DecodedFrame> decode_frame(const std::uint8_t* data,
                                         std::size_t len) {
  const std::optional<std::size_t> total = frame_size(data, len);
  if (!total.has_value() || *total == 0 || *total > len) return std::nullopt;
  Reader h(data, kWireHeaderSize);
  h.u16();  // magic (validated by frame_size)
  h.u8();   // version
  h.u8();
  const MsgKind kind = static_cast<MsgKind>(h.u16());
  h.u16();
  h.u32();

  Reader body(data + kWireHeaderSize, *total - kWireHeaderSize);
  std::optional<WireMessage> msg = decode_body(kind, body);
  if (!msg.has_value()) return std::nullopt;
  return DecodedFrame{kind, std::move(*msg), *total};
}

}  // namespace hkws::net
