#include "net/ledger.hpp"

namespace hkws::net::ledger {
namespace {

// Metrics::slot ids of the counters bumped on every message.
enum Slot : std::size_t { kMessages, kBytes, kWireBytes, kDelivered, kLocal,
                          kCharged };
enum Family : std::size_t { kMsgKind };  // msg.<kind>

}  // namespace

void local(sim::Metrics& m) { ++m.slot(kLocal, "net.local"); }

void unregistered(sim::Metrics& m, const std::string& kind) {
  m.count("net.dropped");
  m.count("net.dropped." + kind);
  m.count("net.dropped.unregistered");
}

void sent(sim::Metrics& m, const std::string& kind, std::size_t bytes,
          std::size_t wire_bytes) {
  ++m.slot(kMessages, "net.messages");
  m.slot(kBytes, "net.bytes") += bytes;
  if (wire_bytes != 0) m.slot(kWireBytes, "net.wire_bytes") += wire_bytes;
  ++m.slot(kMsgKind, "msg.", kind);
}

void delivered(sim::Metrics& m) { ++m.slot(kDelivered, "net.delivered"); }

void lost(sim::Metrics& m, const std::string& kind, Cause why) {
  m.count("net.lost");
  m.count("net.lost." + kind);
  m.count(why == Cause::kFault ? "net.dropped.fault" : "net.dropped.conn");
}

void charged(sim::Metrics& m, const std::string& kind) {
  ++m.slot(kMessages, "net.messages");
  ++m.slot(kMsgKind, "msg.", kind);
  ++m.slot(kCharged, "net.charged");
}

void dup(sim::Metrics& m, std::uint64_t n) { m.count("net.dup", n); }

void delayed(sim::Metrics& m) { m.count("net.delayed"); }

void remote_out(sim::Metrics& m) { m.count("net.remote.out"); }

void remote_in(sim::Metrics& m, const std::string& kind) {
  m.count("net.remote.in");
  m.count("net.remote.in." + kind);
}

void stray(sim::Metrics& m) { m.count("net.stray"); }

std::string identity_error(const sim::Metrics& m) {
  const auto c = [&m](const char* name) { return m.counter(name); };
  const auto show = [&c](const char* name) {
    return std::string(name) + " (" + std::to_string(c(name)) + ")";
  };
  if (c("net.messages") !=
      c("net.delivered") + c("net.lost") + c("net.charged"))
    return show("net.messages") + " != " + show("net.delivered") + " + " +
           show("net.lost") + " + " + show("net.charged");
  if (c("net.lost") != c("net.dropped.fault") + c("net.dropped.conn"))
    return show("net.lost") + " != " + show("net.dropped.fault") + " + " +
           show("net.dropped.conn");
  return "";
}

}  // namespace hkws::net::ledger
