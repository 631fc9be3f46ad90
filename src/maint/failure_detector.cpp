#include "maint/failure_detector.hpp"

#include "obs/windowed.hpp"

namespace hkws::maint {

FailureDetector::FailureDetector(net::Transport& net, Config cfg,
                                 DeathCallback on_death)
    : net_(net), cfg_(cfg), on_death_(std::move(on_death)) {}

void FailureDetector::start(const std::vector<sim::EndpointId>& members) {
  if (running_) return;
  running_ = true;
  for (sim::EndpointId ep : members) members_.emplace(ep, Member{});
  round_timer_ = net_.set_timer(cfg_.period, [this] { round(); });
}

void FailureDetector::stop() {
  if (!running_) return;
  running_ = false;
  ++epoch_;
  if (round_timer_ != 0) {
    net_.cancel_timer(round_timer_);
    round_timer_ = 0;
  }
  for (const auto& [id, ep] : ack_timers_) {
    net_.cancel_timer(id);
    members_[ep].ack_timer = 0;
  }
  ack_timers_.clear();
}

void FailureDetector::note_true_failure(sim::EndpointId ep) {
  true_failures_.emplace(ep, net_.now());
}

void FailureDetector::note_transport_down(sim::EndpointId ep) {
  if (!running_) return;
  const auto it = members_.find(ep);
  if (it == members_.end() || it->second.confirmed) return;
  Member& m = it->second;
  if (m.ack_timer != 0) {
    net_.cancel_timer(m.ack_timer);
    ack_timers_.erase(m.ack_timer);
    m.ack_timer = 0;
  }
  net_.metrics().count("maint.transport_down");
  confirm(ep);
}

std::size_t FailureDetector::suspected_count() const {
  std::size_t suspected = 0;
  for (const auto& [ep, m] : members_)
    if (!m.confirmed && m.missed > 0) ++suspected;
  return suspected;
}

void FailureDetector::round() {
  round_timer_ = 0;
  if (!running_) return;
  for (const auto& [ep, m] : members_) {
    // One ping in flight per target at a time; the ack timeout chains the
    // suspicion forward, so a slow target is not probed twice.
    if (!m.confirmed && m.ack_timer == 0) probe(ep);
  }
  if (windows_ != nullptr) {
    windows_->gauge(net_.now(), "detector.suspected",
                    static_cast<double>(suspected_count()));
  }
  round_timer_ = net_.set_timer(cfg_.period, [this] { round(); });
}

sim::EndpointId FailureDetector::prober_for(sim::EndpointId target) const {
  // Ring successor by endpoint id among trusted members. A dead-but-
  // unconfirmed prober would swallow its target's ack and manufacture a
  // false suspicion, so suspected members are skipped as probers while
  // their own probe is pending (if every candidate is suspected, any
  // unconfirmed one serves as a last resort).
  sim::EndpointId fallback = 0;
  auto next = members_.upper_bound(target);
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (next == members_.end()) next = members_.begin();
    if (next->first != target && !next->second.confirmed) {
      if (next->second.missed == 0) return next->first;
      if (fallback == 0) fallback = next->first;
    }
    ++next;
  }
  return fallback;
}

void FailureDetector::probe(sim::EndpointId target) {
  const sim::EndpointId prober = prober_for(target);
  if (prober == 0) return;  // nobody left to ask
  const std::uint64_t epoch = epoch_;
  // Ping prober -> target. If the target is gone the fabric counts only
  // "net.dropped" and no ack ever fires; the timeout below converts that
  // silence into suspicion.
  net_.send(prober, target, "maint.ping", kPingBytes,
            [this, epoch, prober, target] {
              if (epoch != epoch_) return;
              net_.send(target, prober, "maint.ack", kPingBytes,
                        [this, epoch, target] { on_ack(epoch, target); });
            });
  Member& m = members_[target];
  m.ack_timer = net_.set_timer(
      cfg_.timeout, [this, target] { on_ack_timeout(target); });
  ack_timers_.emplace(m.ack_timer, target);
}

void FailureDetector::on_ack(std::uint64_t epoch, sim::EndpointId target) {
  if (epoch != epoch_) return;
  Member& m = members_[target];
  m.missed = 0;
  if (m.ack_timer != 0) {
    net_.cancel_timer(m.ack_timer);
    ack_timers_.erase(m.ack_timer);
    m.ack_timer = 0;
  }
}

void FailureDetector::on_ack_timeout(sim::EndpointId target) {
  Member& m = members_[target];
  ack_timers_.erase(m.ack_timer);
  m.ack_timer = 0;
  if (!running_ || m.confirmed) return;
  ++m.missed;
  net_.metrics().count("maint.suspicions");
  // Re-probing waits for the next round rather than chaining off the
  // timeout: by then a dead prober has picked up its own suspicion and is
  // no longer trusted, so its target's false suspicion clears instead of
  // compounding into a false confirmation.
  if (m.missed >= kConfirmations) confirm(target);
}

void FailureDetector::confirm(sim::EndpointId target) {
  Member& m = members_[target];
  m.confirmed = true;
  ++confirmed_;
  const sim::Time now = net_.now();
  net_.metrics().count("maint.confirmed");
  const auto it = true_failures_.find(target);
  if (it != true_failures_.end()) {
    net_.metrics().observe("maint.detect_latency",
                           static_cast<double>(now - it->second));
    if (windows_ != nullptr)
      windows_->observe(now, "detector.latency",
                        static_cast<double>(now - it->second));
  }
  if (windows_ != nullptr) windows_->count(now, "detector.confirmed");
  if (on_death_) on_death_(target);
}

}  // namespace hkws::maint
