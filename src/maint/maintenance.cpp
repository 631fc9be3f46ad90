#include "maint/maintenance.hpp"

#include "dht/chord_network.hpp"
#include "index/service.hpp"
#include "obs/trace.hpp"
#include "obs/windowed.hpp"

namespace hkws::maint {

MaintenancePlane::MaintenancePlane(Config cfg, dht::ChordNetwork& ring,
                                   index::KeywordSearchService& service)
    : net_(ring.transport()),
      cfg_(cfg),
      ring_(ring),
      service_(service),
      detector_(net_, cfg.detector,
                [this](sim::EndpointId ep) { on_death(ep); }) {}

void MaintenancePlane::start() {
  std::vector<sim::EndpointId> members;
  for (const dht::RingId id : ring_.live_ids())
    members.push_back(ring_.endpoint_of(id));
  detector_.start(members);
  arm_replication_ticker();
}

void MaintenancePlane::stop() {
  detector_.stop();
  if (repair_timer_ != 0) {
    net_.cancel_timer(repair_timer_);
    repair_timer_ = 0;
  }
  if (replication_timer_ != 0) {
    net_.cancel_timer(replication_timer_);
    replication_timer_ = 0;
  }
  if (burst_open_ && tracer_ != nullptr) {
    tracer_->end(net_.now(), 0);
    burst_open_ = false;
  }
}

void MaintenancePlane::set_windows(obs::WindowedMetrics* windows) {
  windows_ = windows;
  detector_.set_windows(windows);
}

bool MaintenancePlane::converged() const {
  return pending_stabilize_ == 0 && detector_.suspected_count() == 0 &&
         service_.repair_backlog() == 0;
}

void MaintenancePlane::on_death(sim::EndpointId ep) {
  pending_stabilize_ += kStabilizeRoundsPerDeath;
  idle_ticks_ = 0;
  if (ring_.is_live(ep)) confirmed_live_.push_back(ep);
  if (tracer_ != nullptr) {
    tracer_->instant(net_.now(), 0, "maint.confirm", "maint", ep);
    if (!burst_open_) {
      tracer_->begin(net_.now(), 0, "repair.burst", "maint", ep);
      burst_open_ = true;
    }
  }
  arm_ticker();
}

void MaintenancePlane::arm_ticker() {
  if (repair_timer_ != 0 || !detector_.running()) return;
  repair_timer_ = net_.set_timer(kRepairInterval, [this] { tick(); });
}

void MaintenancePlane::arm_replication_ticker() {
  if (replication_timer_ != 0 || !detector_.running()) return;
  if (cfg_.replication_interval == 0) return;
  replication_timer_ =
      net_.set_timer(cfg_.replication_interval, [this] { replication_tick(); });
}

void MaintenancePlane::replication_tick() {
  replication_timer_ = 0;
  const std::uint64_t copied =
      service_.replication_step(cfg_.replica_entries_per_tick);
  if (copied > 0) net_.metrics().count("maint.replica_entries", copied);
  if (windows_ != nullptr && copied > 0)
    windows_->count(net_.now(), "replica.entries_copied", copied);
  // Always-on while the plane runs: demand can shift a cell hot (or cold)
  // at any time, so there is no idle-disarm here.
  arm_replication_ticker();
}

void MaintenancePlane::tick() {
  repair_timer_ = 0;
  // A falsely confirmed member leaving the ring is a death nobody will
  // confirm: repair for it like for any other.
  const std::size_t unconfirmed_deaths =
      std::erase_if(confirmed_live_, [this](sim::EndpointId ep) {
        return !ring_.is_live(ep);
      });
  if (unconfirmed_deaths > 0) {
    pending_stabilize_ +=
        static_cast<int>(unconfirmed_deaths) * kStabilizeRoundsPerDeath;
    idle_ticks_ = 0;
  } else if (idle_ticks_ >= kIdleTicksToDisarm) {
    // Converged and armed only to watch falsely confirmed members: no
    // repair slice (its backlog scan would load the serving thread) until
    // one of them leaves the ring or a fresh death is confirmed.
    arm_ticker();
    return;
  }
  // Routing heal first: a few stabilization rounds per slice, so the
  // ring's successor lists and fingers converge while entry repair is
  // still draining.
  for (int i = 0; i < kStabilizeRoundsPerTick && pending_stabilize_ > 0;
       ++i, --pending_stabilize_)
    ring_.stabilize_all();
  const std::uint64_t work =
      service_.repair_step(cfg_.entries_per_tick, cfg_.refs_per_tick);
  work_done_ += work;
  const std::size_t backlog = service_.repair_backlog();
  const sim::Time now = net_.now();
  if (work > 0) net_.metrics().count("maint.repair_work", work);
  if (windows_ != nullptr) {
    windows_->gauge(now, "repair.backlog", static_cast<double>(backlog));
    if (work > 0) windows_->count(now, "repair.entries_moved", work);
  }
  if (tracer_ != nullptr)
    tracer_->instant(now, 0, "repair.tick", "maint", work, backlog);
  if (work == 0 && backlog == 0 && pending_stabilize_ == 0) {
    if (++idle_ticks_ >= kIdleTicksToDisarm) {
      // Converged: disarm until the next confirmed death re-arms us.
      if (burst_open_ && tracer_ != nullptr) {
        tracer_->end(now, 0);
        burst_open_ = false;
      }
      if (confirmed_live_.empty()) return;
    }
  } else {
    idle_ticks_ = 0;
  }
  arm_ticker();
}

}  // namespace hkws::maint
