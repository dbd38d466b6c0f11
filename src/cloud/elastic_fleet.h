// An elastic fleet: instance lifecycle states, graceful drains, and spot
// revocations layered over the hourly-billed cloud::Fleet.
//
// The paper prices statically provisioned fleets (§3, Table 4); a
// production service scales mid-job and survives preemption. ElasticFleet
// tracks the per-instance state machine that makes that safe:
//
//            scale_out          mark_running
//   (none) ------------> kBooting ----------> kRunning
//                            |                    | begin_drain, or
//                  hard_kill |                    | revoke(notice)
//                            v                    v
//                      kTerminated <-------- kDraining
//                            ^  finish_drain     |
//                            +--------------------+
//                               hard_kill (revocation notice expired)
//
// A *graceful drain* (scale-in, or a notice-respecting spot revocation) is:
// stop polling -> flush buffered acks -> finish the in-flight task ->
// terminate; the driver calls finish_drain() once the instance's last
// worker has retired, so no task is silently lost. A *hard kill* (notice
// expired, or a no-notice revocation) terminates immediately: in-flight
// work, prefetched deliveries, and buffered acks die with the instance and
// queue redelivery + idempotent re-execution absorb the loss.
//
// Billing rides the underlying Fleet unchanged: spot instances carry their
// discounted rate in their InstanceType (see spot_variant), so
// hourly_billed_breakdown() yields the Table 4 spot line items directly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cloud/fleet.h"
#include "cloud/instance_types.h"
#include "common/clock.h"

namespace ppc::cloud {

namespace sites {
/// FaultInjector site an elastic Classic Cloud run fires once per running
/// spot instance per autoscale tick (key = instance id). Arm it with
/// FaultPlan::revoke_spot rules to script single kills or correlated
/// revocation storms.
inline constexpr const char* kSpotRevoke = "cloud.fleet.revoke_spot";
}  // namespace sites

enum class InstanceState { kBooting, kRunning, kDraining, kTerminated };

const char* to_string(InstanceState s);

struct ElasticInstance {
  std::string id;
  bool spot = false;
  InstanceState state = InstanceState::kBooting;
  Seconds drain_started = -1.0;  // >= 0 once draining
  /// Hard-kill time of a live revocation notice; < 0 otherwise.
  Seconds revoke_deadline = -1.0;
  bool revoked = false;
};

class ElasticFleet {
 public:
  explicit ElasticFleet(std::shared_ptr<const ppc::Clock> clock);

  /// Launches `count` instances of `type` (its spot variant when
  /// `spot_market`) in kBooting; one scale-out event. Returns the ids.
  std::vector<std::string> scale_out(const InstanceType& type, int count, bool spot_market,
                                     double spot_discount = kDefaultSpotDiscount);

  /// Boot finished; the instance's workers may start polling.
  void mark_running(const std::string& id);

  /// Starts a graceful scale-in drain; one scale-in event.
  void begin_drain(const std::string& id);

  /// The instance's last worker retired: terminate and meter the drain.
  void finish_drain(const std::string& id);

  /// Spot revocation with a notice window: the instance enters kDraining
  /// (revoked) and must be gone by the returned deadline — the caller
  /// hard-kills it then unless the drain finished first. notice <= 0 is an
  /// immediate hard kill. Spot instances only.
  Seconds revoke(const std::string& id, Seconds notice);

  /// Terminates immediately (notice expired / no notice): whatever the
  /// instance held is lost. No-op when already terminated.
  void hard_kill(const std::string& id);

  /// Terminates everything still up (end of run).
  void terminate_all();

  const ElasticInstance& info(const std::string& id) const;
  InstanceState state(const std::string& id) const { return info(id).state; }

  /// Seconds until the instance's next billing-hour boundary at `now` —
  /// the scale-in eligibility input (drain only within hour_slack of it).
  Seconds seconds_to_hour_boundary(const std::string& id, Seconds now) const;

  // Gauges for the Monitor probes.
  int active_count() const;  // booting + running + draining
  int running_count() const;
  int booting_count() const;
  int draining_count() const;
  /// Spot instances still up (running or draining) — fleet.spot_running.
  int spot_running() const;

  // Meters.
  std::int64_t scale_out_events() const { return scale_out_events_; }
  std::int64_t scale_in_events() const { return scale_in_events_; }
  std::int64_t scale_events() const { return scale_out_events_ + scale_in_events_; }
  std::int64_t revocations() const { return revocations_; }
  std::int64_t hard_kills() const { return hard_kills_; }
  std::int64_t drains_completed() const { return drains_completed_; }
  Seconds total_drain_seconds() const { return total_drain_seconds_; }

  Fleet& fleet() { return fleet_; }
  const Fleet& fleet() const { return fleet_; }
  const std::vector<ElasticInstance>& elastic_instances() const { return instances_; }

 private:
  ElasticInstance& find(const std::string& id);
  int count_state(InstanceState s) const;

  std::shared_ptr<const ppc::Clock> clock_;
  Fleet fleet_;
  std::vector<ElasticInstance> instances_;
  std::unordered_map<std::string, std::size_t> index_;

  std::int64_t scale_out_events_ = 0;
  std::int64_t scale_in_events_ = 0;
  std::int64_t revocations_ = 0;
  std::int64_t hard_kills_ = 0;
  std::int64_t drains_completed_ = 0;
  Seconds total_drain_seconds_ = 0.0;
};

}  // namespace ppc::cloud
