#pragma once

// Control-plane churn: a seeded sequence of mutations on a booted
// backbone, each driven to quiescence, timed on its own and checked
// against an expected-VRF model.

#include <cstdint>
#include <vector>

#include "backbone/fixtures.hpp"
#include "gen.hpp"
#include "trace.hpp"

namespace perfbench {

struct ChurnSample {
  ChurnEvent::Kind kind = ChurnEvent::Kind::kOriginate;
  double ms = 0;
  bool ok = true;
};

struct ChurnResult {
  bool boot_ok = true;  ///< VRFs matched the model after the cold boot
  double churn_s = 0;   ///< summed host time of the timed events
  std::vector<ChurnSample> samples;
};

/// Queue `cp.initial` on the not-yet-started backbone; the cold boot
/// carries it.
void originate_initial(mvpn::backbone::MplsBackbone& bb,
                       const std::vector<mvpn::vpn::VpnId>& vpns,
                       const ChurnPlan& cp);

/// Check the booted backbone's VRFs, then apply every event of `cp`:
/// mutate, drive the control plane to quiescence, check.
[[nodiscard]] ChurnResult drive_churn(
    mvpn::backbone::MplsBackbone& bb, const mvpn::backbone::GeneratedPlan& plan,
    const std::vector<mvpn::vpn::VpnId>& vpns,
    const std::vector<mvpn::backbone::MplsBackbone::Site>& sites,
    const ChurnPlan& cp, Tracer& tr);

/// Control-plane counters read off a backbone after a run.
struct ControlCounters {
  std::uint64_t bgp_msgs = 0, bgp_bytes = 0;
  std::uint64_t adj_rib_bytes = 0, adj_rib_routes = 0;
  std::uint64_t spf_full = 0, spf_incremental = 0, spf_skipped = 0,
                edges_relaxed = 0;
};
[[nodiscard]] ControlCounters read_control(mvpn::backbone::MplsBackbone& bb);

/// One control-churn repetition: build (with the route load queued), cold
/// boot, churn; `stop` ends it after the build or after the boot.
struct ChurnRep {
  double build_s = 0;
  double converge_s = 0;
  std::uint64_t boot_events = 0;
  ControlCounters control;
  ChurnResult churn;
};
enum class ChurnStop { kAfterBuild, kAfterBoot, kAfterChurn };
[[nodiscard]] ChurnRep run_churn_rep(const mvpn::backbone::GeneratedPlan& plan,
                                     const ChurnPlan& cp, ChurnStop stop,
                                     Tracer& tr);

}  // namespace perfbench
