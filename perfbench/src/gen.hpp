#pragma once

// Seeded input generators for the benchmark's workloads. Every
// function here is a pure function of its arguments: one seed gives one
// plan (and one plan hash) and one churn sequence, on any host.

#include <cstdint>
#include <string>
#include <vector>

#include "backbone/topogen.hpp"
#include "qos/dscp.hpp"

namespace perfbench {

/// One CE port ACL rule: packets whose destination port lies in [lo, hi]
/// are marked `phb`. First match wins, as in qos::CbqClassifier.
struct AclRule {
  std::uint16_t lo = 0;
  std::uint16_t hi = 65535;
  mvpn::qos::Phb phb = mvpn::qos::Phb::kBe;
};

/// A data-plane workload's inputs: the backbone/site/flow plan in the
/// shape backbone::generate_plan emits, plus the edge QoS the paper's §5
/// puts on the CPE (port ACLs and EF policers) and the run length.
struct DataPlan {
  mvpn::backbone::GeneratedPlan plan;
  std::vector<double> core_wfq_weights;  ///< empty: drop-tail core queues
  std::vector<AclRule> acl;              ///< installed on every CE
  std::vector<double> ef_cir_bytes_s;    ///< per site; 0 = no EF policer
  double policer_burst_bytes = 4000;
  double on_s = 0.2, off_s = 0.2;  ///< on/off flow burst and silence means
  double sim_s = 1.0;              ///< simulated seconds of traffic
  double drain_s = 1.0;            ///< simulated drain after the sources stop

  [[nodiscard]] std::uint64_t hash() const;
};

/// paper-qos: the paper-sized ring (8 P, 16 PE, DS3 core with wfq:8,3,1),
/// 2 CEs per PE in 4 VPNs, 48-rule port ACLs and EF policers on every CE,
/// 512 flows of EF voice, AF video and BE data offering ~120% of the
/// busiest core link.
[[nodiscard]] DataPlan make_paper_qos(std::uint64_t seed);

/// One control-plane mutation. Route events name (pe, vpn) and the
/// external-prefix slots they originate; link events index the core P-P
/// link list (ring links first, then chords, in build order).
struct ChurnEvent {
  enum class Kind : std::uint8_t { kOriginate, kCost, kFail, kRestore };
  Kind kind = Kind::kOriginate;
  std::uint32_t pe = 0;
  std::uint32_t vpn = 0;
  std::vector<std::uint32_t> slots;
  std::uint32_t link = 0;
  std::uint32_t cost = 1;
};

[[nodiscard]] const char* to_string(ChurnEvent::Kind k) noexcept;

/// A seeded churn sequence over a site plan's backbone: `initial` holds
/// one origination burst per PE, carried by the cold boot; `events`
/// interleaves route-origination bursts at random PEs, core IGP cost
/// changes and core fail/restore (at most one core link down at a time).
struct ChurnPlan {
  std::size_t core_links = 0;  ///< P-P links the link events draw from
  std::vector<ChurnEvent> initial;
  std::vector<ChurnEvent> events;

  [[nodiscard]] std::uint64_t hash() const;
};

[[nodiscard]] ChurnPlan make_churn(std::uint64_t seed,
                                   const mvpn::backbone::GeneratedPlan& plan,
                                   std::size_t initial_per_pe,
                                   std::size_t events);

/// control-churn's site plan: the topogen 16P/64PE/128CE backbone with its
/// 2 route reflectors and no flows.
[[nodiscard]] mvpn::backbone::GeneratedPlan make_control_churn_plan(
    std::uint64_t seed);

/// control-churn's route load and sequence: ~200 external routes per PE in
/// the cold boot, then 1000 events.
inline constexpr std::size_t kInitialRoutesPerPe = 200;
inline constexpr std::size_t kChurnEvents = 1000;

/// External /24 for (pe, slot): 11.0.0.0/8, 1024 slots per PE.
inline constexpr std::uint32_t kSlotsPerPe = 1024;
[[nodiscard]] mvpn::ip::Prefix external_prefix(std::uint32_t pe,
                                               std::uint32_t slot);

}  // namespace perfbench
