#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "qos/dscp.hpp"
#include "qos/sla.hpp"
#include "stats/counter.hpp"
#include "vpn/router.hpp"

namespace mvpn::traffic {

/// The one local-delivery hook of the CE routers it is bound to. Every
/// delivery is checked for VPN isolation first (ground-truth `true_vpn_id`
/// vs the VPN context that delivered the packet — any mismatch is a leak,
/// experiment E6). An isolated packet then goes to its flow's owner: the
/// SlaProbe for measured flows (expect_flow), an endpoint handler for
/// claimed ones (claim_flow, e.g. both ends of a TcpLiteFlow), or the
/// unknown-flow count.
///
/// Flow state lives in a flat vector indexed by flow_id: scenario flow ids
/// are a dense counter from 1, so at 10^5–10^6 flows a delivery is a
/// 12-byte direct lookup instead of a hash probe.
class MeasurementSink {
 public:
  using Handler = std::function<void(const net::Packet&)>;

  MeasurementSink(qos::SlaProbe& probe, sim::Scheduler& clock)
      : probe_(probe), clock_(clock) {}

  /// Register a flow we expect to terminate at a bound router.
  void expect_flow(std::uint32_t flow_id, qos::Phb cls,
                   vpn::VpnId expected_vpn);

  /// Hand every isolated delivery of `flow_id` to `handler` instead of the
  /// probe (endpoint flows). Claim each flow once per sink.
  void claim_flow(std::uint32_t flow_id, Handler handler);

  /// Install this sink as `ce`'s local-delivery hook.
  void bind(vpn::Router& ce);

  /// Account one delivery (the hook bind() installs).
  void on_delivery(const net::Packet& p, vpn::VpnId vpn);

  /// Every delivery seen, whatever its outcome.
  [[nodiscard]] std::uint64_t delivered() const noexcept {
    return delivered_.value();
  }
  /// Packets delivered into a VPN context other than the sender's — the
  /// isolation property requires this to be zero, always.
  [[nodiscard]] std::uint64_t leaks() const noexcept { return leaks_.value(); }
  [[nodiscard]] std::uint64_t unknown_flows() const noexcept {
    return unknown_.value();
  }

 private:
  enum class Owner : std::uint8_t { kNone, kProbe, kHandler };
  struct Expected {
    qos::Phb cls = qos::Phb::kBe;
    Owner owner = Owner::kNone;
    vpn::VpnId vpn = vpn::kGlobalVpn;
    std::uint32_t handler = 0;  ///< index into handlers_ (kHandler only)
  };

  qos::SlaProbe& probe_;
  sim::Scheduler& clock_;
  std::vector<Expected> flows_;  ///< indexed by flow_id
  std::vector<Handler> handlers_;
  stats::Counter delivered_;
  stats::Counter leaks_;
  stats::Counter unknown_;
};

}  // namespace mvpn::traffic
