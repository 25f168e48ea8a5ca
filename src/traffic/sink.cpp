#include "traffic/sink.hpp"

namespace mvpn::traffic {

void MeasurementSink::expect_flow(std::uint32_t flow_id, qos::Phb cls,
                                  vpn::VpnId expected_vpn) {
  if (flow_id >= flows_.size()) flows_.resize(flow_id + 1);
  flows_[flow_id] = Expected{cls, Owner::kProbe, expected_vpn, 0};
}

void MeasurementSink::claim_flow(std::uint32_t flow_id, Handler handler) {
  if (flow_id >= flows_.size()) flows_.resize(flow_id + 1);
  flows_[flow_id] = Expected{qos::Phb::kBe, Owner::kHandler, vpn::kGlobalVpn,
                             static_cast<std::uint32_t>(handlers_.size())};
  handlers_.push_back(std::move(handler));
}

void MeasurementSink::bind(vpn::Router& ce) {
  ce.set_local_sink([this](const net::Packet& p, vpn::VpnId vpn) {
    on_delivery(p, vpn);
  });
}

void MeasurementSink::on_delivery(const net::Packet& p, vpn::VpnId vpn) {
  delivered_.add();
  // Isolation first: a packet delivered into a VPN context that does not
  // match its origin is a leak regardless of flow bookkeeping, and never
  // reaches an endpoint.
  if (p.true_vpn_id != vpn) {
    leaks_.add();
    return;
  }
  if (p.flow_id < flows_.size()) {
    const Expected& e = flows_[p.flow_id];
    if (e.owner == Owner::kProbe) {
      const sim::SimTime latency = clock_.now() - p.created_at;
      const std::size_t bytes =
          net::kIpv4HeaderBytes + net::kL4HeaderBytes + p.payload_bytes;
      probe_.record_delivered(e.cls, p.flow_id, latency, bytes);
      return;
    }
    if (e.owner == Owner::kHandler) {
      handlers_[e.handler](p);
      return;
    }
  }
  unknown_.add();
}

}  // namespace mvpn::traffic
