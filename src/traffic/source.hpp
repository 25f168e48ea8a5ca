#pragma once

#include <cstdint>
#include <memory>

#include "qos/dscp.hpp"
#include "qos/sla.hpp"
#include "traffic/flowset.hpp"
#include "vpn/router.hpp"

namespace mvpn::traffic {

/// Static description of one generated flow.
struct FlowSpec {
  ip::Ipv4Address src;
  ip::Ipv4Address dst;
  std::uint16_t src_port = 10000;
  std::uint16_t dst_port = 20000;
  std::uint8_t protocol = 17;
  std::size_t payload_bytes = 472;  ///< 500B IP packets by default
  vpn::VpnId vpn = vpn::kGlobalVpn;  ///< ground truth stamped on packets
  /// Class this flow is accounted under in the SLA probe, and (when
  /// `premark` is true) the DSCP written by the host itself.
  qos::Phb phb = qos::Phb::kBe;
  bool premark = false;
};

/// One generated flow injected at `attach` (which applies the CE edge
/// policy), with sent-side SLA accounting. A one-flow façade over
/// FlowSet, the only packet-emission engine: run() builds a FlowSet
/// holding just this flow on the scheduler that owns the attachment
/// node's events (its shard's under a parallel run). Destroying a running
/// source cancels its pending emission.
class Source {
 public:
  virtual ~Source() = default;

  Source(const Source&) = delete;
  Source& operator=(const Source&) = delete;

  /// Generate packets during [start, stop). `start` is clamped to the
  /// scheduler's now (scenarios often say "start at 0" after convergence
  /// already consumed some simulated time).
  void run(sim::SimTime start, sim::SimTime stop);

  [[nodiscard]] std::uint32_t flow_id() const noexcept { return def_.flow_id; }
  [[nodiscard]] const FlowSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::uint64_t packets_sent() const noexcept {
    return set_ ? set_->packets_sent() : 0;
  }

 protected:
  Source(vpn::Router& attach, FlowSpec spec, std::uint32_t flow_id,
         qos::SlaProbe* probe, FlowSet::Kind kind, double rate_bps,
         double mean_on_s = 0.2, double mean_off_s = 0.2);

 private:
  vpn::Router& attach_;
  FlowSpec spec_;
  qos::SlaProbe* probe_;
  FlowSet::FlowDef def_;
  std::unique_ptr<FlowSet> set_;
};

/// Constant-bit-rate source (the voice-like workload of the QoS
/// experiments): fixed-size packets at fixed intervals.
class CbrSource final : public Source {
 public:
  /// `rate_bps` of IP-level goodput (header+payload).
  CbrSource(vpn::Router& attach, FlowSpec spec, std::uint32_t flow_id,
            qos::SlaProbe* probe, double rate_bps)
      : Source(attach, spec, flow_id, probe, FlowSet::Kind::kCbr, rate_bps) {}
};

/// Poisson arrivals at a mean rate (classic data traffic model).
class PoissonSource final : public Source {
 public:
  PoissonSource(vpn::Router& attach, FlowSpec spec, std::uint32_t flow_id,
                qos::SlaProbe* probe, double mean_rate_bps)
      : Source(attach, spec, flow_id, probe, FlowSet::Kind::kPoisson,
               mean_rate_bps) {}
};

/// Exponential on/off source (bursty video-like traffic): CBR at
/// `peak_bps` during on periods, silent during off periods.
class OnOffSource final : public Source {
 public:
  OnOffSource(vpn::Router& attach, FlowSpec spec, std::uint32_t flow_id,
              qos::SlaProbe* probe, double peak_bps, double mean_on_s,
              double mean_off_s)
      : Source(attach, spec, flow_id, probe, FlowSet::Kind::kOnOff, peak_bps,
               mean_on_s, mean_off_s) {}
};

}  // namespace mvpn::traffic
