#pragma once

// Reference oracle: the per-flow virtual Source engine the repository
// shipped before traffic::FlowSet became the only packet-emission engine.
// Kept verbatim (namespace aside) so identity tests and the megaflow bench
// gates can keep comparing FlowSet against the original implementation.
// Not part of the library; nothing under src/ may depend on it.

#include <cstdint>
#include <memory>
#include <string>

#include "qos/dscp.hpp"
#include "qos/sla.hpp"
#include "sim/rng.hpp"
#include "traffic/source.hpp"
#include "vpn/router.hpp"

namespace mvpn::traffic::reference {

/// Base class for packet generators. Subclasses define the interarrival
/// process; the base handles scheduling, packet construction, injection at
/// the attachment router (which applies the CE edge policy) and sent-side
/// SLA accounting.
class Source {
 public:
  Source(vpn::Router& attach, FlowSpec spec, std::uint32_t flow_id,
         qos::SlaProbe* probe);
  virtual ~Source() = default;

  Source(const Source&) = delete;
  Source& operator=(const Source&) = delete;

  /// Generate packets during [start, stop).
  void run(sim::SimTime start, sim::SimTime stop);

  [[nodiscard]] std::uint32_t flow_id() const noexcept { return flow_id_; }
  [[nodiscard]] const FlowSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::uint64_t packets_sent() const noexcept { return sent_; }

 protected:
  /// Time until the next packet emission.
  [[nodiscard]] virtual sim::SimTime next_interval() = 0;
  [[nodiscard]] sim::Rng& rng() noexcept { return rng_; }

 private:
  void emit();

  vpn::Router& attach_;
  FlowSpec spec_;
  std::uint32_t flow_id_;
  qos::SlaProbe* probe_;
  sim::Rng rng_;
  sim::SimTime stop_at_ = 0;
  std::uint64_t sent_ = 0;
};

/// Constant-bit-rate source (the voice-like workload of the QoS
/// experiments): fixed-size packets at fixed intervals.
class CbrSource final : public Source {
 public:
  /// `rate_bps` of IP-level goodput (header+payload).
  CbrSource(vpn::Router& attach, FlowSpec spec, std::uint32_t flow_id,
            qos::SlaProbe* probe, double rate_bps);

 protected:
  sim::SimTime next_interval() override { return interval_; }

 private:
  sim::SimTime interval_;
};

/// Poisson arrivals at a mean rate (classic data traffic model).
class PoissonSource final : public Source {
 public:
  PoissonSource(vpn::Router& attach, FlowSpec spec, std::uint32_t flow_id,
                qos::SlaProbe* probe, double mean_rate_bps);

 protected:
  sim::SimTime next_interval() override;

 private:
  double mean_interval_s_;
};

/// Exponential on/off source (bursty video-like traffic): CBR at
/// `peak_bps` during on periods, silent during off periods.
class OnOffSource final : public Source {
 public:
  OnOffSource(vpn::Router& attach, FlowSpec spec, std::uint32_t flow_id,
              qos::SlaProbe* probe, double peak_bps, double mean_on_s,
              double mean_off_s);

 protected:
  sim::SimTime next_interval() override;

 private:
  sim::SimTime on_interval_;
  double mean_on_s_;
  double mean_off_s_;
  sim::SimTime burst_remaining_ = 0;
};

}  // namespace mvpn::traffic::reference
