#include "reference/legacy_source.hpp"

#include <algorithm>

namespace mvpn::traffic::reference {

Source::Source(vpn::Router& attach, FlowSpec spec, std::uint32_t flow_id,
               qos::SlaProbe* probe)
    : attach_(attach),
      spec_(spec),
      flow_id_(flow_id),
      probe_(probe),
      rng_(sim::Rng::stream(attach.topology().seed(), flow_id)) {}

void Source::run(sim::SimTime start, sim::SimTime stop) {
  stop_at_ = stop;
  // run() executes on the coordinator, so the ambient scheduler() would be
  // the serial one; address the scheduler that owns the attachment node's
  // events explicitly (its shard's under a parallel run). emit() then runs
  // on that shard's thread, where the ambient accessors resolve correctly.
  sim::Scheduler& sched = attach_.topology().scheduler_for(attach_.id());
  // Clamp: scenarios often say "start at 0" after convergence already
  // consumed some simulated time.
  sched.schedule_at(std::max(start, sched.now()), [this] { emit(); });
}

void Source::emit() {
  sim::Scheduler& sched = attach_.topology().scheduler();
  if (sched.now() >= stop_at_) return;

  net::PacketPtr p = attach_.topology().packet_factory().make();
  // Re-stamp the factory id with (flow, sequence): a pure function of the
  // flow, so traces carry the same packet identities no matter how many
  // other sources allocate concurrently — or which shard's pool the packet
  // came from. Control-plane packets keep factory ids (all < 2^32).
  p->id = (std::uint64_t{flow_id_} << 32) | (sent_ + 1);
  p->flow_id = flow_id_;
  p->created_at = sched.now();
  p->true_vpn_id = spec_.vpn;
  p->ip.src = spec_.src;
  p->ip.dst = spec_.dst;
  p->ip.protocol = spec_.protocol;
  p->ip.dscp = spec_.premark ? qos::dscp_of(spec_.phb) : 0;
  p->l4.src_port = spec_.src_port;
  p->l4.dst_port = spec_.dst_port;
  p->payload_bytes = spec_.payload_bytes;

  ++sent_;
  if (probe_ != nullptr) {
    probe_->record_sent(spec_.phb, net::kIpv4HeaderBytes +
                                       net::kL4HeaderBytes +
                                       spec_.payload_bytes);
  }
  attach_.inject(std::move(p));

  const sim::SimTime gap = next_interval();
  if (sched.now() + gap < stop_at_) {
    sched.schedule_in(gap, [this] { emit(); });
  }
}

CbrSource::CbrSource(vpn::Router& attach, FlowSpec spec, std::uint32_t flow_id,
                     qos::SlaProbe* probe, double rate_bps)
    : Source(attach, spec, flow_id, probe),
      interval_(interval_for_rate(rate_bps, spec.payload_bytes)) {}

PoissonSource::PoissonSource(vpn::Router& attach, FlowSpec spec,
                             std::uint32_t flow_id, qos::SlaProbe* probe,
                             double mean_rate_bps)
    : Source(attach, spec, flow_id, probe),
      mean_interval_s_(sim::to_seconds(
          interval_for_rate(mean_rate_bps, spec.payload_bytes))) {}

sim::SimTime PoissonSource::next_interval() {
  return sim::from_seconds(rng().exponential(mean_interval_s_));
}

OnOffSource::OnOffSource(vpn::Router& attach, FlowSpec spec,
                         std::uint32_t flow_id, qos::SlaProbe* probe,
                         double peak_bps, double mean_on_s, double mean_off_s)
    : Source(attach, spec, flow_id, probe),
      on_interval_(interval_for_rate(peak_bps, spec.payload_bytes)),
      mean_on_s_(mean_on_s),
      mean_off_s_(mean_off_s) {}

sim::SimTime OnOffSource::next_interval() {
  if (burst_remaining_ > 0) {
    burst_remaining_ -= on_interval_;
    return on_interval_;
  }
  // Burst over: draw the off gap and the next burst length.
  const sim::SimTime off = sim::from_seconds(rng().exponential(mean_off_s_));
  burst_remaining_ = sim::from_seconds(rng().exponential(mean_on_s_));
  return off + on_interval_;
}

}  // namespace mvpn::traffic::reference
