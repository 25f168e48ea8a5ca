#include "traffic/source.hpp"

namespace mvpn::traffic {

Source::Source(vpn::Router& attach, FlowSpec spec, std::uint32_t flow_id,
               qos::SlaProbe* probe, FlowSet::Kind kind, double rate_bps,
               double mean_on_s, double mean_off_s)
    : attach_(attach), spec_(spec), probe_(probe) {
  def_.flow_id = flow_id;
  def_.from_site = 0;
  def_.to_site = 1;
  def_.kind = kind;
  def_.rate_bps = rate_bps;
  def_.on_s = mean_on_s;
  def_.off_s = mean_off_s;
  def_.vpn = spec.vpn;
  def_.phb = spec.phb;
  def_.premark = spec.premark;
  def_.protocol = spec.protocol;
  def_.src_port = spec.src_port;
  def_.dst_port = spec.dst_port;
  def_.payload_bytes = static_cast<std::uint32_t>(spec.payload_bytes);
}

void Source::run(sim::SimTime start, sim::SimTime stop) {
  net::Topology& topo = attach_.topology();
  // run() executes on the coordinator, so the ambient scheduler() would be
  // the serial one; bind the set to the scheduler that owns the attachment
  // node's events explicitly. Emissions then run on that shard's thread,
  // where the ambient packet-factory accessor resolves correctly.
  set_ = std::make_unique<FlowSet>(topo.scheduler_for(attach_.id()), probe_,
                                   topo.seed());
  set_->add_site(attach_, spec_.src);
  set_->add_site(attach_, spec_.dst);  // only the host address is read
  def_.start = start;
  set_->add_flow(def_);
  set_->run(stop);
}

}  // namespace mvpn::traffic
