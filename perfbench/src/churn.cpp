#include "churn.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

namespace mv = mvpn;

namespace {

/// What every PE's VRFs must hold: each VPN's site prefixes (connected
/// toward the CE at the site's own PE, imported with the site's PE as
/// egress elsewhere) and every external route of the VPN, imported with
/// its originating PE as egress at every other PE of the VPN.
class VrfModel {
 public:
  VrfModel(mv::backbone::MplsBackbone& bb,
           const mv::backbone::GeneratedPlan& plan,
           const std::vector<mv::vpn::VpnId>& vpns,
           const std::vector<mv::backbone::MplsBackbone::Site>& sites)
      : bb_(bb), plan_(plan), vpns_(vpns), sites_(sites) {
    const std::size_t pes = plan.backbone.pe_count;
    const std::size_t nv = vpns.size();
    live_vpn_.assign(pes, std::vector<std::int32_t>(kSlotsPerPe, -1));
    live_count_.assign(pes * nv, 0);
    verified_gen_.assign(pes * nv, 0);
    sites_of_.resize(nv);
    pes_of_.resize(nv);
    dirty_.assign(nv, true);
    for (std::size_t i = 0; i < plan.sites.size(); ++i) {
      const auto& s = plan.sites[i];
      sites_of_[s.vpn].push_back(i);
      auto& pv = pes_of_[s.vpn];
      const auto pe = static_cast<std::uint32_t>(s.pe);
      if (std::find(pv.begin(), pv.end(), pe) == pv.end()) pv.push_back(pe);
    }
  }

  void apply(const ChurnEvent& e) {
    if (e.kind != ChurnEvent::Kind::kOriginate) return;
    for (std::uint32_t s : e.slots) {
      if (live_vpn_[e.pe][s] >= 0) {
        throw std::logic_error("churn model: slot originated twice");
      }
      live_vpn_[e.pe][s] = static_cast<std::int32_t>(e.vpn);
    }
    live_count_[idx(e.pe, e.vpn)] += e.slots.size();
    dirty_[e.vpn] = true;
  }

  /// Verify every VRF whose contents or expectation changed since its last
  /// verification: a RouteTable whose generation has not moved, under an
  /// unchanged expectation, still holds what was verified.
  bool check() {
    bool ok = true;
    for (std::uint32_t v = 0; v < vpns_.size(); ++v) {
      for (std::uint32_t pe : pes_of_[v]) {
        const mv::vpn::Vrf* vrf = bb_.pe(pe).vrf_by_vpn(vpns_[v]);
        if (vrf == nullptr) {
          ok = false;
          continue;
        }
        std::uint64_t& seen = verified_gen_[idx(pe, v)];
        const std::uint64_t gen = vrf->table().generation();
        if (!dirty_[v] && gen == seen) continue;
        const bool good = verify(pe, v, vrf->table());
        seen = good ? gen : 0;
        ok = ok && good;
      }
      dirty_[v] = false;
    }
    return ok;
  }

 private:
  [[nodiscard]] std::size_t idx(std::uint32_t pe, std::uint32_t v) const {
    return pe * vpns_.size() + v;
  }

  bool verify(std::uint32_t pe, std::uint32_t v,
              const mv::ip::RouteTable& t) const {
    std::size_t expected = sites_of_[v].size();
    for (std::uint32_t other : pes_of_[v]) {
      if (other != pe) expected += live_count_[idx(other, v)];
    }
    if (t.size() != expected) return false;
    for (std::size_t si : sites_of_[v]) {
      const mv::backbone::PlanSite& s = plan_.sites[si];
      const mv::ip::RouteEntry* e = t.find(s.prefix);
      if (e == nullptr) return false;
      const bool good =
          s.pe == pe ? e->source == mv::ip::RouteSource::kConnected &&
                           e->next_hop.node == sites_[si].ce->id()
                     : e->source == mv::ip::RouteSource::kVpn &&
                           e->egress_pe == bb_.pe(s.pe).id();
      if (!good) return false;
    }
    for (std::uint32_t other : pes_of_[v]) {
      if (other == pe || live_count_[idx(other, v)] == 0) continue;
      const mv::ip::NodeId egress = bb_.pe(other).id();
      for (std::uint32_t s = 0; s < kSlotsPerPe; ++s) {
        if (live_vpn_[other][s] != static_cast<std::int32_t>(v)) continue;
        const mv::ip::RouteEntry* e = t.find(external_prefix(other, s));
        if (e == nullptr || e->source != mv::ip::RouteSource::kVpn ||
            e->egress_pe != egress) {
          return false;
        }
      }
    }
    return true;
  }

  mv::backbone::MplsBackbone& bb_;
  const mv::backbone::GeneratedPlan& plan_;
  const std::vector<mv::vpn::VpnId>& vpns_;
  const std::vector<mv::backbone::MplsBackbone::Site>& sites_;
  std::vector<std::vector<std::int32_t>> live_vpn_;  ///< [pe][slot] -> vpn
  std::vector<std::size_t> live_count_;              ///< [pe, vpn]
  std::vector<std::uint64_t> verified_gen_;          ///< [pe, vpn]
  std::vector<std::vector<std::size_t>> sites_of_;
  std::vector<std::vector<std::uint32_t>> pes_of_;
  std::vector<bool> dirty_;
};

void originate(mv::backbone::MplsBackbone& bb,
               const std::vector<mv::vpn::VpnId>& vpns, const ChurnEvent& e) {
  for (std::uint32_t s : e.slots) {
    bb.service.originate_external(vpns[e.vpn], bb.pe(e.pe),
                                  external_prefix(e.pe, s));
  }
}

}  // namespace

void originate_initial(mv::backbone::MplsBackbone& bb,
                       const std::vector<mv::vpn::VpnId>& vpns,
                       const ChurnPlan& cp) {
  for (const ChurnEvent& e : cp.initial) originate(bb, vpns, e);
}

ChurnResult drive_churn(
    mv::backbone::MplsBackbone& bb, const mv::backbone::GeneratedPlan& plan,
    const std::vector<mv::vpn::VpnId>& vpns,
    const std::vector<mv::backbone::MplsBackbone::Site>& sites,
    const ChurnPlan& cp, Tracer& tr) {
  // Core P-P links in build order: the ring, then the chords.
  std::vector<bool> is_p(bb.topo.node_count(), false);
  for (const auto* p : bb.ps()) is_p[p->id()] = true;
  std::vector<mv::net::LinkId> core;
  for (std::size_t li = 0; li < bb.topo.link_count(); ++li) {
    const mv::net::Link& l = bb.topo.link(static_cast<mv::net::LinkId>(li));
    if (is_p[l.end_a().node] && is_p[l.end_b().node]) {
      core.push_back(static_cast<mv::net::LinkId>(li));
    }
  }
  if (core.size() != cp.core_links) {
    throw std::logic_error("churn: core link count differs from the plan");
  }

  ChurnResult out;
  VrfModel model(bb, plan, vpns, sites);
  for (const ChurnEvent& e : cp.initial) model.apply(e);
  out.boot_ok = model.check();

  Phase churn(tr, "churn");
  out.samples.reserve(cp.events.size());
  for (const ChurnEvent& e : cp.events) {
    Phase ev(tr, to_string(e.kind));
    switch (e.kind) {
      case ChurnEvent::Kind::kOriginate:
        originate(bb, vpns, e);
        break;
      case ChurnEvent::Kind::kCost:
        bb.topo.link(core[e.link]).set_igp_cost(e.cost);
        bb.igp.notify_link_change(core[e.link]);
        break;
      case ChurnEvent::Kind::kFail:
      case ChurnEvent::Kind::kRestore:
        bb.topo.link(core[e.link]).set_up(e.kind ==
                                          ChurnEvent::Kind::kRestore);
        bb.igp.notify_link_change(core[e.link]);
        break;
    }
    bb.topo.scheduler().run();
    ChurnSample sample;
    sample.kind = e.kind;
    sample.ms = ev.stop() * 1e3;
    out.churn_s += sample.ms * 1e-3;
    model.apply(e);
    sample.ok = model.check();
    out.samples.push_back(sample);
  }
  churn.stop();
  return out;
}

ControlCounters read_control(mv::backbone::MplsBackbone& bb) {
  ControlCounters c;
  c.bgp_msgs =
      bb.cp.message_count("bgp.update") + bb.cp.message_count("bgp.withdraw");
  c.bgp_bytes =
      bb.cp.byte_count("bgp.update") + bb.cp.byte_count("bgp.withdraw");
  c.adj_rib_bytes = bb.bgp.adj_rib_bytes();
  c.adj_rib_routes = bb.bgp.adj_rib_routes();
  c.spf_full = bb.igp.spf_full_runs();
  c.spf_incremental = bb.igp.spf_incremental_runs();
  c.spf_skipped = bb.igp.spf_skipped();
  c.edges_relaxed = bb.igp.edges_relaxed();
  return c;
}

ChurnRep run_churn_rep(const mv::backbone::GeneratedPlan& plan,
                       const ChurnPlan& cp, ChurnStop stop, Tracer& tr) {
  ChurnRep rep;
  Phase build(tr, "build");
  mv::backbone::MplsBackbone bb(plan.backbone);
  std::vector<mv::vpn::VpnId> vpns;
  for (const std::string& name : plan.vpns) {
    vpns.push_back(bb.service.create_vpn(name));
  }
  std::vector<mv::backbone::MplsBackbone::Site> sites;
  for (const mv::backbone::PlanSite& s : plan.sites) {
    sites.push_back(bb.add_site(vpns[s.vpn], s.pe, s.prefix));
  }
  originate_initial(bb, vpns, cp);
  rep.build_s = build.stop();
  if (stop == ChurnStop::kAfterBuild) return rep;

  {
    Phase boot(tr, "boot");
    const std::uint64_t ev0 = bb.topo.base_scheduler().executed_count();
    bb.start_and_converge();
    rep.boot_events = bb.topo.base_scheduler().executed_count() - ev0;
    rep.converge_s = boot.stop();
  }
  if (stop == ChurnStop::kAfterBoot) return rep;
  rep.churn = drive_churn(bb, plan, vpns, sites, cp, tr);
  rep.control = read_control(bb);
  return rep;
}

}  // namespace perfbench
