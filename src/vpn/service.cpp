#include "vpn/service.hpp"

#include <algorithm>
#include <stdexcept>

namespace mvpn::vpn {

MplsVpnService::MplsVpnService(net::Topology& topo, routing::ControlPlane& cp,
                               routing::Igp& igp, mpls::MplsDomain& domain,
                               mpls::Ldp& ldp, routing::Bgp& bgp,
                               std::uint32_t asn)
    : topo_(topo),
      cp_(cp),
      igp_(igp),
      domain_(domain),
      ldp_(ldp),
      bgp_(bgp),
      asn_(asn) {
  bgp_.on_route([this](ip::NodeId at, const routing::VpnRoute& route,
                       bool withdrawn) { import_route(at, route, withdrawn); });
}

void MplsVpnService::add_provider_router(Router& r) {
  if (r.role() == Role::kCe) {
    throw std::invalid_argument("add_provider_router: CE is not a provider");
  }
  providers_[r.id()] = &r;
  igp_.add_router(r.id());
  ldp_.enable_router(r.id());
  r.set_lsr_state(&domain_.state_of(r.id()));
  r.set_ldp(&ldp_);
  if (r.role() == Role::kPe) {
    bgp_.add_speaker(r.id());
    bgp_.enable_rt_filter(r.id());
    pes_.push_back(r.id());
  }
}

VpnId MplsVpnService::create_vpn(const std::string& name) {
  const VpnId id = next_vpn_++;
  vpns_[id].name = name;
  return id;
}

routing::RouteDistinguisher MplsVpnService::rd_of(VpnId id) const {
  return routing::RouteDistinguisher{asn_, id};
}

routing::RouteTarget MplsVpnService::rt_of(VpnId id) const {
  return routing::RouteTarget{asn_, id};
}

const std::string& MplsVpnService::name_of(VpnId id) const {
  return vpns_.at(id).name;
}

void MplsVpnService::add_extranet_import(VpnId importer, VpnId exported) {
  vpns_.at(importer).extra_imports.push_back(rt_of(exported));
}

Vrf& MplsVpnService::ensure_vrf(Router& pe, VpnId vpn) {
  if (Vrf* existing = pe.vrf_by_vpn(vpn)) return *existing;

  const VpnInfo& info = vpns_.at(vpn);
  VrfConfig cfg;
  cfg.vpn_id = vpn;
  cfg.name = info.name;
  cfg.rd = rd_of(vpn);
  cfg.import_targets.push_back(rt_of(vpn));
  for (const auto& rt : info.extra_imports) cfg.import_targets.push_back(rt);
  cfg.export_targets.push_back(rt_of(vpn));

  Vrf& vrf = pe.add_vrf(std::move(cfg));
  // Per-VRF aggregate label: remote PEs push it; we pop-and-deliver.
  mpls::LsrState& lsr = domain_.state_of(pe.id());
  const std::uint32_t label = lsr.allocator.allocate();
  vrf.set_vpn_label(label);
  mpls::LfibEntry entry;
  entry.in_label = label;
  entry.op = mpls::LabelOp::kPopDeliver;
  entry.vrf_id = vpn;
  lsr.lfib.install(entry);

  // The PE keeps only the routes its VRFs import (§4.2). A VRF created
  // after start also takes the matching routes already in the Loc-RIB; the
  // ones the PE filtered out come back through the route refresh.
  bgp_.add_import_targets(pe.id(), vrf.config().import_targets);
  if (started_) {
    for (const routing::VpnRoute& route : bgp_.loc_rib(pe.id())) {
      if (route.next_hop_node == pe.id() || !vrf.imports(route)) continue;
      install_route(vrf, route);
      imported_[pe.id()][{route.rd, route.prefix}].push_back(vpn);
    }
  }
  return vrf;
}

void MplsVpnService::install_route(Vrf& vrf, const routing::VpnRoute& route) {
  ip::RouteEntry entry;
  entry.prefix = route.prefix;
  entry.source = ip::RouteSource::kVpn;
  entry.admin_distance = ip::default_admin_distance(ip::RouteSource::kVpn);
  entry.vpn_label = route.vpn_label;
  entry.egress_pe = route.next_hop_node;
  vrf.table().install(entry);
}

void MplsVpnService::add_site(VpnId vpn, Router& pe, Router& ce,
                              const ip::Prefix& site_prefix,
                              std::uint32_t local_pref) {
  if (providers_.find(pe.id()) == providers_.end()) {
    throw std::invalid_argument("add_site: PE is not a registered provider");
  }
  const ip::IfIndex pe_if = pe.interface_to(ce.id());
  const ip::IfIndex ce_if = ce.interface_to(pe.id());
  if (pe_if == ip::kInvalidIf || ce_if == ip::kInvalidIf) {
    throw std::invalid_argument("add_site: CE and PE are not adjacent");
  }

  // CE side: the site prefix terminates here; everything else goes to the
  // PE (the paper's point that CEs need no VPN/MPLS intelligence).
  ce.add_local_prefix(site_prefix, vpn);
  ip::RouteEntry def;
  def.prefix = ip::Prefix(ip::Ipv4Address(0), 0);
  def.next_hop.node = pe.id();
  def.next_hop.iface = ce_if;
  def.source = ip::RouteSource::kStatic;
  ce.fib().install(def);

  // PE side: VRF, attachment, connected route toward the CE.
  Vrf& vrf = ensure_vrf(pe, vpn);
  pe.bind_interface_to_vrf(pe_if, vpn);
  ip::RouteEntry site;
  site.prefix = site_prefix;
  site.next_hop.node = ce.id();
  site.next_hop.iface = pe_if;
  site.source = ip::RouteSource::kConnected;
  site.admin_distance = 0;
  vrf.table().install(site);

  vpns_.at(vpn).sites.push_back(site_prefix);

  // Reachability exchange (§4.2): originate the VPN-IPv4 route.
  routing::VpnRoute route;
  route.rd = rd_of(vpn);
  route.prefix = site_prefix;
  route.next_hop = pe.loopback();
  route.next_hop_node = pe.id();
  route.vpn_label = vrf.vpn_label();
  route.route_targets.push_back(rt_of(vpn));
  route.local_pref = local_pref;
  if (started_) {
    bgp_.originate(pe.id(), route);
  } else {
    pending_.push_back(PendingRoute{pe.id(), std::move(route)});
  }
}

void MplsVpnService::fail_pe(Router& pe) {
  bgp_.fail_speaker(pe.id());
  for (const net::Interface& intf : pe.interfaces()) {
    if (intf.link == net::kInvalidLink) continue;
    net::Link& link = topo_.link(intf.link);
    if (link.up()) {
      link.set_up(false);
      igp_.notify_link_change(intf.link);
    }
  }
}

Vrf& MplsVpnService::bind_vrf_interface(VpnId vpn, Router& pe,
                                        ip::NodeId neighbor) {
  const ip::IfIndex iface = pe.interface_to(neighbor);
  if (iface == ip::kInvalidIf) {
    throw std::invalid_argument("bind_vrf_interface: not adjacent");
  }
  Vrf& vrf = ensure_vrf(pe, vpn);
  pe.bind_interface_to_vrf(iface, vpn);
  return vrf;
}

void MplsVpnService::originate_external(VpnId vpn, Router& pe,
                                        const ip::Prefix& prefix) {
  Vrf& vrf = ensure_vrf(pe, vpn);
  routing::VpnRoute route;
  route.rd = rd_of(vpn);
  route.prefix = prefix;
  route.next_hop = pe.loopback();
  route.next_hop_node = pe.id();
  route.vpn_label = vrf.vpn_label();
  route.route_targets.push_back(rt_of(vpn));
  if (started_) {
    bgp_.originate(pe.id(), route);
  } else {
    pending_.push_back(PendingRoute{pe.id(), std::move(route)});
  }
}

void MplsVpnService::withdraw_external(VpnId vpn, Router& pe,
                                       const ip::Prefix& prefix) {
  if (started_) bgp_.withdraw(pe.id(), rd_of(vpn), prefix);
}

void MplsVpnService::remove_site(VpnId vpn, Router& pe,
                                 const ip::Prefix& site_prefix) {
  if (Vrf* vrf = pe.vrf_by_vpn(vpn)) vrf->table().remove(site_prefix);
  auto& sites = vpns_.at(vpn).sites;
  for (auto it = sites.begin(); it != sites.end(); ++it) {
    if (*it == site_prefix) {
      sites.erase(it);
      break;
    }
  }
  if (started_) {
    bgp_.withdraw(pe.id(), rd_of(vpn), site_prefix);
  }
}

void MplsVpnService::start() {
  if (started_) return;
  started_ = true;
  igp_.start();
  for (ip::NodeId pe : pes_) {
    ldp_.announce_egress(pe,
                         ip::Prefix::host(topo_.node(pe).loopback()));
  }
  bgp_.start();
  for (PendingRoute& p : pending_) bgp_.originate(p.pe, std::move(p.route));
  pending_.clear();
}

void MplsVpnService::converge() { topo_.scheduler().run(); }

void MplsVpnService::import_route(ip::NodeId at,
                                  const routing::VpnRoute& route,
                                  bool withdrawn) {
  auto prov = providers_.find(at);
  if (prov == providers_.end()) return;  // a dedicated RR holds no VRFs
  Router& pe = *prov->second;
  last_route_change_at_ = cp_.now();
  const routing::VpnRouteKey key{route.rd, route.prefix};

  if (!withdrawn && route.next_hop_node == at) return;  // own origination
  std::vector<VpnId> importers;
  if (!withdrawn) {
    for (Vrf* vrf : pe.vrfs()) {
      if (!vrf->imports(route)) continue;
      install_route(*vrf, route);
      importers.push_back(vrf->vpn_id());
    }
  }
  // VRFs that imported the previous best but not this one (or any, on a
  // withdraw) drop the route.
  auto& by_key = imported_[at];
  auto key_it = by_key.find(key);
  if (key_it != by_key.end()) {
    for (VpnId vpn : key_it->second) {
      Vrf* vrf = pe.vrf_by_vpn(vpn);
      if (vrf == nullptr || std::find(importers.begin(), importers.end(),
                                      vpn) != importers.end()) {
        continue;
      }
      const ip::RouteEntry* cur = vrf->table().find(route.prefix);
      // Never remove a locally connected site route.
      if (cur != nullptr && cur->source == ip::RouteSource::kVpn) {
        vrf->table().remove(route.prefix);
      }
    }
    if (importers.empty()) {
      by_key.erase(key_it);
    } else {
      key_it->second = std::move(importers);
    }
  } else if (!importers.empty()) {
    by_key.emplace(key, std::move(importers));
  }
}

std::size_t MplsVpnService::total_vrf_count() const {
  std::size_t n = 0;
  for (const auto& [id, r] : providers_) {
    n += static_cast<std::size_t>(r->vrf_count());
  }
  return n;
}

std::size_t MplsVpnService::total_vrf_routes() const {
  std::size_t n = 0;
  for (const auto& [id, r] : providers_) {
    for (const Vrf* v :
         const_cast<Router*>(r)->vrfs()) {  // vrfs() is logically const
      n += v->table().size();
    }
  }
  return n;
}

std::size_t MplsVpnService::total_bgp_loc_rib() const {
  std::size_t n = 0;
  for (ip::NodeId pe : pes_) n += bgp_.loc_rib_size(pe);
  return n;
}

std::size_t MplsVpnService::site_count(VpnId vpn) const {
  return vpns_.at(vpn).sites.size();
}

}  // namespace mvpn::vpn
