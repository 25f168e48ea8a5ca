#include "backbone/fixtures.hpp"

namespace mvpn::backbone {

MplsBackbone::MplsBackbone(const BackboneConfig& config)
    : topo(config.seed),
      cp(topo),
      igp(cp),
      ldp(cp, igp, domain),
      bgp(cp, config.bgp_mode),
      rsvp(cp, igp, domain),
      service(topo, cp, igp, domain, ldp, bgp),
      config_(config) {
  net::LinkConfig core_link;
  core_link.bandwidth_bps = config_.core_bw_bps;
  core_link.prop_delay = config_.core_delay;
  core_link.igp_cost = 1;
  core_link.queue_factory = config_.core_queue;

  for (std::size_t i = 0; i < config_.p_count; ++i) {
    auto& r = topo.add_node<vpn::Router>(
        std::string("P").append(std::to_string(i)), vpn::Role::kP);
    ps_.push_back(&r);
    service.add_provider_router(r);
  }
  if (config_.p_count > 1) {
    for (std::size_t i = 0; i < config_.p_count; ++i) {
      const std::size_t j = (i + 1) % config_.p_count;
      if (config_.p_count == 2 && i == 1) break;  // avoid double link
      topo.connect(ps_[i]->id(), ps_[j]->id(), core_link);
    }
  }
  // Chords: each pair wired once (i < j), and strides that would duplicate
  // a ring edge (1 or p-1) are out of range by the `+ 2` bound.
  if (config_.core_chord_stride >= 2 &&
      config_.core_chord_stride + 2 <= config_.p_count) {
    for (std::size_t i = 0; i < config_.p_count; ++i) {
      const std::size_t j =
          (i + config_.core_chord_stride) % config_.p_count;
      if (i < j) topo.connect(ps_[i]->id(), ps_[j]->id(), core_link);
    }
  }

  for (std::size_t i = 0; i < config_.pe_count; ++i) {
    auto& r = topo.add_node<vpn::Router>("PE" + std::to_string(i),
                                         vpn::Role::kPe);
    pes_.push_back(&r);
    service.add_provider_router(r);
    r.set_rsvp(&rsvp);
    if (!ps_.empty()) {
      topo.connect(r.id(), ps_[i % ps_.size()]->id(), core_link);
      if (ps_.size() > 1) {
        // Dual-home for path diversity.
        topo.connect(r.id(), ps_[(i + 1) % ps_.size()]->id(), core_link);
      }
    }
  }
  // PE-PE direct mesh when there is no P core at all.
  if (ps_.empty()) {
    for (std::size_t i = 0; i < pes_.size(); ++i) {
      for (std::size_t j = i + 1; j < pes_.size(); ++j) {
        topo.connect(pes_[i]->id(), pes_[j]->id(), core_link);
      }
    }
  }

  if (config_.bgp_mode == routing::Bgp::Mode::kRouteReflector) {
    for (std::size_t i = 0; i < config_.route_reflector_count; ++i) {
      auto& rr = topo.add_node<vpn::Router>("RR" + std::to_string(i),
                                            vpn::Role::kP);
      rrs_.push_back(&rr);
      if (!ps_.empty()) {
        topo.connect(rr.id(), ps_[i % ps_.size()]->id(), core_link);
      }
      service.add_provider_router(rr);
      bgp.add_route_reflector(rr.id());
    }
  }
}

MplsBackbone::Site MplsBackbone::add_site(vpn::VpnId vpn,
                                          std::size_t pe_index,
                                          const ip::Prefix& site_prefix) {
  vpn::Router& pe_router = *pes_.at(pe_index);
  auto& ce = topo.add_node<vpn::Router>(
      "CE" + std::to_string(ces_.size()), vpn::Role::kCe);
  ces_.push_back(&ce);

  net::LinkConfig edge;
  edge.bandwidth_bps = config_.edge_bw_bps;
  edge.prop_delay = config_.edge_delay;
  topo.connect(ce.id(), pe_router.id(), edge);

  service.add_site(vpn, pe_router, ce, site_prefix);
  return Site{&ce, site_prefix, pe_index};
}

void MplsBackbone::start_and_converge() {
  service.start();
  service.converge();
}

Figure2Scenario make_figure2_scenario(std::uint64_t seed) {
  BackboneConfig cfg;
  cfg.p_count = 1;
  cfg.pe_count = 2;
  cfg.seed = seed;
  Figure2Scenario s;
  s.backbone = std::make_unique<MplsBackbone>(cfg);
  s.vpn1 = s.backbone->service.create_vpn("V1");
  s.vpn2 = s.backbone->service.create_vpn("V2");
  // Overlapping address plans on purpose: both VPNs use 10.1/10.2 space.
  s.v1_site1 =
      s.backbone->add_site(s.vpn1, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  s.v1_site2 =
      s.backbone->add_site(s.vpn1, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  s.v2_site1 =
      s.backbone->add_site(s.vpn2, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  s.v2_site2 =
      s.backbone->add_site(s.vpn2, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  return s;
}

DiamondScenario make_diamond_scenario(double core_bw_bps, std::uint64_t seed,
                                      net::QueueDiscFactory core_queue) {
  BackboneConfig cfg;
  cfg.p_count = 0;   // wire the core by hand below
  cfg.pe_count = 0;
  cfg.seed = seed;
  cfg.core_bw_bps = core_bw_bps;
  cfg.core_queue = std::move(core_queue);

  DiamondScenario s;
  s.backbone = std::make_unique<MplsBackbone>(cfg);
  MplsBackbone& bb = *s.backbone;

  auto& pe0 = bb.topo.add_node<vpn::Router>("PE0", vpn::Role::kPe);
  auto& pe1 = bb.topo.add_node<vpn::Router>("PE1", vpn::Role::kPe);
  auto& p0 = bb.topo.add_node<vpn::Router>("P0", vpn::Role::kP);
  auto& p1 = bb.topo.add_node<vpn::Router>("P1", vpn::Role::kP);
  auto& p2 = bb.topo.add_node<vpn::Router>("P2", vpn::Role::kP);
  for (vpn::Router* r : {&pe0, &pe1, &p0, &p1, &p2}) {
    bb.service.add_provider_router(*r);
  }
  pe0.set_rsvp(&bb.rsvp);
  pe1.set_rsvp(&bb.rsvp);
  bb.expose_custom({&p0, &p1, &p2}, {&pe0, &pe1});

  net::LinkConfig core;
  core.bandwidth_bps = core_bw_bps;
  core.prop_delay = 2 * sim::kMillisecond;
  core.igp_cost = 1;
  core.queue_factory = cfg.core_queue;

  // PE attachment trunks are twice the core size so both TE LSPs can be
  // admitted on the shared access links; the contention is in the core.
  net::LinkConfig trunk = core;
  trunk.bandwidth_bps = 2 * core_bw_bps;
  bb.topo.connect(pe0.id(), p0.id(), trunk);
  s.hot_link = bb.topo.connect(p0.id(), p1.id(), core);  // the short path
  bb.topo.connect(p0.id(), p2.id(), core);               // detour, 2 hops
  bb.topo.connect(p2.id(), p1.id(), core);
  bb.topo.connect(p1.id(), pe1.id(), trunk);
  return s;
}

OverlayBackbone::OverlayBackbone(std::size_t core_count, std::uint64_t seed)
    : topo(seed), cp(topo), service(topo, cp) {
  net::LinkConfig core_link;
  core_link.bandwidth_bps = 45e6;
  core_link.prop_delay = 2 * sim::kMillisecond;
  for (std::size_t i = 0; i < core_count; ++i) {
    auto& r = topo.add_node<vpn::Router>("SW" + std::to_string(i),
                                         vpn::Role::kP);
    cores_.push_back(&r);
  }
  for (std::size_t i = 0; i + 1 < core_count; ++i) {
    topo.connect(cores_[i]->id(), cores_[i + 1]->id(), core_link);
  }
  if (core_count > 2) {
    topo.connect(cores_[core_count - 1]->id(), cores_[0]->id(), core_link);
  }
}

vpn::Router& OverlayBackbone::add_ce(std::size_t core_index,
                                     const std::string& name) {
  auto& ce = topo.add_node<vpn::Router>(name, vpn::Role::kCe);
  net::LinkConfig edge;
  edge.bandwidth_bps = 10e6;
  edge.prop_delay = 1 * sim::kMillisecond;
  topo.connect(ce.id(), cores_.at(core_index)->id(), edge);
  return ce;
}

std::unique_ptr<MplsBackbone> make_random_backbone(std::size_t p_count,
                                                   std::size_t pe_count,
                                                   double chord_prob,
                                                   std::uint64_t seed) {
  BackboneConfig cfg;
  cfg.p_count = 0;  // wired below
  cfg.pe_count = 0;
  cfg.seed = seed;
  auto bb = std::make_unique<MplsBackbone>(cfg);
  sim::Rng rng(seed ^ 0xC0FFEE);

  net::LinkConfig core;
  core.bandwidth_bps = 45e6;
  core.prop_delay = 2 * sim::kMillisecond;

  std::vector<vpn::Router*> ps;
  std::vector<vpn::Router*> pes;
  for (std::size_t i = 0; i < p_count; ++i) {
    auto& r = bb->topo.add_node<vpn::Router>(
        std::string("P").append(std::to_string(i)), vpn::Role::kP);
    ps.push_back(&r);
    bb->service.add_provider_router(r);
  }
  // Ring for guaranteed connectivity.
  for (std::size_t i = 0; i < p_count && p_count > 1; ++i) {
    const std::size_t j = (i + 1) % p_count;
    if (p_count == 2 && i == 1) break;
    bb->topo.connect(ps[i]->id(), ps[j]->id(), core);
  }
  // Random chords.
  for (std::size_t i = 0; i < p_count; ++i) {
    for (std::size_t j = i + 2; j < p_count; ++j) {
      if ((i == 0 && j == p_count - 1)) continue;  // already a ring edge
      if (rng.bernoulli(chord_prob)) {
        bb->topo.connect(ps[i]->id(), ps[j]->id(), core);
      }
    }
  }
  // PEs on one or two random attachment points.
  for (std::size_t i = 0; i < pe_count; ++i) {
    auto& pe = bb->topo.add_node<vpn::Router>("PE" + std::to_string(i),
                                              vpn::Role::kPe);
    pes.push_back(&pe);
    bb->service.add_provider_router(pe);
    pe.set_rsvp(&bb->rsvp);
    const auto first = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(p_count) - 1));
    bb->topo.connect(pe.id(), ps[first]->id(), core);
    if (p_count > 1 && rng.bernoulli(0.5)) {
      auto second = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(p_count) - 1));
      if (second == first) second = (second + 1) % p_count;
      bb->topo.connect(pe.id(), ps[second]->id(), core);
    }
  }
  bb->expose_custom(std::move(ps), std::move(pes));
  return bb;
}

TwoProviderBackbone::TwoProviderBackbone(std::uint64_t seed)
    : topo(seed),
      cp(topo),
      igp_a(cp),
      ldp_a(cp, igp_a, domain_a),
      bgp_a(cp, routing::Bgp::Mode::kFullMesh),
      service_a(topo, cp, igp_a, domain_a, ldp_a, bgp_a, 65000),
      igp_b(cp),
      ldp_b(cp, igp_b, domain_b),
      bgp_b(cp, routing::Bgp::Mode::kFullMesh),
      service_b(topo, cp, igp_b, domain_b, ldp_b, bgp_b, 65001) {
  net::LinkConfig core;
  core.bandwidth_bps = 45e6;
  core.prop_delay = 2 * sim::kMillisecond;

  pe_a = &topo.add_node<vpn::Router>("PE_A", vpn::Role::kPe);
  p_a_ = &topo.add_node<vpn::Router>("P_A", vpn::Role::kP);
  asbr_a = &topo.add_node<vpn::Router>("ASBR_A", vpn::Role::kPe);
  pe_b = &topo.add_node<vpn::Router>("PE_B", vpn::Role::kPe);
  p_b_ = &topo.add_node<vpn::Router>("P_B", vpn::Role::kP);
  asbr_b = &topo.add_node<vpn::Router>("ASBR_B", vpn::Role::kPe);

  topo.connect(pe_a->id(), p_a_->id(), core);
  topo.connect(p_a_->id(), asbr_a->id(), core);
  topo.connect(asbr_a->id(), asbr_b->id(), core);  // the NNI
  topo.connect(asbr_b->id(), p_b_->id(), core);
  topo.connect(p_b_->id(), pe_b->id(), core);

  for (vpn::Router* r : {pe_a, p_a_, asbr_a}) {
    service_a.add_provider_router(*r);
  }
  for (vpn::Router* r : {pe_b, p_b_, asbr_b}) {
    service_b.add_provider_router(*r);
  }
  peering =
      std::make_unique<vpn::InterAsPeering>(cp, service_a, *asbr_a,
                                            service_b, *asbr_b);
}

MplsBackbone::Site TwoProviderBackbone::add_site_a(vpn::VpnId vpn,
                                                   const ip::Prefix& prefix) {
  auto& ce = topo.add_node<vpn::Router>("CE" + std::to_string(ces_.size()),
                                        vpn::Role::kCe);
  ces_.push_back(&ce);
  net::LinkConfig edge;
  edge.bandwidth_bps = 10e6;
  edge.prop_delay = sim::kMillisecond;
  topo.connect(ce.id(), pe_a->id(), edge);
  service_a.add_site(vpn, *pe_a, ce, prefix);
  return MplsBackbone::Site{&ce, prefix, 0};
}

MplsBackbone::Site TwoProviderBackbone::add_site_b(vpn::VpnId vpn,
                                                   const ip::Prefix& prefix) {
  auto& ce = topo.add_node<vpn::Router>("CE" + std::to_string(ces_.size()),
                                        vpn::Role::kCe);
  ces_.push_back(&ce);
  net::LinkConfig edge;
  edge.bandwidth_bps = 10e6;
  edge.prop_delay = sim::kMillisecond;
  topo.connect(ce.id(), pe_b->id(), edge);
  service_b.add_site(vpn, *pe_b, ce, prefix);
  return MplsBackbone::Site{&ce, prefix, 0};
}

void TwoProviderBackbone::start_and_converge() {
  service_a.start();
  service_b.start();
  topo.scheduler().run();
}

IpsecBackbone::IpsecBackbone(std::size_t core_count, ipsec::CipherSuite suite,
                             std::uint64_t seed, double edge_bw_bps)
    : topo(seed),
      cp(topo),
      igp(cp),
      service(topo, cp, igp, suite),
      edge_bw_bps_(edge_bw_bps) {
  net::LinkConfig core_link;
  core_link.bandwidth_bps = 45e6;
  core_link.prop_delay = 2 * sim::kMillisecond;
  for (std::size_t i = 0; i < core_count; ++i) {
    auto& r = topo.add_node<vpn::Router>(
        std::string("R").append(std::to_string(i)), vpn::Role::kP);
    cores_.push_back(&r);
    service.enroll_router(r);
  }
  for (std::size_t i = 0; i + 1 < core_count; ++i) {
    topo.connect(cores_[i]->id(), cores_[i + 1]->id(), core_link);
  }
  if (core_count > 2) {
    topo.connect(cores_[core_count - 1]->id(), cores_[0]->id(), core_link);
  }
}

vpn::Router& IpsecBackbone::add_gateway(std::size_t core_index,
                                        const std::string& name) {
  auto& gw = topo.add_node<vpn::Router>(name, vpn::Role::kCe);
  net::LinkConfig edge;
  edge.bandwidth_bps = edge_bw_bps_;
  edge.prop_delay = 1 * sim::kMillisecond;
  topo.connect(gw.id(), cores_.at(core_index)->id(), edge);
  service.enroll_router(gw);
  return gw;
}

void IpsecBackbone::start_and_converge() {
  service.establish();
  topo.scheduler().run();
}

}  // namespace mvpn::backbone
