#include <gtest/gtest.h>

#include "backbone/fixtures.hpp"
#include "qos/queues.hpp"
#include "routing/hello.hpp"
#include "traffic/sink.hpp"
#include "traffic/source.hpp"

namespace mvpn {
namespace {

using backbone::BackboneConfig;
using backbone::IpsecBackbone;
using backbone::MplsBackbone;
using backbone::OverlayBackbone;

/// Figure 2 at scale: two interleaved VPNs, four sites each, any-to-any
/// traffic within each VPN, full isolation across them.
TEST(Integration, AnyToAnyAcrossFourSitesTwoVpns) {
  BackboneConfig cfg;
  cfg.p_count = 3;
  cfg.pe_count = 4;
  cfg.seed = 21;
  MplsBackbone bb(cfg);
  const vpn::VpnId v1 = bb.service.create_vpn("V1");
  const vpn::VpnId v2 = bb.service.create_vpn("V2");

  std::vector<MplsBackbone::Site> v1_sites;
  std::vector<MplsBackbone::Site> v2_sites;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto prefix =
        ip::Prefix(ip::Ipv4Address(10, std::uint8_t(i + 1), 0, 0), 16);
    v1_sites.push_back(bb.add_site(v1, i, prefix));
    v2_sites.push_back(bb.add_site(v2, i, prefix));  // same address plan!
  }
  bb.start_and_converge();

  qos::SlaProbe probe;
  traffic::MeasurementSink sink(probe, bb.topo.scheduler());
  for (auto& s : v1_sites) sink.bind(*s.ce);
  for (auto& s : v2_sites) sink.bind(*s.ce);

  std::vector<std::unique_ptr<traffic::CbrSource>> sources;
  std::uint32_t flow = 1;
  auto wire = [&](std::vector<MplsBackbone::Site>& sites, vpn::VpnId vpn) {
    for (std::size_t i = 0; i < sites.size(); ++i) {
      for (std::size_t j = 0; j < sites.size(); ++j) {
        if (i == j) continue;
        traffic::FlowSpec f;
        f.src = ip::Ipv4Address(10, std::uint8_t(i + 1), 0, 1);
        f.dst = ip::Ipv4Address(10, std::uint8_t(j + 1), 0, 1);
        f.vpn = vpn;
        sources.push_back(std::make_unique<traffic::CbrSource>(
            *sites[i].ce, f, flow, &probe, 100e3));
        sink.expect_flow(flow, qos::Phb::kBe, vpn);
        ++flow;
      }
    }
  };
  wire(v1_sites, v1);
  wire(v2_sites, v2);
  for (auto& s : sources) s->run(0, sim::kSecond);
  bb.topo.run_until(3 * sim::kSecond);

  std::uint64_t sent = 0;
  for (auto& s : sources) sent += s->packets_sent();
  EXPECT_GT(sent, 0u);
  EXPECT_EQ(sink.delivered(), sent);
  EXPECT_EQ(sink.leaks(), 0u);
  EXPECT_EQ(sink.unknown_flows(), 0u);
}

/// Overlay baseline carries traffic and isolates VPNs, at the cost of
/// N(N-1)/2 circuits.
TEST(Integration, OverlayVpnEndToEnd) {
  OverlayBackbone bb(3, 31);
  const vpn::VpnId v1 = bb.service.create_vpn("V1");
  const vpn::VpnId v2 = bb.service.create_vpn("V2");
  auto& a1 = bb.add_ce(0, "A1");
  auto& a2 = bb.add_ce(1, "A2");
  auto& a3 = bb.add_ce(2, "A3");
  auto& b1 = bb.add_ce(0, "B1");
  auto& b2 = bb.add_ce(2, "B2");
  bb.service.add_site(v1, a1, ip::Prefix::must_parse("10.1.0.0/16"));
  bb.service.add_site(v1, a2, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.service.add_site(v1, a3, ip::Prefix::must_parse("10.3.0.0/16"));
  bb.service.add_site(v2, b1, ip::Prefix::must_parse("10.1.0.0/16"));
  bb.service.add_site(v2, b2, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.service.provision();
  bb.topo.scheduler().run();

  // 3 sites → 3 circuits; 2 sites → 1 circuit.
  EXPECT_EQ(bb.service.pvc_count(), 4u);
  EXPECT_GT(bb.service.total_switching_entries(), 0u);
  EXPECT_GT(bb.service.provisioning_actions(), 0u);

  qos::SlaProbe probe;
  traffic::MeasurementSink sink(probe, bb.topo.scheduler());
  sink.bind(a2);
  sink.bind(b2);
  traffic::FlowSpec f;
  f.src = ip::Ipv4Address::must_parse("10.1.0.1");
  f.dst = ip::Ipv4Address::must_parse("10.2.0.1");
  f.vpn = v1;
  traffic::CbrSource s1(a1, f, 1, &probe, 200e3);
  sink.expect_flow(1, qos::Phb::kBe, v1);
  traffic::FlowSpec g = f;
  g.vpn = v2;
  traffic::CbrSource s2(b1, g, 2, &probe, 200e3);
  sink.expect_flow(2, qos::Phb::kBe, v2);
  s1.run(0, sim::kSecond);
  s2.run(0, sim::kSecond);
  bb.topo.run_until(2 * sim::kSecond);

  EXPECT_EQ(sink.delivered(), s1.packets_sent() + s2.packets_sent());
  EXPECT_EQ(sink.leaks(), 0u);
}

/// Incremental join on a provisioned overlay builds circuits to every
/// existing site (the operational pain the paper contrasts with §4.1).
TEST(Integration, OverlayIncrementalJoinCost) {
  OverlayBackbone bb(3, 32);
  const vpn::VpnId v = bb.service.create_vpn("V");
  std::vector<vpn::Router*> ces;
  for (int i = 0; i < 4; ++i) {
    auto& ce = bb.add_ce(i % 3, "CE" + std::to_string(i));
    bb.service.add_site(
        v, ce, ip::Prefix(ip::Ipv4Address(10, std::uint8_t(i + 1), 0, 0), 16));
  }
  bb.service.provision();
  EXPECT_EQ(bb.service.pvc_count(), 6u);  // 4*3/2

  auto& late = bb.add_ce(1, "late");
  bb.service.add_site(v, late, ip::Prefix::must_parse("10.9.0.0/16"));
  EXPECT_EQ(bb.service.pvc_count(), 10u);  // 5*4/2
}

/// IPsec baseline: IKE establishes, ESP carries traffic, the core sees
/// only encrypted headers, replay protection works, crypto time is
/// charged.
TEST(Integration, IpsecVpnEndToEnd) {
  IpsecBackbone bb(3, ipsec::CipherSuite::kTripleDesCbc, 41);
  const vpn::VpnId v1 = bb.service.create_vpn("V1");
  auto& gw1 = bb.add_gateway(0, "GW1");
  auto& gw2 = bb.add_gateway(1, "GW2");
  bb.service.add_site(v1, gw1, ip::Prefix::must_parse("10.1.0.0/16"));
  bb.service.add_site(v1, gw2, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.service.set_crypto_cost(
      ipsec::CryptoCostModel{50.0, 2000.0});  // synthetic, deterministic
  bb.start_and_converge();

  EXPECT_EQ(bb.service.tunnel_count(), 1u);
  EXPECT_EQ(bb.service.established_count(), 1u);
  EXPECT_GT(bb.service.all_established_at(), 0);
  EXPECT_GT(bb.cp.message_count("ike.main"), 0u);

  // Tap the core: every packet crossing it must be ESP with hidden DSCP.
  std::uint64_t esp_seen = 0;
  std::uint64_t clear_seen = 0;
  bb.topo.add_packet_tap([&](ip::NodeId at, const net::Packet& p) {
    if (at == gw1.id() || at == gw2.id()) return;
    if (p.esp) {
      ++esp_seen;
      EXPECT_EQ(p.visible_dscp(), 0);  // inner EF marking invisible
    } else {
      ++clear_seen;
    }
  });

  qos::SlaProbe probe;
  traffic::MeasurementSink sink(probe, bb.topo.scheduler());
  sink.bind(gw2);
  traffic::FlowSpec f;
  f.src = ip::Ipv4Address::must_parse("10.1.0.1");
  f.dst = ip::Ipv4Address::must_parse("10.2.0.1");
  f.vpn = v1;
  f.phb = qos::Phb::kEf;
  f.premark = true;
  traffic::CbrSource src(gw1, f, 1, &probe, 200e3);
  sink.expect_flow(1, qos::Phb::kEf, v1);
  src.run(0, sim::kSecond);
  bb.topo.run_until(3 * sim::kSecond);

  EXPECT_EQ(sink.delivered(), src.packets_sent());
  EXPECT_EQ(sink.leaks(), 0u);
  EXPECT_GT(esp_seen, 0u);
  EXPECT_EQ(clear_seen, 0u);
  // ESP inflated every packet on the wire by its overhead.
  EXPECT_GT(probe.report(qos::Phb::kEf).latency_s.mean(), 0.0);
}

/// Two IPsec VPNs with identical inner address plans stay isolated: the
/// tunnels differ even though the inner packets look alike.
TEST(Integration, IpsecOverlappingAddressSpaces) {
  IpsecBackbone bb(3, ipsec::CipherSuite::kDesCbc, 43);
  const vpn::VpnId v1 = bb.service.create_vpn("V1");
  const vpn::VpnId v2 = bb.service.create_vpn("V2");
  auto& a1 = bb.add_gateway(0, "A1");
  auto& a2 = bb.add_gateway(1, "A2");
  auto& b1 = bb.add_gateway(2, "B1");
  auto& b2 = bb.add_gateway(0, "B2");
  bb.service.add_site(v1, a1, ip::Prefix::must_parse("10.1.0.0/16"));
  bb.service.add_site(v1, a2, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.service.add_site(v2, b1, ip::Prefix::must_parse("10.1.0.0/16"));
  bb.service.add_site(v2, b2, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.start_and_converge();
  EXPECT_EQ(bb.service.tunnel_count(), 2u);

  qos::SlaProbe probe;
  traffic::MeasurementSink sink(probe, bb.topo.scheduler());
  sink.bind(a2);
  sink.bind(b2);
  traffic::FlowSpec f;
  f.src = ip::Ipv4Address::must_parse("10.1.0.1");
  f.dst = ip::Ipv4Address::must_parse("10.2.0.1");
  f.vpn = v1;
  traffic::CbrSource s1(a1, f, 1, &probe, 100e3);
  sink.expect_flow(1, qos::Phb::kBe, v1);
  traffic::FlowSpec g = f;
  g.vpn = v2;
  traffic::CbrSource s2(b1, g, 2, &probe, 100e3);
  sink.expect_flow(2, qos::Phb::kBe, v2);
  s1.run(0, sim::kSecond);
  s2.run(0, sim::kSecond);
  bb.topo.run_until(3 * sim::kSecond);
  EXPECT_EQ(sink.delivered(), s1.packets_sent() + s2.packets_sent());
  EXPECT_EQ(sink.leaks(), 0u);
}

/// TE failover (paper §3.1 "disabled links"): an LSP carrying VPN traffic
/// reroutes around a failed core link and delivery resumes.
TEST(Integration, TeLspFailoverKeepsVpnTrafficFlowing) {
  backbone::DiamondScenario d = backbone::make_diamond_scenario(10e6, 51);
  MplsBackbone& bb = *d.backbone;
  const vpn::VpnId v = bb.service.create_vpn("V");
  const auto site_a = bb.add_site(v, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  const auto site_b = bb.add_site(v, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.start_and_converge();

  mpls::TeLspConfig lsp_cfg;
  lsp_cfg.head = bb.pe(0).id();
  lsp_cfg.tail = bb.pe(1).id();
  lsp_cfg.bandwidth_bps = 2e6;
  const mpls::LspId lsp = bb.rsvp.signal(lsp_cfg);
  bb.topo.scheduler().run();
  ASSERT_EQ(bb.rsvp.lsp(lsp).state, mpls::RsvpTe::LspState::kUp);
  const auto initial_hops = bb.rsvp.lsp(lsp).path.size();
  bb.pe(0).bind_lsp(bb.pe(1).id(), lsp);

  qos::SlaProbe probe;
  traffic::MeasurementSink sink(probe, bb.topo.scheduler());
  sink.bind(*site_b.ce);
  traffic::FlowSpec f;
  f.src = ip::Ipv4Address::must_parse("10.1.0.1");
  f.dst = ip::Ipv4Address::must_parse("10.2.0.1");
  f.vpn = v;
  traffic::CbrSource src(*site_a.ce, f, 1, &probe, 500e3);
  sink.expect_flow(1, qos::Phb::kBe, v);

  const sim::SimTime t0 = bb.topo.scheduler().now();
  src.run(t0, t0 + 4 * sim::kSecond);

  // Fail the hot link after 1 s of traffic.
  bb.topo.scheduler().schedule_at(t0 + sim::kSecond, [&] {
    bb.topo.link(d.hot_link).set_up(false);
    bb.igp.notify_link_change(d.hot_link);
    bb.rsvp.notify_link_failure(d.hot_link);
  });
  bb.topo.run_until(t0 + 6 * sim::kSecond);

  const mpls::RsvpTe::Lsp& after = bb.rsvp.lsp(lsp);
  EXPECT_EQ(after.state, mpls::RsvpTe::LspState::kUp);
  EXPECT_EQ(after.reroutes, 1u);
  EXPECT_GT(after.path.size(), initial_hops);  // took the detour

  // Most traffic survives: only packets in flight during reconvergence die.
  const double loss = probe.report(qos::Phb::kBe).loss_fraction();
  EXPECT_GT(sink.delivered(), 0u);
  EXPECT_LT(loss, 0.05);
  EXPECT_EQ(sink.leaks(), 0u);
}

/// Stitching after start: each ASBR had no VRF for the VPN, so it dropped
/// the VPN's routes on arrival; the route refresh its new VRF triggers
/// brings them back, and they cross the boundary both ways.
TEST(Integration, InterAsStitchAfterStartCarriesConvergedRoutes) {
  backbone::TwoProviderBackbone bb(71);
  const vpn::VpnId va = bb.service_a.create_vpn("corp");
  const vpn::VpnId vb = bb.service_b.create_vpn("corp");
  bb.add_site_a(va, ip::Prefix::must_parse("10.1.0.0/16"));
  bb.add_site_b(vb, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.start_and_converge();
  EXPECT_EQ(bb.bgp_a.loc_rib_size(bb.asbr_a->id()), 0u);

  bb.peering->stitch(va, vb);
  bb.topo.scheduler().run();
  EXPECT_GT(bb.cp.message_count("bgp.refresh"), 0u);
  const ip::RouteEntry* at_b = bb.pe_b->vrf_by_vpn(vb)->table().lookup(
      ip::Ipv4Address::must_parse("10.1.0.1"));
  ASSERT_NE(at_b, nullptr);
  EXPECT_EQ(at_b->egress_pe, bb.asbr_b->id());
  const ip::RouteEntry* at_a = bb.pe_a->vrf_by_vpn(va)->table().lookup(
      ip::Ipv4Address::must_parse("10.2.0.1"));
  ASSERT_NE(at_a, nullptr);
  EXPECT_EQ(at_a->egress_pe, bb.asbr_a->id());
}

/// Inter-provider VPN (paper §5: "building VPNs using multiple carriers"):
/// a VPN spans two providers joined by an option-A ASBR peering; traffic
/// crosses the boundary, isolation holds, and a leave in one provider
/// withdraws reachability in the other.
TEST(Integration, InterAsVpnAcrossTwoProviders) {
  backbone::TwoProviderBackbone bb(71);
  const vpn::VpnId va = bb.service_a.create_vpn("corp");
  const vpn::VpnId vb = bb.service_b.create_vpn("corp");
  bb.peering->stitch(va, vb);
  auto site_a = bb.add_site_a(va, ip::Prefix::must_parse("10.1.0.0/16"));
  auto site_b = bb.add_site_b(vb, ip::Prefix::must_parse("10.2.0.0/16"));
  // A second, unrelated VPN in provider A with overlapping addresses.
  const vpn::VpnId other = bb.service_a.create_vpn("other");
  auto other_site =
      bb.add_site_a(other, ip::Prefix::must_parse("10.1.0.0/16"));
  bb.start_and_converge();

  // Control plane: provider B's PE imported the A-side prefix via the
  // ASBR re-origination, and vice versa.
  vpn::Vrf* vrf_b = bb.pe_b->vrf_by_vpn(vb);
  ASSERT_NE(vrf_b, nullptr);
  const ip::RouteEntry* cross =
      vrf_b->table().lookup(ip::Ipv4Address::must_parse("10.1.0.1"));
  ASSERT_NE(cross, nullptr);
  EXPECT_EQ(cross->egress_pe, bb.asbr_b->id());
  EXPECT_GT(bb.peering->updates_sent(), 0u);

  // Data plane across the boundary, both directions.
  qos::SlaProbe probe;
  traffic::MeasurementSink sink(probe, bb.topo.scheduler());
  sink.bind(*site_a.ce);
  sink.bind(*site_b.ce);
  sink.bind(*other_site.ce);
  traffic::FlowSpec f;
  f.src = ip::Ipv4Address::must_parse("10.1.0.1");
  f.dst = ip::Ipv4Address::must_parse("10.2.0.1");
  f.vpn = va;  // ground truth: it is the same corp VPN end to end
  traffic::CbrSource a_to_b(*site_a.ce, f, 1, &probe, 300e3);
  sink.expect_flow(1, qos::Phb::kBe, vb);  // delivered within B's VRF id
  traffic::FlowSpec g;
  g.src = ip::Ipv4Address::must_parse("10.2.0.1");
  g.dst = ip::Ipv4Address::must_parse("10.1.0.1");
  g.vpn = vb;
  traffic::CbrSource b_to_a(*site_b.ce, g, 2, &probe, 300e3);
  sink.expect_flow(2, qos::Phb::kBe, va);
  a_to_b.run(0, sim::kSecond);
  b_to_a.run(0, sim::kSecond);
  bb.topo.run_until(3 * sim::kSecond);

  // VPN ids are provider-local; the sink compares against the delivering
  // VRF. Any mismatch beyond that mapping (e.g. delivery into "other")
  // would show up as a leak or unknown flow.
  EXPECT_EQ(sink.delivered(),
            a_to_b.packets_sent() + b_to_a.packets_sent());
  EXPECT_EQ(sink.unknown_flows(), 0u);
  // va and vb are both id 1 in their provider-local spaces, so the
  // ground-truth check is exact; "other" (id 2) must never receive any.
  EXPECT_EQ(sink.leaks(), 0u);

  // Leave in provider A → withdrawn in provider B.
  bb.service_a.remove_site(va, *bb.pe_a,
                           ip::Prefix::must_parse("10.1.0.0/16"));
  bb.topo.scheduler().run();
  EXPECT_EQ(vrf_b->table().lookup(ip::Ipv4Address::must_parse("10.1.0.1")),
            nullptr);
}

/// End-to-end QoS chain (paper §5): CPE classification → DiffServ marking
/// → DSCP→EXP at the PE → EXP scheduling in the core. Under a congested
/// core link, EF keeps low delay while BE suffers.
TEST(Integration, DiffServOverMplsProtectsEfUnderCongestion) {
  BackboneConfig cfg;
  cfg.p_count = 1;
  cfg.pe_count = 2;
  cfg.core_bw_bps = 2e6;  // tight core
  cfg.edge_bw_bps = 10e6;
  cfg.seed = 61;
  cfg.core_queue = [] {
    return std::make_unique<qos::PriorityQueueDisc>(
        3, 100, qos::ef_af_be_selector());
  };
  MplsBackbone bb(cfg);
  const vpn::VpnId v = bb.service.create_vpn("V");
  auto site_a = bb.add_site(v, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  auto site_b = bb.add_site(v, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.start_and_converge();

  // CPE classifier: voice ports → EF, everything else BE.
  auto classifier = std::make_unique<qos::CbqClassifier>();
  qos::MatchRule voice;
  voice.dst_port = qos::PortRange{16384, 16484};
  voice.mark = qos::Phb::kEf;
  classifier->add_rule(voice);
  site_a.ce->set_classifier(std::move(classifier));

  qos::SlaProbe probe;
  traffic::MeasurementSink sink(probe, bb.topo.scheduler());
  sink.bind(*site_b.ce);

  traffic::FlowSpec voice_flow;
  voice_flow.src = ip::Ipv4Address::must_parse("10.1.0.1");
  voice_flow.dst = ip::Ipv4Address::must_parse("10.2.0.1");
  voice_flow.dst_port = 16400;
  voice_flow.payload_bytes = 172;  // 200 B voice frames
  voice_flow.vpn = v;
  voice_flow.phb = qos::Phb::kEf;
  traffic::CbrSource voice_src(*site_a.ce, voice_flow, 1, &probe, 200e3);
  sink.expect_flow(1, qos::Phb::kEf, v);

  traffic::FlowSpec bulk;
  bulk.src = ip::Ipv4Address::must_parse("10.1.0.2");
  bulk.dst = ip::Ipv4Address::must_parse("10.2.0.2");
  bulk.dst_port = 80;
  bulk.payload_bytes = 1472;
  bulk.vpn = v;
  bulk.phb = qos::Phb::kBe;
  traffic::PoissonSource bulk_src(*site_a.ce, bulk, 2, &probe, 2.5e6);
  sink.expect_flow(2, qos::Phb::kBe, v);

  voice_src.run(0, 3 * sim::kSecond);
  bulk_src.run(0, 3 * sim::kSecond);
  bb.topo.run_until(6 * sim::kSecond);

  const auto& ef = probe.report(qos::Phb::kEf);
  const auto& be = probe.report(qos::Phb::kBe);
  EXPECT_LT(ef.loss_fraction(), 0.01);
  EXPECT_GT(be.loss_fraction(), 0.05);          // overload lands on BE
  EXPECT_LT(ef.latency_s.percentile(99),
            be.latency_s.percentile(99) / 2.0);  // EF protected
  EXPECT_EQ(sink.leaks(), 0u);
}

/// ECMP: flows with different ports spread over both equal-cost paths of
/// a routed square, while each individual flow sticks to one path (no
/// intra-flow reordering). Also checks the flip side the paper cares
/// about: ESP-encrypted flows all hash alike (ports hidden) and collapse
/// onto one path.
TEST(Integration, EcmpSpreadsFlowsAcrossEqualPaths) {
  net::Topology topo(97);
  routing::ControlPlane cp(topo);
  routing::Igp igp(cp);
  auto& r0 = topo.add_node<vpn::Router>("r0", vpn::Role::kP);
  auto& r1 = topo.add_node<vpn::Router>("r1", vpn::Role::kP);
  auto& r2 = topo.add_node<vpn::Router>("r2", vpn::Role::kP);
  auto& r3 = topo.add_node<vpn::Router>("r3", vpn::Role::kP);
  const net::LinkId l01 = topo.connect(r0.id(), r1.id());
  topo.connect(r1.id(), r2.id());
  const net::LinkId l03 = topo.connect(r0.id(), r3.id());
  topo.connect(r3.id(), r2.id());
  for (auto* r : {&r0, &r1, &r2, &r3}) igp.add_router(r->id());
  igp.start();
  topo.scheduler().run();

  // Destination prefix lives on r2; install the ECMP route at r0 and
  // plain forwarding routes at the transit routers.
  r2.add_local_prefix(ip::Prefix::must_parse("10.2.0.0/16"));
  const auto hops = igp.next_hops_ecmp(r0.id(), r2.id());
  ASSERT_EQ(hops.size(), 2u);
  ip::RouteEntry e;
  e.prefix = ip::Prefix::must_parse("10.2.0.0/16");
  e.next_hop.node = hops[0].via;
  e.next_hop.iface = hops[0].iface;
  for (const auto& h : hops) {
    e.ecmp.push_back(ip::NextHop{h.via, h.iface, false});
  }
  r0.fib().install(e);
  for (auto* transit : {&r1, &r3}) {
    ip::RouteEntry t;
    t.prefix = e.prefix;
    t.next_hop.node = r2.id();
    t.next_hop.iface = transit->interface_to(r2.id());
    transit->fib().install(t);
  }

  int delivered = 0;
  r2.set_local_sink([&](const net::Packet&, vpn::VpnId) { ++delivered; });
  auto send_flows = [&](bool encrypted) {
    for (std::uint32_t i = 0; i < 32; ++i) {
      auto p = topo.packet_factory().make();
      p->ip.src = ip::Ipv4Address(10, 1, 0, std::uint8_t(i + 1));
      p->ip.dst = ip::Ipv4Address(10, 2, 0, std::uint8_t(i + 1));
      p->l4.src_port = static_cast<std::uint16_t>(20000 + i * 13);
      if (encrypted) {
        net::EspEncap esp;
        esp.outer.src = ip::Ipv4Address::must_parse("10.1.0.200");
        esp.outer.dst = ip::Ipv4Address::must_parse("10.2.0.200");
        esp.outer.protocol = net::kProtocolEsp;
        p->esp = esp;
      }
      r0.inject(std::move(p));
    }
    topo.scheduler().run();
  };

  send_flows(false);
  EXPECT_EQ(delivered, 32);
  const auto via_r1 = topo.link(l01).tx_from(r0.id()).packets.value();
  const auto via_r3 = topo.link(l03).tx_from(r0.id()).packets.value();
  EXPECT_EQ(via_r1 + via_r3, 32u);
  EXPECT_GT(via_r1, 8u);  // real spread, not all-on-one
  EXPECT_GT(via_r3, 8u);

  // Encrypted: the hash sees only the outer tunnel header → one path.
  send_flows(true);
  const auto via_r1_after = topo.link(l01).tx_from(r0.id()).packets.value();
  const auto via_r3_after = topo.link(l03).tx_from(r0.id()).packets.value();
  const auto esp_r1 = via_r1_after - via_r1;
  const auto esp_r3 = via_r3_after - via_r3;
  EXPECT_EQ(esp_r1 + esp_r3, 32u);
  EXPECT_TRUE(esp_r1 == 0 || esp_r3 == 0);  // all on a single path
}

/// Site multihoming: a site attached to two PEs with different BGP
/// local preferences survives the primary PE's crash — peers flush the
/// dead speaker's routes and fail over to the standby attachment.
TEST(Integration, MultihomedSiteSurvivesPeFailure) {
  BackboneConfig cfg;
  cfg.p_count = 2;
  cfg.pe_count = 3;
  cfg.seed = 95;
  MplsBackbone bb(cfg);
  const vpn::VpnId v = bb.service.create_vpn("V");

  // Multihomed site: one CE wired to PE0 (preferred) and PE1 (standby).
  auto& mh_ce = bb.topo.add_node<vpn::Router>("CEmh", vpn::Role::kCe);
  net::LinkConfig edge;
  edge.bandwidth_bps = 10e6;
  edge.prop_delay = sim::kMillisecond;
  bb.topo.connect(mh_ce.id(), bb.pe(0).id(), edge);
  bb.topo.connect(mh_ce.id(), bb.pe(1).id(), edge);
  bb.service.add_site(v, bb.pe(0), mh_ce,
                      ip::Prefix::must_parse("10.1.0.0/16"), 200);
  bb.service.add_site(v, bb.pe(1), mh_ce,
                      ip::Prefix::must_parse("10.1.0.0/16"), 100);
  // Remote single-homed site on PE2.
  auto remote = bb.add_site(v, 2, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.start_and_converge();

  // Before the failure, PE2 prefers the PE0 attachment.
  vpn::Vrf* vrf_pe2 = bb.pe(2).vrf_by_vpn(v);
  ASSERT_NE(vrf_pe2, nullptr);
  const ip::RouteEntry* route =
      vrf_pe2->table().lookup(ip::Ipv4Address::must_parse("10.1.0.1"));
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->egress_pe, bb.pe(0).id());

  qos::SlaProbe probe;
  traffic::MeasurementSink sink(probe, bb.topo.scheduler());
  sink.bind(mh_ce);
  traffic::FlowSpec f;
  f.src = ip::Ipv4Address::must_parse("10.2.0.1");
  f.dst = ip::Ipv4Address::must_parse("10.1.0.1");
  f.vpn = v;
  traffic::CbrSource src(*remote.ce, f, 1, &probe, 400e3);
  sink.expect_flow(1, qos::Phb::kBe, v);
  const sim::SimTime t0 = bb.topo.scheduler().now();
  src.run(t0, t0 + 4 * sim::kSecond);

  bb.topo.scheduler().schedule_at(t0 + sim::kSecond, [&] {
    bb.service.fail_pe(bb.pe(0));  // primary attachment dies
  });
  bb.topo.run_until(t0 + 6 * sim::kSecond);

  // Failover happened: PE2 now reaches the site through PE1...
  route = vrf_pe2->table().lookup(ip::Ipv4Address::must_parse("10.1.0.1"));
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->egress_pe, bb.pe(1).id());
  // ...and only packets in flight at the instant of failure were lost.
  EXPECT_LT(probe.report(qos::Phb::kBe).loss_fraction(), 0.05);
  EXPECT_EQ(sink.leaks(), 0u);
}

/// Resilience comparison: after a core link failure, the MPLS VPN heals
/// itself (IGP refloods, LDP repoints via liberal retention) while the
/// provisioned overlay's circuits stay dead until re-provisioned — one of
/// the operational arguments for the architecture.
TEST(Integration, MplsSelfHealsWhereOverlayCircuitsDie) {
  // --- MPLS: ring core gives an alternate path ---------------------------
  BackboneConfig cfg;
  cfg.p_count = 3;
  cfg.pe_count = 2;
  cfg.seed = 91;
  MplsBackbone mpls_bb(cfg);
  const vpn::VpnId v = mpls_bb.service.create_vpn("V");
  auto m_a = mpls_bb.add_site(v, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  auto m_b = mpls_bb.add_site(v, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  mpls_bb.start_and_converge();

  qos::SlaProbe m_probe;
  traffic::MeasurementSink m_sink(m_probe, mpls_bb.topo.scheduler());
  m_sink.bind(*m_b.ce);
  traffic::FlowSpec f;
  f.src = ip::Ipv4Address::must_parse("10.1.0.1");
  f.dst = ip::Ipv4Address::must_parse("10.2.0.1");
  f.vpn = v;
  traffic::CbrSource m_src(*m_a.ce, f, 1, &m_probe, 200e3);
  m_sink.expect_flow(1, qos::Phb::kBe, v);
  const sim::SimTime t0 = mpls_bb.topo.scheduler().now();
  m_src.run(t0, t0 + 4 * sim::kSecond);

  // Fail the link PE0 currently uses at t0+1s.
  mpls_bb.topo.scheduler().schedule_at(t0 + sim::kSecond, [&] {
    const auto* nh =
        mpls_bb.igp.next_hop(mpls_bb.pe(0).id(), mpls_bb.pe(1).id());
    ASSERT_NE(nh, nullptr);
    const net::LinkId used =
        mpls_bb.pe(0).interface(nh->iface).link;
    mpls_bb.topo.link(used).set_up(false);
    mpls_bb.igp.notify_link_change(used);
  });
  mpls_bb.topo.run_until(t0 + 6 * sim::kSecond);
  // Traffic kept flowing: only the reconvergence window is lost.
  EXPECT_LT(m_probe.report(qos::Phb::kBe).loss_fraction(), 0.10);
  EXPECT_GT(m_sink.delivered(), 0u);

  // --- Overlay: same shape, no alternate behaviour -----------------------
  OverlayBackbone ov(3, 91);
  const vpn::VpnId ovv = ov.service.create_vpn("V");
  auto& o_a = ov.add_ce(0, "A");
  auto& o_b = ov.add_ce(1, "B");
  ov.service.add_site(ovv, o_a, ip::Prefix::must_parse("10.1.0.0/16"));
  ov.service.add_site(ovv, o_b, ip::Prefix::must_parse("10.2.0.0/16"));
  ov.service.provision();

  qos::SlaProbe o_probe;
  traffic::MeasurementSink o_sink(o_probe, ov.topo.scheduler());
  o_sink.bind(o_b);
  traffic::CbrSource o_src(o_a, f, 1, &o_probe, 200e3);
  o_sink.expect_flow(1, qos::Phb::kBe, ovv);
  o_src.run(0, 4 * sim::kSecond);
  // Fail the SW0-SW1 core link the circuit is pinned to.
  ov.topo.scheduler().schedule_at(sim::kSecond, [&] {
    ov.topo.link(0).set_up(false);
  });
  ov.topo.run_until(6 * sim::kSecond);
  // Circuits do not reroute: ~3 of 4 seconds of traffic is gone.
  EXPECT_GT(o_probe.report(qos::Phb::kBe).loss_fraction(), 0.5);
}

/// Fully automated failure recovery: hello-protocol liveness detection
/// drives IGP reconvergence and RSVP-TE reroute with no manual failure
/// notification anywhere — the complete operational chain.
TEST(Integration, HelloDrivenFailureRecoveryEndToEnd) {
  backbone::DiamondScenario d = backbone::make_diamond_scenario(10e6, 53);
  backbone::MplsBackbone& bb = *d.backbone;
  const vpn::VpnId v = bb.service.create_vpn("V");
  auto site_a = bb.add_site(v, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  auto site_b = bb.add_site(v, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.start_and_converge();

  mpls::TeLspConfig lsp_cfg;
  lsp_cfg.head = bb.pe(0).id();
  lsp_cfg.tail = bb.pe(1).id();
  lsp_cfg.bandwidth_bps = 2e6;
  const mpls::LspId lsp = bb.rsvp.signal(lsp_cfg);
  bb.topo.scheduler().run();
  bb.pe(0).bind_lsp(bb.pe(1).id(), lsp, v);

  // Liveness detection on every core link, wired to IGP + RSVP.
  routing::HelloProtocol hello(bb.cp);
  for (std::size_t l = 0; l < bb.topo.link_count(); ++l) {
    hello.enroll_link(static_cast<net::LinkId>(l));
  }
  hello.on_link_down([&](net::LinkId l) {
    bb.igp.notify_link_change(l);
    bb.rsvp.notify_link_failure(l);
  });
  hello.start(10 * sim::kMillisecond, 3);

  qos::SlaProbe probe;
  traffic::MeasurementSink sink(probe, bb.topo.scheduler());
  sink.bind(*site_b.ce);
  traffic::FlowSpec f;
  f.src = ip::Ipv4Address::must_parse("10.1.0.1");
  f.dst = ip::Ipv4Address::must_parse("10.2.0.1");
  f.vpn = v;
  traffic::CbrSource src(*site_a.ce, f, 1, &probe, 500e3);
  sink.expect_flow(1, qos::Phb::kBe, v);
  const sim::SimTime t0 = bb.topo.scheduler().now();
  src.run(t0, t0 + 4 * sim::kSecond);

  // ONLY the physical failure — detection and recovery are automatic.
  bb.topo.scheduler().schedule_at(t0 + sim::kSecond, [&] {
    bb.topo.link(d.hot_link).set_up(false);
  });
  bb.topo.run_until(t0 + 6 * sim::kSecond);

  EXPECT_TRUE(hello.is_down(d.hot_link));
  EXPECT_EQ(bb.rsvp.lsp(lsp).state, mpls::RsvpTe::LspState::kUp);
  EXPECT_EQ(bb.rsvp.lsp(lsp).reroutes, 1u);
  // Outage ≈ hello detection (30 ms) + resignal; tiny fraction of 4 s.
  EXPECT_LT(probe.report(qos::Phb::kBe).loss_fraction(), 0.05);
  EXPECT_EQ(sink.leaks(), 0u);
}

/// The full synthesis the paper's title promises: *secure* VPN traffic
/// (real ESP between customer gateways) with *end-to-end QoS* across the
/// MPLS backbone. The deciding knob is whether the gateway copies the
/// DSCP to the outer header: with it, the PE can still map class → EXP
/// and the encrypted voice survives congestion; without it (the deployed
/// default the paper complains about), encrypted voice is treated as
/// best effort and drowns.
TEST(Integration, EncryptedVoiceKeepsQosOnlyWithDscpCopy) {
  auto run = [](bool copy_dscp) {
    BackboneConfig cfg;
    cfg.p_count = 1;
    cfg.pe_count = 2;
    cfg.core_bw_bps = 2e6;
    cfg.edge_bw_bps = 20e6;
    cfg.seed = 81;
    cfg.core_queue = [] {
      return std::make_unique<qos::PriorityQueueDisc>(
          3, 100, qos::ef_af_be_selector());
    };
    MplsBackbone bb(cfg);
    const vpn::VpnId v = bb.service.create_vpn("V");
    auto site_a = bb.add_site(v, 0, ip::Prefix::must_parse("10.1.0.0/16"));
    auto site_b = bb.add_site(v, 1, ip::Prefix::must_parse("10.2.0.0/16"));
    bb.start_and_converge();

    // CPE classification: voice → EF (marked on the inner header before
    // encryption).
    auto classifier = std::make_unique<qos::CbqClassifier>();
    qos::MatchRule voice;
    voice.dst_port = qos::PortRange{16384, 16484};
    voice.mark = qos::Phb::kEf;
    classifier->add_rule(voice);
    site_a.ce->set_classifier(std::move(classifier));

    // ESP between gateway addresses living inside the site prefixes, so
    // the tunnel rides the MPLS VPN itself.
    ipsec::SaConfig sa;
    sa.spi = 0x77;
    sa.cipher = ipsec::CipherSuite::kTripleDesCbc;
    sa.cipher_keys = {1, 2, 3};
    sa.auth_key.assign(20, 7);
    sa.local = ip::Ipv4Address::must_parse("10.1.255.1");
    sa.peer = ip::Ipv4Address::must_parse("10.2.255.1");
    sa.copy_dscp_to_outer = copy_dscp;
    site_a.ce->add_outbound_sa(ip::Prefix::must_parse("10.2.0.0/16"),
                               std::make_shared<ipsec::EspSa>(sa));
    site_b.ce->add_inbound_sa(std::make_shared<ipsec::EspSa>(sa));

    qos::SlaProbe probe;
    traffic::MeasurementSink sink(probe, bb.topo.scheduler());
    sink.bind(*site_b.ce);

    traffic::FlowSpec voice_flow;
    voice_flow.src = ip::Ipv4Address::must_parse("10.1.0.1");
    voice_flow.dst = ip::Ipv4Address::must_parse("10.2.0.1");
    voice_flow.dst_port = 16400;
    voice_flow.payload_bytes = 172;
    voice_flow.vpn = v;
    voice_flow.phb = qos::Phb::kEf;
    traffic::CbrSource voice_src(*site_a.ce, voice_flow, 1, &probe, 200e3);
    sink.expect_flow(1, qos::Phb::kEf, v);

    // Unencrypted bulk congests the core.
    traffic::FlowSpec bulk;
    bulk.src = ip::Ipv4Address::must_parse("10.1.0.2");
    bulk.dst = ip::Ipv4Address::must_parse("10.2.0.2");
    bulk.dst_port = 80;
    bulk.payload_bytes = 1472;
    bulk.vpn = v;
    bulk.phb = qos::Phb::kBe;
    traffic::PoissonSource bulk_src(*site_a.ce, bulk, 2, &probe, 2.5e6);
    sink.expect_flow(2, qos::Phb::kBe, v);

    // Bulk matches the SA policy too (a site-to-site tunnel carries all
    // inter-site traffic), so both flows are encrypted — which is exactly
    // the regime the paper discusses.
    voice_src.run(0, 3 * sim::kSecond);
    bulk_src.run(0, 3 * sim::kSecond);
    bb.topo.run_until(6 * sim::kSecond);

    EXPECT_EQ(sink.leaks(), 0u);
    return probe.report(qos::Phb::kEf).latency_s.percentile(99);
  };

  const double with_copy_p99 = run(true);
  const double without_copy_p99 = run(false);
  // With ToS copy the encrypted voice keeps its priority end to end;
  // without it (the paper's complaint) it queues with the bulk.
  EXPECT_LT(with_copy_p99, 0.030);
  EXPECT_GT(without_copy_p99, with_copy_p99 * 3.0);
}

}  // namespace
}  // namespace mvpn
