#include <gtest/gtest.h>

#include <set>

#include "backbone/fixtures.hpp"
#include "obs/metrics.hpp"
#include "obs/topology_metrics.hpp"
#include "traffic/sink.hpp"
#include "traffic/source.hpp"
#include "vpn/diagnostics.hpp"
#include "vpn/directory.hpp"
#include "vpn/oam.hpp"

namespace mvpn::vpn {
namespace {

using backbone::Figure2Scenario;
using backbone::make_figure2_scenario;

TEST(Vrf, ImportPolicyByRouteTarget) {
  VrfConfig cfg;
  cfg.vpn_id = 1;
  cfg.rd = routing::RouteDistinguisher{65000, 1};
  cfg.import_targets = {routing::RouteTarget{65000, 1},
                        routing::RouteTarget{65000, 7}};
  Vrf vrf(cfg);
  routing::VpnRoute r;
  r.route_targets = {routing::RouteTarget{65000, 7}};
  EXPECT_TRUE(vrf.imports(r));
  r.route_targets = {routing::RouteTarget{65000, 2}};
  EXPECT_FALSE(vrf.imports(r));
  EXPECT_EQ(vrf.vpn_id(), 1u);
}

TEST(Router, RolesAndVrfRestrictions) {
  net::Topology topo;
  auto& ce = topo.add_node<Router>("ce", Role::kCe);
  auto& pe = topo.add_node<Router>("pe", Role::kPe);
  EXPECT_EQ(ce.role(), Role::kCe);
  EXPECT_STREQ(to_string(Role::kPe), "PE");
  VrfConfig cfg;
  cfg.vpn_id = 1;
  EXPECT_THROW(ce.add_vrf(cfg), std::logic_error);
  Vrf& v = pe.add_vrf(cfg);
  EXPECT_EQ(pe.vrf_count(), 1u);
  EXPECT_EQ(pe.vrf_by_vpn(1), &v);
  EXPECT_EQ(pe.vrf_by_vpn(9), nullptr);
  EXPECT_THROW(pe.bind_interface_to_vrf(0, 9), std::invalid_argument);
}

TEST(Router, LocalPrefixDeliversToSink) {
  net::Topology topo;
  auto& r = topo.add_node<Router>("r", Role::kCe);
  r.add_local_prefix(ip::Prefix::must_parse("10.1.0.0/16"), 5);
  int delivered = 0;
  VpnId seen_vpn = 0;
  r.set_local_sink([&](const net::Packet&, VpnId vpn) {
    ++delivered;
    seen_vpn = vpn;
  });
  auto p = topo.packet_factory().make();
  p->ip.dst = ip::Ipv4Address::must_parse("10.1.2.3");
  r.inject(std::move(p));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(seen_vpn, 5u);
  EXPECT_EQ(r.counters().delivered.value(), 1u);
}

TEST(Router, NoRouteCountsDrop) {
  net::Topology topo;
  auto& r = topo.add_node<Router>("r", Role::kCe);
  auto p = topo.packet_factory().make();
  p->ip.dst = ip::Ipv4Address::must_parse("99.99.99.99");
  r.inject(std::move(p));
  EXPECT_EQ(r.counters().no_route.value(), 1u);
}

TEST(Router, TtlExpiryDrops) {
  net::Topology topo;
  auto& a = topo.add_node<Router>("a", Role::kCe);
  auto& b = topo.add_node<Router>("b", Role::kCe);
  topo.connect(a.id(), b.id());
  ip::RouteEntry e;
  e.prefix = ip::Prefix::must_parse("0.0.0.0/0");
  e.next_hop.node = b.id();
  e.next_hop.iface = 0;
  a.fib().install(e);
  auto p = topo.packet_factory().make();
  p->ip.dst = ip::Ipv4Address::must_parse("99.0.0.1");
  p->ip.ttl = 1;
  a.inject(std::move(p));
  EXPECT_EQ(a.counters().ttl_expired.value(), 1u);
}

TEST(Router, ShaperSmoothsEdgeTraffic) {
  Figure2Scenario s = make_figure2_scenario(19);
  s.backbone->start_and_converge();
  // Premarked AF11 flow offered at 2 Mb/s, shaped to 1 Mb/s at the CE.
  s.v1_site1.ce->add_shaper(qos::Phb::kAf11, 1e6 / 8, 1500);

  qos::SlaProbe probe;
  traffic::MeasurementSink sink(probe, s.backbone->topo.scheduler());
  sink.bind(*s.v1_site2.ce);
  traffic::FlowSpec f;
  f.src = ip::Ipv4Address::must_parse("10.1.0.1");
  f.dst = ip::Ipv4Address::must_parse("10.2.0.1");
  f.vpn = s.vpn1;
  f.phb = qos::Phb::kAf11;
  f.premark = true;
  traffic::CbrSource src(*s.v1_site1.ce, f, 1, &probe, 2e6);
  sink.expect_flow(1, qos::Phb::kAf11, s.vpn1);
  const sim::SimTime t0 = s.backbone->topo.scheduler().now();
  src.run(t0, t0 + 2 * sim::kSecond);
  s.backbone->topo.run_until(t0 + 6 * sim::kSecond);

  const auto& r = probe.report(qos::Phb::kAf11);
  // Nothing is dropped (shaping, not policing)...
  EXPECT_DOUBLE_EQ(r.loss_fraction(), 0.0);
  // ...but delivery is paced at the shaped rate: the 2 s of offered
  // traffic takes ~4 s to drain, so goodput over the drain interval is
  // ~1 Mb/s and the tail packets waited ~2 s.
  EXPECT_NEAR(r.goodput_bps(4.0), 1e6, 0.1e6);
  EXPECT_GT(r.latency_s.max(), 1.5);
}

TEST(Router, LabelTtlExpiryDrops) {
  net::Topology topo;
  auto& a = topo.add_node<Router>("a", Role::kP);
  auto& b = topo.add_node<Router>("b", Role::kP);
  topo.connect(a.id(), b.id());
  mpls::MplsDomain domain;
  a.set_lsr_state(&domain.state_of(a.id()));
  mpls::LfibEntry e;
  e.in_label = 16;
  e.op = mpls::LabelOp::kSwap;
  e.out_label = 17;
  e.next_hop = b.id();
  e.out_iface = 0;
  domain.state_of(a.id()).lfib.install(e);

  auto p = topo.packet_factory().make();
  p->push_label(net::MplsShim{16, 0, 1});  // TTL 1: dies at the swap
  a.receive(std::move(p), 0);
  EXPECT_EQ(a.counters().ttl_expired.value(), 1u);

  auto p2 = topo.packet_factory().make();
  p2->push_label(net::MplsShim{99, 0, 64});  // unknown label
  a.receive(std::move(p2), 0);
  EXPECT_EQ(a.counters().label_miss.value(), 1u);
}

TEST(Router, ClassifierAndPolicerAtEdge) {
  net::Topology topo;
  auto& ce = topo.add_node<Router>("ce", Role::kCe);
  ce.add_local_prefix(ip::Prefix::must_parse("10.0.0.0/8"));

  auto classifier = std::make_unique<qos::CbqClassifier>();
  qos::MatchRule rule;
  rule.dst_port = qos::PortRange::exactly(4000);
  rule.mark = qos::Phb::kAf11;
  classifier->add_rule(rule);
  ce.set_classifier(std::move(classifier));
  // CIR 1 kB/s, CBS 600 B, EBS 600 B: second packet yellow, third red.
  ce.add_policer(qos::Phb::kAf11, 1000.0, 600.0, 600.0);

  std::vector<std::uint8_t> dscps;
  ce.set_local_sink([&](const net::Packet& p, VpnId) {
    dscps.push_back(p.ip.dscp);
  });
  for (int i = 0; i < 3; ++i) {
    auto p = topo.packet_factory().make();
    p->ip.dst = ip::Ipv4Address::must_parse("10.0.0.1");
    p->l4.dst_port = 4000;
    p->payload_bytes = 472;  // 500 B on the wire
    ce.inject(std::move(p));
  }
  ASSERT_EQ(dscps.size(), 2u);  // red packet dropped at the edge
  EXPECT_EQ(dscps[0], qos::dscp_of(qos::Phb::kAf11));
  EXPECT_EQ(dscps[1], qos::dscp_of(qos::Phb::kAf12));  // yellow remarked
  EXPECT_EQ(ce.counters().policed.value(), 1u);
}

// --- Figure-level behaviour (paper Figs. 2-4) -------------------------------

TEST(Figure2, AnyToAnyWithinVpnAndIsolationAcross) {
  Figure2Scenario s = make_figure2_scenario(11);
  s.backbone->start_and_converge();

  qos::SlaProbe probe;
  traffic::MeasurementSink sink(probe, s.backbone->topo.scheduler());
  sink.bind(*s.v1_site2.ce);
  sink.bind(*s.v2_site2.ce);

  traffic::FlowSpec f;
  f.src = ip::Ipv4Address::must_parse("10.1.0.1");
  f.dst = ip::Ipv4Address::must_parse("10.2.0.1");
  f.vpn = s.vpn1;
  f.phb = qos::Phb::kBe;
  traffic::CbrSource v1(*s.v1_site1.ce, f, 1, &probe, 500e3);
  sink.expect_flow(1, qos::Phb::kBe, s.vpn1);

  traffic::FlowSpec g = f;
  g.vpn = s.vpn2;
  traffic::CbrSource v2(*s.v2_site1.ce, g, 2, &probe, 500e3);
  sink.expect_flow(2, qos::Phb::kBe, s.vpn2);

  v1.run(0, sim::kSecond);
  v2.run(0, sim::kSecond);
  s.backbone->topo.run_until(3 * sim::kSecond);

  EXPECT_GT(sink.delivered(), 0u);
  EXPECT_EQ(sink.leaks(), 0u);
  EXPECT_EQ(sink.unknown_flows(), 0u);
  EXPECT_EQ(v1.packets_sent() + v2.packets_sent(), sink.delivered());
}

TEST(Figure3, CeRoutersNeedNoVpnState) {
  Figure2Scenario s = make_figure2_scenario(12);
  s.backbone->start_and_converge();
  // The paper's edge-simplicity claim: CEs carry no VRFs, no LFIB, no BGP
  // state — a default route is all they hold beyond their site prefix.
  for (Router* ce : s.backbone->ces()) {
    EXPECT_EQ(ce->vrf_count(), 0u);
    EXPECT_EQ(ce->lsr_state(), nullptr);
    EXPECT_LE(ce->fib().size(), 2u);  // site prefix + default
  }
  // PEs, by contrast, hold the VPN intelligence.
  EXPECT_GT(s.backbone->pe(0).vrf_count(), 0u);
}

TEST(Figure4, LabeledInCoreUnlabeledAtEdgesWithPhp) {
  Figure2Scenario s = make_figure2_scenario(13);
  s.backbone->start_and_converge();

  // Trace the label stack hop by hop (Fig. 4: labeled path inside the
  // backbone, unlabeled outside).
  std::map<ip::NodeId, std::size_t> labels_seen;
  s.backbone->topo.add_packet_tap(
      [&](ip::NodeId at, const net::Packet& p) {
        if (p.flow_id == 42) labels_seen[at] = p.labels.size();
      });

  auto p = s.backbone->topo.packet_factory().make();
  p->flow_id = 42;
  p->true_vpn_id = s.vpn1;
  p->ip.src = ip::Ipv4Address::must_parse("10.1.0.1");
  p->ip.dst = ip::Ipv4Address::must_parse("10.2.0.1");
  p->payload_bytes = 100;
  int delivered = 0;
  s.v1_site2.ce->set_local_sink(
      [&](const net::Packet&, VpnId) { ++delivered; });
  s.v1_site1.ce->inject(std::move(p));
  s.backbone->topo.scheduler().run();

  ASSERT_EQ(delivered, 1);
  const ip::NodeId pe0 = s.backbone->pe(0).id();
  const ip::NodeId p0 = s.backbone->p(0).id();
  const ip::NodeId pe1 = s.backbone->pe(1).id();
  const ip::NodeId ce_dst = s.v1_site2.ce->id();
  // CE→PE0 unlabeled; PE0→P0 has [tunnel, vpn]; P0 pops (PHP) so PE1 sees
  // only the VPN label; PE1→CE unlabeled again.
  EXPECT_EQ(labels_seen.at(pe0), 0u);
  EXPECT_EQ(labels_seen.at(p0), 2u);
  EXPECT_EQ(labels_seen.at(pe1), 1u);
  EXPECT_EQ(labels_seen.at(ce_dst), 0u);
}

TEST(Router, CustomExpMapShowsInImposedLabels) {
  Figure2Scenario s = make_figure2_scenario(23);
  s.backbone->start_and_converge();
  // Non-default edge policy: EF rides EXP 7 instead of 5.
  qos::DscpExpMap custom;
  custom.set(qos::Phb::kEf, 7);
  s.backbone->pe(0).set_dscp_exp_map(custom);

  std::uint8_t seen_exp = 0xFF;
  s.backbone->topo.add_packet_tap(
      [&](ip::NodeId at, const net::Packet& p) {
        if (at == s.backbone->p(0).id() && p.has_labels()) {
          seen_exp = p.top_label().exp;
        }
      });
  auto p = s.backbone->topo.packet_factory().make();
  p->true_vpn_id = s.vpn1;
  p->ip.src = ip::Ipv4Address::must_parse("10.1.0.1");
  p->ip.dst = ip::Ipv4Address::must_parse("10.2.0.1");
  p->ip.dscp = qos::dscp_of(qos::Phb::kEf);
  s.v1_site1.ce->inject(std::move(p));
  s.backbone->topo.scheduler().run();
  EXPECT_EQ(seen_exp, 7);
}

TEST(Diagnostics, TraceRouteShowsLabelJourney) {
  Figure2Scenario s = make_figure2_scenario(16);
  s.backbone->start_and_converge();
  const TraceResult trace = trace_route(
      s.backbone->topo, *s.v1_site1.ce,
      ip::Ipv4Address::must_parse("10.1.0.1"),
      ip::Ipv4Address::must_parse("10.2.0.1"));
  ASSERT_TRUE(trace.delivered);
  EXPECT_EQ(trace.delivered_vpn, s.vpn1);
  EXPECT_GT(trace.latency, 0);
  // CE0 → PE0 → P0 → PE1 → CE (5 observation points incl. ingress).
  ASSERT_EQ(trace.hops.size(), 5u);
  EXPECT_EQ(trace.hops[2].labels.size(), 2u);  // core: [tunnel, vpn]
  EXPECT_EQ(trace.hops[3].labels.size(), 1u);  // after PHP: [vpn]
  EXPECT_TRUE(trace.hops[4].labels.empty());
  const std::string text = trace.to_string();
  EXPECT_NE(text.find("delivered"), std::string::npos);
  EXPECT_NE(text.find("P0["), std::string::npos);
}

TEST(Diagnostics, TraceRouteReportsLostProbe) {
  Figure2Scenario s = make_figure2_scenario(17);
  s.backbone->start_and_converge();
  const TraceResult trace = trace_route(
      s.backbone->topo, *s.v1_site1.ce,
      ip::Ipv4Address::must_parse("10.1.0.1"),
      ip::Ipv4Address::must_parse("99.99.99.99"),  // no such destination
      0, 100 * sim::kMillisecond);
  EXPECT_FALSE(trace.delivered);
  EXPECT_NE(trace.to_string().find("LOST"), std::string::npos);
}

TEST(Diagnostics, DescribeTablesShowsOperationalState) {
  Figure2Scenario s = make_figure2_scenario(18);
  s.backbone->start_and_converge();
  const std::string pe = describe_tables(s.backbone->pe(0));
  EXPECT_NE(pe.find("vrf \"V1\""), std::string::npos);
  EXPECT_NE(pe.find("lfib"), std::string::npos);
  EXPECT_NE(pe.find("rd 65000:1"), std::string::npos);
  const std::string ce = describe_tables(*s.v1_site1.ce);
  EXPECT_NE(ce.find("global table"), std::string::npos);
  EXPECT_EQ(ce.find("vrf"), std::string::npos);  // CE has no VRFs
}

TEST(Service, StateAccountingAndMetrics) {
  Figure2Scenario s = make_figure2_scenario(14);
  s.backbone->start_and_converge();
  auto& svc = s.backbone->service;
  EXPECT_EQ(svc.vpn_count(), 2u);
  EXPECT_EQ(svc.site_count(s.vpn1), 2u);
  EXPECT_EQ(svc.total_vrf_count(), 4u);   // 2 VPNs × 2 PEs
  // Each VRF: its connected site + the imported remote site.
  EXPECT_EQ(svc.total_vrf_routes(), 8u);
  EXPECT_EQ(svc.total_bgp_loc_rib(), 8u);  // 4 routes × 2 PEs
  EXPECT_EQ(svc.rd_of(s.vpn1).to_string(), "65000:1");
  EXPECT_EQ(svc.name_of(s.vpn1), "V1");
}

TEST(Service, RemoveSiteWithdrawsReachability) {
  Figure2Scenario s = make_figure2_scenario(15);
  s.backbone->start_and_converge();
  auto& svc = s.backbone->service;
  Router& pe1 = s.backbone->pe(1);

  // PE0's V1 VRF currently has the remote 10.2/16 route.
  Vrf* vrf_at_pe0 = s.backbone->pe(0).vrf_by_vpn(s.vpn1);
  ASSERT_NE(vrf_at_pe0, nullptr);
  ASSERT_NE(vrf_at_pe0->table().lookup(
                ip::Ipv4Address::must_parse("10.2.0.1")),
            nullptr);

  svc.remove_site(s.vpn1, pe1, ip::Prefix::must_parse("10.2.0.0/16"));
  svc.converge();
  EXPECT_EQ(
      vrf_at_pe0->table().lookup(ip::Ipv4Address::must_parse("10.2.0.1")),
      nullptr);
  EXPECT_EQ(svc.site_count(s.vpn1), 1u);
}

TEST(Service, ExtranetImportCrossesVpns) {
  backbone::BackboneConfig cfg;
  cfg.p_count = 1;
  cfg.pe_count = 2;
  backbone::MplsBackbone bb(cfg);
  const VpnId v1 = bb.service.create_vpn("corp");
  const VpnId v2 = bb.service.create_vpn("partner");
  // corp imports partner's exports (one-way extranet).
  bb.service.add_extranet_import(v1, v2);
  bb.add_site(v1, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  bb.add_site(v2, 1, ip::Prefix::must_parse("192.168.0.0/16"));
  bb.start_and_converge();

  Vrf* corp = bb.pe(0).vrf_by_vpn(v1);
  ASSERT_NE(corp, nullptr);
  // The partner site is visible inside corp's VRF...
  EXPECT_NE(
      corp->table().lookup(ip::Ipv4Address::must_parse("192.168.1.1")),
      nullptr);
  // ...but not vice versa (one-way policy).
  Vrf* partner = bb.pe(1).vrf_by_vpn(v2);
  ASSERT_NE(partner, nullptr);
  EXPECT_EQ(partner->table().lookup(ip::Ipv4Address::must_parse("10.1.0.1")),
            nullptr);
}

TEST(Service, SiteJoinAfterStartPropagates) {
  backbone::BackboneConfig cfg;
  cfg.p_count = 1;
  cfg.pe_count = 2;
  backbone::MplsBackbone bb(cfg);
  const VpnId v = bb.service.create_vpn("dyn");
  bb.add_site(v, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  bb.start_and_converge();

  // Discovery (§4.1): a site joining later becomes known to all members.
  bb.add_site(v, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.service.converge();
  Vrf* at_pe0 = bb.pe(0).vrf_by_vpn(v);
  ASSERT_NE(at_pe0, nullptr);
  EXPECT_NE(at_pe0->table().lookup(ip::Ipv4Address::must_parse("10.2.0.1")),
            nullptr);
}

// --- Route-target filtering and route refresh --------------------------------

struct FilterCase {
  routing::Bgp::Mode mode;
  bool packed;
};

class LateJoin : public ::testing::TestWithParam<FilterCase> {
 protected:
  std::unique_ptr<backbone::MplsBackbone> make() const {
    backbone::BackboneConfig cfg;
    cfg.p_count = 1;
    cfg.pe_count = 3;
    cfg.bgp_mode = GetParam().mode;
    cfg.route_reflector_count =
        cfg.bgp_mode == routing::Bgp::Mode::kRouteReflector ? 1 : 0;
    auto bb = std::make_unique<backbone::MplsBackbone>(cfg);
    bb->bgp.set_packing(GetParam().packed);
    return bb;
  }
  std::uint64_t pe_peers() const {
    return GetParam().mode == routing::Bgp::Mode::kFullMesh ? 2 : 1;
  }
};

TEST_P(LateJoin, VrfAddedAfterStartGetsEveryRemoteRoute) {
  auto bb = make();
  const VpnId a = bb->service.create_vpn("A");
  const VpnId b = bb->service.create_vpn("B");
  bb->add_site(a, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  bb->add_site(a, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  bb->add_site(b, 2, ip::Prefix::must_parse("10.9.0.0/16"));
  bb->start_and_converge();
  // PE2 serves only B, so it dropped A's routes on arrival.
  EXPECT_EQ(bb->bgp.loc_rib_size(bb->pe(2).id()), 1u);
  EXPECT_GT(bb->bgp.rt_filtered(), 0u);

  bb->add_site(a, 2, ip::Prefix::must_parse("10.3.0.0/16"));
  bb->service.converge();
  Vrf* vrf = bb->pe(2).vrf_by_vpn(a);
  ASSERT_NE(vrf, nullptr);
  EXPECT_EQ(vrf->table().size(), 3u);
  for (std::size_t pe : {0u, 1u}) {
    const ip::RouteEntry* e = vrf->table().lookup(ip::Ipv4Address(
        10, static_cast<std::uint8_t>(pe + 1), 0, 1));
    ASSERT_NE(e, nullptr) << "site at PE" << pe;
    EXPECT_EQ(e->egress_pe, bb->pe(pe).id());
  }
  // One 23 B ROUTE-REFRESH per peer of PE2 brought them back.
  EXPECT_EQ(bb->cp.message_count("bgp.refresh"), pe_peers());
  EXPECT_EQ(bb->cp.byte_count("bgp.refresh"),
            pe_peers() * routing::kRouteRefreshBytes);
  // The members that were there before learned the newcomer.
  EXPECT_EQ(bb->pe(0).vrf_by_vpn(a)->table().size(), 3u);
  EXPECT_EQ(bb->pe(1).vrf_by_vpn(a)->table().size(), 3u);
}

TEST_P(LateJoin, NewVrfTakesMatchingRoutesAlreadyInTheLocRib) {
  // PE1's corp VRF imports partner (extranet), so PE1 already accepted
  // partner's routes. A partner VRF created there after start installs them
  // at once, with no refresh: the import set did not grow.
  auto bb = make();
  const VpnId corp = bb->service.create_vpn("corp");
  const VpnId partner = bb->service.create_vpn("partner");
  bb->service.add_extranet_import(corp, partner);
  bb->add_site(partner, 0, ip::Prefix::must_parse("192.168.0.0/16"));
  bb->add_site(corp, 1, ip::Prefix::must_parse("10.1.0.0/16"));
  bb->start_and_converge();

  bb->add_site(partner, 1, ip::Prefix::must_parse("192.169.0.0/16"));
  const ip::RouteEntry* e = bb->pe(1).vrf_by_vpn(partner)->table().lookup(
      ip::Ipv4Address::must_parse("192.168.1.1"));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->egress_pe, bb->pe(0).id());
  bb->service.converge();
  EXPECT_EQ(bb->cp.message_count("bgp.refresh"), 0u);

  // A withdraw removes it from both importing VRFs.
  bb->service.remove_site(partner, bb->pe(0),
                          ip::Prefix::must_parse("192.168.0.0/16"));
  bb->service.converge();
  for (VpnId v : {corp, partner}) {
    EXPECT_EQ(bb->pe(1).vrf_by_vpn(v)->table().lookup(
                  ip::Ipv4Address::must_parse("192.168.1.1")),
              nullptr)
        << "vpn " << v;
  }
}

TEST_P(LateJoin, RtChangeToUnimportedTargetRemovesTheVrfRoute) {
  auto bb = make();
  const VpnId a = bb->service.create_vpn("A");
  const VpnId c = bb->service.create_vpn("C");
  bb->add_site(a, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  bb->add_site(a, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  bb->add_site(c, 0, ip::Prefix::must_parse("10.7.0.0/16"));
  bb->start_and_converge();
  Vrf* at_pe1 = bb->pe(1).vrf_by_vpn(a);
  const ip::Ipv4Address probe = ip::Ipv4Address::must_parse("10.1.0.1");
  ASSERT_NE(at_pe1->table().lookup(probe), nullptr);

  // PE0 re-exports A's 10.1/16 with C's route target, which PE1 does not
  // import: the update withdraws PE0's earlier offer there.
  const routing::VpnRouteKey key{bb->service.rd_of(a),
                                 ip::Prefix::must_parse("10.1.0.0/16")};
  routing::VpnRoute moved = *bb->bgp.best(bb->pe(0).id(), key);
  moved.route_targets = {bb->service.rt_of(c)};
  const std::size_t before = bb->bgp.adj_rib_in_size(bb->pe(1).id());
  bb->bgp.originate(bb->pe(0).id(), moved);
  bb->service.converge();
  EXPECT_EQ(bb->bgp.best(bb->pe(1).id(), key), nullptr);
  EXPECT_LT(bb->bgp.adj_rib_in_size(bb->pe(1).id()), before);
  EXPECT_EQ(at_pe1->table().lookup(probe), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndPacking, LateJoin,
    ::testing::Values(FilterCase{routing::Bgp::Mode::kFullMesh, true},
                      FilterCase{routing::Bgp::Mode::kFullMesh, false},
                      FilterCase{routing::Bgp::Mode::kRouteReflector, true},
                      FilterCase{routing::Bgp::Mode::kRouteReflector, false}),
    [](const ::testing::TestParamInfo<FilterCase>& info) {
      return std::string(info.param.mode == routing::Bgp::Mode::kFullMesh
                             ? "Mesh"
                             : "Rr") +
             (info.param.packed ? "Packed" : "Legacy");
    });

TEST(Service, PesKeepOnlyTheRoutesTheirVrfsImport) {
  // Three VPNs over four PEs, corp importing partner (extranet). Every VRF
  // must hold exactly what the configuration implies — its VPN's sites and
  // the imported VPN's — while each PE's RIBs hold only routes carrying an
  // RT one of its VRFs imports, plus its own originations.
  for (const auto mode : {routing::Bgp::Mode::kFullMesh,
                          routing::Bgp::Mode::kRouteReflector}) {
    SCOPED_TRACE(mode == routing::Bgp::Mode::kFullMesh ? "mesh" : "rr");
    backbone::BackboneConfig cfg;
    cfg.p_count = 2;
    cfg.pe_count = 4;
    cfg.bgp_mode = mode;
    cfg.route_reflector_count =
        mode == routing::Bgp::Mode::kRouteReflector ? 2 : 0;
    backbone::MplsBackbone bb(cfg);
    const VpnId corp = bb.service.create_vpn("corp");
    const VpnId partner = bb.service.create_vpn("partner");
    const VpnId lab = bb.service.create_vpn("lab");
    bb.service.add_extranet_import(corp, partner);
    struct SiteAt {
      VpnId vpn;
      std::size_t pe;
      const char* prefix;
    };
    const std::vector<SiteAt> sites = {
        {corp, 0, "10.1.0.0/16"},     {corp, 1, "10.2.0.0/16"},
        {partner, 1, "172.16.0.0/16"}, {partner, 2, "172.17.0.0/16"},
        {lab, 3, "10.1.0.0/16"},      {lab, 0, "10.9.0.0/16"},
    };
    for (const SiteAt& s : sites) {
      bb.add_site(s.vpn, s.pe, ip::Prefix::must_parse(s.prefix));
    }
    bb.start_and_converge();

    std::size_t vrf_routes = 0;
    for (std::size_t pe = 0; pe < cfg.pe_count; ++pe) {
      const ip::NodeId id = bb.pe(pe).id();
      std::set<routing::RouteTarget> imports;
      for (const Vrf* vrf : bb.pe(pe).vrfs()) {
        imports.insert(vrf->config().import_targets.begin(),
                       vrf->config().import_targets.end());
        // Expected: every site of a VPN this VRF imports (a PE imports
        // no route it originated itself, so a local site of another VPN
        // stays out).
        std::size_t expected = 0;
        for (const SiteAt& s : sites) {
          const bool wanted =
              s.vpn == vrf->vpn_id() ||
              (vrf->vpn_id() == corp && s.vpn == partner && s.pe != pe);
          if (!wanted) continue;
          ++expected;
          const ip::RouteEntry* e = vrf->table().find(
              ip::Prefix::must_parse(s.prefix));
          ASSERT_NE(e, nullptr) << "PE" << pe << " " << s.prefix;
          if (s.pe == pe) {
            EXPECT_EQ(e->source, ip::RouteSource::kConnected);
          } else {
            EXPECT_EQ(e->source, ip::RouteSource::kVpn);
            EXPECT_EQ(e->egress_pe, bb.pe(s.pe).id());
          }
        }
        EXPECT_EQ(vrf->table().size(), expected) << "PE" << pe;
        vrf_routes += expected;
      }
      const std::vector<routing::VpnRoute> rib = bb.bgp.loc_rib(id);
      for (const routing::VpnRoute& r : rib) {
        const bool imported =
            std::any_of(r.route_targets.begin(), r.route_targets.end(),
                        [&](const auto& rt) { return imports.count(rt) != 0; });
        EXPECT_TRUE(r.originator == id || imported)
            << "PE" << pe << " holds " << r.prefix.to_string();
      }
      if (mode == routing::Bgp::Mode::kFullMesh) {
        // One origin per key: the Adj-RIB-In is the Loc-RIB's size.
        EXPECT_EQ(bb.bgp.adj_rib_in_size(id), rib.size()) << "PE" << pe;
      }
    }
    EXPECT_EQ(bb.service.total_vrf_routes(), vrf_routes);
    // PE3 (lab only) dropped all four corp/partner routes, PE2 (partner)
    // corp's and lab's, and so on: the filter did work.
    EXPECT_GT(bb.bgp.rt_filtered(), 0u);
    obs::MetricsRegistry reg;
    obs::register_control_metrics(bb.cp, bb.bgp, bb.igp, reg);
    bool found = false;
    for (const auto& sample : reg.snapshot()) {
      if (sample.name != "control/bgp/rt_filtered") continue;
      found = true;
      EXPECT_EQ(sample.value, static_cast<double>(bb.bgp.rt_filtered()));
    }
    EXPECT_TRUE(found);
  }
}

TEST(MembershipDirectory, NotifiesMembersScopedPerVpn) {
  net::Topology topo(5);
  // Server + 4 PEs (plain nodes; the directory is control-plane only).
  std::vector<Router*> nodes;
  for (int i = 0; i < 5; ++i) {
    nodes.push_back(&topo.add_node<Router>("n" + std::to_string(i),
                                           Role::kPe));
  }
  routing::ControlPlane cp(topo);
  MembershipDirectory dir(cp, nodes[0]->id());

  struct Event {
    ip::NodeId at;
    VpnId vpn;
    ip::NodeId who;
    bool joined;
  };
  std::vector<Event> events;
  dir.on_notify([&](ip::NodeId at, VpnId vpn,
                    const MembershipDirectory::Attachment& who, bool joined) {
    events.push_back(Event{at, vpn, who.pe, joined});
  });

  dir.register_site(1, nodes[1]->id(), ip::Prefix::must_parse("10.1.0.0/16"));
  topo.scheduler().run();
  EXPECT_TRUE(events.empty());  // first member: nobody to notify
  EXPECT_EQ(dir.member_count(1), 1u);

  dir.register_site(1, nodes[2]->id(), ip::Prefix::must_parse("10.2.0.0/16"));
  dir.register_site(2, nodes[3]->id(), ip::Prefix::must_parse("10.1.0.0/16"));
  topo.scheduler().run();
  // VPN 1's join produced exactly two notifications (existing member and
  // newcomer replay); VPN 2's first member produced none — and crucially,
  // no event about VPN 1 ever reached the VPN-2-only PE.
  ASSERT_EQ(events.size(), 2u);
  for (const Event& e : events) {
    EXPECT_EQ(e.vpn, 1u);
    EXPECT_NE(e.at, nodes[3]->id());
    EXPECT_TRUE(e.joined);
  }
  EXPECT_EQ(dir.member_count(2), 1u);

  events.clear();
  dir.deregister_site(1, nodes[1]->id(),
                      ip::Prefix::must_parse("10.1.0.0/16"));
  topo.scheduler().run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_FALSE(events[0].joined);
  EXPECT_EQ(events[0].at, nodes[2]->id());
  EXPECT_EQ(dir.member_count(1), 1u);
  EXPECT_GT(dir.notifications_sent(), 0u);
  EXPECT_EQ(dir.registrations(), 4u);
}

/// Minimal LSR chain for OAM: a — b — c with a TE LSP a→c.
struct OamFixture {
  net::Topology topo{7};
  routing::ControlPlane cp{topo};
  routing::Igp igp{cp};
  mpls::MplsDomain domain;
  mpls::RsvpTe rsvp{cp, igp, domain};
  Router* a;
  Router* b;
  Router* c;
  net::LinkId ab = net::kInvalidLink;
  net::LinkId bc = net::kInvalidLink;
  mpls::LspId lsp = 0;

  OamFixture() {
    a = &topo.add_node<Router>("a", Role::kP);
    b = &topo.add_node<Router>("b", Role::kP);
    c = &topo.add_node<Router>("c", Role::kP);
    for (Router* r : {a, b, c}) {
      igp.add_router(r->id());
      r->set_lsr_state(&domain.state_of(r->id()));
    }
    ab = topo.connect(a->id(), b->id());
    bc = topo.connect(b->id(), c->id());
    igp.start();
    topo.scheduler().run();
    mpls::TeLspConfig cfg;
    cfg.head = a->id();
    cfg.tail = c->id();
    cfg.bandwidth_bps = 1e6;
    lsp = rsvp.signal(cfg);
    topo.scheduler().run();
  }
};

TEST(LspOam, PingSucceedsOverHealthyLsp) {
  OamFixture f;
  ASSERT_EQ(f.rsvp.lsp(f.lsp).state, mpls::RsvpTe::LspState::kUp);
  LspOam oam(f.topo, f.cp, f.rsvp);
  bool got = false;
  bool ok = false;
  sim::SimTime rtt = 0;
  oam.ping(f.lsp, [&](bool o, sim::SimTime r) {
    got = true;
    ok = o;
    rtt = r;
  });
  f.topo.scheduler().run();
  ASSERT_TRUE(got);
  EXPECT_TRUE(ok);
  EXPECT_GT(rtt, 0);
  EXPECT_EQ(oam.probes_sent(), 1u);
  EXPECT_EQ(oam.replies_received(), 1u);
  EXPECT_EQ(oam.failures_detected(), 0u);
}

TEST(LspOam, PingTimesOutOnSilentDataPlaneBreak) {
  OamFixture f;
  LspOam oam(f.topo, f.cp, f.rsvp);
  // Break the forwarding path WITHOUT telling RSVP — the LSP still claims
  // to be up; only a data-plane probe can notice.
  f.topo.link(f.bc).set_up(false);
  ASSERT_EQ(f.rsvp.lsp(f.lsp).state, mpls::RsvpTe::LspState::kUp);
  bool got = false;
  bool ok = true;
  oam.ping(f.lsp, [&](bool o, sim::SimTime) {
    got = true;
    ok = o;
  });
  f.topo.scheduler().run();
  ASSERT_TRUE(got);
  EXPECT_FALSE(ok);
  EXPECT_EQ(oam.failures_detected(), 1u);
}

TEST(LspOam, MonitorDetectsSilentFailureOnce) {
  OamFixture f;
  LspOam oam(f.topo, f.cp, f.rsvp);
  int down_events = 0;
  oam.monitor(f.lsp, 50 * sim::kMillisecond, 3,
              [&](mpls::LspId) { ++down_events; });
  // Healthy for a while...
  f.topo.run_until(f.topo.scheduler().now() + 300 * sim::kMillisecond);
  EXPECT_EQ(down_events, 0);
  // ...then the silent break.
  f.topo.link(f.bc).set_up(false);
  f.topo.run_until(f.topo.scheduler().now() + 400 * sim::kMillisecond);
  EXPECT_EQ(down_events, 1);
  // Deactivated after the down event: no further callbacks, and stopping
  // again is harmless.
  oam.stop_monitoring(f.lsp);
  f.topo.run_until(f.topo.scheduler().now() + 400 * sim::kMillisecond);
  EXPECT_EQ(down_events, 1);
}

TEST(LspOam, PingOnUnsignaledLspFails) {
  OamFixture f;
  mpls::TeLspConfig cfg;
  cfg.head = f.a->id();
  cfg.tail = f.c->id();
  cfg.bandwidth_bps = 1e12;  // cannot be admitted
  const mpls::LspId dead = f.rsvp.signal(cfg);
  f.topo.scheduler().run();
  ASSERT_EQ(f.rsvp.lsp(dead).state, mpls::RsvpTe::LspState::kFailed);
  LspOam oam(f.topo, f.cp, f.rsvp);
  bool ok = true;
  oam.ping(dead, [&](bool o, sim::SimTime) { ok = o; });
  f.topo.scheduler().run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(oam.probes_sent(), 0u);  // nothing could even be imposed
}

TEST(InterAs, ConstructionValidatesAdjacency) {
  backbone::BackboneConfig cfg;
  cfg.p_count = 1;
  cfg.pe_count = 2;
  backbone::MplsBackbone bb1(cfg);
  backbone::MplsBackbone bb2(cfg);
  // PEs of two *different* topologies can never be adjacent — and within
  // one topology, two non-adjacent PEs must be rejected too.
  EXPECT_THROW(
      InterAsPeering(bb1.cp, bb1.service, bb1.pe(0), bb1.service, bb1.pe(1)),
      std::invalid_argument);
}

TEST(Service, BindVrfInterfaceRequiresAdjacency) {
  backbone::BackboneConfig cfg;
  cfg.p_count = 1;
  cfg.pe_count = 2;
  backbone::MplsBackbone bb(cfg);
  const VpnId v = bb.service.create_vpn("x");
  EXPECT_THROW(bb.service.bind_vrf_interface(v, bb.pe(0), 9999),
               std::invalid_argument);
}

TEST(Service, OriginateExternalBeforeStartIsQueued) {
  backbone::BackboneConfig cfg;
  cfg.p_count = 1;
  cfg.pe_count = 2;
  backbone::MplsBackbone bb(cfg);
  const VpnId v = bb.service.create_vpn("x");
  // Give PE1 a VRF so the import lands somewhere observable.
  auto site = bb.add_site(v, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  (void)site;
  bb.service.originate_external(v, bb.pe(0),
                                ip::Prefix::must_parse("192.168.0.0/16"));
  bb.start_and_converge();
  Vrf* vrf = bb.pe(1).vrf_by_vpn(v);
  ASSERT_NE(vrf, nullptr);
  const ip::RouteEntry* r =
      vrf->table().lookup(ip::Ipv4Address::must_parse("192.168.1.1"));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->egress_pe, bb.pe(0).id());
}

TEST(Overlay, UnreachableSitePairThrowsOnProvision) {
  net::Topology topo;
  routing::ControlPlane cp(topo);
  OverlayVpnService svc(topo, cp);
  auto& a = topo.add_node<Router>("a", Role::kCe);
  auto& b = topo.add_node<Router>("b", Role::kCe);  // no link at all
  const VpnId v = svc.create_vpn("V");
  svc.add_site(v, a, ip::Prefix::must_parse("10.1.0.0/16"));
  svc.add_site(v, b, ip::Prefix::must_parse("10.2.0.0/16"));
  EXPECT_THROW(svc.provision(), std::runtime_error);
}

TEST(Backbone, RandomBackboneDeterministicForSeed) {
  auto a = backbone::make_random_backbone(4, 3, 0.4, 123);
  auto b = backbone::make_random_backbone(4, 3, 0.4, 123);
  EXPECT_EQ(a->topo.link_count(), b->topo.link_count());
  EXPECT_EQ(a->topo.node_count(), b->topo.node_count());
  auto c = backbone::make_random_backbone(4, 3, 0.4, 124);
  EXPECT_EQ(c->topo.node_count(), a->topo.node_count());  // same shape params
}

TEST(Service, AddSiteValidatesAdjacency) {
  backbone::BackboneConfig cfg;
  cfg.p_count = 1;
  cfg.pe_count = 1;
  backbone::MplsBackbone bb(cfg);
  const VpnId v = bb.service.create_vpn("x");
  auto& orphan_ce = bb.topo.add_node<Router>("orphan", Role::kCe);
  EXPECT_THROW(bb.service.add_site(v, bb.pe(0), orphan_ce,
                                   ip::Prefix::must_parse("10.1.0.0/16")),
               std::invalid_argument);
}

}  // namespace
}  // namespace mvpn::vpn
