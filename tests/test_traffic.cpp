#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "backbone/fixtures.hpp"
#include "qos/queues.hpp"
#include "reference/legacy_source.hpp"
#include "traffic/flowset.hpp"
#include "traffic/sink.hpp"
#include "traffic/source.hpp"
#include "traffic/tcp_lite.hpp"

namespace mvpn::traffic {
namespace {

using backbone::Figure2Scenario;
using backbone::make_figure2_scenario;

TEST(CbrSource, RateIsExact) {
  Figure2Scenario s = make_figure2_scenario(101);
  s.backbone->start_and_converge();
  qos::SlaProbe probe;
  MeasurementSink sink(probe, s.backbone->topo.scheduler());
  sink.bind(*s.v1_site2.ce);
  FlowSpec f;
  f.src = ip::Ipv4Address::must_parse("10.1.0.1");
  f.dst = ip::Ipv4Address::must_parse("10.2.0.1");
  f.vpn = s.vpn1;
  f.payload_bytes = 472;  // 500 B at IP level
  CbrSource src(*s.v1_site1.ce, f, 1, &probe, 1e6);
  sink.expect_flow(1, qos::Phb::kBe, s.vpn1);
  const sim::SimTime t0 = s.backbone->topo.scheduler().now();
  src.run(t0, t0 + 2 * sim::kSecond);
  s.backbone->topo.run_until(t0 + 4 * sim::kSecond);
  // 1 Mb/s at 4000 bits per packet = 250 pps for 2 s.
  EXPECT_NEAR(static_cast<double>(src.packets_sent()), 500.0, 2.0);
  EXPECT_EQ(sink.delivered(), src.packets_sent());
}

TEST(PoissonSource, MeanRateApproximates) {
  Figure2Scenario s = make_figure2_scenario(102);
  s.backbone->start_and_converge();
  qos::SlaProbe probe;
  MeasurementSink sink(probe, s.backbone->topo.scheduler());
  sink.bind(*s.v1_site2.ce);
  FlowSpec f;
  f.src = ip::Ipv4Address::must_parse("10.1.0.1");
  f.dst = ip::Ipv4Address::must_parse("10.2.0.1");
  f.vpn = s.vpn1;
  PoissonSource src(*s.v1_site1.ce, f, 1, &probe, 1e6);
  sink.expect_flow(1, qos::Phb::kBe, s.vpn1);
  src.run(0, 4 * sim::kSecond);
  s.backbone->topo.run_until(6 * sim::kSecond);
  EXPECT_NEAR(static_cast<double>(src.packets_sent()), 1000.0, 100.0);
}

TEST(OnOffSource, DutyCycleScalesThroughput) {
  Figure2Scenario s = make_figure2_scenario(103);
  s.backbone->start_and_converge();
  qos::SlaProbe probe;
  MeasurementSink sink(probe, s.backbone->topo.scheduler());
  sink.bind(*s.v1_site2.ce);
  FlowSpec f;
  f.src = ip::Ipv4Address::must_parse("10.1.0.1");
  f.dst = ip::Ipv4Address::must_parse("10.2.0.1");
  f.vpn = s.vpn1;
  // 2 Mb/s peak, 50% duty → ~1 Mb/s mean.
  OnOffSource src(*s.v1_site1.ce, f, 1, &probe, 2e6, 0.1, 0.1);
  sink.expect_flow(1, qos::Phb::kBe, s.vpn1);
  src.run(0, 4 * sim::kSecond);
  s.backbone->topo.run_until(6 * sim::kSecond);
  const double mean_bps =
      static_cast<double>(src.packets_sent()) * 500 * 8 / 4.0;
  EXPECT_GT(mean_bps, 0.6e6);
  EXPECT_LT(mean_bps, 1.4e6);
}

/// One packet as the destination CE delivered it: identity, emission
/// instant and the header fields the source wrote.
struct Delivery {
  std::uint64_t id = 0;
  sim::SimTime created_at = 0;
  std::uint8_t dscp = 0;
  std::uint8_t protocol = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::size_t payload_bytes = 0;
  vpn::VpnId vpn = 0;
  bool operator==(const Delivery&) const = default;
};

/// Deliveries observed at the destination CE, plus per-flow sent counts and
/// the SLA probe's rendered sent/delivered report — everything a
/// byte-identity comparison between packet-emission engines needs. The
/// packet id encodes (flow_id << 32) | seq, so equal logs mean equal flows,
/// sequence numbers, emission instants, headers and delivery order.
struct MixResult {
  std::vector<Delivery> log;
  std::vector<std::uint64_t> sent;
  std::string sla;
};

/// How run_mix emits the flows: the reference per-flow Source engine
/// (tests/reference), the production one-flow Source façades, or every
/// flow in one lane FlowSet.
enum class Engine { kReference, kFacade, kFlowSet };

/// The reference and façade engines share one API under two namespaces.
template <class Base, class Cbr, class Poisson, class OnOff>
struct PerFlow {
  static std::vector<std::uint64_t> run(
      const Figure2Scenario& s, const std::vector<FlowSet::FlowDef>& defs,
      qos::SlaProbe& probe, sim::SimTime t0, sim::SimTime stop) {
    std::vector<std::unique_ptr<Base>> srcs;
    for (const FlowSet::FlowDef& d : defs) {
      FlowSpec f;
      f.src = ip::Ipv4Address::must_parse("10.1.0.1");
      f.dst = ip::Ipv4Address::must_parse("10.2.0.1");
      f.src_port = d.src_port;
      f.dst_port = d.dst_port;
      f.protocol = d.protocol;
      f.payload_bytes = d.payload_bytes;
      f.vpn = s.vpn1;
      f.phb = d.phb;
      f.premark = d.premark;
      vpn::Router& ce = *s.v1_site1.ce;
      switch (d.kind) {
        case FlowSet::Kind::kCbr:
          srcs.push_back(
              std::make_unique<Cbr>(ce, f, d.flow_id, &probe, d.rate_bps));
          break;
        case FlowSet::Kind::kPoisson:
          srcs.push_back(
              std::make_unique<Poisson>(ce, f, d.flow_id, &probe, d.rate_bps));
          break;
        case FlowSet::Kind::kOnOff:
          srcs.push_back(std::make_unique<OnOff>(ce, f, d.flow_id, &probe,
                                                 d.rate_bps, d.on_s, d.off_s));
          break;
      }
      srcs.back()->run(t0 + d.start, stop);
    }
    s.backbone->topo.run_until(stop + sim::kSecond);
    std::vector<std::uint64_t> sent;
    for (const auto& src : srcs) sent.push_back(src->packets_sent());
    return sent;
  }
};
using ReferenceFlows =
    PerFlow<reference::Source, reference::CbrSource,
            reference::PoissonSource, reference::OnOffSource>;
using FacadeFlows = PerFlow<Source, CbrSource, PoissonSource, OnOffSource>;

/// Run `defs` (with `start` interpreted relative to convergence) on a fresh
/// Figure-2 fixture for `run_s` seconds through `engine`. All flows go
/// site1 → site2 of VPN 1.
MixResult run_mix(std::uint64_t seed,
                  const std::vector<FlowSet::FlowDef>& defs, double run_s,
                  Engine engine) {
  Figure2Scenario s = make_figure2_scenario(seed);
  s.backbone->start_and_converge();
  qos::SlaProbe probe;
  sim::Scheduler& sched = s.backbone->topo.scheduler();
  MeasurementSink sink(probe, sched);
  sink.bind(*s.v1_site2.ce);
  for (const FlowSet::FlowDef& d : defs) {
    sink.expect_flow(d.flow_id, d.phb, s.vpn1);
  }
  MixResult r;
  s.v1_site2.ce->add_delivery_tap([&](const net::Packet& p, vpn::VpnId) {
    r.log.push_back(Delivery{p.id, p.created_at, p.ip.dscp, p.ip.protocol,
                             p.l4.src_port, p.l4.dst_port, p.payload_bytes,
                             p.true_vpn_id});
  });
  const sim::SimTime t0 = sched.now();
  const sim::SimTime stop = t0 + sim::from_seconds(run_s);
  if (engine == Engine::kReference) {
    r.sent = ReferenceFlows::run(s, defs, probe, t0, stop);
  } else if (engine == Engine::kFacade) {
    r.sent = FacadeFlows::run(s, defs, probe, t0, stop);
  } else {
    FlowSet fs(sched, &probe, s.backbone->topo.seed());
    const std::uint32_t from = fs.add_site(
        *s.v1_site1.ce, ip::Ipv4Address::must_parse("10.1.0.1"));
    const std::uint32_t to = fs.add_site(
        *s.v1_site2.ce, ip::Ipv4Address::must_parse("10.2.0.1"));
    for (FlowSet::FlowDef d : defs) {
      d.from_site = from;
      d.to_site = to;
      d.vpn = s.vpn1;
      d.start = t0 + d.start;
      fs.add_flow(d);
    }
    fs.run(stop);
    s.backbone->topo.run_until(stop + sim::kSecond);
    for (std::uint32_t row = 0; row < defs.size(); ++row) {
      r.sent.push_back(fs.packets_sent(row));
    }
  }
  EXPECT_EQ(sink.leaks(), 0u);
  EXPECT_EQ(sink.unknown_flows(), 0u);
  r.sla = probe.to_csv(run_s);
  return r;
}

/// The three engines must agree packet for packet, count for count, and on
/// the SLA report the probe renders from them.
void expect_identical(const MixResult& ref, const MixResult& other,
                      const char* engine) {
  EXPECT_EQ(ref.sent, other.sent) << engine;
  ASSERT_EQ(ref.log.size(), other.log.size()) << engine;
  EXPECT_TRUE(ref.log == other.log) << engine;
  EXPECT_EQ(ref.sla, other.sla) << engine;
}

TEST(FlowSet, ByteIdenticalToReferenceSourcesAcrossKinds) {
  std::vector<FlowSet::FlowDef> defs(3);
  defs[0].flow_id = 1;
  defs[0].kind = FlowSet::Kind::kCbr;
  defs[0].rate_bps = 200e3;
  defs[0].phb = qos::Phb::kEf;
  defs[0].premark = true;
  defs[0].dst_port = 16400;
  defs[0].payload_bytes = 172;
  defs[1].flow_id = 2;
  defs[1].kind = FlowSet::Kind::kPoisson;
  defs[1].rate_bps = 1e6;
  defs[1].start = sim::from_seconds(0.01);
  defs[2].flow_id = 3;
  defs[2].kind = FlowSet::Kind::kOnOff;
  defs[2].rate_bps = 2e6;
  defs[2].on_s = 0.05;
  defs[2].off_s = 0.02;
  defs[2].phb = qos::Phb::kAf21;
  defs[2].dst_port = 5004;
  defs[2].start = sim::from_seconds(0.02);

  const MixResult ref = run_mix(7101, defs, 2.0, Engine::kReference);
  expect_identical(ref, run_mix(7101, defs, 2.0, Engine::kFacade), "facade");
  expect_identical(ref, run_mix(7101, defs, 2.0, Engine::kFlowSet),
                   "flowset");
  // Sanity: the comparison covered real traffic from every source kind, in
  // every class the flows are accounted under.
  EXPECT_GT(ref.log.size(), 500u);
  for (std::uint64_t sent : ref.sent) EXPECT_GT(sent, 50u);
  for (const char* cls : {"EF", "AF21", "BE"}) {
    EXPECT_NE(ref.sla.find(cls), std::string::npos) << ref.sla;
  }
}

TEST(FlowSet, OnOffResidueMatchesReferenceBurstBookkeeping) {
  // One on/off flow over enough sim time for hundreds of burst cycles: the
  // SoA packets-remaining residue must reproduce the reference engine's
  // `burst_remaining_` time-residue arithmetic draw for draw — same RNG
  // consumption, same emission instants, same per-burst packet counts.
  std::vector<FlowSet::FlowDef> defs(1);
  defs[0].flow_id = 11;
  defs[0].kind = FlowSet::Kind::kOnOff;
  defs[0].rate_bps = 2e6;
  defs[0].on_s = 0.03;
  defs[0].off_s = 0.01;

  const MixResult ref = run_mix(7102, defs, 30.0, Engine::kReference);
  EXPECT_GT(ref.sent.at(0), 5000u);  // many bursts, many residue cycles
  expect_identical(ref, run_mix(7102, defs, 30.0, Engine::kFacade), "facade");
  expect_identical(ref, run_mix(7102, defs, 30.0, Engine::kFlowSet),
                   "flowset");
}

TEST(CbrSource, DestroyedWhileRunningEmitsNothingMore) {
  // The reference engine left a dangling [this] event behind a destroyed
  // source; the façade's FlowSet cancels its armed event on destruction,
  // so the scheduler keeps running without touching freed memory (ASan
  // builds check the latter).
  Figure2Scenario s = make_figure2_scenario(7104);
  s.backbone->start_and_converge();
  qos::SlaProbe probe;
  MeasurementSink sink(probe, s.backbone->topo.scheduler());
  sink.bind(*s.v1_site2.ce);
  sink.expect_flow(1, qos::Phb::kBe, s.vpn1);
  FlowSpec f;
  f.src = ip::Ipv4Address::must_parse("10.1.0.1");
  f.dst = ip::Ipv4Address::must_parse("10.2.0.1");
  f.vpn = s.vpn1;
  const sim::SimTime t0 = s.backbone->topo.scheduler().now();
  auto src = std::make_unique<CbrSource>(*s.v1_site1.ce, f, 1, &probe, 1e6);
  src->run(t0, t0 + 2 * sim::kSecond);
  s.backbone->topo.run_until(t0 + sim::kSecond / 2);
  const std::uint64_t sent = src->packets_sent();
  EXPECT_GT(sent, 100u);
  src.reset();
  s.backbone->topo.run_until(t0 + 4 * sim::kSecond);
  EXPECT_EQ(probe.report(qos::Phb::kBe).sent_packets, sent);
  // Packets already in flight when the source died still arrive.
  EXPECT_EQ(sink.delivered(), sent);
}

TEST(FlowSet, StateStaysUnder64BytesPerFlow) {
  Figure2Scenario s = make_figure2_scenario(7103);
  s.backbone->start_and_converge();
  qos::SlaProbe probe;
  sim::Scheduler& sched = s.backbone->topo.scheduler();
  FlowSet fs(sched, &probe, s.backbone->topo.seed());
  const std::uint32_t a =
      fs.add_site(*s.v1_site1.ce, ip::Ipv4Address::must_parse("10.1.0.1"));
  const std::uint32_t b =
      fs.add_site(*s.v1_site2.ce, ip::Ipv4Address::must_parse("10.2.0.1"));
  constexpr std::uint32_t kFlows = 10'000;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    FlowSet::FlowDef d;
    d.flow_id = i + 1;
    d.from_site = a;
    d.to_site = b;
    d.kind = i % 3 == 0   ? FlowSet::Kind::kCbr
             : i % 3 == 1 ? FlowSet::Kind::kPoisson
                          : FlowSet::Kind::kOnOff;
    d.rate_bps = 1e4 + i;  // distinct intervals, shared template
    d.vpn = s.vpn1;
    fs.add_flow(d);
  }
  fs.run(sched.now() + sim::kSecond);
  EXPECT_EQ(fs.flow_count(), kFlows);
  // The tentpole budget: ≤64 B of SoA state per flow, 16 B per calendar
  // entry, regardless of how the build-time vectors grew.
  EXPECT_LE(fs.state_bytes_per_flow(), 64.0);
  EXPECT_EQ(fs.calendar_bytes(), kFlows * 16u);
}

TEST(MeasurementSink, DenseTableHandlesSparseAndUnknownFlowIds) {
  net::Topology topo;
  qos::SlaProbe probe;
  MeasurementSink sink(probe, topo.scheduler());
  sink.expect_flow(5, qos::Phb::kEf, 3);
  auto deliver = [&](std::uint32_t fid, vpn::VpnId truth, vpn::VpnId ctx) {
    auto p = topo.packet_factory().make();
    p->flow_id = fid;
    p->true_vpn_id = truth;
    sink.on_delivery(*p, ctx);
  };
  deliver(5, 3, 3);     // expected flow, right VPN
  deliver(3, 3, 3);     // gap inside the table → unknown
  deliver(9999, 3, 3);  // far past the table → unknown, no resize, no crash
  deliver(5, 3, 4);     // wrong VPN context → leak, counted before flows
  EXPECT_EQ(sink.delivered(), 4u);
  EXPECT_EQ(sink.unknown_flows(), 2u);
  EXPECT_EQ(sink.leaks(), 1u);
}

TEST(MeasurementSink, ProbeFlowDeliveredIntoAnotherVpnIsALeak) {
  // Stamp and delivering context agree, but flow 5 was registered for VPN
  // 3: a source that stamped its own flow with the wrong VPN still leaks.
  net::Topology topo;
  qos::SlaProbe probe;
  MeasurementSink sink(probe, topo.scheduler());
  sink.expect_flow(5, qos::Phb::kEf, 3);
  auto p = topo.packet_factory().make();
  p->flow_id = 5;
  p->true_vpn_id = 4;
  sink.on_delivery(*p, 4);
  EXPECT_EQ(sink.delivered(), 1u);
  EXPECT_EQ(sink.leaks(), 1u);
  EXPECT_EQ(sink.unknown_flows(), 0u);
  EXPECT_FALSE(probe.has_class(qos::Phb::kEf));  // no SLA sample
}

TEST(MeasurementSink, ClaimedAndMeasuredFlowsShareOneSink) {
  // One sink per CE: endpoint flows and measured flows terminate at the
  // same hook, and every delivery lands in exactly one bucket.
  net::Topology topo;
  auto& r = topo.add_node<vpn::Router>("r", vpn::Role::kCe);
  r.add_local_prefix(ip::Prefix::must_parse("10.0.0.0/8"));
  qos::SlaProbe probe;
  MeasurementSink sink(probe, topo.scheduler());
  sink.bind(r);
  sink.expect_flow(8, qos::Phb::kBe, vpn::kGlobalVpn);
  int claimed = 0;
  sink.claim_flow(7, [&](const net::Packet&) { ++claimed; });
  for (std::uint32_t id : {7u, 8u, 9u, 7u}) {
    auto p = topo.packet_factory().make();
    p->flow_id = id;
    p->ip.dst = ip::Ipv4Address::must_parse("10.0.0.1");
    r.inject(std::move(p));
  }
  EXPECT_EQ(claimed, 2);
  EXPECT_EQ(sink.delivered(), 4u);  // every delivery counts, claimed or not
  EXPECT_EQ(probe.report(qos::Phb::kBe).delivered_packets, 1u);  // flow 8
  EXPECT_EQ(sink.unknown_flows(), 1u);  // 9 had no owner
  EXPECT_EQ(sink.leaks(), 0u);
}

TEST(MeasurementSink, LeakOnClaimedFlowNeverReachesTheEndpoint) {
  // Isolation is checked before a claimed flow's handler runs: a packet
  // delivered into the wrong VPN context is a leak, not endpoint input.
  net::Topology topo;
  qos::SlaProbe probe;
  MeasurementSink sink(probe, topo.scheduler());
  int claimed = 0;
  sink.claim_flow(7, [&](const net::Packet&) { ++claimed; });
  auto p = topo.packet_factory().make();
  p->flow_id = 7;
  p->true_vpn_id = 3;
  sink.on_delivery(*p, 4);  // wrong VPN context
  EXPECT_EQ(claimed, 0);
  EXPECT_EQ(sink.leaks(), 1u);
  sink.on_delivery(*p, 3);  // its own VPN
  EXPECT_EQ(claimed, 1);
  EXPECT_EQ(sink.leaks(), 1u);
  EXPECT_EQ(sink.delivered(), 2u);
  EXPECT_EQ(sink.unknown_flows(), 0u);
}

struct TcpFixture {
  Figure2Scenario s;
  qos::SlaProbe probe;
  MeasurementSink at_site1;
  MeasurementSink at_site2;

  explicit TcpFixture(std::uint64_t seed)
      : s(make_figure2_scenario(seed)),
        at_site1(probe, s.backbone->topo.scheduler()),
        at_site2(probe, s.backbone->topo.scheduler()) {
    s.backbone->start_and_converge();
    at_site1.bind(*s.v1_site1.ce);
    at_site2.bind(*s.v1_site2.ce);
  }

  TcpLiteFlow::Config config() const {
    TcpLiteFlow::Config c;
    c.src = ip::Ipv4Address::must_parse("10.1.0.1");
    c.dst = ip::Ipv4Address::must_parse("10.2.0.1");
    c.vpn = s.vpn1;
    return c;
  }
};

TEST(TcpLite, CompletesCleanTransferWithoutRetransmits) {
  TcpFixture f(104);
  TcpLiteFlow::Config cfg = f.config();
  cfg.total_segments = 200;
  TcpLiteFlow flow(*f.s.v1_site1.ce, f.at_site1, *f.s.v1_site2.ce,
                   f.at_site2, 1, cfg);
  flow.start(0);
  f.s.backbone->topo.run_until(20 * sim::kSecond);
  EXPECT_TRUE(flow.complete());
  EXPECT_EQ(flow.bytes_acked(), 200u * cfg.mss_payload);
  EXPECT_EQ(flow.retransmits(), 0u);
  EXPECT_EQ(flow.timeouts(), 0u);
  EXPECT_GT(flow.completed_at(), 0);
}

TEST(TcpLite, SlowStartGrowsWindow) {
  TcpFixture f(105);
  TcpLiteFlow::Config cfg = f.config();
  cfg.total_segments = 100;
  cfg.initial_cwnd = 2.0;
  TcpLiteFlow flow(*f.s.v1_site1.ce, f.at_site1, *f.s.v1_site2.ce,
                   f.at_site2, 1, cfg);
  flow.start(0);
  f.s.backbone->topo.run_until(20 * sim::kSecond);
  EXPECT_TRUE(flow.complete());
  EXPECT_GT(flow.cwnd(), 10.0);  // grew far beyond the initial window
}

TEST(TcpLite, AdaptsToBottleneckAndRecovers) {
  // Congest a 2 Mb/s core with two competing elastic flows.
  backbone::BackboneConfig cfg;
  cfg.p_count = 1;
  cfg.pe_count = 2;
  cfg.core_bw_bps = 2e6;
  cfg.edge_bw_bps = 20e6;
  cfg.seed = 106;
  backbone::MplsBackbone bb(cfg);
  // RED on the core links: drop-tail would phase-lock the two identical
  // flows into lockout (the very pathology RED was designed to break).
  for (std::size_t l = 0; l < bb.topo.link_count(); ++l) {
    net::Link& link = bb.topo.link(l);
    qos::RedParams red;
    red.capacity_packets = 100;
    red.min_th = 15;
    red.max_th = 60;
    red.bandwidth_bps = cfg.core_bw_bps;
    link.set_queue_from(link.end_a().node,
                        std::make_unique<qos::RedQueueDisc>(
                            red, bb.topo.scheduler(), sim::Rng(l + 1)));
    link.set_queue_from(link.end_b().node,
                        std::make_unique<qos::RedQueueDisc>(
                            red, bb.topo.scheduler(), sim::Rng(l + 100)));
  }
  const vpn::VpnId v = bb.service.create_vpn("V");
  auto a = bb.add_site(v, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  auto b = bb.add_site(v, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.start_and_converge();
  qos::SlaProbe probe;
  MeasurementSink at_a(probe, bb.topo.scheduler());
  MeasurementSink at_b(probe, bb.topo.scheduler());
  at_a.bind(*a.ce);
  at_b.bind(*b.ce);

  TcpLiteFlow::Config c1;
  c1.src = ip::Ipv4Address::must_parse("10.1.0.1");
  c1.dst = ip::Ipv4Address::must_parse("10.2.0.1");
  c1.vpn = v;
  TcpLiteFlow::Config c2 = c1;
  c2.src = ip::Ipv4Address::must_parse("10.1.0.2");
  c2.dst = ip::Ipv4Address::must_parse("10.2.0.2");
  c2.src_port = 30001;

  TcpLiteFlow f1(*a.ce, at_a, *b.ce, at_b, 1, c1);
  TcpLiteFlow f2(*a.ce, at_a, *b.ce, at_b, 2, c2);
  const sim::SimTime t0 = bb.topo.scheduler().now();
  f1.start(t0);
  f2.start(t0 + 37 * sim::kMillisecond);  // decorrelate the slow starts
  const double duration = 10.0;
  bb.topo.scheduler().schedule_at(t0 + sim::from_seconds(duration), [&] {
    f1.stop();
    f2.stop();
  });
  bb.topo.run_until(t0 + sim::from_seconds(duration + 2.0));

  const double g1 = f1.goodput_bps(duration);
  const double g2 = f2.goodput_bps(duration);
  // Combined goodput ≈ bottleneck (headers cost a few %); congestion was
  // real (losses → retransmits), and the split is roughly fair.
  EXPECT_GT(g1 + g2, 1.4e6);
  EXPECT_LT(g1 + g2, 2.05e6);
  EXPECT_GT(f1.retransmits() + f2.retransmits(), 0u);
  // Short-run Reno fairness is noisy; require same order of magnitude.
  EXPECT_LT(std::max(g1, g2) / std::min(g1, g2), 6.0);
}

TEST(TcpLite, ElasticYieldsToPriorityVoice) {
  // EF voice + greedy TCP on a priority-queued core: voice is untouched,
  // TCP soaks up the rest.
  backbone::BackboneConfig cfg;
  cfg.p_count = 1;
  cfg.pe_count = 2;
  cfg.core_bw_bps = 2e6;
  cfg.edge_bw_bps = 20e6;
  cfg.seed = 107;
  cfg.core_queue = [] {
    return std::make_unique<qos::PriorityQueueDisc>(
        3, 100, qos::ef_af_be_selector());
  };
  backbone::MplsBackbone bb(cfg);
  const vpn::VpnId v = bb.service.create_vpn("V");
  auto a = bb.add_site(v, 0, ip::Prefix::must_parse("10.1.0.0/16"));
  auto b = bb.add_site(v, 1, ip::Prefix::must_parse("10.2.0.0/16"));
  bb.start_and_converge();

  auto classifier = std::make_unique<qos::CbqClassifier>();
  qos::MatchRule voice_rule;
  voice_rule.dst_port = qos::PortRange::exactly(16400);
  voice_rule.mark = qos::Phb::kEf;
  classifier->add_rule(voice_rule);
  a.ce->set_classifier(std::move(classifier));

  qos::SlaProbe voice_probe;
  MeasurementSink at_a(voice_probe, bb.topo.scheduler());
  MeasurementSink at_b(voice_probe, bb.topo.scheduler());
  at_a.bind(*a.ce);
  at_b.bind(*b.ce);
  traffic::FlowSpec voice;
  voice.src = ip::Ipv4Address::must_parse("10.1.0.1");
  voice.dst = ip::Ipv4Address::must_parse("10.2.0.1");
  voice.dst_port = 16400;
  voice.payload_bytes = 172;
  voice.vpn = v;
  voice.phb = qos::Phb::kEf;
  CbrSource voice_src(*a.ce, voice, 9, &voice_probe, 200e3);
  at_b.expect_flow(9, qos::Phb::kEf, v);

  TcpLiteFlow::Config c;
  c.src = ip::Ipv4Address::must_parse("10.1.0.2");
  c.dst = ip::Ipv4Address::must_parse("10.2.0.2");
  c.vpn = v;
  TcpLiteFlow bulk(*a.ce, at_a, *b.ce, at_b, 1, c);

  const sim::SimTime t0 = bb.topo.scheduler().now();
  voice_src.run(t0, t0 + 5 * sim::kSecond);
  bulk.start(t0);
  bb.topo.scheduler().schedule_at(t0 + 5 * sim::kSecond,
                                  [&] { bulk.stop(); });
  bb.topo.run_until(t0 + 7 * sim::kSecond);

  const auto& ef = voice_probe.report(qos::Phb::kEf);
  EXPECT_LT(ef.loss_fraction(), 0.01);
  EXPECT_LT(ef.latency_s.percentile(99), 0.030);
  // The elastic flow still moved real data through the leftover capacity.
  EXPECT_GT(bulk.goodput_bps(5.0), 1e6);
}

}  // namespace
}  // namespace mvpn::traffic
