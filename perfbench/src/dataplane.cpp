#include "dataplane.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_map>

#include "backbone/fixtures.hpp"
#include "backbone/partition.hpp"
#include "mpls/domain.hpp"
#include "net/shard_runtime.hpp"
#include "obs/sync_profiler.hpp"
#include "qos/classifier.hpp"
#include "qos/queues.hpp"
#include "qos/sla.hpp"
#include "traffic/flowset.hpp"
#include "traffic/sink.hpp"

namespace perfbench {

namespace mv = mvpn;

std::uint64_t digest(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

volatile std::uint64_t replay_sink = 0;

/// One packet seen by the hop-by-hop tap, kept for the lookup replay.
struct Sample {
  mv::ip::NodeId at = mv::ip::kInvalidNode;
  mv::net::Packet pkt;
};

/// Replay each sampled packet through the lookup its hop performs and time
/// the calls in bulk (a single call is shorter than a clock read).
Replay replay_samples(mv::backbone::MplsBackbone& bb,
                      const std::deque<Sample>& samples,
                      const std::unordered_map<std::uint32_t, mv::vpn::Router*>&
                          ce_by_host) {
  Replay out;
  out.samples = samples.size();
  struct Classify { const mv::qos::CbqClassifier* c; const mv::net::Packet* p; };
  struct Lfib { const mv::mpls::Lfib* t; std::uint32_t label; };
  struct Vrf { const mv::ip::RouteTable* t; mv::ip::Ipv4Address dst; };
  std::vector<Classify> cls;
  std::vector<Lfib> lfib;
  std::vector<Vrf> vrf;
  for (const Sample& s : samples) {
    auto* r = dynamic_cast<mv::vpn::Router*>(&bb.topo.node(s.at));
    if (r == nullptr) continue;
    if (s.pkt.has_labels()) {
      if (mv::mpls::LsrState* lsr = r->lsr_state()) {
        lfib.push_back({&lsr->lfib, s.pkt.top_label().label});
      }
      continue;
    }
    if (r->role() != mv::vpn::Role::kPe) continue;
    // An unlabeled packet at a PE came from a CE: the ingress VRF lookup,
    // and before it the source CE's classifier.
    if (const mv::vpn::Vrf* v = r->vrf_by_vpn(s.pkt.true_vpn_id)) {
      vrf.push_back({&v->table(), s.pkt.ip.dst});
    }
    const auto ce = ce_by_host.find(s.pkt.ip.src.value());
    if (ce != ce_by_host.end() && ce->second->classifier() != nullptr) {
      cls.push_back({ce->second->classifier(), &s.pkt});
    }
  }
  constexpr std::size_t kMinCalls = 1 << 20;
  std::uint64_t sink = 0;
  auto timed = [&](std::size_t n, auto&& body) -> std::pair<std::uint64_t, double> {
    if (n == 0) return {0, 0.0};
    const std::size_t rounds = std::max<std::size_t>(1, kMinCalls / n);
    const std::uint64_t t0 = cpu_ns();
    for (std::size_t r = 0; r < rounds; ++r) body();
    const std::uint64_t t1 = cpu_ns();
    const std::uint64_t calls = rounds * n;
    return {calls, static_cast<double>(t1 - t0) / static_cast<double>(calls)};
  };
  std::tie(out.classify_calls, out.classify_ns) = timed(cls.size(), [&] {
    for (const Classify& c : cls) {
      sink += static_cast<std::uint64_t>(c.c->classify(*c.p));
    }
  });
  std::tie(out.lfib_calls, out.lfib_ns) = timed(lfib.size(), [&] {
    for (const Lfib& l : lfib) {
      sink += reinterpret_cast<std::uintptr_t>(l.t->lookup(l.label));
    }
  });
  std::tie(out.vrf_calls, out.vrf_ns) = timed(vrf.size(), [&] {
    for (const Vrf& v : vrf) {
      sink += reinterpret_cast<std::uintptr_t>(v.t->lookup(v.dst));
    }
  });
  replay_sink = sink;  // keeps the replay loops observable
  return out;
}

}  // namespace

DataRep run_data_rep(const DataPlan& dp, const DataOptions& opt, Tracer& tr) {
  const mv::backbone::GeneratedPlan& plan = dp.plan;
  DataRep rep;

  // --- build: network, VPNs, sites, CPE QoS ------------------------------
  Phase build(tr, "build");
  mv::backbone::BackboneConfig cfg = plan.backbone;
  if (!dp.core_wfq_weights.empty()) {
    cfg.core_queue = mv::qos::WfqQueueDisc::factory(
        dp.core_wfq_weights, 100, mv::qos::ef_af_be_selector());
  }
  mv::backbone::MplsBackbone bb(cfg);
  mv::net::Topology& topo = bb.topo;
  std::vector<mv::vpn::VpnId> vpns;
  for (const std::string& name : plan.vpns) {
    vpns.push_back(bb.service.create_vpn(name));
  }
  std::vector<mv::backbone::MplsBackbone::Site> sites;
  std::unordered_map<std::uint32_t, mv::vpn::Router*> ce_by_host;
  for (std::size_t i = 0; i < plan.sites.size(); ++i) {
    const mv::backbone::PlanSite& s = plan.sites[i];
    sites.push_back(bb.add_site(vpns[s.vpn], s.pe, s.prefix));
    ce_by_host[s.prefix.address().value() + 1] = sites.back().ce;
    if (!dp.acl.empty()) {
      auto cls = std::make_unique<mv::qos::CbqClassifier>();
      for (const AclRule& r : dp.acl) {
        mv::qos::MatchRule rule;
        rule.dst_port = mv::qos::PortRange{r.lo, r.hi};
        rule.mark = r.phb;
        cls->add_rule(rule);
      }
      sites.back().ce->set_classifier(std::move(cls));
    }
    if (i < dp.ef_cir_bytes_s.size() && dp.ef_cir_bytes_s[i] > 0) {
      sites.back().ce->add_policer(mv::qos::Phb::kEf, dp.ef_cir_bytes_s[i],
                                   dp.policer_burst_bytes,
                                   dp.policer_burst_bytes);
    }
  }
  rep.build_s = build.stop();

  // --- boot: IGP, LDP, MP-BGP to quiescence ------------------------------
  Phase boot(tr, "boot");
  const std::uint64_t ev_boot0 = topo.base_scheduler().executed_count();
  bb.start_and_converge();
  rep.boot_events = topo.base_scheduler().executed_count() - ev_boot0;
  rep.boot_s = boot.stop();
  if (opt.churn != nullptr) {
    rep.churn = drive_churn(bb, plan, vpns, sites, *opt.churn, tr);
    rep.control = read_control(bb);
    return rep;
  }

  // --- partition: the call Scenario::run makes ----------------------------
  // The profiler outlives the runtime that reports into it.
  std::unique_ptr<mv::obs::SyncProfiler> prof;
  std::unique_ptr<mv::net::ShardRuntime> runtime;
  if (opt.shards > 1) {
    Phase part(tr, "partition");
    mv::backbone::ShardPlan sp =
        mv::backbone::compute_shard_plan(topo, opt.shards, {});
    rep.cut_links = sp.cut_links.size();
    if (sp.parallel() && sp.lookahead > 0) {
      runtime = std::make_unique<mv::net::ShardRuntime>(
          topo, std::move(sp.node_shard), sp.shard_count, sp.lookahead);
    }
    rep.partition_s = part.stop();
  }
  if (opt.profile && runtime) {
    prof = std::make_unique<mv::obs::SyncProfiler>(runtime->shard_count());
    runtime->set_profiler(prof.get());
  }

  // --- arm: per-lane probes, sinks and FlowSets ---------------------------
  Phase arm(tr, "arm");
  const std::uint32_t lanes = runtime ? runtime->shard_count() : 1;
  rep.shards = lanes;
  auto lane_of = [&](std::size_t site) -> std::uint32_t {
    return runtime ? topo.shard_of(sites[site].ce->id()) : 0;
  };
  std::vector<std::unique_ptr<mv::qos::SlaProbe>> probes;
  std::vector<std::unique_ptr<mv::traffic::MeasurementSink>> sinks;
  std::vector<std::unique_ptr<mv::traffic::FlowSet>> fsets;
  for (std::uint32_t l = 0; l < lanes; ++l) {
    mv::sim::Scheduler& sched =
        runtime ? runtime->shard_scheduler(l) : topo.scheduler();
    probes.push_back(
        std::make_unique<mv::qos::SlaProbe>("lane" + std::to_string(l)));
    sinks.push_back(
        std::make_unique<mv::traffic::MeasurementSink>(*probes[l], sched));
    fsets.push_back(std::make_unique<mv::traffic::FlowSet>(
        sched, probes[l].get(), plan.backbone.seed));
    for (std::size_t i = 0; i < sites.size(); ++i) {
      fsets[l]->add_site(
          *sites[i].ce,
          mv::ip::Ipv4Address(plan.sites[i].prefix.address().value() + 1));
    }
  }
  for (std::size_t i = 0; i < sites.size(); ++i) {
    sinks[lane_of(i)]->bind(*sites[i].ce);
  }
  const mv::sim::SimTime t0 = topo.base_scheduler().now();
  for (std::size_t i = 0; i < plan.flows.size(); ++i) {
    const mv::backbone::PlanFlow& f = plan.flows[i];
    const auto id = static_cast<std::uint32_t>(1 + i);
    const mv::vpn::VpnId vpn = vpns[plan.sites[f.from].vpn];
    sinks[lane_of(f.to)]->expect_flow(id, f.phb, vpn);
    mv::traffic::FlowSet::FlowDef d;
    d.flow_id = id;
    d.from_site = static_cast<std::uint32_t>(f.from);
    d.to_site = static_cast<std::uint32_t>(f.to);
    d.kind = f.kind == "cbr"       ? mv::traffic::FlowSet::Kind::kCbr
             : f.kind == "poisson" ? mv::traffic::FlowSet::Kind::kPoisson
                                   : mv::traffic::FlowSet::Kind::kOnOff;
    d.rate_bps = f.rate_bps;
    d.on_s = dp.on_s;
    d.off_s = dp.off_s;
    d.vpn = vpn;
    d.phb = f.phb;
    d.dst_port = f.port;
    d.payload_bytes = static_cast<std::uint32_t>(f.size);
    d.start = t0 + mv::sim::from_seconds(f.start_s);
    fsets[lane_of(f.from)]->add_flow(d);
  }
  std::size_t state_bytes = 0;
  for (auto& fs : fsets) {
    fs->run(t0 + mv::sim::from_seconds(dp.sim_s));
    state_bytes += fs->state_bytes();
  }
  rep.state_bytes_per_flow =
      plan.flows.empty() ? 0.0
                         : static_cast<double>(state_bytes) /
                               static_cast<double>(plan.flows.size());
  rep.arm_s = arm.stop();
  if (opt.setup_only) return rep;

  // Hop-by-hop sampling for the lookup replay (serial runs only: the tap
  // would otherwise run on several worker threads).
  std::deque<Sample> samples;
  std::uint64_t tapped = 0;
  if (opt.sample && !runtime) {
    topo.add_packet_tap([&](mv::ip::NodeId at, const mv::net::Packet& p) {
      if (++tapped % 61 != 0 || samples.size() >= 8192) return;
      samples.emplace_back();
      samples.back().at = at;
      samples.back().pkt.copy_fields_from(p);
    });
  }

  // --- drive: the measured data-plane run ---------------------------------
  const mv::sim::SimTime t_end =
      t0 + mv::sim::from_seconds(dp.sim_s + dp.drain_s);
  std::vector<std::uint64_t> ev0(lanes);
  for (std::uint32_t l = 0; l < lanes; ++l) {
    ev0[l] = runtime ? runtime->shard_scheduler(l).executed_count()
                     : topo.base_scheduler().executed_count();
  }
  {
    Phase drive(tr, "drive");
    if (runtime) {
      runtime->run_until(t_end);
    } else {
      topo.run_until(t_end);
    }
    drive.stop();
    // The coordinator's CPU time says nothing of its workers: a sharded
    // drive is timed on the wall clock.
    rep.drive_s = runtime ? drive.wall_seconds() : drive.seconds();
  }

  // --- report: fold lanes, account for every packet -----------------------
  Phase report(tr, "report");
  rep.shard_events.resize(lanes);
  for (std::uint32_t l = 0; l < lanes; ++l) {
    const std::uint64_t now =
        runtime ? runtime->shard_scheduler(l).executed_count()
                : topo.base_scheduler().executed_count();
    rep.shard_events[l] = now - ev0[l];
    rep.events += rep.shard_events[l];
  }
  if (runtime) {
    rep.windows = runtime->windows();
    rep.widened = runtime->widened_windows();
    rep.handoffs = runtime->handoffs();
    runtime->finish();
  }
  if (prof) {
    const mv::obs::SyncProfiler::Report r = prof->report();
    rep.profiled = true;
    rep.busy_max = 0;
    rep.busy_min = 1;
    for (const auto& lane : r.lanes) {
      rep.busy_max = std::max(rep.busy_max, lane.busy_fraction);
      rep.busy_min = std::min(rep.busy_min, lane.busy_fraction);
      rep.worker_wait_s += static_cast<double>(lane.wait_ns) * 1e-9;
      rep.exec_sum_ns += lane.exec_ns;
    }
    rep.drain_s = static_cast<double>(r.drain_ns) * 1e-9;
  }
  mv::qos::SlaProbe probe("sla");
  for (std::uint32_t l = 0; l < lanes; ++l) {
    probe.merge_from(*probes[l]);
    rep.sent += fsets[l]->packets_sent();
    rep.delivered += sinks[l]->delivered();
    rep.leaks += sinks[l]->leaks();
    rep.unknown += sinks[l]->unknown_flows();
  }
  rep.sla_csv = probe.to_csv(dp.sim_s);
  rep.sla_digest = digest(rep.sla_csv);

  std::vector<bool> core(topo.node_count(), false);
  for (const auto* r : bb.ps()) core[r->id()] = true;
  for (const auto* r : bb.pes()) core[r->id()] = true;
  for (std::size_t li = 0; li < topo.link_count(); ++li) {
    const mv::net::Link& link = topo.link(static_cast<mv::net::LinkId>(li));
    for (const mv::ip::NodeId from : {link.end_a().node, link.end_b().node}) {
      const mv::net::QueueDisc& q = link.queue_from(from);
      if (const auto* red = dynamic_cast<const mv::qos::RedQueueDisc*>(&q)) {
        rep.drop_red += red->early_drops().value() + red->forced_drops().value();
      } else {
        rep.drop_tail += q.dropped().packets.value();
      }
      rep.queued += q.packet_count();
      rep.drop_link += link.down_drops_from(from).packets.value();
      if (core[link.end_a().node] && core[link.end_b().node]) {
        const double offered =
            static_cast<double>(link.tx_from(from).bytes.value() +
                                q.dropped().bytes.value()) *
            8.0 / dp.sim_s;
        rep.busiest_core_load = std::max(
            rep.busiest_core_load, offered / link.config().bandwidth_bps);
      }
    }
  }
  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    const auto* r =
        dynamic_cast<const mv::vpn::Router*>(&topo.node(static_cast<mv::ip::NodeId>(n)));
    if (r == nullptr) continue;
    const auto& c = r->counters();
    rep.drop_policed += c.policed.value();
    rep.drop_router += c.no_route.value() + c.ttl_expired.value() +
                       c.label_miss.value() + c.no_tunnel.value() +
                       c.esp_rejected.value();
    rep.fc_hits += r->flowcache_stats().hits;
    rep.fc_misses += r->flowcache_stats().misses;
  }
  rep.control = read_control(bb);
  rep.report_s = report.stop();

  if (!samples.empty()) {
    Phase replay(tr, "replay");
    rep.replay = replay_samples(bb, samples, ce_by_host);
  }
  return rep;
}

}  // namespace perfbench
