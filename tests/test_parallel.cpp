#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "backbone/fixtures.hpp"
#include "backbone/partition.hpp"
#include "backbone/scenario_config.hpp"
#include "ip/address.hpp"
#include "net/shard_runtime.hpp"
#include "obs/sync_profiler.hpp"
#include "qos/sla.hpp"
#include "sim/epoch_barrier.hpp"
#include "sim/parallel_engine.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "traffic/sink.hpp"
#include "traffic/source.hpp"
#include "vpn/router.hpp"

namespace mvpn {
namespace {

// --- Epoch barrier --------------------------------------------------------

TEST(EpochBarrier, CoordinatorAndWorkersAgreeOnTargets) {
  constexpr std::uint32_t kWorkers = 3;
  sim::EpochBarrier barrier(kWorkers);
  std::vector<std::vector<sim::SimTime>> seen(kWorkers);
  std::vector<std::thread> threads;
  threads.reserve(kWorkers);
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      std::uint64_t epoch = 0;
      sim::SimTime target = 0;
      while (barrier.next(epoch, target)) {
        seen[w].push_back(target);
        barrier.arrive();
      }
    });
  }
  const std::vector<sim::SimTime> targets{10, 20, 35, 36};
  for (sim::SimTime t : targets) {
    barrier.open(t);
    barrier.wait_all_arrived();
  }
  barrier.shutdown();
  for (auto& th : threads) th.join();
  for (std::uint32_t w = 0; w < kWorkers; ++w) EXPECT_EQ(seen[w], targets);
}

TEST(EpochBarrier, SpinPathStaysUnparkedWhenPeerIsAlreadyThere) {
  // Explicit spin budget overrides the hardware-concurrency heuristic (on
  // a small host the default would disable spinning entirely). The epoch
  // is published before the worker looks and the worker has arrived
  // before the coordinator waits, so both waits must resolve inside the
  // spin phase and report parked=false.
  sim::EpochBarrier barrier(1, /*spin_limit=*/1u << 20);
  ASSERT_EQ(barrier.spin_limit(), 1u << 20);
  barrier.open(10);
  bool got = false;
  bool worker_parked = true;
  sim::SimTime target = 0;
  std::thread worker([&] {
    std::uint64_t epoch = 0;
    got = barrier.next(epoch, target, &worker_parked);
    if (got) barrier.arrive();
  });
  worker.join();
  ASSERT_TRUE(got);
  EXPECT_FALSE(worker_parked);
  EXPECT_EQ(target, 10);
  bool coord_parked = true;
  barrier.wait_all_arrived(&coord_parked);
  EXPECT_FALSE(coord_parked);
  barrier.shutdown();
}

TEST(EpochBarrier, ParkPathReportsParkedUnderRealContention) {
  // Spin budget zero forces the condvar path on both sides, and the
  // sleeps make each waiter genuinely park before its wakeup arrives: the
  // worker waits while the coordinator dawdles before open(), and the
  // coordinator waits while the worker dawdles before arrive().
  constexpr int kEpochs = 5;
  sim::EpochBarrier barrier(1, /*spin_limit=*/0);
  std::vector<bool> worker_parked;
  std::vector<sim::SimTime> seen;
  std::thread worker([&] {
    std::uint64_t epoch = 0;
    sim::SimTime target = 0;
    bool parked = false;
    while (barrier.next(epoch, target, &parked)) {
      worker_parked.push_back(parked);
      seen.push_back(target);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      barrier.arrive();
    }
  });
  for (int e = 1; e <= kEpochs; ++e) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    barrier.open(e * 10);
    bool coord_parked = false;
    barrier.wait_all_arrived(&coord_parked);
    EXPECT_TRUE(coord_parked) << "epoch " << e;
  }
  barrier.shutdown();
  worker.join();
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kEpochs));
  for (int e = 0; e < kEpochs; ++e) {
    EXPECT_EQ(seen[static_cast<std::size_t>(e)], (e + 1) * 10);
    EXPECT_TRUE(worker_parked[static_cast<std::size_t>(e)]) << "epoch " << e;
  }
}

// --- Scheduler window semantics ------------------------------------------

TEST(Scheduler, NextEventTimeAndInclusiveRunUntil) {
  sim::Scheduler sched;
  EXPECT_EQ(sched.next_event_time(), sim::Scheduler::kNoEventTime);

  int fired = 0;
  sched.schedule_at(100, [&] { ++fired; });
  sched.schedule_at(250, [&] { ++fired; });
  EXPECT_EQ(sched.next_event_time(), 100);

  sched.run_until(100);  // inclusive: the event AT the bound runs
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), 100);
  EXPECT_EQ(sched.next_event_time(), 250);

  sched.run_until(200);  // empty window still advances the clock
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), 200);

  sched.run_until(300);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sched.now(), 300);
}

// --- Parallel engine ------------------------------------------------------

TEST(ParallelEngine, RunsShardsInWindowsAndExchanges) {
  sim::Scheduler a;
  sim::Scheduler b;
  constexpr sim::SimTime kLookahead = 2 * sim::kMillisecond;
  constexpr sim::SimTime kEnd = 50 * sim::kMillisecond;

  // Each shard ticks every ms; the exchange hook cross-posts one event per
  // barrier at window_end + lookahead (the only safe time).
  std::atomic<int> ticks_a{0};
  std::atomic<int> ticks_b{0};
  std::atomic<int> crossed{0};
  std::function<void(sim::Scheduler&, std::atomic<int>&)> tick =
      [&](sim::Scheduler& s, std::atomic<int>& n) {
        ++n;
        if (s.now() + sim::kMillisecond <= kEnd) {
          s.schedule_in(sim::kMillisecond, [&] { tick(s, n); });
        }
      };
  a.schedule_at(sim::kMillisecond, [&] { tick(a, ticks_a); });
  b.schedule_at(sim::kMillisecond, [&] { tick(b, ticks_b); });

  sim::ParallelEngine engine({{0, &a}, {1, &b}}, kLookahead, nullptr);
  engine.set_exchange([&](sim::SimTime window_end) {
    if (window_end + kLookahead <= kEnd) {
      b.schedule_at(window_end + kLookahead, [&] { ++crossed; });
    }
  });
  engine.run_until(kEnd);

  EXPECT_EQ(a.now(), kEnd);
  EXPECT_EQ(b.now(), kEnd);
  EXPECT_EQ(ticks_a.load(), 50);
  EXPECT_EQ(ticks_b.load(), 50);
  EXPECT_GT(crossed.load(), 0);
  EXPECT_GE(engine.windows(),
            static_cast<std::uint64_t>(kEnd / kLookahead));
}

TEST(ParallelEngine, GlobalActionsFireBetweenWindows) {
  sim::Scheduler shard;
  sim::Scheduler global;
  std::vector<sim::SimTime> stamps;
  sim::ParallelEngine engine({{0, &shard}}, sim::kMillisecond, &global);
  std::vector<sim::SimTime> instants;
  engine.add_periodic_action(5 * sim::kMillisecond, 5 * sim::kMillisecond,
                             [&](sim::SimTime at) {
                               stamps.push_back(global.now());
                               instants.push_back(at);
                             });
  engine.run_until(20 * sim::kMillisecond);
  ASSERT_EQ(stamps.size(), 4U);
  for (std::size_t i = 0; i < stamps.size(); ++i) {
    EXPECT_EQ(stamps[i], static_cast<sim::SimTime>(i + 1) * 5 *
                             sim::kMillisecond);
  }
  EXPECT_EQ(instants, stamps);  // the action is told its own instant
  EXPECT_EQ(global.now(), 20 * sim::kMillisecond);
}

// --- Adaptive window sizing -----------------------------------------------

/// Drive a two-shard engine where shard A ticks every `spacing` and shard B
/// is idle; returns the tick count and reports window statistics.
int drive_with_spacing(sim::SimTime spacing, std::uint64_t& windows,
                       std::uint64_t& widened) {
  constexpr sim::SimTime kLookahead = sim::kMillisecond;
  constexpr sim::SimTime kEnd = 100 * sim::kMillisecond;
  sim::Scheduler a;
  sim::Scheduler b;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (a.now() + spacing <= kEnd) a.schedule_in(spacing, tick);
  };
  a.schedule_at(spacing, tick);
  sim::ParallelEngine engine({{0, &a}, {1, &b}}, kLookahead, nullptr);
  engine.run_until(kEnd);
  windows = engine.windows();
  widened = engine.widened_windows();
  EXPECT_EQ(a.now(), kEnd);
  EXPECT_EQ(b.now(), kEnd);
  return ticks;
}

TEST(ParallelEngine, AdaptiveWindowsJumpQuietStretches) {
  // Quiet traffic (events every 10 ms, lookahead 1 ms): the static sizing
  // would take ~100 windows over 100 ms; the adaptive window jumps to the
  // next pending event, so barriers scale with events, not elapsed time.
  std::uint64_t quiet_windows = 0;
  std::uint64_t quiet_widened = 0;
  const int quiet_ticks =
      drive_with_spacing(10 * sim::kMillisecond, quiet_windows, quiet_widened);
  EXPECT_EQ(quiet_ticks, 10);
  EXPECT_LT(quiet_windows, 25U);
  EXPECT_GT(quiet_widened, 0U);

  // Bursty traffic (events every 0.2 ms): the next event is always near
  // the frontier, so windows shrink back toward the static bound — the
  // sizing adapts in both directions, and no event is ever lost either way.
  std::uint64_t bursty_windows = 0;
  std::uint64_t bursty_widened = 0;
  const int bursty_ticks = drive_with_spacing(sim::kMillisecond / 5,
                                              bursty_windows, bursty_widened);
  EXPECT_EQ(bursty_ticks, 500);
  EXPECT_GT(bursty_windows, 3 * quiet_windows);
}

// --- Topology partitioner -------------------------------------------------

backbone::BackboneConfig bench_config() {
  backbone::BackboneConfig cfg;
  cfg.p_count = 8;
  cfg.pe_count = 16;
  cfg.seed = 7;
  return cfg;
}

TEST(Partitioner, BalancedShardsWithCoreDelayCut) {
  backbone::MplsBackbone bb(bench_config());
  const vpn::VpnId v = bb.service.create_vpn("T");
  for (std::size_t i = 0; i < 16; ++i) {
    bb.add_site(v, i,
                ip::Prefix(ip::Ipv4Address(10, std::uint8_t(1 + i), 0, 0), 16));
  }

  const backbone::ShardPlan plan = backbone::compute_shard_plan(bb.topo, 4);
  ASSERT_TRUE(plan.parallel());
  EXPECT_EQ(plan.shard_count, 4U);
  ASSERT_EQ(plan.node_shard.size(), bb.topo.node_count());

  // Strict cap: no shard exceeds ceil(N / 4) nodes.
  std::vector<std::size_t> sizes(plan.shard_count, 0);
  for (std::uint32_t s : plan.node_shard) ++sizes[s];
  const std::size_t cap = (bb.topo.node_count() + 3) / 4;
  for (std::size_t sz : sizes) {
    EXPECT_GT(sz, 0U);
    EXPECT_LE(sz, cap);
  }

  // The greedy absorbs the fast 1 ms edge links; the cut is made of 2 ms
  // core links only, so the lookahead is the full core delay.
  EXPECT_EQ(plan.lookahead, 2 * sim::kMillisecond);
  EXPECT_FALSE(plan.cut_links.empty());
  for (net::LinkId id : plan.cut_links) {
    EXPECT_EQ(bb.topo.link(id).config().prop_delay, 2 * sim::kMillisecond);
    const auto sa = plan.node_shard[bb.topo.link(id).end_a().node];
    const auto sb = plan.node_shard[bb.topo.link(id).end_b().node];
    EXPECT_NE(sa, sb);
  }
}

TEST(Partitioner, DegenerateInputsStaySerial) {
  backbone::MplsBackbone bb(bench_config());
  const backbone::ShardPlan one = backbone::compute_shard_plan(bb.topo, 1);
  EXPECT_FALSE(one.parallel());
  EXPECT_TRUE(one.cut_links.empty());

  // Requesting more shards than nodes clamps instead of failing.
  const backbone::ShardPlan many =
      backbone::compute_shard_plan(bb.topo, 10000);
  EXPECT_LE(many.shard_count, bb.topo.node_count());
}

TEST(Partitioner, PlanIsDeterministic) {
  backbone::MplsBackbone bb1(bench_config());
  backbone::MplsBackbone bb2(bench_config());
  const backbone::ShardPlan p1 = backbone::compute_shard_plan(bb1.topo, 4);
  const backbone::ShardPlan p2 = backbone::compute_shard_plan(bb2.topo, 4);
  EXPECT_EQ(p1.node_shard, p2.node_shard);
  EXPECT_EQ(p1.cut_links, p2.cut_links);
  EXPECT_EQ(p1.lookahead, p2.lookahead);
}

// --- End-to-end determinism: serial vs sharded scenario runs --------------

constexpr const char* kDeterminismScenario = R"(
backbone p=4 pe=8 seed=11 core_queue=prio
vpn corp
vpn partner
site corp pe=0 prefix=10.1.0.0/16
site corp pe=2 prefix=10.2.0.0/16
site corp pe=5 prefix=10.3.0.0/16
site partner pe=1 prefix=192.168.0.0/16
site partner pe=6 prefix=192.169.0.0/16
classify site=0 dstport=16384-16484 class=EF
police site=0 class=EF cir=62500 cbs=4000 ebs=4000
flow cbr vpn=corp from=0 to=1 rate=200e3 class=EF port=16400 size=172
flow cbr vpn=corp from=1 to=2 rate=400e3
flow poisson vpn=corp from=2 to=0 rate=300e3
flow onoff vpn=partner from=3 to=4 rate=500e3 on=0.2 off=0.1
flow poisson vpn=partner from=4 to=3 rate=250e3
run for=2
)";

struct ScenarioOutputs {
  std::string report;        ///< run() output minus the converged banner
  std::string metrics_json;
  std::string latency_json;
  std::string sync_json;     ///< only when the run profiled
  bool ok = false;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The converged banner names the engine ("on N shards ..."), which is the
/// one intended textual difference between serial and parallel runs; drop
/// it before comparing.
std::string strip_converged_line(const std::string& text) {
  std::stringstream in(text);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("converged") == std::string::npos) {
      out += line;
      out += '\n';
    }
  }
  return out;
}

ScenarioOutputs run_scenario_with_shards(std::uint32_t shards,
                                         bool sync_profile = false) {
  backbone::ScenarioError err;
  auto sc = backbone::Scenario::parse(kDeterminismScenario, &err);
  EXPECT_TRUE(sc.has_value()) << "line " << err.line << ": " << err.message;
  ScenarioOutputs out;
  if (!sc) return out;

  const std::string dir = ::testing::TempDir();
  const std::string tag =
      std::to_string(shards) + (sync_profile ? "_sync" : "");
  backbone::ObsOptions obs;
  obs.metrics_json_path = dir + "/par_metrics_" + tag + ".json";
  obs.latency_json_path = dir + "/par_latency_" + tag + ".json";
  if (sync_profile) {
    obs.sync_json_path = dir + "/par_sync_" + tag + ".json";
  }
  sc->set_obs(obs);
  sc->set_shards(shards);

  std::ostringstream report;
  out.ok = sc->run(report);
  out.report = strip_converged_line(report.str());
  out.metrics_json = slurp(obs.metrics_json_path);
  out.latency_json = slurp(obs.latency_json_path);
  EXPECT_FALSE(out.metrics_json.empty());
  EXPECT_FALSE(out.latency_json.empty());
  if (sync_profile) {
    out.sync_json = slurp(obs.sync_json_path);
    EXPECT_FALSE(out.sync_json.empty());
  }
  return out;
}

TEST(ShardedDeterminism, TwoAndFourShardsMatchSerialByteForByte) {
  const ScenarioOutputs serial = run_scenario_with_shards(1);
  ASSERT_TRUE(serial.ok);
  for (std::uint32_t shards : {2U, 4U}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const ScenarioOutputs par = run_scenario_with_shards(shards);
    ASSERT_TRUE(par.ok);
    // SLA tables, isolation accounting, per-class latency decomposition and
    // every metrics snapshot must be bit-identical to the serial engine.
    EXPECT_EQ(par.report, serial.report);
    EXPECT_EQ(par.metrics_json, serial.metrics_json);
    EXPECT_EQ(par.latency_json, serial.latency_json);
  }
}

TEST(ShardedDeterminism, ParallelRunsAreRepeatable) {
  const ScenarioOutputs a = run_scenario_with_shards(4);
  const ScenarioOutputs b = run_scenario_with_shards(4);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.latency_json, b.latency_json);
}

// --- Flow caches across epoch boundaries ----------------------------------

TEST(ShardedFlowcache, HitRatePersistsAcrossEpochBoundaries) {
  backbone::MplsBackbone bb(bench_config());
  const vpn::VpnId v = bb.service.create_vpn("T");
  std::vector<backbone::MplsBackbone::Site> sites;
  for (std::size_t i = 0; i < 16; ++i) {
    sites.push_back(bb.add_site(
        v, i,
        ip::Prefix(ip::Ipv4Address(10, std::uint8_t(1 + i), 0, 0), 16)));
  }
  bb.start_and_converge();

  backbone::ShardPlan plan = backbone::compute_shard_plan(bb.topo, 4);
  ASSERT_TRUE(plan.parallel());
  auto runtime = std::make_unique<net::ShardRuntime>(
      bb.topo, std::move(plan.node_shard), plan.shard_count, plan.lookahead);

  std::vector<std::unique_ptr<qos::SlaProbe>> probes;
  std::vector<std::unique_ptr<traffic::MeasurementSink>> sinks;
  for (std::uint32_t s = 0; s < runtime->shard_count(); ++s) {
    probes.push_back(
        std::make_unique<qos::SlaProbe>("lane" + std::to_string(s)));
    sinks.push_back(std::make_unique<traffic::MeasurementSink>(
        *probes[s], runtime->shard_scheduler(s)));
  }
  auto lane_of = [&](const backbone::MplsBackbone::Site& site) {
    return bb.topo.shard_of(site.ce->id());
  };
  for (auto& site : sites) sinks[lane_of(site)]->bind(*site.ce);

  constexpr std::size_t kFlows = 64;
  std::vector<std::unique_ptr<traffic::CbrSource>> sources;
  for (std::size_t i = 0; i < kFlows; ++i) {
    const std::size_t a = i % sites.size();
    const std::size_t b = (i + 1) % sites.size();
    traffic::FlowSpec f;
    f.src = ip::Ipv4Address(10, std::uint8_t(1 + a), 0,
                            std::uint8_t(1 + i % 200));
    f.dst = ip::Ipv4Address(10, std::uint8_t(1 + b), 0,
                            std::uint8_t(1 + i % 200));
    f.dst_port = static_cast<std::uint16_t>(20000 + i);
    f.vpn = v;
    const auto id = static_cast<std::uint32_t>(1000 + i);
    sinks[lane_of(sites[b])]->expect_flow(id, qos::Phb::kBe, v);
    sources.push_back(std::make_unique<traffic::CbrSource>(
        *sites[a].ce, f, id, probes[lane_of(sites[a])].get(), 1e6));
  }

  const sim::SimTime t0 = bb.topo.base_scheduler().now();
  for (auto& s : sources) s->run(t0, t0 + sim::from_seconds(1.0));
  runtime->run_until(t0 + sim::from_seconds(1.5));

  const std::uint64_t windows = runtime->windows();
  const std::uint64_t batches = runtime->delivery_batches();
  runtime->finish();

  std::uint64_t delivered = 0;
  for (auto& s : sinks) delivered += s->delivered();
  EXPECT_GT(delivered, 0U);

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (std::size_t i = 0; i < bb.topo.node_count(); ++i) {
    if (auto* r = dynamic_cast<vpn::Router*>(
            &bb.topo.node(static_cast<ip::NodeId>(i)))) {
      hits += r->flowcache_stats().hits;
      misses += r->flowcache_stats().misses;
    }
  }
  ASSERT_GT(hits + misses, 0U);

  // The run crosses hundreds of epoch boundaries, and these synchronized
  // same-rate flows hand off in same-instant groups, so the batched
  // delivery path is genuinely exercised.
  EXPECT_GT(windows, 300U);
  EXPECT_GT(batches, 0U);

  // Persistent caches miss once per (flow, router) on the path and then
  // hit for the rest of the run. A per-window reset would instead pay the
  // cold lookups again in every window — with >300 windows the miss count
  // would exceed this bound by orders of magnitude.
  EXPECT_LE(misses, kFlows * 16);
  const double hit_rate =
      static_cast<double>(hits) / static_cast<double>(hits + misses);
  EXPECT_GE(hit_rate, 0.98);
}

// --- Epoch profiler against the real engine -------------------------------

TEST(ShardedDeterminism, ProfilerOnRunIsByteIdenticalAndEmitsReport) {
  const ScenarioOutputs plain = run_scenario_with_shards(4);
  const ScenarioOutputs profiled =
      run_scenario_with_shards(4, /*sync_profile=*/true);
  ASSERT_TRUE(plain.ok);
  ASSERT_TRUE(profiled.ok);
  // Observing the engine must not perturb it: every simulation artefact is
  // bit-identical with the profiler attached.
  EXPECT_EQ(profiled.report, plain.report);
  EXPECT_EQ(profiled.metrics_json, plain.metrics_json);
  EXPECT_EQ(profiled.latency_json, plain.latency_json);
  // ...and the profiled run actually produced a sharded sync report.
  EXPECT_NE(profiled.sync_json.find("\"serial\":false"), std::string::npos)
      << profiled.sync_json;
  EXPECT_NE(profiled.sync_json.find("\"shards\":4"), std::string::npos)
      << profiled.sync_json;
  EXPECT_TRUE(plain.sync_json.empty());
}

TEST(SyncProfiler, WorkerTimestampsMonotoneAndReportCoherent) {
  backbone::MplsBackbone bb(bench_config());
  const vpn::VpnId v = bb.service.create_vpn("T");
  std::vector<backbone::MplsBackbone::Site> sites;
  for (std::size_t i = 0; i < 16; ++i) {
    sites.push_back(bb.add_site(
        v, i,
        ip::Prefix(ip::Ipv4Address(10, std::uint8_t(1 + i), 0, 0), 16)));
  }
  bb.start_and_converge();

  backbone::ShardPlan plan = backbone::compute_shard_plan(bb.topo, 4);
  ASSERT_TRUE(plan.parallel());
  auto runtime = std::make_unique<net::ShardRuntime>(
      bb.topo, std::move(plan.node_shard), plan.shard_count, plan.lookahead);

  obs::SyncProfiler prof(runtime->shard_count());
  std::vector<std::vector<const vpn::Router*>> by_shard(
      runtime->shard_count());
  for (std::size_t i = 0; i < bb.topo.node_count(); ++i) {
    const auto id = static_cast<ip::NodeId>(i);
    if (auto* r = dynamic_cast<vpn::Router*>(&bb.topo.node(id))) {
      by_shard[bb.topo.shard_of(id)].push_back(r);
    }
  }
  prof.set_cache_sampler([&by_shard](std::uint32_t shard,
                                     std::uint64_t& cache_hits,
                                     std::uint64_t& cache_misses) {
    for (const auto* r : by_shard[shard]) {
      cache_hits += r->flowcache_stats().hits;
      cache_misses += r->flowcache_stats().misses;
    }
  });
  runtime->set_profiler(&prof);

  std::vector<std::unique_ptr<qos::SlaProbe>> probes;
  std::vector<std::unique_ptr<traffic::MeasurementSink>> sinks;
  for (std::uint32_t s = 0; s < runtime->shard_count(); ++s) {
    probes.push_back(
        std::make_unique<qos::SlaProbe>("lane" + std::to_string(s)));
    sinks.push_back(std::make_unique<traffic::MeasurementSink>(
        *probes[s], runtime->shard_scheduler(s)));
  }
  auto lane_of = [&](const backbone::MplsBackbone::Site& site) {
    return bb.topo.shard_of(site.ce->id());
  };
  for (auto& site : sites) sinks[lane_of(site)]->bind(*site.ce);

  constexpr std::size_t kFlows = 64;
  std::vector<std::unique_ptr<traffic::CbrSource>> sources;
  for (std::size_t i = 0; i < kFlows; ++i) {
    const std::size_t a = i % sites.size();
    const std::size_t b = (i + 1) % sites.size();
    traffic::FlowSpec f;
    f.src = ip::Ipv4Address(10, std::uint8_t(1 + a), 0,
                            std::uint8_t(1 + i % 200));
    f.dst = ip::Ipv4Address(10, std::uint8_t(1 + b), 0,
                            std::uint8_t(1 + i % 200));
    f.dst_port = static_cast<std::uint16_t>(20000 + i);
    f.vpn = v;
    const auto id = static_cast<std::uint32_t>(1000 + i);
    sinks[lane_of(sites[b])]->expect_flow(id, qos::Phb::kBe, v);
    sources.push_back(std::make_unique<traffic::CbrSource>(
        *sites[a].ce, f, id, probes[lane_of(sites[a])].get(), 1e6));
  }

  const sim::SimTime t0 = bb.topo.base_scheduler().now();
  for (auto& s : sources) s->run(t0, t0 + sim::from_seconds(1.0));
  // Run past the source window so every in-flight packet drains back to its
  // pool before the runtime (which owns the per-shard pools) tears down.
  runtime->run_until(t0 + sim::from_seconds(1.5));

  const std::uint64_t windows = runtime->windows();
  const std::uint64_t handoffs = runtime->handoffs();
  runtime->finish();
  ASSERT_GT(windows, 0U);

  // The coordinator closed every window through the profiler.
  EXPECT_EQ(prof.epochs(), windows);

  for (std::uint32_t s = 0; s < prof.shard_count(); ++s) {
    SCOPED_TRACE("shard=" + std::to_string(s));
    const auto slots = prof.worker_snapshot(s);
    ASSERT_FALSE(slots.empty());
    for (std::size_t i = 1; i < slots.size(); ++i) {
      // Epochs arrive in order and windows tile the sim-time axis.
      EXPECT_EQ(slots[i].epoch, slots[i - 1].epoch + 1);
      EXPECT_EQ(slots[i].window_start, slots[i - 1].window_end);
      // Phase stamps are monotone per worker: an epoch's wait + exec
      // phases complete before the next epoch's wait begins.
      EXPECT_LE(slots[i - 1].begin_ns + slots[i - 1].wait_ns +
                    slots[i - 1].exec_ns,
                slots[i].begin_ns);
    }
  }

  const obs::SyncProfiler::Report rep = prof.report();
  EXPECT_FALSE(rep.serial);
  EXPECT_EQ(rep.shards, 4U);
  EXPECT_EQ(rep.epochs, windows);
  ASSERT_EQ(rep.lanes.size(), 4U);
  std::uint64_t critical = 0;
  std::uint64_t cache_total = 0;
  for (const auto& lane : rep.lanes) {
    EXPECT_EQ(lane.epochs, windows);
    EXPECT_GE(lane.busy_fraction, 0.0);
    EXPECT_LE(lane.busy_fraction, 1.0);
    critical += lane.critical_epochs;
    cache_total += lane.cache_hits + lane.cache_misses;
  }
  // Every epoch is attributed to exactly one slowest shard.
  EXPECT_EQ(critical, windows);
  // The sampler saw the flow caches and the exchange hook saw traffic.
  EXPECT_GT(cache_total, 0U);
  EXPECT_GT(rep.handoffs, 0U);
  EXPECT_EQ(rep.handoffs, handoffs);
  EXPECT_GT(rep.wall_s, 0.0);
}

}  // namespace
}  // namespace mvpn
