// perfbench_driver: runs one benchmark workload and prints a raw JSON
// report (per-repetition timings, counters, outcome checks, spans) that
// perfbench/run.py turns into the benchmark's metrics.
//
//   perfbench_driver run --workload W --seed N --seconds S --trace 0|1
//   perfbench_driver gen --workload W --seed N
//
// `gen` prints the workload's input hashes without running anything; the
// helper tests use it to pin generator determinism.

#include <malloc.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>

#include "churn.hpp"
#include "dataplane.hpp"
#include "gen.hpp"
#include "json.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool parse(int argc, char** argv, Args& a) {
  if (argc < 2 || argc % 2 != 0) return false;  // mode, then key/value pairs
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else {
      return false;
    }
  }
  return (a.mode == "run" || a.mode == "gen") &&
         (a.workload == "paper-qos" || a.workload == "control-churn");
}

std::uint64_t vm_hwm_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

/// Start a repetition's peak-RSS window: hand freed heap back to the
/// kernel, then reset VmHWM to the current RSS (where the kernel allows
/// it; otherwise VmHWM stays the process peak).
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void emit_spans(Json& j, const Tracer& tr) {
  j.begin_array("spans");
  for (const Span& s : tr.spans()) {
    j.begin()
        .field("name", s.name)
        .field("id", s.id)
        .field("parent", s.parent)
        .field("start_ns", s.start_ns)
        .field("end_ns", s.end_ns)
        .end();
  }
  j.end_array();
}

void emit_control(Json& j, const ControlCounters& c) {
  j.field("bgp_msgs", c.bgp_msgs)
      .field("bgp_bytes", c.bgp_bytes)
      .field("adj_rib_bytes", c.adj_rib_bytes)
      .field("adj_rib_routes", c.adj_rib_routes)
      .field("spf_full", c.spf_full)
      .field("spf_incremental", c.spf_incremental)
      .field("spf_skipped", c.spf_skipped)
      .field("edges_relaxed", c.edges_relaxed);
}

void emit_churn(Json& j, const ChurnResult& c) {
  j.field("boot_ok", c.boot_ok)
      .field("churn_s", c.churn_s);
  j.begin_array("samples");
  for (const ChurnSample& s : c.samples) {
    j.begin()
        .field("kind", to_string(s.kind))
        .field("ms", s.ms)
        .field("ok", s.ok)
        .end();
  }
  j.end_array();
}

/// One data-plane repetition. `kind` is "drive" (timed traffic run),
/// "twin" (the same plan on the other engine: the identity check), "setup"
/// (stopped once armed) or "churn" (control-plane churn on the booted
/// backbone).
void emit_data_rep(Json& j, const char* kind, const DataRep& r, double plan_s,
                   const Tracer& tr) {
  j.begin()
      .field("kind", kind)
      .field("traced", tr.on())
      .field("peak_kb", vm_hwm_kb())
      .field("shards", static_cast<std::uint64_t>(r.shards))
      .field("plan_s", plan_s)
      .field("build_s", r.build_s)
      .field("boot_s", r.boot_s)
      .field("boot_events", r.boot_events);
  if (std::strcmp(kind, "churn") == 0) {
    emit_control(j, r.control);
    emit_churn(j, r.churn);
  } else {
    j.field("partition_s", r.partition_s)
        .field("arm_s", r.arm_s)
        .field("cut_links", r.cut_links)
        .field("state_bytes_per_flow", r.state_bytes_per_flow);
  }
  if (std::strcmp(kind, "drive") == 0 || std::strcmp(kind, "twin") == 0) {
    j.field("drive_s", r.drive_s)
        .field("report_s", r.report_s)
        .field("sent", r.sent)
        .field("delivered", r.delivered)
        .field("leaks", r.leaks)
        .field("unknown", r.unknown)
        .field("drop_tail", r.drop_tail)
        .field("drop_red", r.drop_red)
        .field("drop_policed", r.drop_policed)
        .field("drop_link", r.drop_link)
        .field("drop_router", r.drop_router)
        .field("queued", r.queued)
        .field("imbalance", static_cast<int>(r.imbalance()))
        .field("sla_digest", hex(r.sla_digest))
        .field("sla_csv", r.sla_csv)
        .field("events", r.events)
        .field("windows", r.windows)
        .field("widened", r.widened)
        .field("handoffs", r.handoffs)
        .field("fc_hits", r.fc_hits)
        .field("fc_misses", r.fc_misses)
        .field("busiest_core_load", r.busiest_core_load);
    emit_control(j, r.control);
    j.begin_array("shard_events");
    for (std::uint64_t e : r.shard_events) j.field(nullptr, e);
    j.end_array();
  }
  if (r.profiled) {
    j.begin("profile")
        .field("busy_max", r.busy_max)
        .field("busy_min", r.busy_min)
        .field("worker_wait_s", r.worker_wait_s)
        .field("drain_s", r.drain_s)
        .field("exec_sum_ns", r.exec_sum_ns)
        .end();
  }
  if (r.replay.samples != 0) {
    j.begin("replay")
        .field("samples", r.replay.samples)
        .field("classify_calls", r.replay.classify_calls)
        .field("classify_ns", r.replay.classify_ns)
        .field("lfib_calls", r.replay.lfib_calls)
        .field("lfib_ns", r.replay.lfib_ns)
        .field("vrf_calls", r.replay.vrf_calls)
        .field("vrf_ns", r.replay.vrf_ns)
        .end();
  }
  if (tr.on()) emit_spans(j, tr);
  j.end();
}

/// One control-churn repetition: "churn" (boot + churn), "boot" or
/// "setup" (build only).
void emit_churn_rep(Json& j, const char* kind, ChurnStop stop,
                    const ChurnRep& r, double plan_s, const Tracer& tr) {
  j.begin()
      .field("kind", kind)
      .field("traced", tr.on())
      .field("peak_kb", vm_hwm_kb())
      .field("plan_s", plan_s)
      .field("build_s", r.build_s);
  if (stop != ChurnStop::kAfterBuild) {
    j.field("boot_s", r.converge_s).field("boot_events", r.boot_events);
  }
  if (stop == ChurnStop::kAfterChurn) {
    emit_control(j, r.control);
    emit_churn(j, r.churn);
  }
  if (tr.on()) emit_spans(j, tr);
  j.end();
}

/// Set-up samples per run: every repetition gives one, and set-up-only
/// repetitions make up the rest, so setup_s is a median of at least this
/// many (set-up takes a few milliseconds; one sample is all noise).
constexpr int kSetupSamples = 101;
/// Timed data-plane repetitions per run, at least; more while `--seconds`
/// lasts.
constexpr int kMinReps = 3;
/// A data-plane run interleaves one churn repetition after every this many
/// timed repetitions, so its churn samples span the whole run rather than
/// one moment of it.
constexpr int kDrivesPerChurn = 3;
/// control-churn alternates full repetitions (boot + 1000 timed events) with
/// boot-only ones (more converge_s samples) while `--seconds` lasts, and
/// makes at least this many of each.
constexpr int kChurnReps = 2;

/// Times plan generation as the root span's first child, then runs `body`
/// with the plan and the plan time; the whole repetition is the root span
/// "run", closed when `body` returns, so emit the repetition after this.
template <typename Make, typename Body>
void with_plan(Tracer& tr, Make&& make, Body&& body) {
  const int root = tr.open("run", now_ns());
  double plan_s = 0;
  const auto plan = [&] {
    Phase p(tr, "plan");
    auto made = make();
    plan_s = p.stop();
    return made;
  }();
  body(plan, plan_s);
  tr.close(root, now_ns());
}

/// The workload's input identity: plan and churn-sequence hashes and
/// sizes. Generating them is cheap and touches no timed repetition.
void emit_inputs(Json& j, const Args& a) {
  if (a.workload == "control-churn") {
    const auto plan = make_control_churn_plan(a.seed);
    const ChurnPlan cp =
        make_churn(a.seed, plan, kInitialRoutesPerPe, kChurnEvents);
    j.field("plan_hash", hex(plan.hash()))
        .field("churn_hash", hex(cp.hash()))
        .field("pes", static_cast<std::uint64_t>(plan.backbone.pe_count))
        .field("initial_routes_per_pe",
               static_cast<std::uint64_t>(kInitialRoutesPerPe))
        .field("events", static_cast<std::uint64_t>(cp.events.size()));
    return;
  }
  const DataPlan dp = make_paper_qos(a.seed);
  const ChurnPlan cp = make_churn(a.seed, dp.plan, 0, kChurnEvents);
  j.field("plan_hash", hex(dp.hash()))
      .field("churn_hash", hex(cp.hash()))
      .field("pes", static_cast<std::uint64_t>(dp.plan.backbone.pe_count))
      .field("flows", static_cast<std::uint64_t>(dp.plan.flows.size()))
      .field("sim_s", dp.sim_s)
      .field("drain_s", dp.drain_s)
      .field("events", static_cast<std::uint64_t>(cp.events.size()));
}

void run_control_churn(const Args& a, Json& j) {
  auto make = [&] {
    auto plan = make_control_churn_plan(a.seed);
    ChurnPlan cp = make_churn(a.seed, plan, kInitialRoutesPerPe, kChurnEvents);
    return std::make_pair(std::move(plan), std::move(cp));
  };
  auto rep = [&](const char* kind, ChurnStop stop, bool traced) {
    Tracer tr(traced);
    reset_peak_rss();
    ChurnRep r;
    double plan_s = 0;
    with_plan(tr, make, [&](const auto& p, double s) {
      plan_s = s;
      r = run_churn_rep(p.first, p.second, stop, tr);
    });
    emit_churn_rep(j, kind, stop, r, plan_s, tr);
  };
  if (a.trace) {
    rep("churn", ChurnStop::kAfterChurn, false);
    rep("churn", ChurnStop::kAfterChurn, true);
    return;
  }
  const std::uint64_t t0 = now_ns();
  auto elapsed = [&] { return static_cast<double>(now_ns() - t0) * 1e-9; };
  int n = 0;
  for (; n < 2 * kChurnReps || elapsed() < a.seconds; ++n) {
    if (n % 2 == 0) {
      rep("churn", ChurnStop::kAfterChurn, false);
    } else {
      rep("boot", ChurnStop::kAfterBoot, false);
    }
  }
  for (; n < kSetupSamples; ++n) rep("setup", ChurnStop::kAfterBuild, false);
}

void run_data_plane(const Args& a, Json& j) {
  auto make = [&] { return make_paper_qos(a.seed); };
  auto rep = [&](const char* kind, bool traced, DataOptions opt) {
    Tracer tr(traced);
    reset_peak_rss();
    DataRep r;
    double plan_s = 0;
    with_plan(tr, make, [&](const DataPlan& dp, double s) {
      plan_s = s;
      ChurnPlan cp;
      if (std::strcmp(kind, "churn") == 0) {
        cp = make_churn(a.seed, dp.plan, 0, kChurnEvents);
        opt.churn = &cp;
      }
      r = run_data_rep(dp, opt, tr);
    });
    emit_data_rep(j, kind, r, plan_s, tr);
  };
  // The timed drives run serially; the twin runs the same plan once on 2
  // shards. Traced, the serial drive feeds the lookup replay and the twin
  // carries the sync profiler.
  const DataOptions twin_opt{.shards = 2, .profile = a.trace};
  if (a.trace) {
    rep("twin", true, twin_opt);
    rep("drive", false, {});
    rep("drive", true, {.sample = true});
    rep("churn", true, {});
    return;
  }
  const std::uint64_t t0 = now_ns();
  int n = 0;
  while (n < kMinReps ||
         static_cast<double>(now_ns() - t0) * 1e-9 < a.seconds) {
    rep("drive", false, {});
    if (++n % kDrivesPerChurn == 0) rep("churn", false, {});
  }
  if (n < kDrivesPerChurn) rep("churn", false, {});
  rep("twin", false, twin_opt);
  for (; n < kSetupSamples; ++n) rep("setup", false, {.setup_only = true});
}

int run(const Args& a) {
  Json j(std::cout);
  j.begin().field("workload", a.workload).field("seed", a.seed);
  emit_inputs(j, a);
  j.begin_array("reps");
  if (a.workload == "control-churn") {
    run_control_churn(a, j);
  } else {
    run_data_plane(a, j);
  }
  j.end_array();
  j.end();
  std::cout << '\n';
  return 0;
}

int gen(const Args& a) {
  Json j(std::cout);
  j.begin().field("workload", a.workload).field("seed", a.seed);
  emit_inputs(j, a);
  j.end();
  std::cout << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver run|gen --workload "
                 "paper-qos|control-churn --seed N "
                 "[--seconds S] [--trace 0|1]\n");
    return 2;
  }
  try {
    return a.mode == "gen" ? gen(a) : run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
