#!/usr/bin/env python3
"""Benchmark entry point: build the driver, run one workload, print metrics.

    python3 perfbench/run.py --workload paper-qos|control-churn \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench_driver (library + driver) under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). The driver's raw report is turned into
metrics here. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1. The line before it carries the host and
build fingerprint, input sizes, sample counts and outcome checks. Exits 1
when an outcome check fails, 2 when the build or the driver fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

WORKLOADS = ("paper-qos", "control-churn")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then bring the driver up to date (a no-op rebuild
    costs about a second). Build output goes to stderr."""
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            return None
    return os.path.join(build_dir, "perfbench_driver")


def run_driver(exe, args):
    cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # The driver measures for --seconds, then runs its twin, churn and
    # set-up repetitions; on a quiet host that adds about 5 s.
    timeout = 2 * args.seconds + 90
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                       text=True, timeout=timeout)
    if r.returncode != 0:
        return None
    return json.loads(r.stdout)


def setup_seconds(rep):
    """Seed to first data-plane event: plan, build, boot, partition, arm."""
    return sum(rep[k] for k in
               ("plan_s", "build_s", "boot_s", "partition_s", "arm_s"))


class Checks:
    """Outcome checks. Every failure counts operations into `failed` and is
    named in `problems`."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, ops, what):
        self.failed += ops
        self.problems.append(what)


def check_drive(reps, reference, checks):
    """Packet conservation and isolation on every data-plane run; the SLA
    digest of every timed repetition equals `reference`, the first's. The
    2-shard twin's digest is compared and reported, not gated: under
    congestion the sharded engine orders same-instant arrivals differently
    and the tables can differ (see README, Findings)."""
    for r in reps:
        checks.attempted += r["sent"]
        if r["imbalance"] != 0:
            checks.fail(abs(r["imbalance"]),
                        f"{r['kind']}: conservation off by {r['imbalance']}")
        if r["leaks"] or r["unknown"]:
            checks.fail(r["leaks"] + r["unknown"],
                        f"{r['kind']}: {r['leaks']} leaks, "
                        f"{r['unknown']} unknown deliveries")
        if r["sla_digest"] != reference and r["kind"] == "drive":
            checks.fail(r["sent"], f"{r['kind']}: SLA digest {r['sla_digest']}"
                                   f" != reference {reference}")


def check_churn(reps, checks):
    for r in reps:
        checks.attempted += len(r["samples"])
        bad = sum(1 for s in r["samples"] if not s["ok"])
        if bad:
            checks.fail(bad, f"churn: {bad} events left a VRF off the model")
        if not r["boot_ok"]:
            checks.fail(1, "churn: VRFs off the model after the cold boot")


def exact(reps, keys, checks, label):
    """Deterministic companions must repeat exactly across repetitions."""
    seen = {}
    for r in reps:
        vals = tuple(r.get(k) for k in keys)
        seen.setdefault(vals, 0)
        seen[vals] += 1
    if len(seen) > 1:
        checks.fail(1, f"{label}: {keys} differ across repetitions: "
                       f"{sorted(seen)}")
    return next(iter(seen)) if seen else None


def check_stored(build_dir, fp, workload, seed, record, checks):
    """The deterministic companions of one seed must also repeat across
    processes: the first run of a build records them, later runs compare."""
    d = os.path.join(build_dir, "expect", fp["source_digest"][:16])
    path = os.path.join(d, f"{workload}-{seed}.json")
    try:
        with open(path, encoding="utf-8") as f:
            stored = json.load(f)
    except (OSError, ValueError):
        stored = {}
    for k, v in record.items():
        if k in stored and stored[k] != v:
            checks.fail(1, f"{k} = {v} differs from an earlier run's "
                           f"{stored[k]} for seed {seed}")
    stored.update({k: v for k, v in record.items() if k not in stored})
    os.makedirs(d, exist_ok=True)
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(stored, f, sort_keys=True)
    os.replace(tmp, path)


def churn_rate(rep):
    """Churn events per host second spent in them. Events, not control
    messages: sending fewer messages for the same events is a gain."""
    return len(rep["samples"]) / rep["churn_s"]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw, checks, info):
    reps = raw["reps"]
    churn = [r for r in reps if r["kind"] == "churn" and not r["traced"]]
    drives = [r for r in reps if r["kind"] == "drive" and not r["traced"]]
    samples = [s["ms"] for r in churn for s in r["samples"]]
    p50, n, _ = benchlib.percentile(samples, 50)
    p99, _, beyond = benchlib.percentile(samples, 99)
    if beyond < 10:
        checks.fail(0, f"reconverge p99 has only {beyond} samples beyond it")
    timed = drives or churn
    # Peak RSS of one repetition of the timed work (the driver resets
    # VmHWM before each), so allocator state left by earlier repetitions
    # does not leak into it.
    rss = benchlib.median([r["peak_kb"] / 1024.0 for r in timed])
    if drives:
        rates = [r["delivered"] / r["drive_s"] for r in drives]
        rate = benchlib.median(rates)
        setups = [setup_seconds(r) for r in reps
                  if r["kind"] in ("drive", "setup")]
        boots = [r["boot_s"] for r in reps
                 if r["kind"] in ("drive", "setup", "churn")]
        info["pkts_per_s"] = {
            "unit": "data packets delivered per host second of drive",
            "runs": len(drives), "packets": drives[0]["delivered"],
            "flows": raw["flows"], "sim_s": raw["sim_s"],
            "min": min(rates), "max": max(rates)}
    else:
        rates = [churn_rate(r) for r in churn]
        rate = benchlib.median(rates)
        # control-churn's set-up is plan and build only: its cold boot is
        # the measured converge_s.
        setups = [r["plan_s"] + r["build_s"] for r in reps]
        boots = [r["boot_s"] for r in reps if r["kind"] in ("churn", "boot")]
        info["pkts_per_s"] = {
            "unit": "churn events per host second of churn",
            "runs": len(churn), "events": len(churn[0]["samples"]),
            "min": min(rates), "max": max(rates)}
    info["samples"] = {"setup_s": len(setups), "converge_s": len(boots),
                       "peak_rss_mb": len(timed), "reconverge_ms": n,
                       "p99_beyond": beyond}
    return {
        "pkts_per_s": metric(rate, "1/s"),
        "setup_s": metric(benchlib.median(setups), "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "converge_s": metric(benchlib.median(boots), "s"),
        "reconverge_ms_p50": metric(p50, "ms"),
        "reconverge_ms_p99": metric(p99, "ms"),
    }


PER_LAYER_UNITS = {
    "backbone.plan_s": "s", "backbone.partition_s": "s",
    "backbone.cut_links": "count", "backbone.max_shard_event_share": "ratio",
    "net.build_s": "s", "routing.boot_s": "s",
    "routing.control_events": "count", "routing.bgp_msgs": "count",
    "routing.bgp_bytes": "B", "routing.adj_rib_bytes_per_route": "B/route",
    "routing.spf_full": "count", "routing.spf_incremental": "count",
    "routing.spf_skipped": "count", "routing.spf_edges_relaxed": "count",
    "churn.routes_ms_p50": "ms", "churn.cost_ms_p50": "ms",
    "churn.fail_ms_p50": "ms", "traffic.arm_s": "s",
    "traffic.state_bytes_per_flow": "B/flow", "sim.events_per_pkt": "count",
    "sim.ns_per_event": "ns", "engine.windows": "count",
    "engine.widened": "count", "engine.handoffs_per_pkt": "count",
    "engine.shard_busy_max": "ratio", "engine.shard_busy_min": "ratio",
    "engine.worker_wait_s": "s", "engine.coordinator_drain_s": "s",
    "engine.exec_inflation": "ratio", "vpn.flowcache_hit_ratio": "ratio",
    "vpn.flowcache_hits": "count", "vpn.flowcache_misses": "count",
    "qos.ns_per_classify": "ns", "mpls.ns_per_lfib_lookup": "ns",
    "ip.ns_per_vrf_lookup": "ns", "qos.drops.tail": "count",
    "qos.drops.red": "count", "qos.drops.policed": "count",
    "obs.trace_overhead": "ratio",
}
SPAN_NAMES = ("run", "plan", "build", "boot", "partition", "arm", "drive",
              "report", "replay", "churn", "originate", "cost", "fail",
              "restore")


def per_layer(raw):
    reps = raw["reps"]
    traced = [r for r in reps if r["traced"]]
    churn = next(r for r in traced if r["kind"] == "churn")
    drive = next((r for r in traced if r["kind"] == "drive"), None)
    base = next((r for r in reps if r["kind"] == "drive" and not r["traced"]),
                None)
    twin = next((r for r in reps if r["kind"] == "twin"), None)
    m = dict.fromkeys(PER_LAYER_UNITS, 0.0)

    # Control plane: the churn repetition (cold boot + churn).
    m["routing.boot_s"] = churn["boot_s"]
    m["routing.control_events"] = churn["boot_events"]
    m["routing.bgp_msgs"] = churn["bgp_msgs"]
    m["routing.bgp_bytes"] = churn["bgp_bytes"]
    if churn["adj_rib_routes"]:
        m["routing.adj_rib_bytes_per_route"] = (
            churn["adj_rib_bytes"] / churn["adj_rib_routes"])
    m["routing.spf_full"] = churn["spf_full"]
    m["routing.spf_incremental"] = churn["spf_incremental"]
    m["routing.spf_skipped"] = churn["spf_skipped"]
    m["routing.spf_edges_relaxed"] = churn["edges_relaxed"]
    by_kind = {}
    for s in churn["samples"]:
        kind = "fail" if s["kind"] == "restore" else s["kind"]
        by_kind.setdefault(kind, []).append(s["ms"])
    for kind, name in (("originate", "routes"), ("cost", "cost"),
                       ("fail", "fail")):
        if kind in by_kind:
            m[f"churn.{name}_ms_p50"] = benchlib.median(by_kind[kind])

    head = drive or churn
    m["backbone.plan_s"] = head["plan_s"]
    m["net.build_s"] = head["build_s"]
    if drive:
        # The timed drives are serial: per-event cost from the untraced one
        # (the traced one also runs the packet tap), the lookup replay from
        # the traced one. The 2-shard twin gives partition, engine and sync
        # profile.
        m["sim.events_per_pkt"] = base["events"] / base["sent"]
        m["sim.ns_per_event"] = base["drive_s"] * 1e9 / base["events"]
        replay = drive.get("replay", {})
        m["qos.ns_per_classify"] = replay.get("classify_ns", 0.0)
        m["mpls.ns_per_lfib_lookup"] = replay.get("lfib_ns", 0.0)
        m["ip.ns_per_vrf_lookup"] = replay.get("vrf_ns", 0.0)
        m["backbone.partition_s"] = twin["partition_s"]
        m["backbone.cut_links"] = twin["cut_links"]
        m["backbone.max_shard_event_share"] = (
            max(twin["shard_events"]) / sum(twin["shard_events"]))
        m["engine.windows"] = twin["windows"]
        m["engine.widened"] = twin["widened"]
        m["engine.handoffs_per_pkt"] = twin["handoffs"] / twin["sent"]
        prof = twin.get("profile")
        if prof:
            m["engine.shard_busy_max"] = prof["busy_max"]
            m["engine.shard_busy_min"] = prof["busy_min"]
            m["engine.worker_wait_s"] = prof["worker_wait_s"]
            m["engine.coordinator_drain_s"] = prof["drain_s"]
            m["engine.exec_inflation"] = (
                prof["exec_sum_ns"] * 1e-9 / base["drive_s"])
        m["traffic.arm_s"] = drive["arm_s"]
        m["traffic.state_bytes_per_flow"] = drive["state_bytes_per_flow"]
        looked = drive["fc_hits"] + drive["fc_misses"]
        m["vpn.flowcache_hits"] = drive["fc_hits"]
        m["vpn.flowcache_misses"] = drive["fc_misses"]
        m["vpn.flowcache_hit_ratio"] = drive["fc_hits"] / looked if looked else 0
        m["qos.drops.tail"] = drive["drop_tail"]
        m["qos.drops.red"] = drive["drop_red"]
        m["qos.drops.policed"] = drive["drop_policed"]
        m["obs.trace_overhead"] = (
            (drive["delivered"] / drive["drive_s"]) /
            (base["delivered"] / base["drive_s"]))
    else:
        plain = next(r for r in reps if r["kind"] == "churn" and not r["traced"])
        m["obs.trace_overhead"] = churn_rate(churn) / churn_rate(plain)

    selfs = benchlib.self_times([s for r in traced for s in r.get("spans", [])])
    for name in SPAN_NAMES:
        m[f"span.{name}.self_s"] = selfs.get(name, 0.0)
    units = dict(PER_LAYER_UNITS, **{f"span.{n}.self_s": "s" for n in SPAN_NAMES})
    return {k: metric(float(v), units[k]) for k, v in m.items()}


def evaluate(raw, args, build_dir, fp, info):
    checks = Checks()
    reps = raw["reps"]
    drives = [r for r in reps if r["kind"] in ("drive", "twin")]
    churns = [r for r in reps if r["kind"] == "churn"]
    record = {}
    if drives:
        timed = [r for r in drives if r["kind"] == "drive"]
        reference = timed[0]["sla_digest"]
        check_drive(drives, reference, checks)
        ev, sent, handoffs, bgp, relaxed = exact(
            timed, ("events", "sent", "handoffs", "bgp_msgs", "edges_relaxed"),
            checks, "drive")
        record.update({"sla_digest": reference, "drive.events": ev,
                       "drive.sent": sent, "drive.handoffs": handoffs,
                       "drive.bgp_msgs": bgp, "drive.edges_relaxed": relaxed})
        info["input"] = {"flows": raw["flows"], "sim_s": raw["sim_s"],
                         "drain_s": raw["drain_s"], "packets_sent": sent,
                         "sim_events": ev}
        info["sla_csv"] = timed[0]["sla_csv"]
        twin = next(r for r in drives if r["kind"] == "twin")
        info["twin"] = {"shards": twin["shards"],
                        "sla_identical": twin["sla_digest"] == reference}
        if twin["sla_digest"] != reference:
            info["twin"]["sla_csv"] = twin["sla_csv"]
            log("perfbench: note: the 2-shard twin's SLA table differs from "
                "the serial engine's (reported, not gated)")
        info["busiest_core_load"] = timed[0]["busiest_core_load"]
    check_churn(churns, checks)
    bgp, relaxed = exact(churns, ("bgp_msgs", "edges_relaxed"), checks, "churn")
    record.update({"churn.bgp_msgs": bgp, "churn.edges_relaxed": relaxed})
    check_stored(build_dir, fp, args.workload, args.seed, record, checks)
    info["exact"] = record
    info["plan_hash"] = raw["plan_hash"]
    info["churn_hash"] = raw["churn_hash"]
    info["churn_events"] = raw["events"]
    metrics = (per_layer(raw) if args.trace
               else end_to_end(raw, checks, info))
    info["problems"] = checks.problems
    return checks, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    exe = build(build_dir)
    if exe is None:
        log("perfbench: build failed")
        return 2
    try:
        raw = run_driver(exe, args)
    except (subprocess.TimeoutExpired, ValueError) as e:
        log(f"perfbench: driver failed: {e}")
        return 2
    if raw is None:
        log("perfbench: driver failed")
        return 2

    fp = benchlib.fingerprint(ROOT, build_dir)
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "fingerprint": fp}
    checks, metrics = evaluate(raw, args, build_dir, fp, info)
    correct = checks.failed == 0 and not checks.problems
    print(json.dumps({"perfbench": info}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    for p in checks.problems:
        log(f"perfbench: check failed: {p}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
