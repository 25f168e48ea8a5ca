#!/usr/bin/env python3
"""Summarise or compare saved benchmark runs.

    python3 perfbench/compare.py BASE.txt [CHANGE.txt]

Each file holds the standard output of one or more run.py invocations
(append them: `run.py ... >> BASE.txt`). For every (workload, metric) the
tool prints the median, the quartile spread (q3 - q1) / median as
statistics.quantiles(n=4) gives it, and the sample count; with a second
file it adds the change's median and the ratio change / base. A comparison
whose two sides ran on different hosts or builds (CPU model, nproc,
governor, compiler, build type) is marked FINGERPRINT-MISMATCH, and runs
that failed an outcome check are counted and left out.
"""

import json
import sys
import os

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib  # noqa: E402


def load(path):
    """Returns {(workload, trace): {"fingerprints": [...], "failed": n,
    "metrics": {name: [values]}, "units": {name: unit}}}."""
    groups = {}
    info = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "perfbench" in obj:
                info = obj["perfbench"]
                continue
            if "metrics" not in obj or info is None:
                continue
            g = groups.setdefault((info["workload"], info["trace"]), {
                "fingerprints": [], "failed": 0, "metrics": {}, "units": {}})
            g["fingerprints"].append(info["fingerprint"])
            if not obj["correct"]:
                g["failed"] += 1
            else:
                for name, m in obj["metrics"].items():
                    g["metrics"].setdefault(name, []).append(m["value"])
                    g["units"][name] = m["unit"]
            info = None
    return groups


def mismatched(fps_a, fps_b):
    fields = set()
    for a in fps_a:
        for b in fps_b:
            fields.update(benchlib.fingerprint_mismatch(a, b))
    return sorted(fields)


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    base = load(argv[1])
    change = load(argv[2]) if len(argv) == 3 else {}
    for key in sorted(base):
        g = base[key]
        workload, trace = key
        print(f"== {workload} (trace {trace}): {len(g['fingerprints'])} runs"
              f", {g['failed']} failed a check")
        notes = mismatched(g["fingerprints"], g["fingerprints"])
        h = change.get(key)
        if h:
            notes = sorted(set(notes) | set(
                mismatched(g["fingerprints"], h["fingerprints"])))
        if notes:
            print(f"   FINGERPRINT-MISMATCH on {', '.join(notes)}:"
                  " not a like-for-like comparison")
        for name in sorted(g["metrics"]):
            vals = g["metrics"][name]
            row = (f"   {name:34s} {benchlib.median(vals):14.6g} "
                   f"{g['units'][name]:8s} spread "
                   f"{benchlib.quartile_spread(vals):6.3f} n={len(vals)}")
            if h and name in h["metrics"]:
                cv = h["metrics"][name]
                cm = benchlib.median(cv)
                bm = benchlib.median(vals)
                ratio = cm / bm if bm else float("nan")
                row += (f" | change {cm:14.6g} spread "
                        f"{benchlib.quartile_spread(cv):6.3f} n={len(cv)}"
                        f" ratio {ratio:.4f}")
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
