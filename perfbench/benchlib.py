"""Helpers shared by perfbench/run.py and perfbench/compare.py.

Pure functions (percentile pick, span self time, quartile spread) plus the
host/build fingerprint. Nothing here runs the simulator.
"""

import hashlib
import math
import os
import re
import statistics
import subprocess


def percentile(values, q):
    """Nearest-rank percentile of `values` (0 < q <= 100).

    Returns (value, n, beyond): the value at rank ceil(q/100 * n) of the
    sorted samples, the sample count, and how many samples rank above it.
    A percentile is only reported when `beyond` is at least 10.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    return ordered[rank - 1], n, n - rank


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def self_times(spans):
    """Self time per span name, in seconds, summed over all spans.

    A span's self time is its duration minus the part of it that its
    children cover. Spans are dicts with id, parent, name, start_ns and
    end_ns; children are clipped to their parent and overlapping children
    are counted once.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered = 0
        cursor = lo
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            a = max(c["start_ns"], cursor)
            b = min(c["end_ns"], hi)
            if b > a:
                covered += b - a
                cursor = b
        out[s["name"]] = out.get(s["name"], 0.0) + (hi - lo - covered) * 1e-9
    return out


def quartile_spread(values):
    """(q3 - q1) / median, with the quartiles statistics.quantiles gives."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def _read(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError:
        return None


def source_digest(root, dirs=("src", "perfbench"), files=("CMakeLists.txt",)):
    """SHA-256 over the program and benchmark sources: the build identity
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    paths = [os.path.join(root, f) for f in files]
    for d in dirs:
        for base, subdirs, names in os.walk(os.path.join(root, d)):
            subdirs[:] = sorted(x for x in subdirs if x != "__pycache__")
            paths += [os.path.join(base, n) for n in names
                      if not n.endswith(".pyc")]
    for p in sorted(paths):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def fingerprint(root, build_dir):
    """Host and build identity recorded with every result."""
    cpuinfo = _read("/proc/cpuinfo") or ""
    m = re.search(r"^model name\s*:\s*(.+)$", cpuinfo, re.M)
    governor = _read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
    cache = _read(os.path.join(build_dir, "CMakeCache.txt")) or ""
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    compiler = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", cache, re.M)
    version = None
    cmake_files = os.path.join(build_dir, "CMakeFiles")
    if os.path.isdir(cmake_files):
        for d in sorted(os.listdir(cmake_files)):
            text = _read(os.path.join(cmake_files, d, "CMakeCXXCompiler.cmake"))
            v = text and re.search(
                r'CMAKE_CXX_COMPILER_ID "(\w+)".*?'
                r'CMAKE_CXX_COMPILER_VERSION "([^"]+)"', text, re.S)
            if v:
                version = f"{v.group(1)} {v.group(2)}"
    commit = None
    try:
        commit = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "cpu": m.group(1).strip() if m else None,
        "nproc": len(os.sched_getaffinity(0)),
        "governor": governor.strip() if governor else None,
        "compiler": " ".join(x for x in (
            compiler.group(1) if compiler else None, version) if x) or None,
        "build_type": build_type.group(1) if build_type else None,
        "git_commit": commit,
        "source_digest": source_digest(root),
    }


# Fields that must agree for two results to be compared as like for like.
HOST_FIELDS = ("cpu", "nproc", "governor", "compiler", "build_type")


def fingerprint_mismatch(a, b):
    """Names of the host/build fields on which two fingerprints differ."""
    return [k for k in HOST_FIELDS if (a or {}).get(k) != (b or {}).get(k)]
