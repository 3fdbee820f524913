#!/usr/bin/env python3
"""colcom benchmark runner.

Run from the root of a colcom checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and the library under src/) into .bench_build/, runs one
workload in a process of its own for about --seconds of host time, checks
every job's output against serial ground truth, prints a readable summary and,
as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (END_TO_END below), --trace 1 the
per-layer metrics (PER_LAYER). Exits non-zero, printing no result, when the
build or the run fails. See perfbench/README.md for what each metric means.
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys

WORKLOADS = ("paper_scale", "many_ranks", "tenants")

END_TO_END = [
    ("host_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("virt_s", "s_virtual"),
    ("fig10_gap", "ratio"),
    ("job_lat_p50_s", "s_virtual"),
    ("job_lat_p90_s", "s_virtual"),
]

PER_LAYER = [
    ("pfs.synth_host_s", "s"),
    ("pfs.synth_bytes", "bytes"),
    ("pfs.synth_mb_per_s", "MB/s"),
    ("pfs.read_bytes", "bytes"),
    ("pfs.written_bytes", "bytes"),
    ("pfs.ost_requests", "count"),
    ("pfs.seeks", "count"),
] + [
    (f"core.{phase}_{agg}_s", "s_virtual")
    for phase in ("plan", "io", "construct", "map", "shuffle", "reduce")
    for agg in ("max", "mean")
] + [
    ("core.shuffle_bytes", "bytes"),
    ("core.partial_count", "count"),
    ("core.metadata_bytes", "bytes"),
    ("core.elements", "count"),
    ("core.cc_speedup", "ratio"),
    ("romio.baseline_virt_s", "s_virtual"),
    ("net.messages", "count"),
    ("net.bytes", "bytes"),
    ("net.intra_node_messages", "count"),
    ("net.busy_s", "s_virtual"),
    ("des.events", "count"),
    ("des.intervals", "count"),
    ("des.events_per_host_s", "1/s"),
    ("des.runtime_host_s", "s"),
    ("stage.hits", "count"),
    ("stage.misses", "count"),
    ("stage.hit_ratio", "ratio"),
    ("stage.hit_bytes", "bytes"),
    ("stage.cross_query_hits", "count"),
    ("stage.wb_bytes", "bytes"),
    ("stage.wb_stalls", "count"),
    ("stage.readahead_denied", "count"),
    ("integrity.verified", "count"),
    ("svc.slices", "count"),
    ("svc.switches", "count"),
    ("svc.affinity_admissions", "count"),
    ("svc.submit_host_s", "s"),
    ("svc.run_host_s", "s"),
    ("svc.park_share", "ratio"),
    ("serial_host_s", "s"),
    ("sim_overhead", "ratio"),
    ("trace.overhead_s", "s"),
]

# Library switches read from the environment would change what is measured.
SCRUBBED_ENV = ("COLCOM_CHECK", "COLCOM_CHAOS_SEED", "COLCOM_BENCH_SCALE")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root):
    """Configures and builds the benchmark binary; returns its path."""
    src = os.path.join(root, "perfbench")
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    os.makedirs(out, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", out, "-j", "4"]]
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", src, "-B", out,
                             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
            if r.returncode != 0:
                sys.stderr.write(r.stdout[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "colcom_perfbench"), out


def percentile(xs, p):
    """Linear interpolation between closest ranks (util::SampleStats)."""
    xs = sorted(xs)
    r = p / 100 * (len(xs) - 1)
    lo = int(r)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (r - lo) * (xs[hi] - xs[lo])


def median_of(passes, key):
    return statistics.median(p["host"][key] for p in passes)


def repeat_problems(raw):
    """Virtual values must repeat bit for bit across every pass of one seed,
    traced or not. Returns a description of each value that did not."""
    ref = raw["untraced"][0]
    problems = []
    for i, p in enumerate(raw["untraced"][1:] + raw["traced"]):
        for k, v in p["exact"].items():
            if k in ref["exact"] and ref["exact"][k] != v:
                problems.append(f"pass {i + 1}: {k} = {v!r}, first pass {ref['exact'][k]!r}")
        if p["latencies"] != ref["latencies"]:
            problems.append(f"pass {i + 1}: job latencies differ")
    for i, p in enumerate(raw["traced"][1:]):
        for k in ("pfs.synth_bytes", "des.intervals"):
            if p["exact"][k] != raw["traced"][0]["exact"][k]:
                problems.append(f"traced pass {i + 1}: {k} differs")
    return problems


def end_to_end(raw):
    passes = raw["untraced"]
    exact = passes[0]["exact"]
    lat = passes[0]["latencies"]
    gap = exact.get("fig10_gap", raw["extra"].get("fig10_gap"))
    return {
        "host_s": median_of(passes, "host_s"),
        "setup_s": statistics.median(raw["setup_samples"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "virt_s": exact["virt_s"],
        "fig10_gap": gap,
        "job_lat_p50_s": percentile(lat, 50),
        "job_lat_p90_s": percentile(lat, 90),
    }


def per_layer(raw):
    plain = raw["untraced"]
    traced = raw["traced"]
    exact = dict(traced[0]["exact"])
    exact.update(raw["extra"])
    host = median_of(plain, "host_s")
    traced_host = median_of(traced, "host_s")
    synth_s = median_of(traced, "pfs.synth_host_s")
    m = {name: exact.get(name, 0.0) for name, _ in PER_LAYER}
    m.update({
        "pfs.synth_host_s": synth_s,
        "pfs.synth_mb_per_s": exact["pfs.synth_bytes"] / 1e6 / synth_s if synth_s > 0 else 0.0,
        "des.events_per_host_s": exact["des.events"] / host,
        "des.runtime_host_s": statistics.median(
            p["host"]["host_s"] - p["host"]["pfs.synth_host_s"] for p in traced),
        "svc.submit_host_s": median_of(traced, "svc.submit_host_s"),
        "svc.run_host_s": median_of(traced, "svc.run_host_s"),
        "serial_host_s": raw["serial_host_s"],
        "sim_overhead": host / raw["serial_host_s"],
        "trace.overhead_s": traced_host - host,
    })
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("run from the root of a colcom checkout (src/ not found)")
    binary, out = build(root)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(out, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json")]
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                       timeout=170)
    if r.returncode != 0:
        fail(f"{args.workload} exited with {r.returncode}")
    raw = json.loads(r.stdout.strip().splitlines()[-1])

    repeats = repeat_problems(raw)
    catalog = PER_LAYER if args.trace else END_TO_END
    values = per_layer(raw) if args.trace else end_to_end(raw)
    correct = (raw["failed"] == 0 and not repeats
               and raw["spans_written"]
               and all(math.isfinite(v) for v in values.values()))

    attempted, failed = raw["attempted"], raw["failed"]
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(raw['untraced'])} untraced + {len(raw['traced'])} traced passes, "
          f"{attempted} jobs checked against serial ground truth, "
          f"fail_frac {failed / attempted:.4f}, "
          f"{len(raw['untraced'][0]['latencies'])} latency samples")
    for p in (repeats + raw["errors"])[:10]:
        print(f"  PROBLEM {p}")
    for name, unit in catalog:
        print(f"  {name:28s} {values[name]:>18.9g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in catalog},
    }))


if __name__ == "__main__":
    main()
