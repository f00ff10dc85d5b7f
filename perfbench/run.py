#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the aurv library.

    python3 perfbench/run.py --workload census_type2 --seed 2020 --seconds 10 --trace 0

Run from the root of a source tree. The first run builds the library and
the harness (perfbench/harness.cpp) into .bench_build/perfbench. Each run
generates its workload's specs from --seed, runs them through the
library's public runners and checks the outputs. The last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones; BENCHMARK.json names both sets.

Everything a run leaves behind goes under .bench_out/:
    <workload>.e2e.json        --trace 0 report: metrics, samples, checks, digest
    <workload>.layers.json     --trace 1 report: metrics, span self times, checks
    trace/<workload>.json      traced run, Chrome Trace Event Format
    trace.json                 all traced workloads, one lane each
The traces open with `python3 scripts/trace_report.py show <file>`.

Workloads and noise handling are described in perfbench/NOISE.md.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
HARNESS = BUILD / "perfbench_harness"

DEFAULT_SEED = 2020
WORKLOADS = ("census_type2", "gather_funnel", "search_spill")
# Fresh processes timed for setup_s; the reported value is their median.
SETUP_PROCESSES = 31
HARNESS_TIMEOUT_S = 160
# Nominal times of the host reference kernel (harness.cpp, reference_work):
# round figures near its fastest serial sample and its median 4-thread
# sample on the container NOISE.md describes. The throughputs are
# normalized to a host on which the kernel takes these times, so a slow
# host phase that slows the kernel and the workload alike cancels out.
REFERENCE_SERIAL_MS = 1.0
REFERENCE_PARALLEL_MS = 10.0
BUILD_TIMEOUT_S = 840


def fail(message: str, code: int = 1) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


# --------------------------------------------------------------- workloads --


def census_type2_specs(seed: int) -> list:
    # At the sampler's default ranges a seed's cost swings by 2x: about 0.1%
    # of draws meet in phase 3 and carry half of all events. These ranges
    # keep the per-seed cost steady and still reach phase 2 (the limb2
    # numeric tier); the exact tier is never reached. See NOISE.md.
    return [{
        "schema": 1,
        "name": "perfbench_census_type2",
        "description": "AlmostUniversalRV over sampled type-2 instances",
        "algorithm": "aurv",
        "seed": seed,
        "replications": 1,
        "source": {"sampler": "type2", "count": 12288,
                   "ranges": {"margin_min": 0.5, "dist_max": 2.5}},
        "engine": {"max_events": 5000000},
    }]


def gather_funnel_specs(seed: int) -> list:
    # The committed gather_census_funnel scenario on another seed, at half
    # its size so a serial pass is short: 1000 configurations are 4 shards
    # of the default size on 4 workers, so parallel idle time at the tail
    # shows.
    return [{
        "schema": 1,
        "kind": "gather-census",
        "name": "perfbench_gather_funnel",
        "description": "Latecomers over spread chains of 2-5 agents, both stop policies",
        "algorithm": "latecomers",
        "seed": seed,
        "replications": 1,
        "policies": ["first-sight", "all-visible"],
        "source": {
            "sampler": "spread",
            "count": 1000,
            "ranges": {"n_min": 2, "n_max": 5, "r_min": 0.5, "r_max": 1.5,
                       "spread_min": 1.5, "spread_max": 4, "wake_max": 8},
        },
        "engine": {"max_events": 1000000, "contact_slack": 1e-9, "horizon": "8192"},
    }]


SEARCHES = 16
SEARCH_BOXES = 512


def search_spill_specs(seed: int) -> list:
    # Sub-slabs of the search_type1_deep family. Search k takes the k-th
    # 1/16-wide stratum of x_lo at a seeded offset within it, and B's
    # lateral offset y in a seeded rotation: every seed covers the family
    # evenly, so the per-seed cost stays steady. Each search is one chunk
    # of the serial estimator, so searches are kept short.
    rng = random.Random(seed)
    ys = ["11/10", "6/5", "13/10"]
    turn = rng.randrange(len(ys))
    specs = []
    for k in range(SEARCHES):
        x_lo = Fraction(3, 2) + Fraction(k, 16) + Fraction(rng.randrange(16), 256)
        y = ys[(turn + k) % len(ys)]
        specs.append({
            "schema": 1,
            "kind": "search",
            "name": f"perfbench_search_spill_{k}",
            "algorithm": "aurv",
            "objective": "max-meet-time",
            "space": {
                "family": "tuple",
                "chi": -1,
                "fixed": {"r": 1, "y": y, "phi": 0, "tau": 1, "v": 1},
                "box": {"x": [str(x_lo), str(x_lo + 2)], "t": [0, 3]},
            },
            "budget": {"max_boxes": SEARCH_BOXES, "wave_size": 128,
                       "min_width": "1/1073741824", "min_improvement": 0},
            "engine": {"max_events": 4000000, "contact_slack": 1e-9, "horizon": "512"},
        })
    return specs


SPECS = {
    "census_type2": census_type2_specs,
    "gather_funnel": gather_funnel_specs,
    "search_spill": search_spill_specs,
}


def write_specs(workload: str, seed: int, workdir: Path) -> None:
    specs = SPECS[workload](seed)
    if len(specs) == 1:
        (workdir / "spec.json").write_text(json.dumps(specs[0], indent=2) + "\n")
    else:
        for k, spec in enumerate(specs):
            (workdir / f"spec_{k}.json").write_text(json.dumps(spec, indent=2) + "\n")


# ------------------------------------------------------------------- build --


def build() -> None:
    if not any((ROOT / "src").rglob("*.cpp")):
        fail(f"no library sources under {ROOT / 'src'}; run from a source tree")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    commands = [["cmake", "--build", str(BUILD), "-j", "4"]]
    if not (BUILD / "CMakeCache.txt").exists():
        commands.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for command in commands:
            try:
                status = subprocess.run(command, stdout=log, stderr=subprocess.STDOUT,
                                        timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as error:
                fail(f"build failed: {error}")
            if status != 0:
                tail = log_path.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))


def harness(*args: str) -> dict:
    command = [str(HARNESS), *args]
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(command)}")
    if done.returncode != 0:
        fail(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------- metrics --


def metric_specs() -> dict:
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": definition["end_to_end"], "per_layer": definition["per_layer"]}


def sha256_of(paths: list) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def calibration_ms() -> float:
    """The pure-CPU host probe, in a process of its own so that it adds
    nothing to the measured process's peak RSS."""
    return harness("calib")["calib_ms"]


def end_to_end(workload: str, workdir: Path, seconds: int) -> tuple:
    setup = [harness("setup", workload, str(workdir))["setup_s"] for _ in range(SETUP_PROCESSES)]
    calib_before = calibration_ms()
    measured = harness("measure", workload, str(workdir), str(seconds))
    calib_after = calibration_ms()
    sims = measured["sims"]
    executions = measured["executions"]
    ok = sum(1 for execution in executions if execution["ok"])
    reference = measured["reference"]
    serial_raw = sims / measured["serial_busy_s"]
    parallel_raw = sims / statistics.median(measured["parallel_s"])
    values = {
        "sims_per_s": serial_raw * reference["serial_best_ms"] / REFERENCE_SERIAL_MS,
        "sims_per_s_par": parallel_raw * reference["parallel_median_ms"] / REFERENCE_PARALLEL_MS,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": measured["peak_rss_mb"],
        "ok_frac": ok / len(executions),
    }
    report = {
        "sims": sims,
        "sims_per_s_raw": serial_raw,
        "sims_per_s_par_raw": parallel_raw,
        "reference": reference,
        "serial_busy_s": measured["serial_busy_s"],
        "chunks": measured["chunks"],
        "passes": measured["passes"],
        "parallel_s": measured["parallel_s"],
        "setup_s_samples": setup,
        "calib_ms_before": calib_before,
        "calib_ms_after": calib_after,
        "artifact_sha256": sha256_of(measured["artifacts"]),
    }
    return values, executions, report


def write_trace(workload: str, workdir: Path) -> None:
    lanes = OUT / "trace"
    lanes.mkdir(parents=True, exist_ok=True)
    events = json.loads("[" + (workdir / "trace_events.json").read_text() + "]")
    (lanes / f"{workload}.json").write_text(json.dumps(trace_document({workload: events})))
    merged = {}
    for name in WORKLOADS:
        path = lanes / f"{name}.json"
        if path.exists():
            merged[name] = [event for event in json.loads(path.read_text())["traceEvents"]
                            if event.get("ph") == "X"]
    (OUT / "trace.json").write_text(json.dumps(trace_document(merged)))


def trace_document(events_by_workload: dict) -> dict:
    """One lane (tid) per workload, named after it."""
    events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
               "args": {"name": "perfbench"}}]
    for name, spans in events_by_workload.items():
        lane = WORKLOADS.index(name) + 1
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": lane,
                       "args": {"name": name}})
        events.extend({**span, "tid": lane} for span in spans)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def per_layer(workload: str, workdir: Path) -> tuple:
    calib_before = calibration_ms()
    traced = harness("trace", workload, str(workdir))
    calib_after = calibration_ms()
    write_trace(workload, workdir)
    layers = {**traced["layers"], "host.calib_ms": (calib_before + calib_after) / 2}
    report = {
        "span_self_s": traced["span_self_s"],
        "calib_ms_before": calib_before,
        "calib_ms_after": calib_after,
    }
    return layers, traced["executions"], report


# -------------------------------------------------------------------- main --


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    build()
    workdir = OUT / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        write_specs(args.workload, args.seed, workdir)
        if args.trace:
            values, executions, report = per_layer(args.workload, workdir)
        else:
            values, executions, report = end_to_end(args.workload, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    absent = []
    for metric in metric_specs()[group]:
        name = metric["name"]
        if name not in values:
            # A layer that does no work on this workload, or a counter a
            # later change removed: reported as 0 and listed as absent.
            absent.append(name)
        metrics[name] = {"value": values.get(name, 0), "unit": metric["unit"]}
    failed = sum(1 for execution in executions if not execution["ok"])
    result = {
        "correct": failed == 0,
        "attempted": len(executions),
        "failed": failed,
        "metrics": metrics,
    }

    OUT.mkdir(parents=True, exist_ok=True)
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "absent": absent, "executions": executions, **report,
            "result": result}
    report_name = f"{args.workload}.{'layers' if args.trace else 'e2e'}.json"
    (OUT / report_name).write_text(json.dumps(full, indent=2) + "\n")
    for name, metric in metrics.items():
        note = "  (absent)" if name in absent else ""
        print(f"{name:32} {metric['value']:>16.6g} {metric['unit']}{note}", file=sys.stderr)
    for execution in executions:
        if not execution["ok"]:
            print(f"check failed: {json.dumps(execution)}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
