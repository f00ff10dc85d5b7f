#!/usr/bin/env python3
"""Parent-vs-change comparison of two aurv_sweep builds on every committed scenario.

    python3 scripts/scenario_ab.py PARENT_BIN CHANGE_BIN [--pairs 5] [--only type4]

Runs each scenarios/*.json with both binaries at 1 and 4 workers
(`--threads` for campaigns and censuses, `--max-shards` for searches;
search_type1_deep runs as a `--max-waves 300` slice). The two binaries
alternate within each pair, and the one that goes first alternates between
pairs, so a slow host phase hits both sides alike.

Every artifact (summary, JSONL, certificate, incumbent log) of every run
must be byte-identical to the parent's first serial run of that scenario.
The AURV_EXACT_ONLY=1 twins of the scenarios the CI smoke jobs twin are
run once per binary and compared the same way.

Prints one line per scenario and worker count: the wall-time median
[interquartile range] of each side, the relative change of the medians
and the number of pairs the change won. Exits 1 when any artifact
differs or a run fails.
"""

import argparse
import filecmp
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
WORKERS = (1, 4)
SLICES = {"search_type1_deep": ["--max-waves", "300"]}
EXACT_TWINS = ("smoke_type2", "type4_census", "search_smoke", "gather_census_smoke",
               "gather_census_funnel")
STOPPED_EARLY = 4  # aurv_sweep's exit code for a search cut by --max-waves


def is_search(spec: Path) -> bool:
    return json.loads(spec.read_text()).get("kind") == "search"


def run_once(binary: str, spec: Path, workers: int, out: Path, exact_only: bool = False):
    """Runs one scenario into `out`; returns (wall seconds, artifact paths)."""
    out.mkdir(parents=True, exist_ok=True)
    if is_search(spec):
        artifacts = [out / "certificate.json", out / "incumbents.jsonl"]
        command = [binary, "search", str(spec), "--max-shards", str(workers),
                   "--out", str(artifacts[0]), "--incumbent-log", str(artifacts[1])]
        command += SLICES.get(spec.stem, [])
    else:
        artifacts = [out / "summary.json", out / "runs.jsonl"]
        command = [binary, "run", str(spec), "--threads", str(workers),
                   "--out", str(artifacts[0]), "--jsonl", str(artifacts[1])]
    command.append("--quiet")
    env = dict(os.environ)
    env.pop("AURV_EXACT_ONLY", None)
    if exact_only:
        env["AURV_EXACT_ONLY"] = "1"
    start = time.perf_counter()
    done = subprocess.run(command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    elapsed = time.perf_counter() - start
    allowed = (0, STOPPED_EARLY) if spec.stem in SLICES else (0,)
    if done.returncode not in allowed:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}: {done.stderr.strip()}")
    return elapsed, artifacts


def differing(reference: list, artifacts: list) -> list:
    """Paths of `artifacts` that differ from `reference`; equal ones are deleted."""
    bad = []
    for ref, path in zip(reference, artifacts):
        if path == ref:
            continue
        if filecmp.cmp(ref, path, shallow=False):
            path.unlink()
        else:
            bad.append(str(path))
    return bad


def spread(samples: list) -> str:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return f"{median:.3f} [{q1:.3f}-{q3:.3f}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="aurv_sweep built from the parent commit")
    parser.add_argument("change", help="aurv_sweep built from the change")
    parser.add_argument("--pairs", type=int, default=5, help="alternating pairs per cell")
    parser.add_argument("--only", default="", help="run only scenarios whose name contains this")
    parser.add_argument("--keep", help="directory for the reference and differing artifacts "
                        "(default: a temp dir, deleted at exit)")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    binaries = {"parent": str(Path(args.parent).resolve()),
                "change": str(Path(args.change).resolve())}
    specs = sorted(p for p in SCENARIOS.glob("*.json") if args.only in p.stem)
    if args.keep:
        return compare(binaries, specs, args.pairs, Path(args.keep))
    with tempfile.TemporaryDirectory(prefix="scenario_ab.") as workdir:
        return compare(binaries, specs, args.pairs, Path(workdir))


def compare(binaries: dict, specs: list, pairs: int, workdir: Path) -> int:
    mismatches = []

    print(f"{'scenario':<26} {'workers':>7}  {'parent s':<22} {'change s':<22} "
          f"{'change':>7}  won")
    for spec in specs:
        reference = None
        for workers in WORKERS:
            times = {"parent": [], "change": []}
            for pair in range(pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    out = workdir / spec.stem / f"{side}.w{workers}.p{pair}"
                    elapsed, artifacts = run_once(binaries[side], spec, workers, out)
                    times[side].append(elapsed)
                    if reference is None:
                        reference = artifacts
                    mismatches += differing(reference, artifacts)
            won = sum(c < p for p, c in zip(times["parent"], times["change"]))
            change = statistics.median(times["change"]) / statistics.median(times["parent"]) - 1
            print(f"{spec.stem:<26} {workers:>7}  {spread(times['parent']):<22} "
                  f"{spread(times['change']):<22} {change:>+7.1%}  {won}/{pairs}",
                  flush=True)
        if spec.stem in EXACT_TWINS:
            for side, binary in binaries.items():
                out = workdir / spec.stem / f"{side}.exact"
                _, artifacts = run_once(binary, spec, WORKERS[-1], out, exact_only=True)
                mismatches += differing(reference, artifacts)
            print(f"{spec.stem:<26} AURV_EXACT_ONLY=1 twins compared", flush=True)

    if mismatches:
        print(f"{len(mismatches)} artifacts differ from the parent's first serial run:")
        for path in mismatches:
            print(f"  {path}")
        return 1
    print(f"all artifacts byte-identical ({workdir})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
