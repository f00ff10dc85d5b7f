#!/usr/bin/env python3
"""Promote a CI `bench-multicore-baselines` artifact to the committed
BENCH_*.json baselines.

The committed baselines are regenerated serial-only (`--threads 1` /
`--shards 1`) because the development container has one core — parallel
rows measured there show oversubscription, not scaling. The honest
multicore numbers come from the CI `bench-multicore` job, which runs
both throughput benches on a 4-vCPU runner on every push and uploads
`BENCH_campaign.json` + `BENCH_search.json` as the
`bench-multicore-baselines` artifact.

Usage (from the repo root, after downloading + unzipping the artifact
of a green main run):

    python3 scripts/adopt_bench_baselines.py path/to/artifact-dir

The script validates each file (schema, unit, presence of both serial
and multicore rows) and then replaces the committed file wholesale, so
the serial rows in the repo also move to the CI runner's hardware and
the whole file stays one machine's measurements — ratios inside a
baseline file are only meaningful that way.
"""

import json
import pathlib
import sys

EXPECTED = {
    "BENCH_campaign.json": ["BM_CampaignRun/threads:1", "BM_CampaignRun/threads:4"],
    "BENCH_search.json": ["BM_SearchBnb/shards:1", "BM_SearchBnb/shards:4"],
}


def validate(path: pathlib.Path, required_rows: list[str]) -> dict:
    with path.open() as handle:
        bench = json.load(handle)
    if bench.get("schema") != 1:
        raise SystemExit(f"{path}: unsupported schema {bench.get('schema')!r}")
    if bench.get("unit") != "ns/op":
        raise SystemExit(f"{path}: unexpected unit {bench.get('unit')!r}")
    rows = bench.get("benchmarks", {})
    for row in required_rows:
        if row not in rows:
            raise SystemExit(
                f"{path}: missing row {row!r} — is this really the "
                "bench-multicore-baselines artifact of a 4-vCPU runner?"
            )
    return bench


def adopt(artifact_dir: pathlib.Path) -> None:
    repo_root = pathlib.Path(__file__).resolve().parent.parent

    for name, required_rows in EXPECTED.items():
        source = artifact_dir / name
        if not source.exists():
            raise SystemExit(f"{source}: not found in the artifact directory")
        bench = validate(source, required_rows)
        target = repo_root / name
        with target.open("w") as handle:
            json.dump(bench, handle, indent=2)
            handle.write("\n")
        print(f"adopted {name}: {len(bench['benchmarks'])} rows -> {target}")


def main() -> None:
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    adopt(pathlib.Path(sys.argv[1]))


if __name__ == "__main__":
    main()
