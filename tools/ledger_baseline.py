#!/usr/bin/env python3
"""The ledger's memory: checks driver runs against `LEDGER_seed42.json`.

usage: ledger_baseline.py BASELINE RUNS_DIR

RUNS_DIR holds `<workload>.json` per workload, each the last line the
benchmark driver printed for `--workload <workload> --seed 42 --seconds 3
--trace 0`. The six virtual end-to-end metrics below repeat exactly for a
seed, so a relative move beyond 1e-9 on any of them fails; `allocs_per_op`,
`peak_heap_mb` and the host rows are left out, because they depend on the
toolchain and the box. On a mismatch every moved row is named on stderr
and the fresh baseline is printed on stdout: when the move is intended,
commit that output as BASELINE in the same change and say why.
"""

import json
import pathlib
import sys

SEED = 42
METRICS = (
    "goodput_ops",
    "commit_p50_ms",
    "commit_p99_ms",
    "on_time_share",
    "max_stall_ms",
    "events_per_op",
)
TOLERANCE = 1e-9


def fresh(runs_dir):
    workloads = {}
    for path in sorted(pathlib.Path(runs_dir).glob("*.json")):
        metrics = json.loads(path.read_text())["metrics"]
        workloads[path.stem] = {m: metrics[m]["value"] for m in METRICS}
    return {"seed": SEED, "workloads": workloads}


def moved(a, b):
    return abs(b - a) > TOLERANCE * max(abs(a), abs(b))


def mismatches(base, new):
    if base.get("seed") != new["seed"]:
        yield f"seed {base.get('seed')} in the baseline, runs at {new['seed']}"
    old, cur = base.get("workloads", {}), new["workloads"]
    for w in sorted(old.keys() | cur.keys()):
        if w not in cur:
            yield f"{w}: in the baseline, not run"
            continue
        if w not in old:
            yield f"{w}: run, not in the baseline"
            continue
        for m in METRICS:
            a, b = old[w].get(m), cur[w][m]
            if a is None or moved(a, b):
                yield f"{w}: {m} {a} in the baseline, {b} now"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    baseline = pathlib.Path(sys.argv[1])
    base = json.loads(baseline.read_text()) if baseline.exists() else {}
    new = fresh(sys.argv[2])
    bad = list(mismatches(base, new))
    if not bad:
        rows = len(new["workloads"]) * len(METRICS)
        print(f"{baseline}: all {rows} virtual rows match", file=sys.stderr)
        return 0
    for line in bad:
        print(line, file=sys.stderr)
    print(f"{baseline} to commit if the move is intended:", file=sys.stderr)
    print(json.dumps(new, indent=2))
    return 1


if __name__ == "__main__":
    sys.exit(main())
