"""Check that the benchmark is steady: run every workload over many seeds.

    python3 perfbench/spread.py --seeds 1-10 --out A.json
    python3 perfbench/spread.py --compare A.json B.json

The first form runs run.py with --trace 0 once per workload of
BENCHMARK.json and seed, saves every result with its trace digests, and
prints for each end-to-end metric the median and the interquartile range
(statistics.quantiles, n=4) as a share of the median, next to the metric's
bound from BENCHMARK.json. The second form compares two saved sets: the
relative change of each median in the metric's worse direction against its
bound, and whether the iteration counts and digests of every seed are
identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(seeds: list[int]) -> dict:
    results: dict = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = ROOT / ".perfbench_runs" / "out" / f"{workload}-seed{seed}-trace0.json"
            result["digests"] = json.loads(record.read_text(encoding="utf-8"))["digests"]
            results.setdefault(workload, {})[str(seed)] = result
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
    return results


def report_spread(results: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for workload, runs in results.items():
        names = next(iter(runs.values()))["metrics"]
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs.values()]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median if median else float("nan")
            bound = bounds[name]
            flag = "" if share < bound / 3 else "  <-- above a third of the bound"
            print(f"{workload:20s} {name:28s} median {median:<12.6g} spread {share:7.4f}"
                  f"  bound {bound}{flag}")


def compare(first: dict, second: dict) -> int:
    spec = {m["name"]: m for m in SPEC["end_to_end"]}
    bad = 0
    for workload, runs_a in first.items():
        runs_b = second[workload]
        for name, m in spec.items():
            a = statistics.median(r["metrics"][name]["value"] for r in runs_a.values())
            b = statistics.median(r["metrics"][name]["value"] for r in runs_b.values())
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok = worse <= m["bound"]
            bad += not ok
            print(f"{workload:20s} {name:14s} {a:<12.6g} -> {b:<12.6g} worse by "
                  f"{worse:+.4f} (bound {m['bound']}) {'ok' if ok else 'EXCEEDED'}")
        for seed in runs_a.keys() & runs_b.keys():
            ra, rb = runs_a[seed], runs_b[seed]
            same_iters = ra["metrics"]["iterations"] == rb["metrics"]["iterations"]
            same_digests = ra["digests"] == rb["digests"]
            bad += not (same_iters and same_digests)
            if not (same_iters and same_digests):
                print(f"{workload} seed {seed}: iterations same={same_iters}, "
                      f"digests same={same_digests}")
    print("all within bounds, iterations and digests identical" if not bad
          else f"{bad} differences")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--compare", nargs=2, type=Path, metavar="SET")
    args = ap.parse_args(argv)
    if args.compare:
        first, second = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        return compare(first, second)
    results = collect(parse_seeds(args.seeds))
    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=1), encoding="utf-8")
    report_spread(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
