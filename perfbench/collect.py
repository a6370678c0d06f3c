"""Run one workload over several seeds and summarise every end-to-end metric.

    python3 perfbench/collect.py --workload uplink --seeds 1-10 --sets 2

Each run is ``run.py --trace 0`` at BENCHMARK.json's run_seconds.  For
each metric the summary gives the median, the quartiles and the spread
(interquartile distance over the median, from
``statistics.quantiles(values, n=4)``) against the metric's bound, which
every metric must keep.  With
``--sets 2`` the seeds run twice; the second median must not be worse than
the first by more than the bound, and the detection metrics and digests
must repeat exactly per seed.  Exits 1 when any of that fails.
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
EXACT = ("detect_se", "detect_ppv", "bpm_ok_frac", "digest")


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["digest"] = next(line.split()[-1] for line in lines if line.strip().startswith("digest"))
    return values


def summarise(runs: list[dict], spec: dict) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        values = [run[metric["name"]] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[metric["name"]] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / statistics.median(values),
                               "bound": metric["bound"], "unit": metric["unit"]}
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--sets", type=int, default=1, choices=[1, 2])
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = seed_list(args.seeds)

    sets = []
    for n in range(args.sets):
        runs = []
        for seed in seeds:
            runs.append(run_once(args.workload, seed, spec["run_seconds"]))
            print(f"set {n + 1} seed {seed}: " + ", ".join(
                f"{k} {v:.6g}" for k, v in runs[-1].items() if k != "digest"), flush=True)
        sets.append(runs)

    ok = True
    summaries = [summarise(runs, spec) for runs in sets]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for name in summaries[0]:
        cells = []
        for summary in summaries:
            s = summary[name]
            flag = "" if s["spread"] <= s["bound"] else " SPREAD>BOUND"
            ok &= not flag
            cells.append(f"median {s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] "
                         f"spread {s['spread']:.4f}/{s['bound']}{flag}")
        if len(summaries) == 2:
            first, second = summaries[0][name]["median"], summaries[1][name]["median"]
            change = (second - first) / first * (1 if better[name] == "lower" else -1)
            worse = change > summaries[0][name]["bound"]
            ok &= not worse
            cells.append(f"second worse by {change:+.4f}" + (" OVER BOUND" if worse else ""))
        print(f"{name:18s} " + " | ".join(cells))
    if len(sets) == 2:
        for key in EXACT:
            differ = [seed for seed, a, b in zip(seeds, *sets) if a[key] != b[key]]
            ok &= not differ
            print(f"{key} repeats exactly" if not differ else f"{key} differs for seeds {differ}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
