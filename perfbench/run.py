"""ecgmon benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload records_10s --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  With ``--trace 0`` the last stdout line is a JSON
object carrying every end-to-end metric; with ``--trace 1`` the workload
runs untraced for a third of the time, which fixes the iteration count,
then replays those iterations once untraced and once with span recording
on, in alternating blocks, and reports the per-layer metrics plus the
tracing overhead (traced minus untraced wall time of the replays).
Human-readable lines (the metrics, the per-workload median and mean
figures, the quality counts and the determinism digest) precede the JSON.
The exit code is 0 when every correctness check passed, 1 when one failed
and 2 when the checkout holds no ecgmon sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# one thread of numerical work, like the monitor's single core, so the only
# extra thread is uplink's LoopbackListener: set before numpy loads OpenBLAS,
# which otherwise starts a worker thread per CPU; set-up probes inherit it
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from tracing import PER_LAYER_UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS, Pass, drive  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5  # fresh processes whose set-up time gives setup_s
TRACE_BLOCKS = 4  # untraced/traced block pairs in a traced run
P95_SLICES = 8  # time-ordered slices of the timed operations behind op_p95_ms

# per-workload names of the operation's median and p95 latency and of the
# mean throughput, printed for reference next to the gated metrics
ALIASES = {
    "record_1h": ("record_p50_ms", "record_p95_ms", "samples_per_s"),
    "records_10s": ("record_p50_ms", "record_p95_ms", "samples_per_s"),
    "uplink": ("publish_p50_ms", "publish_p95_ms", "retrieve_records_per_s"),
    "frontend_sweep": ("measure_p50_ms", "measure_p95_ms", "metrics_per_s"),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p95_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "detect_se": "fraction",
    "detect_ppv": "fraction",
    "bpm_ok_frac": "fraction",
    "ok_frac": "fraction",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def import_package():
    if not (SRC / "ecgmon" / "__init__.py").is_file():
        print(f"perfbench: no ecgmon sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ecgmon

    if Path(ecgmon.__file__).resolve().parent != SRC / "ecgmon":
        print(f"perfbench: imported ecgmon from {ecgmon.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return ecgmon


def probe_setup(args) -> float:
    """Wall time from process start to 'ready' in a fresh set-up-only process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        print(f"perfbench: set-up probe failed (exit {code})", file=sys.stderr)
        sys.exit(1)
    return elapsed


def timed_run(args, workload, timing: Pass) -> list[float]:
    """Fill ``timing`` for ``--seconds`` in blocks with a set-up probe
    before, between and after them; return the probes' set-up times.

    The host's speed drifts over seconds, so probes spread over the run
    give a steadier median than probes taken back to back.
    """
    setup_times = [probe_setup(args)]
    blocks = SETUP_PROBES - 1
    i = 0
    for block in range(1, blocks + 1):
        i = drive(workload, timing, budget_s=args.seconds * block / blocks, start=i,
                  complete=block == blocks)
        setup_times.append(probe_setup(args))
    return setup_times


def sliced_p95(latencies_ms) -> float:
    """The median over P95_SLICES equal, time-ordered slices of the
    operations of each slice's p95: a slow stretch of the host that covers
    under half of the run does not move it."""
    slices = np.array_split(latencies_ms, min(P95_SLICES, len(latencies_ms)))
    return float(np.median([np.percentile(s, 95) for s in slices]))


def trace_replay(em, workload, tracer, iterations: int):
    """Replay iterations 0..iterations-1 twice, untraced and traced, in
    alternating blocks so that machine drift and warm-up hit both alike."""
    untraced, traced = Pass(), Pass()
    block = max(1, -(-iterations // TRACE_BLOCKS))
    for start in range(0, iterations, block):
        count = min(block, iterations - start)
        drive(workload, untraced, iterations=count, start=start)
        tracer.install(em)
        try:
            drive(workload, traced, iterations=count, start=start)
        finally:
            tracer.uninstall()
    return untraced, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    em = import_package()
    # one CPU, like the monitor's single core: the loopback HTTP round trip
    # then needs no cross-CPU wake-up, whose cost on a shared virtual
    # machine follows the host's load; set-up probes inherit the mask
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_probe:
            WORKLOADS[args.workload](em, args.seed, out_dir).setup()
            print("ready", flush=True)
            shutil.rmtree(out_dir, ignore_errors=True)
            # nothing of a probe is needed after 'ready': exit without the
            # listener's shutdown poll or the interpreter's clean-up
            os._exit(0)

        workload = WORKLOADS[args.workload](em, args.seed, out_dir)
        try:
            workload.setup()
            timing = Pass()
            if args.trace:
                drive(workload, timing, budget_s=args.seconds / 3)
                tracer = Tracer()
                untraced, traced = trace_replay(em, workload, tracer, timing.iterations)
            else:
                setup_times = timed_run(args, workload, timing)
            workload.finish()
        finally:
            workload.teardown()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    quality = workload.quality()
    problems = list(workload.problems)
    if args.trace:
        calls = tracer.calls()
        missing = [name for name in workload.expected_spans if calls[name] == 0]
        if missing:
            problems.append(f"traced run recorded no calls of: {', '.join(missing)}")
        metrics = tracer.per_layer()
        metrics["trace.overhead_s"] = traced.timed_s - untraced.timed_s
        metrics["trace.overhead_frac"] = (traced.timed_s - untraced.timed_s) / untraced.timed_s
        metrics["dsp.bpm_mae"] = quality["bpm_mae"]
        units = PER_LAYER_UNITS
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"spans written to {trace_path}")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_p95_ms": sliced_p95(timing.latencies_ms),
            "throughput_per_s": float(np.percentile(timing.rates, 5)),
            "peak_rss_mb": peak_rss_mb,
            "detect_se": quality["detect_se"],
            "detect_ppv": quality["detect_ppv"],
            "bpm_ok_frac": quality["bpm_ok_frac"],
            "ok_frac": (workload.attempted - workload.failed) / workload.attempted,
        }
        units = END_TO_END_UNITS

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"  timed iterations {timing.iterations}, {len(timing.latencies_ms)} operations timed")
    if not args.trace:
        print("  set-up probes " + ", ".join(f"{t:.4f}" for t in setup_times) + " s")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units[name]}")
    p50, p95, mean_rate = ALIASES[args.workload]
    print(f"  {p50} {np.percentile(timing.latencies_ms, 50):.6g} ms, "
          f"{p95} {sliced_p95(timing.latencies_ms):.6g} ms, "
          f"{mean_rate} {timing.work / timing.work_s:.6g} 1/s (mean)")
    score = workload.score
    print(f"  quality over {score.records} records: {score.beats} beats, {score.edges} edges, "
          f"{score.matched} matched; bpm_mae {quality['bpm_mae']:.4f} bpm; "
          f"failed_frac {workload.failed / workload.attempted:.6g} "
          f"({workload.failed}/{workload.attempted})")
    print(f"  digest sha256:{workload.digest.hexdigest()}")
    for problem in dict.fromkeys(problems):
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    print(json.dumps({
        "correct": not problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
