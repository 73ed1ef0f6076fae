"""endop benchmark runner: runs one workload's job list in passes, checks
every answer, and prints the metrics as one JSON object on the last line.

    python3 perfbench/run.py --workload word-axioms --seed 1 --seconds 44 --trace 0

Single process, single thread, closed loop: each job runs after the
previous one has returned.  Timings are in reference seconds, wall seconds
scaled by the host speed sampled while they ran (hostspeed.py).
``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` reports the per-layer metrics of a run whose library calls go
through the wrappers of ``tracing.py``.  The run's
metadata, the spread of every metric and (when traced) the spans are also
written under ``.perfbench_out/`` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# cold set-ups timed in fresh processes before and after every pass; their
# median is setup_s
SETUPS_PER_PASS = 2
# no pass starts once this much of a run has gone, whatever --seconds says
HARD_STOP_S = 120.0

END_TO_END = (
    ("pass_s", "s"),
    ("first_pass_s", "s"),
    ("max_job_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def parse_args(argv):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def git_commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_in_fresh_process():
    """Seconds to import endop and build the shared objects, in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.split()[-1])


@dataclass
class Pass:
    """One pass over a workload's jobs."""

    wall: dict  # job -> wall seconds of its library call
    ref: dict  # job -> the same call in reference seconds; empty without a probe
    observed: dict  # job -> the answer read off its result
    failures: list  # (job, reason) for wrong answers and raised errors


def run_pass(jobs, rng, pass_id, tracer=None, probe=None):
    """Run every job once in a seeded order.

    Only the library calls are timed; reading and checking their answers is
    not.  With a ``hostspeed.SpeedProbe`` the host's speed is sampled during
    the pass and every call is also given in reference seconds.
    """
    order = list(jobs)
    rng.shuffle(order)
    gc.collect()
    if tracer is not None:
        tracer.reset(pass_id)
    clock = time.perf_counter
    spans, observed, failures = {}, {}, []
    with probe or contextlib.nullcontext():
        for job in order:
            t0 = clock()
            try:
                if tracer is None:
                    result = job.call()
                else:
                    with tracer.job(job.name):
                        result = job.call()
            except Exception as exc:  # a raising job is a failed job
                spans[job.name] = (t0, clock())
                observed[job.name] = {"raised": repr(exc)}
                failures.append((job.name, f"raised {exc!r}"))
                continue
            spans[job.name] = (t0, clock())
            try:
                got = job.observe(result)
            except Exception as exc:  # a malformed answer is a wrong answer
                got = {"unreadable": repr(exc)}
            del result
            observed[job.name] = got
            if got != job.expected:
                failures.append((job.name, f"got {got!r:.300}, expected {job.expected!r:.300}"))
    wall = {name: t1 - t0 for name, (t0, t1) in spans.items()}
    ref = {} if probe is None else {
        name: probe.reference_seconds(t0, t1) for name, (t0, t1) in spans.items()
    }
    return Pass(wall, ref, observed, failures)


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def untraced(args, jobs, rng, meta):
    import hostspeed

    probe = hostspeed.SpeedProbe()
    start = time.perf_counter()
    setups, passes, failures, attempted = [], [], [], 0
    while True:
        # cold set-ups are spread over the run, between passes, so that
        # their median does not rest on one moment of a noisy machine
        setups += [setup_in_fresh_process() for _ in range(SETUPS_PER_PASS)]
        elapsed = time.perf_counter() - start
        if len(passes) >= 2:
            typical = statistics.median(sum(p.wall.values()) for p in passes)
            if elapsed + typical > min(args.seconds, HARD_STOP_S):
                break
        p = run_pass(jobs, rng, len(passes), probe=probe)
        passes.append(p)
        failures += p.failures
        attempted += len(p.wall)
    warm = [sum(p.ref.values()) for p in passes[1:]]
    max_jobs = [max(p.ref.values()) for p in passes[1:]]
    metrics = {
        "pass_s": statistics.median(warm),
        "first_pass_s": sum(passes[0].ref.values()),
        "max_job_s": statistics.median(max_jobs),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    meta["samples"] = {
        "pass_s": {"n": len(warm), "quartiles": quartiles(warm), "values": warm},
        "max_job_s": {"n": len(max_jobs), "values": max_jobs},
        "setup_s": {"n": len(setups), "quartiles": quartiles(setups), "values": setups},
        "wall_pass_s": [sum(p.wall.values()) for p in passes],
        "speed_samples": len(probe.kernel_s),
    }
    return metrics, attempted, failures


def traced(args, jobs, rng, meta):
    """One untraced reference pass, then traced passes on rebuilt jobs."""
    import hostspeed
    import tracing
    import workloads

    probe = hostspeed.SpeedProbe()
    start = time.perf_counter()
    first = run_pass(jobs, rng, "untraced", probe=probe)
    untraced_s = sum(first.ref.values())
    failures = list(first.failures)
    attempted = len(first.wall)

    tracer = tracing.Tracer()
    tracer.install()
    jobs = workloads.build(args.workload, workloads.Setup(tracer.wrap_operad))
    snaps = []
    while True:
        elapsed = time.perf_counter() - start
        if snaps:
            typical = statistics.median(s["wall_pass_s"] for s in snaps)
            if elapsed + typical > min(args.seconds, HARD_STOP_S):
                break
        p = run_pass(jobs, rng, len(snaps), tracer, probe)
        attempted += len(p.wall)
        failures += p.failures
        failing = {name for name, _why in p.failures}
        for name, got in p.observed.items():
            if got != first.observed[name] and name not in failing:
                failures.append((name, "traced answer differs from the untraced one"))
        # self times are wall seconds, so what they leave unattributed is too
        snap = tracer.snapshot(sum(p.wall.values()))
        snap["wall_pass_s"] = sum(p.wall.values())
        snap["pass_s"] = sum(p.ref.values())
        snaps.append(snap)

    metrics = {}
    for name, _unit, _better in tracing.per_layer_metrics():
        if name in snaps[0]:
            metrics[name] = statistics.median(s[name] for s in snaps)
    traced_s = statistics.median(s["pass_s"] for s in snaps)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    metrics["failed_ratio"] = len(failures) / attempted
    meta["samples"] = {
        "untraced_pass_s": untraced_s,
        "traced_pass_s": {"n": len(snaps), "values": [s["pass_s"] for s in snaps]},
    }
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json", meta, snaps)
    return metrics, attempted, failures


def main(argv=None):
    if not (SRC / "endop" / "__init__.py").is_file():
        print(f"perfbench: no endop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    rng = random.Random(args.seed)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
    }
    import tracing
    import workloads

    t0 = time.perf_counter()
    setup = workloads.Setup()
    meta["setup_in_process_s"] = time.perf_counter() - t0
    endop_file = Path(setup.endop.__file__).resolve()
    if endop_file.parent != SRC / "endop":
        print(f"perfbench: endop imported from {endop_file}, not {SRC}", file=sys.stderr)
        return 2

    jobs = workloads.build(args.workload, setup)
    if args.trace:
        metrics, attempted, failures = traced(args, jobs, rng, meta)
        units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
    else:
        metrics, attempted, failures = untraced(args, jobs, rng, meta)
        units = dict(END_TO_END)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    meta["failed_ratio"] = len(failures) / attempted
    meta["failures"] = [f"{name}: {why}" for name, why in failures[:20]]
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"meta": meta, "result": result}, indent=1))

    for name, why in failures[:20]:
        print(f"FAILED {name}: {why}")
    for name, m in result["metrics"].items():
        print(f"{name:<52} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
