"""Record the benchmark of one or more checkouts as BENCH_<label>.json, or
compare two such files.

    python3 bench/trajectory.py --seeds 3 [--repo DIR ...] [--out-dir DIR]
    python3 bench/trajectory.py --compare OLD.json NEW.json

Runs ``perfbench/run.py --seconds 44 --trace 0`` of every checkout
(``--repo``, by default the one holding this script) for seeds 1..k and
every workload: the run length and workloads of ``BENCHMARK.json``, so that
every file is comparable with the others and with its bounds.
The runs are interleaved: seed by seed, within a seed workload by workload,
and within a workload checkout by checkout, with the checkout order
reversed on every other seed.  A slow spell of the host then falls on every
checkout alike.

Each checkout gets one file with, per workload, the median, the quartiles
and the interquartile range of the five end-to-end metrics over the seeds,
every value, and the ``failed`` count of every run; and with the commit,
whether tracked files differ from it, the Python version and
``os.cpu_count()``.  The label is the short commit, with ``-dirty``
appended when tracked files differ from it: a change measured before it is
committed is labelled by its parent.

``--compare`` prints, per workload and end-to-end metric, the median of
both files and the relative change, and marks every metric that is worse
than its ``BENCHMARK.json`` bound, and every workload whose runs failed more
often; it exits 1 if anything is marked.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
WORKLOADS = ("word-axioms", "enumerate", "fields")
SECONDS = 44
METRICS = ("pass_s", "first_pass_s", "max_job_s", "setup_s", "peak_rss_mib")


def git(repo, *args):
    return subprocess.run(
        ["git", "-C", str(repo), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def describe(repo):
    """(full commit, whether tracked files differ from it, default label)."""
    commit = git(repo, "rev-parse", "HEAD")
    dirty = bool(git(repo, "status", "--porcelain", "--untracked-files=no"))
    return commit, dirty, git(repo, "rev-parse", "--short", "HEAD") + ("-dirty" if dirty else "")


def run_once(repo, workload, seed):
    """The result object that perfbench/run.py prints on its last line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=repo, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{repo}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    """Median, quartiles and interquartile range of a list of numbers."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "values": values,
    }


def compare(old_path, new_path):
    """Print the comparison table of two BENCH files; 1 if anything is worse
    than its bound, else 0."""
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    bounds = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    print(f"{'workload':<12} {'metric':<13} {'old':>9} {'new':>9} {'change':>8}")
    worse = 0
    for workload in WORKLOADS:
        before, after = old["workloads"][workload], new["workloads"][workload]
        for metric, spec in bounds.items():
            a, b = before[metric]["median"], after[metric]["median"]
            change = (b - a) / a
            loss = change if spec["better"] == "lower" else -change
            mark = f"  WORSE than its bound of {spec['bound']:.0%}" if loss > spec["bound"] else ""
            worse += bool(mark)
            print(f"{workload:<12} {metric:<13} {a:>9.3f} {b:>9.3f} {change:>+8.1%}{mark}")
        failed_a, failed_b = (statistics.mean(w["failed"]) for w in (before, after))
        mark = "  MORE FAILURES" if failed_b > failed_a else ""
        worse += bool(mark)
        print(f"{workload:<12} {'failed (mean)':<13} {failed_a:>9.3f} {failed_b:>9.3f}{mark}")
    return 1 if worse else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, help="k: seeds 1..k")
    ap.add_argument("--repo", action="append", type=Path, help="a checkout (repeatable)")
    ap.add_argument("--out-dir", type=Path, default=HERE)
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    repos = [r.resolve() for r in args.repo or [HERE.parent]]
    if args.seeds is None or args.seeds < 1:
        ap.error("--seeds must be at least 1")

    runs = {repo: {w: [] for w in WORKLOADS} for repo in repos}
    for seed in range(1, args.seeds + 1):
        for workload in WORKLOADS:
            for repo in repos if seed % 2 else repos[::-1]:
                result = run_once(repo, workload, seed)
                runs[repo][workload].append(result)
                print(f"{repo.name} {workload} seed {seed}: pass_s "
                      f"{result['metrics']['pass_s']['value']:.3f} failed {result['failed']}",
                      file=sys.stderr)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for repo in repos:
        commit, dirty, label = describe(repo)
        doc = {
            "commit": commit,
            "dirty": dirty,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "seconds": SECONDS,
            "seeds": list(range(1, args.seeds + 1)),
            "workloads": {},
        }
        for workload, results in runs[repo].items():
            entry = doc["workloads"][workload] = {}
            for m in METRICS:
                entry[m] = {"unit": results[0]["metrics"][m]["unit"]}
                entry[m].update(summary([r["metrics"][m]["value"] for r in results]))
            entry["failed"] = [r["failed"] for r in results]
        path = args.out_dir / f"BENCH_{label}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
