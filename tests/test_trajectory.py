"""bench/trajectory.py --compare on two synthetic BENCH files."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("trajectory", ROOT / "bench" / "trajectory.py")
trajectory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trajectory)


def bench_file(path, medians, failed=0):
    """A BENCH document whose every workload has the given metric medians."""
    workloads = {
        w: {
            **{m: {"unit": "s", "median": v, "q1": v, "q3": v, "iqr": 0.0, "values": [v]}
               for m, v in medians.items()},
            "failed": [failed],
        }
        for w in trajectory.WORKLOADS
    }
    path.write_text(json.dumps({"commit": "0" * 40, "workloads": workloads}))
    return path


OLD = {"pass_s": 2.0, "first_pass_s": 2.0, "max_job_s": 1.0, "setup_s": 0.05,
       "peak_rss_mib": 20.0}


def test_compare_within_bounds_exits_zero(tmp_path, capsys):
    old = bench_file(tmp_path / "old.json", OLD)
    # pass_s 40 % faster; peak RSS 9 % larger, inside its 10 % bound
    new = bench_file(tmp_path / "new.json", {**OLD, "pass_s": 1.2, "peak_rss_mib": 21.8})
    assert trajectory.main(["--compare", str(old), str(new)]) == 0
    out = capsys.readouterr().out
    assert "WORSE" not in out and "MORE FAILURES" not in out
    lines = [line.split() for line in out.splitlines()[1:]]
    assert ["enumerate", "pass_s", "2.000", "1.200", "-40.0%"] in lines
    assert len(lines) == 3 * 6  # five metrics and the failures, per workload


def test_compare_marks_metrics_worse_than_their_bound(tmp_path, capsys):
    old = bench_file(tmp_path / "old.json", OLD)
    new = bench_file(tmp_path / "new.json", {**OLD, "setup_s": 0.07, "peak_rss_mib": 22.2},
                     failed=1)
    assert trajectory.main(["--compare", str(old), str(new)]) == 1
    out = capsys.readouterr().out.splitlines()
    marked = [line.split()[:2] for line in out if "WORSE" in line or "MORE FAILURES" in line]
    assert marked == [
        [w, m] for w in trajectory.WORKLOADS for m in ("setup_s", "peak_rss_mib", "failed")
    ]
    assert any(line.endswith("+40.0%  WORSE than its bound of 25%") for line in out)
