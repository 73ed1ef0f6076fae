"""Self-test of the benchmark itself, not of endop.

    python3 perfbench/selftest.py

Checks that
- the correctness gate is live: jobs that expect the lawful answer but run
  on ``corrupted_operad(...)`` fail, so failed_ratio rises above 0, while
  the same jobs on the lawful operads pass;
- passes of every workload under two seeds run the same job multiset and
  observe the same answers;
- the hand-reviewed numbers in expected.json match what the benchmark can
  re-derive on its own: axiom instance counts from closed forms, and GL
  commutant dimensions by elimination mod p;
- BENCHMARK.json names exactly the metrics the runner prints;
- reference seconds (hostspeed.py) grow in proportion to the work timed.

Exits 1 on the first failed check.  Takes about a minute.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import replace
from itertools import product
from math import comb, factorial
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        sys.exit(1)


# -- the gate -----------------------------------------------------------------

def gate_is_live():
    S = workloads.Setup()
    lawful = [
        workloads._axiom_job(S, S.operads["perm"], "perm", (5, 0)),
        workloads._axiom_job(S, S.operads["word"], "word", (2, 2)),
    ]
    failures = run.run_pass(lawful, random.Random(0), 0).failures
    check(not failures, "lawful-answer jobs pass on the lawful operads")
    corrupted = {"perm": S.operads["perm-compose"], "word": S.operads["word-reduce"]}
    swapped = [
        replace(job, call=lambda P=corrupted[family], b=bounds: S.endop.check_operad_axioms(P, *b))
        for job, family, bounds in zip(lawful, ("perm", "word"), ((5, 0), (2, 2)))
    ]
    p = run.run_pass(swapped, random.Random(0), 0)
    failures = p.failures
    ratio = len(failures) / len(p.wall)
    check(ratio > 0, f"the same jobs on corrupted operads give failed_ratio {ratio} > 0")
    check({name for name, _ in failures} == {job.name for job in lawful},
          "each corrupted operad is caught")


# -- seeds --------------------------------------------------------------------

def seeds_agree(seed_a=1, seed_b=2):
    """The job list takes no seed; the run seed only orders the jobs."""
    for workload in workloads.WORKLOADS:
        jobs = workloads.build(workload)
        a = run.run_pass(jobs, random.Random(seed_a), 0)
        b = run.run_pass(jobs, random.Random(seed_b), 0)
        check(sorted(a.wall) == sorted(b.wall) == sorted(j.name for j in jobs),
              f"{workload}: seeds {seed_a} and {seed_b} run the same job multiset")
        check(not a.failures and not b.failures and a.observed == b.observed,
              f"{workload}: both seeds pass with the same observed answers")


# -- expected.json, re-derived -------------------------------------------------

def axiom_instances(els, small):
    """Instance counts of check_operad_axioms from the element count per
    arity: els up to size_bound, small up to triple_size_bound."""
    total = sum(small.values())
    pos = {n: c for n, c in small.items() if n >= 1}
    return {
        "unit-left": sum(els.values()),
        "unit-right": sum(n * c for n, c in els.items()),
        "sequential-associativity":
            sum(m * c for m, c in pos.items()) ** 2 * total,
        "parallel-commutation":
            sum(comb(m, 2) * c for m, c in pos.items()) * sum(pos.values()) * total,
        "symmetric-action": sum(c * (1 + factorial(n) ** 2) for n, c in els.items() if n >= 1),
        "equivariance": sum(
            cm * cn * (factorial(m) * m + m * factorial(n))
            for m, cm in pos.items()
            for n, cn in pos.items()
        ),
    }


def reduced_words(n, max_len):
    return 1 + sum(2 * n * (2 * n - 1) ** (k - 1) for k in range(1, max_len + 1)) if n else 1


def instance_counts_match(expected):
    derived = {
        "word 3,3,2": axiom_instances(
            {n: reduced_words(n, 3) for n in range(4)}, {n: reduced_words(n, 2) for n in range(4)}
        ),
        "word 2,2": axiom_instances(*[{n: reduced_words(n, 2) for n in range(3)}] * 2),
        "perm 5,0": axiom_instances(*[{n: n for n in range(1, 6)}] * 2),
        "qpoly 3,1": axiom_instances(*[{n: 2 ** n for n in range(1, 4)}] * 2),
    }
    check(derived == expected["axiom_instances"], "axiom instance counts match their closed forms")


def rank_mod_p(rows, p):
    pivots = {}  # pivot column -> row with 1 there and 0 before it
    for row in rows:
        row = [x % p for x in row]
        for c in sorted(pivots):
            if row[c]:
                f = row[c]
                row = [(x - f * y) % p for x, y in zip(row, pivots[c])]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is not None:
            inv = pow(row[lead], -1, p)
            pivots[lead] = [(x * inv) % p for x in row]
    return len(pivots)


def kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def gl_generators(p, d):
    """Transvections I + E_ij and diag(g, 1, .., 1) for a generator g of
    F_p^*; together they generate GL_d(F_p)."""
    ident = [[int(i == j) for j in range(d)] for i in range(d)]
    gens = []
    for i, j in product(range(d), repeat=2):
        if i != j:
            t = [row[:] for row in ident]
            t[i][j] = 1
            gens.append(t)
    g = next(g for g in range(1, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
    diag = [row[:] for row in ident]
    diag[0][0] = g
    gens.append(diag)
    return gens


def commutant_dim(p, d, n):
    """dim of the maps X on (F_p^d)^(tensor n) with A X = X A for every
    generator's tensor power A."""
    rows = []
    for g in gl_generators(p, d):
        A = [[1]]
        for _ in range(n):
            A = kron(A, g)
        D = len(A)
        for i, j in product(range(D), repeat=2):
            row = [0] * (D * D)
            for k in range(D):
                row[k * D + j] += A[i][k]
                row[i * D + k] -= A[k][j]
            rows.append(row)
    return D * D - rank_mod_p(rows, p)


def commutant_dims_match(expected):
    derived = {
        f"GL{d}(F{p}) n={n}": commutant_dim(p, d, n)
        for p, d, n in ((2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2))
    }
    check(derived == expected["gl_commutant_dims"], f"GL commutant dimensions {derived} match elimination mod p")


def oracles_hold():
    check([workloads.schur_weyl_commutant_dim(d, n) for d, n in ((3, 3), (4, 2), (2, 4))] == [6, 2, 14],
          "Schur-Weyl dimensions are 3!, 2! and 14")
    check([workloads.gl_order(2, 2), workloads.gl_order(2, 3), workloads.gl_order(3, 2)] == [6, 168, 48],
          "|GL2(F2)|, |GL3(F2)|, |GL2(F3)| are 6, 168, 48")


# -- reference seconds ---------------------------------------------------------

def reference_seconds_scale():
    """Twice the work reads as about twice the reference seconds."""

    def spin(n):
        s = 0
        for i in range(n):
            s += i * i % 7
        return s

    probe = hostspeed.SpeedProbe()
    clock = time.perf_counter
    ratios = []
    with probe:
        for _ in range(5):
            t0 = clock()
            spin(400_000)
            t1 = clock()
            spin(800_000)
            t2 = clock()
            ratios.append(probe.reference_seconds(t1, t2) / probe.reference_seconds(t0, t1))
    ratio = sorted(ratios)[2]
    check(1.7 < ratio < 2.3, f"twice the work takes {ratio:.3f} times the reference seconds")


# -- BENCHMARK.json --------------------------------------------------------------

def manifest_matches():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
          "BENCHMARK.json end_to_end metrics are the ones the runner prints untraced")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.per_layer_metrics(),
          "BENCHMARK.json per_layer metrics are the ones the runner prints traced")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads are the runner's")


def main():
    expected = workloads.EXPECTED
    manifest_matches()
    reference_seconds_scale()
    oracles_hold()
    instance_counts_match(expected)
    commutant_dims_match(expected)
    gate_is_live()
    seeds_agree()
    print("selftest passed")


if __name__ == "__main__":
    main()
