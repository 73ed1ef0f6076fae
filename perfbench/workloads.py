"""The benchmark's job lists, each job paired with the answer the benchmark
expects from it.

A job is one call into the public library.  Its answer comes either from a
few lines of the benchmark's own code (scalars, projections, left
multiplications, q-power exponent sets, Schur-Weyl dimensions, group orders,
verdicts per operad) or, where no short independent computation exists,
from the hand-reviewed ``expected.json`` beside this file (axiom instance
counts, first witnesses of the fault operads, survivor counts of group
maps, GL commutant dimensions).

The job set and its inputs, and so the work per pass, do not depend on the
seed.  The seed only shuffles job order within a pass (done by the runner).

``endop`` is imported by :class:`Setup`, so that importing this module
costs nothing the library's own set-up would not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from itertools import permutations, product
from pathlib import Path
from typing import Callable

WORKLOADS = ("word-axioms", "enumerate", "fields")

EXPECTED_PATH = Path(__file__).with_name("expected.json")
EXPECTED = json.loads(EXPECTED_PATH.read_text())


@dataclass(frozen=True)
class Job:
    """One library call; correct when ``observe(result) == expected``."""

    name: str
    call: Callable[[], object]
    observe: Callable[[object], dict]
    expected: dict


# -- the benchmark's own answers ---------------------------------------------

def projections(n: int) -> list:
    """The n coordinate projections [n]^n -> [n] as value tables."""
    tuples = list(product(range(n), repeat=n))
    return [tuple(args[v] for args in tuples) for v in range(n)]


def left_multiplications(table) -> list:
    """x -> a.x for every element a of a monoid given by its table."""
    return sorted({tuple(row) for row in table})


def q_power_exponents(q: int, n: int, max_total_deg: int):
    """Split the exponent vectors of total degree 1..max_total_deg into those
    whose every entry is a power of q and the rest."""
    powers = set()
    p = 1
    while p <= max_total_deg:
        powers.add(p)
        p *= q
    good, bad = [], []
    for exp in product(range(max_total_deg + 1), repeat=n):
        if 1 <= sum(exp) <= max_total_deg:
            (good if all(e in powers for e in exp) else bad).append(exp)
    return good, bad


def _longest_decreasing(seq) -> int:
    best = []
    for i, x in enumerate(seq):
        best.append(1 + max((best[j] for j in range(i) if seq[j] > x), default=0))
    return max(best, default=0)


def schur_weyl_commutant_dim(d: int, n: int) -> int:
    """dim End_GL(V)(V^(tensor n)) over Q with dim V = d: by Schur-Weyl
    duality and the RSK correspondence, the number of permutations of n
    letters with no decreasing subsequence longer than d (n! when d >= n)."""
    return sum(1 for p in permutations(range(n)) if _longest_decreasing(p) <= d)


def gl_order(q: int, d: int) -> int:
    order = 1
    for i in range(d):
        order *= q ** d - q ** i
    return order


# -- what the benchmark reads off each result --------------------------------

def _axioms(rep) -> dict:
    first = rep.first_failure()
    return {
        "passed": rep.passed,
        "instances": {c.name: c.instances for c in rep.checks},
        "first_failure": None if first is None else [first.name, first.witness],
    }


def _module_over_ring(rep) -> dict:
    return {
        "count": rep.extra["transformation_count"],
        "complete": rep.complete,
        "survivors": sorted(phi.data for phi in rep.survivors),
    }


def _is_nonzero_scalar_matrix(mat) -> bool:
    zero = mat.domain.zero_raw
    diag = mat.data[0][0]
    return diag != zero and all(
        v == (diag if i == j else zero)
        for i, row in enumerate(mat.data)
        for j, v in enumerate(row)
    )


def _module_over_field(rep) -> dict:
    return {
        "count": rep.extra["transformation_count"],
        "dimension": rep.extra["dimension"],
        "scalar_basis": all(_is_nonzero_scalar_matrix(m) for m in rep.survivors),
    }


def _graded_over_ring(rep) -> dict:
    return {
        "count": rep.extra["transformation_count"],
        "survivors": sorted(tuple(vec) for vec in rep.survivors),
    }


def _graded_over_field(rep, zero) -> dict:
    # a basis vector of degree-wise scalars is supported on a single cell
    return {
        "count": rep.extra["transformation_count"],
        "dimension": rep.extra["dimension"],
        "single_cell_basis": all(
            sum(1 for v in vec if v != zero) == 1 for vec in rep.survivors
        ),
    }


def _survivor_tables(rep) -> dict:
    return {"survivors": sorted(s.values for s in rep.survivors)}


def _monoid(rep) -> dict:
    return {
        "isomorphic": rep.extra["isomorphic"],
        "count": rep.count,
        "survivors": sorted(s.values for s in rep.survivors),
    }


def _group_maps(rep) -> dict:
    return {
        "survivors": rep.count,
        "word_images": rep.extra["word_image_count"],
        "surplus": rep.extra["surplus"],
    }


def _schur_weyl(result) -> dict:
    dim, stable, _basis = result
    return {"dimension": dim, "stable": stable}


def _gl_commutant(result) -> dict:
    group, basis = result
    return {"group_order": len(group), "dimension": basis.dimension}


def _multilinear(result) -> dict:
    good, bad = result
    return {
        "good": sorted(next(iter(m.terms)) for m in good),
        "bad": sorted(next(iter(m.terms)) for m in bad),
    }


# -- the job lists -----------------------------------------------------------

def _axiom_job(S, P, family, bounds, lawful=True):
    """Axiom check of operad P at (arity_bound, size_bound[, triple_bound]).

    Instance counts depend only on the element counts, so the lawful and the
    corrupted operad of one family share an entry of ``expected.json``.
    """
    kb = ",".join(map(str, bounds))
    kwargs = {} if len(bounds) == 2 else {"triple_size_bound": bounds[2]}
    expected = {
        "passed": lawful,
        "instances": EXPECTED["axiom_instances"][f"{family} {kb}"],
        "first_failure": None if lawful else EXPECTED["first_failures"][f"{P.name} {kb}"],
    }
    return Job(
        f"axioms {P.name} {kb}",
        lambda: S.endop.check_operad_axioms(P, *bounds[:2], **kwargs),
        _axioms,
        expected,
    )


def _graded_job(S, R, window, arity):
    """graded_central over R: one scalar per degree -window..window in arity
    one and only the zero map otherwise.  Over a field the report carries a
    basis of the solution space; over Z/m it lists every survivor."""
    dim = 2 * window + 1 if arity == 1 else 0
    if R.is_field:
        observe = partial(_graded_over_field, zero=R.zero_raw)
        expected = {"count": R.size ** dim, "dimension": dim, "single_cell_basis": True}
    else:  # the job lists use Z/m in arity one only: every survivor is listed
        observe = _graded_over_ring
        survivors = sorted(product(range(R.size), repeat=dim))
        expected = {"count": len(survivors), "survivors": survivors}
    return Job(
        f"graded_central {R} window {window} arity {arity}",
        lambda: S.naturality.graded_central(R, window, arity),
        observe,
        expected,
    )


def _word_axioms(S):
    return [
        _axiom_job(S, S.operads["word"], "word", (3, 3, 2)),
        _axiom_job(S, S.operads["word-reduce"], "word", (2, 2), lawful=False),
    ]


def _enumerate(S):
    nat = S.naturality
    jobs = []
    for m, arities in ((4, (0, 1, 2)), (6, (1,)), (8, (1,)), (9, (1,))):
        R = S.endop.IntegersMod(m)
        for a in arities:
            if a == 1:  # the scalars
                survivors = [((v, 0), (0, v)) for v in range(m)]
            else:  # only the zero map R^(2^a) -> R^2
                survivors = [((0,) * 2 ** a,) * 2]
            jobs.append(Job(
                f"central_module Z/{m} rank 2 arity {a}",
                lambda R=R, a=a: nat.central_module(R, 2, a),
                _module_over_ring,
                # Z/9 has too many endomorphisms to enumerate, so a
                # generator family stands in and the report says so
                {"count": len(survivors), "complete": m != 9, "survivors": survivors},
            ))
    for m, window, arities in ((4, 2, (1,)), (2, 1, (0, 1, 2))):
        for a in arities:
            jobs.append(_graded_job(S, S.endop.IntegersMod(m), window, a))
    for n in range(3):
        jobs.append(Job(
            f"central_set_bruteforce {n}",
            lambda n=n: nat.central_set_bruteforce(n),
            _survivor_tables,
            {"survivors": projections(n)},
        ))
    jobs.append(Job(
        "central_set_determined 4",
        lambda: nat.central_set_determined(4),
        _survivor_tables,
        {"survivors": projections(4)},
    ))
    for name, M in S.monoids.items():
        jobs.append(Job(
            f"monoid_reconstruction {name}",
            lambda M=M: nat.monoid_reconstruction(M),
            _monoid,
            {"isomorphic": True, "count": M.size, "survivors": left_multiplications(M.table)},
        ))
    for name, a in (("s3", 1), ("z6", 1), ("z3", 2)):
        G = S.monoids[name]
        jobs.append(Job(
            f"finite_group_natural_maps {name} arity {a}",
            lambda G=G, a=a: nat.finite_group_natural_maps(G, a),
            _group_maps,
            EXPECTED["group_maps"][f"{name} arity {a}"],
        ))
    jobs.append(_axiom_job(S, S.operads["perm"], "perm", (5, 0)))
    jobs.append(_axiom_job(S, S.operads["perm-compose"], "perm", (5, 0), lawful=False))
    return jobs


def _fields(S):
    nat, linalg = S.naturality, S.linalg
    jobs = []
    for q in (2, 3, 4, 5):
        F = S.fields[q]
        for a in range(4):
            dim = 1 if a == 1 else 0  # the scalars in arity one, else nothing
            jobs.append(Job(
                f"central_module F{q} rank 2 arity {a}",
                lambda F=F, a=a: nat.central_module(F, 2, a),
                _module_over_field,
                {"count": q ** dim, "dimension": dim, "scalar_basis": True},
            ))
    for q in (2, 3):
        for a in (1, 2):
            jobs.append(_graded_job(S, S.fields[q], 2, a))
    # the library's default generator seed, whatever the run seed: how long
    # elimination over Q takes depends on the generators (2.6-4.3 s for
    # (3,3) across generator seeds), and this job is the slowest of the pass
    for d, n in ((3, 3), (4, 2), (2, 4)):
        jobs.append(Job(
            f"schur_weyl_dimension d={d} n={n}",
            lambda d=d, n=n: linalg.schur_weyl_dimension(d, n),
            _schur_weyl,
            {"dimension": schur_weyl_commutant_dim(d, n), "stable": True},
        ))
    for q, d, n in ((2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2)):

        def gl_commutant(F=S.fields[q], d=d, n=n):
            group = linalg.all_invertible_matrices(F, d)
            return group, linalg.equivariant_homs(group, n)

        key = f"GL{d}(F{q}) n={n}"
        jobs.append(Job(
            f"equivariant_homs {key}",
            gl_commutant,
            _gl_commutant,
            {"group_order": gl_order(q, d), "dimension": EXPECTED["gl_commutant_dims"][key]},
        ))
    for q in (2, 3, 4):
        jobs.append(_axiom_job(S, S.operads[f"qpoly-F{q}"], "qpoly", (3, 1)))
    for q, n, maxdeg in ((2, 3, 4), (3, 2, 9), (4, 2, 8), (8, 1, 16)):
        good, bad = q_power_exponents(q, n, maxdeg)
        jobs.append(Job(
            f"characterize_multilinear F{q} n={n} deg<={maxdeg}",
            lambda F=S.fields[q], n=n, maxdeg=maxdeg: S.endop.characterize_multilinear(n, maxdeg, F),
            _multilinear,
            {"good": good, "bad": bad},
        ))
    return jobs


_JOB_LISTS = {"word-axioms": _word_axioms, "enumerate": _enumerate, "fields": _fields}


class Setup:
    """The library and the fields, monoids and operads the jobs share: what
    is built before the first job, and what setup_s times.  ``wrap_operad``,
    when given, is applied to every operad descriptor."""

    def __init__(self, wrap_operad=None):
        import endop
        from endop import faults, linalg, naturality

        wrap = wrap_operad or (lambda P: P)
        self.endop, self.linalg, self.naturality = endop, linalg, naturality
        self.fields = {q: endop.finite_field(q) for q in (2, 3, 4, 5, 8)}
        self.monoids = {name: make() for name, make in naturality.BUILTIN_TABLES.items()}
        self.operads = {
            "word": wrap(endop.word_operad()),
            "perm": wrap(endop.perm_operad()),
            **{f"qpoly-F{q}": wrap(endop.qpoly_operad(self.fields[q])) for q in (2, 3, 4)},
            **{fault: wrap(faults.corrupted_operad(fault)) for fault in faults.FAULT_NAMES},
        }


def build(workload: str, setup: Setup | None = None) -> list:
    """The workload's job list on ``setup`` (a fresh one by default).

    Jobs look library functions up on their modules at call time, so that
    wrappers installed on those modules see every call.
    """
    return _JOB_LISTS[workload](setup or Setup())
