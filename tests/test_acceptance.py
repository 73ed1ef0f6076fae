"""The acceptance suite: one test per headline criterion, each asserted at
exact equality and within its time budget, printing one PASS line per
criterion (run pytest with -s to see them).

The heavy computations run once through acceptance.run_all_checks(); each
criterion test additionally pins its own frozen expected values where that
is cheap to do directly.
"""

import copy
import json
import time
from itertools import product
from pathlib import Path

import pytest

from endop import acceptance, cli
from endop.faults import corrupted_operad
from endop.linalg import all_invertible_matrices, equivariant_homs, schur_weyl_dimension
from endop.naturality import (
    central_module,
    central_set_bruteforce,
    central_set_determined,
    graded_central,
    monoid_reconstruction,
    small_monoids,
    symmetric_group_3,
)
from endop.operad_core import PermElement, check_operad_axioms, perm_compose
from endop.qpoly_operad import QPolynomial, characterize_multilinear, qpoly_compose
from endop.scalars import IntegersMod, finite_field


@pytest.fixture(scope="session")
def suite():
    t0 = time.perf_counter()
    result = acceptance.run_all_checks()
    result["total_s"] = time.perf_counter() - t0
    return result


def record_of(suite, name):
    for rec in suite["checks"]:
        if rec["name"] == name:
            return rec
    raise KeyError(name)


def announce(num, name, rec, budget_ms):
    status = "PASS" if rec["pass"] else "FAIL"
    print(f"criterion {num} ({name}): {status} in {rec['elapsed_ms']:.0f} ms")
    assert rec["pass"], rec.get("witness")
    assert rec["elapsed_ms"] < budget_ms, f"{name} exceeded {budget_ms} ms"


def test_criterion_1_central_set_of_sets(suite):
    rec = record_of(suite, "central-set")
    # frozen values, independently: the two binary projections
    r = central_set_bruteforce(2)
    assert {s.values for s in r.survivors} == {(0, 0, 1, 1), (0, 1, 0, 1)}
    assert central_set_bruteforce(0).count == 0
    assert central_set_bruteforce(1).count == 1
    assert central_set_determined(3).count == 3
    announce(1, "central operad of sets", rec, 1000)


def test_criterion_2_perm_relations(suite):
    rec = record_of(suite, "perm-relations")
    p1 = PermElement(2, 1)
    assert (
        perm_compose(p1, 1, p1)
        == perm_compose(p1, 2, p1)
        == perm_compose(p1, 2, PermElement(2, 2))
        == PermElement(3, 1)
    )
    announce(2, "projection relations and axioms", rec, 1000)


def test_criterion_3_central_operad_of_modules(suite):
    rec = record_of(suite, "central-module")
    announce(3, "central operad of R-modules", rec, 5000)


def test_criterion_4_graded_central(suite):
    rec = record_of(suite, "graded-central")
    r = graded_central(IntegersMod(2), 1, 1)
    assert r.extra["transformation_count"] == 2 ** 3
    announce(4, "graded central operad", rec, 2000)


def test_criterion_5_monoid_reconstruction(suite):
    rec = record_of(suite, "monoid-reconstruction")
    names = [M.name for M in small_monoids()]
    assert len(names) == 10  # all monoids of order <= 3 up to isomorphism
    announce(5, "monoid reconstruction", rec, 5000)


def test_criterion_6_word_operad(suite):
    rec = record_of(suite, "word-operad")
    announce(6, "word operad", rec, 10000)
    # 248 + 674 + 1,350,000 + 453,120 + 7,198 + 82,751 axiom instances
    assert rec["detail"].startswith("axioms green on 1893991 instances;")


def test_criterion_7_qpoly_operad(suite):
    rec = record_of(suite, "qpoly-operad")
    # the headline relation, directly
    for q in (2, 3, 4):
        F = finite_field(q)
        assert qpoly_compose(
            QPolynomial.monomial(F, (q,)), 1, QPolynomial.monomial(F, (1, 1))
        ) == QPolynomial.monomial(F, (q, q))
    good, _ = characterize_multilinear(1, 4, finite_field(2))
    assert {str(m) for m in good} == {"X1", "X1^2", "X1^4"}
    good, _ = characterize_multilinear(1, 4, finite_field(4))
    assert {str(m) for m in good} == {"X1", "X1^4"}
    announce(7, "q-power polynomial operad", rec, 10000)


def test_criterion_8_commutant_dimensions(suite):
    rec = record_of(suite, "schur-weyl")
    announce(8, "commutant dimensions", rec, 20000)


def test_criterion_9_negative_controls(suite):
    rec = record_of(suite, "negative-controls")
    announce(9, "negative controls", rec, 1000)


def test_whole_suite_passes_and_is_fast(suite):
    assert suite["pass"]
    assert suite["total_s"] < 60, f"suite took {suite['total_s']:.1f} s"
    print(f"full suite: {suite['total_s']:.1f} s")


def test_suite_matches_golden_document(suite):
    # the recorded `endop all --json --no-timing`, compared with the session
    # run above instead of running the whole suite a second time
    got = copy.deepcopy(suite)
    del got["total_s"]
    golden = Path(__file__).parent / "golden" / "all.json"
    assert cli._zero_timings(got) == json.loads(golden.read_text())["result"]


def test_injected_faults_fail_their_checks():
    out = {}
    reports = {}
    for fault, check in (("perm-compose", "perm-relations"), ("word-reduce", "word-operad")):
        rep = reports[fault] = check_operad_axioms(corrupted_operad(fault), 3, 2)
        assert not rep.passed
        out[fault] = rep.first_failure()
        assert out[fault].witness
    assert "pi" in out["perm-compose"].witness
    assert "x1" in out["word-reduce"].witness
    # every check's count and first counterexample, in enumeration order
    assert [(c.name, c.instances, c.witness) for c in reports["perm-compose"].checks] == [
        ("unit-left", 6, None),
        ("unit-right", 14, "pi2[2] o_1 1 = pi1[2]"),
        (
            "sequential-associativity",
            1176,
            "(pi3[3] o_1 pi1[1]) o_1 pi1[1] != pi3[3] o_1 (pi1[1] o_1 pi1[1])",
        ),
        (
            "parallel-commutation",
            396,
            "(pi2[2] o_2 pi2[2]) o_1 pi1[1] != (pi2[2] o_1 pi1[1]) o_2 pi2[2]",
        ),
        ("symmetric-action", 123, None),
        ("equivariance", 700, "(sigma.pi1[2]) o_1 pi1[1] fails for sigma=(2, 1)"),
    ]
    assert [(c.name, c.instances, c.witness) for c in reports["word-reduce"].checks] == [
        ("unit-left", 60, "1 o_1 x1 x2^-1 = e"),
        ("unit-right", 150, "x1 x2^-1 o_1 1 = e"),
        (
            "sequential-associativity",
            1_350_000,
            "(x1 x2 o_2 x1^-1) o_2 e != x1 x2 o_2 (x1^-1 o_1 e)",
        ),
        (
            "parallel-commutation",
            453_120,
            "(x1 x2^-1 o_2 e) o_1 x1 != (x1 x2^-1 o_1 x1) o_2 e",
        ),
        ("symmetric-action", 1464, None),
        ("equivariance", 82_751, None),
    ]


def test_pinned_gl2_f2_dimension_still_holds():
    F2 = finite_field(2)
    basis = equivariant_homs(all_invertible_matrices(F2, 2), 2)
    assert basis.dimension == acceptance.GL2_F2_TENSOR_SQUARE_COMMUTANT_DIM == 3


def test_rational_commutants_attain_group_algebra_dimension():
    for n, fact in ((1, 1), (2, 2)):
        dim, stable, _ = schur_weyl_dimension(n, n)
        assert dim == fact and stable
