"""The projection operad against honest function composition, the generic
axiom checker, and the one-object scalar operad."""

from dataclasses import replace
from itertools import product

import pytest

from endop.errors import PositionOutOfRange
from endop.faults import corrupted_operad
from endop.operad_core import (
    PermElement,
    _elements_by_arity,
    _equivariance,
    _symmetric_action,
    check_algebra_action,
    check_operad_axioms,
    perm_act,
    perm_compose,
    perm_operad,
    trivial_operad,
)
from endop.perms import (
    all_perms,
    compose_perms,
    embed_at,
    invert_perm,
    stretch_at,
)
from endop.qpoly_operad import qpoly_operad
from endop.scalars import IntegersMod, finite_field
from endop.word_operad import (
    ReducedWord,
    word_compose,
    word_operad,
    word_perm_act,
)
from oracles import identity_perm, project, reduced_word_count


def test_perm_defining_relations():
    p1 = PermElement(2, 1)
    p2 = PermElement(2, 2)
    assert perm_compose(p1, 1, p1) == PermElement(3, 1)
    assert perm_compose(p1, 2, p1) == PermElement(3, 1)
    assert perm_compose(p1, 2, p2) == PermElement(3, 1)
    assert perm_compose(p2, 1, p1) == PermElement(3, 3)


def test_perm_compose_matches_function_composition():
    """Oracle: compose the actual projections, tabulated over a two-element
    carrier (enough to tell any two projections apart)."""
    for m in range(1, 5):
        for n in range(1, 5):
            s = m + n - 1
            tuples = list(product(range(2), repeat=s))
            for a in range(1, m + 1):
                for b in range(1, n + 1):
                    for k in range(1, m + 1):
                        got = perm_compose(PermElement(m, a), k, PermElement(n, b))
                        assert got.arity == s
                        for args in tuples:
                            inner = args[k - 1 : k - 1 + n][b - 1]
                            outer = (args[: k - 1] + (inner,) + args[k - 1 + n :])[a - 1]
                            assert outer == args[got.index - 1]


def test_perm_element_validation():
    with pytest.raises(ValueError):
        PermElement(0, 1)
    with pytest.raises(ValueError):
        PermElement(2, 3)
    with pytest.raises(PositionOutOfRange):
        perm_compose(PermElement(2, 1), 3, PermElement(2, 1))


def test_perm_enumeration_sizes():
    P = perm_operad()
    assert P.enumerate_arity(0, 0) == []
    for n in range(1, 5):
        els = P.enumerate_arity(n, 0)
        assert len(els) == n
        assert len(set(els)) == n


def test_perm_action_transitive_and_faithful():
    for n in range(1, 5):
        for i in range(1, n + 1):
            hit = {perm_act(sigma, PermElement(n, i)).index for sigma in all_perms(n)}
            assert hit == set(range(1, n + 1))  # transitive on the index
        if n >= 2:
            for sigma in all_perms(n):
                if sigma == tuple(range(1, n + 1)):
                    continue
                moved = any(
                    perm_act(sigma, PermElement(n, i)) != PermElement(n, i)
                    for i in range(1, n + 1)
                )
                assert moved  # faithful


def test_perm_axiom_suite_passes():
    rep = check_operad_axioms(perm_operad(), 4, 0)
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert names == [
        "unit-left",
        "unit-right",
        "sequential-associativity",
        "parallel-commutation",
        "symmetric-action",
        "equivariance",
    ]
    assert all(c.instances > 0 for c in rep.checks)


def test_axiom_report_json_shape():
    rep = check_operad_axioms(perm_operad(), 2, 0)
    d = rep.to_json_dict()
    assert d["operad"] == "perm"
    for c in d["checks"]:
        assert set(c) <= {"name", "instances", "pass", "witness"}
        assert c["pass"] is True


def test_trivial_operad_is_ring_multiplication():
    Z4 = IntegersMod(4)
    T = trivial_operad(Z4)
    r, s = T.enumerate_arity(1, 0)[2], T.enumerate_arity(1, 0)[3]
    assert r.scalar.value == 2 and s.scalar.value == 3
    assert T.compose(r, 1, s).scalar.value == 2
    assert check_operad_axioms(T, 3, 0).passed
    assert T.enumerate_arity(2, 0) == []


def test_perm_action_on_finite_set():
    P = perm_operad()
    rep = check_algebra_action(P, 3, project, 3, 0)
    assert rep.passed


def test_word_axiom_instance_counts_have_closed_forms():
    """Acceptance criterion 6's call; each count follows from the number of
    reduced words |W_n| of each arity (length <= 3 for the unit and action
    checks, <= 2 for the others)."""
    big = [sum(reduced_word_count(n, L) for L in range(4)) for n in range(4)]
    small = [sum(reduced_word_count(n, L) for L in range(3)) for n in range(4)]
    fact = [1, 1, 2, 6]
    arities = range(1, 4)
    expected = {
        "unit-left": sum(big),
        "unit-right": sum(n * big[n] for n in arities),
        # (sum_m m |W_m|)^2 * sum_p |W_p|: w1, slot i, w2, slot j, w3
        "sequential-associativity": sum(m * small[m] for m in arities) ** 2 * sum(small),
        "parallel-commutation": sum(small[m] * m * (m - 1) // 2 for m in arities)
        * sum(small[n] for n in arities)
        * sum(small),
        "symmetric-action": sum(big[n] * (1 + fact[n] ** 2) for n in arities),
        "equivariance": sum(
            small[m] * small[n] * (fact[m] * m + m * fact[n]) for m in arities for n in arities
        ),
    }
    assert list(expected.values()) == [248, 674, 150**2 * 60, 453_120, 7_198, 82_751]
    rep = check_operad_axioms(word_operad(), 3, 3, triple_size_bound=2)
    assert rep.passed
    assert {c.name: c.instances for c in rep.checks} == expected


def three_element_checks_one_by_one(P, arity_bound, size_bound):
    """Oracle: sequential associativity and parallel commutation evaluated
    one instance at a time, in enumeration order, as (instances, witness)."""
    els = {n: P.enumerate_arity(n, size_bound) for n in range(arity_bound + 1)}
    els = {n: ws for n, ws in els.items() if ws}
    c = P.compose
    seq, seq_witness = 0, None
    for n, w2s in els.items():
        for p, w3s in els.items():
            for m, w1s in els.items():
                for w1, i, w2, j, w3 in product(w1s, range(1, m + 1), w2s, range(1, n + 1), w3s):
                    seq += 1
                    k = i + j - 1
                    if seq_witness is None and c(c(w1, i, w2), k, w3) != c(w1, i, c(w2, j, w3)):
                        seq_witness = (
                            f"({w1} o_{i} {w2}) o_{k} {w3} != {w1} o_{i} ({w2} o_{j} {w3})"
                        )
    par, par_witness = 0, None
    for m, w1s in els.items():
        for p, w3s in els.items():
            for n, w2s in els.items():
                if n < 1:
                    continue
                pairs = [(i, j) for i in range(1, m) for j in range(i + 1, m + 1)]
                for w1, (i, j), w2, w3 in product(w1s, pairs, w2s, w3s):
                    par += 1
                    k = j + n - 1
                    if par_witness is None and c(c(w1, j, w3), i, w2) != c(c(w1, i, w2), k, w3):
                        par_witness = (
                            f"({w1} o_{j} {w3}) o_{i} {w2} != ({w1} o_{i} {w2}) o_{k} {w3}"
                        )
    return [(seq, seq_witness), (par, par_witness)]


def test_three_element_checks_match_one_by_one_oracle():
    """The row-wise checks compare every instance and name the first
    failing one, also when it lies inside a row over w3, and also when the
    slot-major sequential check meets a later failure first."""

    def flip_unary(w1, i, w2):
        # wrong: a unary word plugged into a wider one is inverted first
        return word_compose(w1, i, w2.inverse() if w2.arity == 1 and w1.arity >= 2 else w2)

    def two_slot_fault(w1, i, w2):
        # wrong: x1 x2 o_2 and x2 x1 o_1 invert w2 first; x2 x1 comes later
        # in enumeration order, but its slot 1 is visited before slot 2
        if (w1.letters, i) in {((1, 2), 2), ((2, 1), 1)}:
            w2 = w2.inverse()
        return word_compose(w1, i, w2)

    cases = [  # operad, arity bound, size bound, pinned witnesses
        (word_operad(), 2, 1, [None, None]),
        # arity 3 makes left rows (w1 o_i w2) o_k w3 repeat across w1
        (word_operad(), 3, 1, [None, None]),
        (
            corrupted_operad("word-reduce"), 2, 2,
            [
                "(x1 x2 o_2 x1^-1) o_2 e != x1 x2 o_2 (x1^-1 o_1 e)",
                "(x1 x2^-1 o_2 e) o_1 x1 != (x1 x2^-1 o_1 x1) o_2 e",
            ],
        ),
        (
            replace(word_operad(), compose=flip_unary), 2, 2,
            # the sequential failure is the second instance of its row
            [
                "(x1 o_1 x1) o_1 x1 != x1 o_1 (x1 o_1 x1)",
                "(x1 o_2 e) o_1 x1 != (x1 o_1 x1) o_2 e",
            ],
        ),
        (
            replace(word_operad(), compose=two_slot_fault), 2, 2,
            [
                "(x1 x2 o_2 x1^-1) o_2 x1 != x1 x2 o_2 (x1^-1 o_1 x1)",
                "(x2 x1 o_2 e) o_1 x1 != (x2 x1 o_1 x1) o_2 e",
            ],
        ),
        (
            corrupted_operad("perm-compose"), 3, 0,
            [
                "(pi3[3] o_1 pi1[1]) o_1 pi1[1] != pi3[3] o_1 (pi1[1] o_1 pi1[1])",
                "(pi2[2] o_2 pi2[2]) o_1 pi1[1] != (pi2[2] o_1 pi1[1]) o_2 pi2[2]",
            ],
        ),
    ]
    for P, arity_bound, size_bound, witnesses in cases:
        rep = check_operad_axioms(P, arity_bound, size_bound)
        got = [(c.instances, c.witness) for c in rep.checks[2:4]]
        assert got == three_element_checks_one_by_one(P, arity_bound, size_bound), P.name
        assert [witness for _, witness in got] == witnesses, P.name


def action_checks_one_by_one(P, arity_bound, size_bound, triple_size_bound):
    """Oracle: the symmetric-action and equivariance checks evaluated one
    instance at a time, in enumeration order, as (instances, witness)."""
    els = {n: P.enumerate_arity(n, size_bound) for n in range(1, arity_bound + 1)}
    els = {n: ws for n, ws in els.items() if ws}
    small = {n: P.enumerate_arity(n, triple_size_bound) for n in range(1, arity_bound + 1)}
    small = {n: ws for n, ws in small.items() if ws}
    a, c = P.act, P.compose
    act, act_witness = 0, None
    for n, ws in els.items():
        for w in ws:
            act += 1
            if act_witness is None and a(identity_perm(n), w) != w:
                act_witness = f"id . {w} != {w}"
            for sigma, tau in product(all_perms(n), repeat=2):
                act += 1
                if act_witness is None and a(sigma, a(tau, w)) != a(compose_perms(sigma, tau), w):
                    act_witness = f"sigma.(tau.{w}) != (sigma tau).{w} for {sigma}, {tau}"
    equiv, equiv_witness = 0, None
    for (m, w1s), (n, w2s) in product(small.items(), repeat=2):
        for w1, w2 in product(w1s, w2s):
            for sigma, i in product(all_perms(m), range(1, m + 1)):
                equiv += 1
                rhs = a(stretch_at(sigma, i, n), c(w1, invert_perm(sigma)[i - 1], w2))
                if equiv_witness is None and c(a(sigma, w1), i, w2) != rhs:
                    equiv_witness = f"(sigma.{w1}) o_{i} {w2} fails for sigma={sigma}"
            for i, rho in product(range(1, m + 1), all_perms(n)):
                equiv += 1
                rhs = a(embed_at(m, i, rho), c(w1, i, w2))
                if equiv_witness is None and c(w1, i, a(rho, w2)) != rhs:
                    equiv_witness = f"{w1} o_{i} (rho.{w2}) fails for rho={rho}"
    return [(act, act_witness), (equiv, equiv_witness)]


def inverse_act(act):
    """Wrong: acts by sigma^-1, which is a right action, not a left one."""
    return lambda sigma, w: act(invert_perm(sigma), w)


def shifted_perm_act(sigma, w):
    """Wrong: every relabelling, the identity too, moves pi_i on by one."""
    return PermElement(w.arity, sigma[w.index - 1] % w.arity + 1)


def act_ignoring_sigma(sigma, w):
    """Wrong: arity-3 words of length 2 are left fixed by every sigma."""
    return w if w.arity == 3 and len(w) == 2 else word_perm_act(sigma, w)


ACTION_CASES = {  # operad, arity bound, size bounds, witnesses of the action checks
    "word": (word_operad(), 2, 2, 2, [None, None]),
    "perm": (perm_operad(), 4, 0, 0, [None, None]),
    "qpoly-f2": (qpoly_operad(finite_field(2)), 2, 1, 1, [None, None]),
    "perm-compose": (
        corrupted_operad("perm-compose"), 3, 0, 0,
        [None, "(sigma.pi1[2]) o_1 pi1[1] fails for sigma=(2, 1)"],
    ),
    "perm-inverse-act": (
        replace(perm_operad(), act=inverse_act(perm_act)), 4, 0, 0,
        [
            "sigma.(tau.pi1[3]) != (sigma tau).pi1[3] for (1, 3, 2), (2, 1, 3)",
            "(sigma.pi1[2]) o_1 pi1[2] fails for sigma=(2, 1)",
        ],
    ),
    "perm-shifted-act": (
        replace(perm_operad(), act=shifted_perm_act), 3, 0, 0,
        ["id . pi1[2] != pi1[2]", "(sigma.pi1[1]) o_1 pi1[2] fails for sigma=(1,)"],
    ),
    "word-inverse-act": (
        replace(word_operad(), act=inverse_act(word_perm_act)), 3, 2, 1,
        [
            "sigma.(tau.x1) != (sigma tau).x1 for (1, 3, 2), (2, 1, 3)",
            "(sigma.x1) o_1 e fails for sigma=(2, 1)",
        ],
    ),
    "word-act-ignoring-sigma": (
        replace(word_operad(), act=act_ignoring_sigma), 3, 2, 2,
        [None, "x1 x1 o_1 (rho.x1) fails for rho=(2, 1, 3)"],
    ),
}


@pytest.mark.parametrize("case", ACTION_CASES)
def test_action_checks_match_one_by_one_oracle(case):
    """The row-wise action and equivariance checks compare every instance
    and name the first failing one, as the oracle does; the witnesses are
    pinned too.  The helpers are called on the element sets that
    check_operad_axioms hands them, so that the three-element checks need
    not run at (3, 2, 2)."""
    P, arity_bound, size_bound, triple_size_bound, witnesses = ACTION_CASES[case]
    els = _elements_by_arity(P, arity_bound, size_bound)
    small = _elements_by_arity(P, arity_bound, triple_size_bound)
    got = [
        (c.instances, c.witness)
        for c in (_symmetric_action(P.act, els), _equivariance(P.compose, P.act, small))
    ]
    assert got == action_checks_one_by_one(P, arity_bound, size_bound, triple_size_bound)
    assert [witness for _, witness in got] == witnesses
    if case != "word-act-ignoring-sigma":
        rep = check_operad_axioms(P, arity_bound, size_bound, triple_size_bound)
        assert [(c.instances, c.witness) for c in rep.checks[4:]] == got


def test_corrupted_perm_is_caught_with_named_witness():
    rep = check_operad_axioms(corrupted_operad("perm-compose"), 3, 0)
    assert not rep.passed
    first = rep.first_failure()
    assert first.name == "unit-right"
    assert "pi2[2] o_1 1" in first.witness
    assert [(c.name, c.instances, c.witness) for c in rep.checks] == [
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


def test_corrupted_word_composites_are_valid_words():
    """The fault builds its results unchecked; each one must still pass the
    validating constructor, so the fault lies only in which word it is."""
    P = corrupted_operad("word-reduce")
    composites = 0
    for m in range(1, 3):
        for w1 in P.enumerate_arity(m, 2):
            for i in range(1, m + 1):
                for n in range(3):
                    for w2 in P.enumerate_arity(n, 2):
                        out = P.compose(w1, i, w2)
                        assert ReducedWord(out.arity, out.letters) == out
                        composites += 1
    words = [sum(reduced_word_count(n, L) for L in range(3)) for n in range(3)]
    assert composites == (words[1] + 2 * words[2]) * sum(words) == 897


def test_corrupted_word_reduction_is_caught():
    rep = check_operad_axioms(corrupted_operad("word-reduce"), 2, 2)
    assert not rep.passed
    first = rep.first_failure()
    assert first.witness is not None
    assert first.name == "unit-left"
    assert [(c.name, c.instances, c.witness) for c in rep.checks] == [
        ("unit-left", 23, "1 o_1 x1 x2^-1 = e"),
        ("unit-right", 39, "x1 x2^-1 o_1 1 = e"),
        (
            "sequential-associativity",
            34983,
            "(x1 x2 o_2 x1^-1) o_2 e != x1 x2 o_2 (x1^-1 o_1 e)",
        ),
        (
            "parallel-commutation",
            8602,
            "(x1 x2^-1 o_2 e) o_1 x1 != (x1 x2^-1 o_1 x1) o_2 e",
        ),
        ("symmetric-action", 95, None),
        ("equivariance", 3127, None),
    ]
