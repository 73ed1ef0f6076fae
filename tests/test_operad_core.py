"""The projection operad against honest function composition, the generic
axiom checker, and the one-object scalar operad."""

import copy
import functools
import importlib
import inspect
import os
import pickle
import random
import subprocess
import sys
import textwrap
from collections import defaultdict
from dataclasses import replace
from itertools import product

import pytest

import endop
import endop.operad_core as operad_core
from endop.errors import PositionOutOfRange
from endop.faults import corrupted_operad
from endop.operad_core import (
    PERM_TAG,
    PermElement,
    _elements_by_arity,
    _equivariance,
    _first_difference,
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
    WORD_TAG,
    ReducedWord,
    word_compose,
    word_compose_rows,
    word_enumerate,
    word_operad,
    word_perm_act,
)
from oracles import (
    check_bound_rows,
    compose_by_substitution,
    identity_perm,
    project,
    reduced_word_count,
)

# the module, which endop's package namespace shadows with the function word_operad
word_operad_module = importlib.import_module("endop.word_operad")


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


# one element of each tuple-backed type, with the fields it was built from
ELEMENTS = {
    "word": (ReducedWord(2, (1, -2)), (2, (1, -2))),
    "perm": (PermElement(3, 2), (3, 2)),
}


@pytest.mark.parametrize("kind", ELEMENTS)
def test_tuple_backed_elements_are_values(kind):
    element, fields = ELEMENTS[kind]
    cls = type(element)
    assert element == cls(*fields) and hash(element) == hash(cls(*fields))
    assert element != fields
    assert copy.copy(element) == element == copy.deepcopy(element)
    assert pickle.loads(pickle.dumps(element)) == element
    assert type(pickle.loads(pickle.dumps(element))) is cls
    assert repr(element).startswith(f"{cls.__name__}(arity={fields[0]}, ")
    for name in ("arity", "other"):
        with pytest.raises(AttributeError):
            setattr(element, name, 1)


def test_words_and_projections_differ_by_their_tags():
    assert WORD_TAG != PERM_TAG
    p = PermElement(2, 1)
    # the numbers of p under the word tag, and of a word under the projection tag
    assert p != (WORD_TAG, 2, 1) and p == (PERM_TAG, 2, 1)
    assert tuple.__new__(ReducedWord, (WORD_TAG, 2, 1)) != p
    assert ReducedWord(2, (1,)) != (PERM_TAG, 2, (1,))
    assert len({ReducedWord(1, (1,)), PermElement(1, 1), (1, (1,)), (1, 1)}) == 4


def test_word_length_counts_letters():
    assert len(ReducedWord(2, (1, -2, 1))) == 3
    assert not ReducedWord(2, ()) and ReducedWord(1, (1,))
    assert [len(w) for w in word_operad().enumerate_arity(1, 2)] == [0, 1, 1, 2, 2]


def test_element_hashes_do_not_depend_on_the_process():
    """Tags and fields are ints and tuples of ints, whose hashes are not
    salted, so two interpreters with different hash seeds agree."""
    src = os.path.dirname(os.path.dirname(endop.__file__))
    script = (
        "from endop.operad_core import PermElement\n"
        "from endop.word_operad import ReducedWord\n"
        "print(hash(ReducedWord(2, (1, -2))), hash(PermElement(3, 2)))\n"
    )
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    here = f"{hash(ELEMENTS['word'][0])} {hash(ELEMENTS['perm'][0])}\n"
    assert outs == [here, here]


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


@functools.cache
def three_element_checks_one_by_one(P, arity_bound, size_bound):
    """Oracle: sequential associativity and parallel commutation evaluated
    one instance at a time, in enumeration order, as (instances, witness).
    It calls P.compose alone, so its answer is kept for the next test that
    asks."""
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


def words_and_a_conjugate(n, size_bound):
    """The words of arity n and length <= size_bound, and from arity 2 on
    also x1 x2 x1^-1: substituted for x_i in x1 x1 it makes two blocks
    meet and cancel, and an empty word substituted for x2 in it leaves e."""
    return word_enumerate(n, size_bound) + ([ReducedWord(n, (1, 2, -1))] if n >= 2 else [])


def _flip_unary(w1, i, w2):
    # wrong: a unary word plugged into a wider one is inverted first
    return word_compose(w1, i, w2.inverse() if w2.arity == 1 and w1.arity >= 2 else w2)


def _two_slot_fault(w1, i, w2):
    # wrong: x1 x2 o_2 and x2 x1 o_1 invert w2 first; x2 x1 comes later
    # in enumeration order, but a slot-major order visits its slot 1 first
    if (w1.letters, i) in {((1, 2), 2), ((2, 1), 1)}:
        w2 = w2.inverse()
    return word_compose(w1, i, w2)


THREE_ELEMENT_CASES = [  # operad, arity bound, size bound, pinned witnesses
    (word_operad(), 2, 1, [None, None]),
    # arity 3 makes left rows (w1 o_i w2) o_k w3 repeat across w1
    (word_operad(), 3, 1, [None, None]),
    # letters cancel where blocks meet and around an empty w2
    (replace(word_operad(), enumerate_arity=words_and_a_conjugate), 2, 2, [None, None]),
    (
        corrupted_operad("word-reduce"), 2, 2,
        [
            "(x1 x2 o_2 x1^-1) o_2 e != x1 x2 o_2 (x1^-1 o_1 e)",
            "(x1 x2^-1 o_2 e) o_1 x1 != (x1 x2^-1 o_1 x1) o_2 e",
        ],
    ),
    (
        replace(word_operad(), compose=_flip_unary), 2, 2,
        # the sequential failure is the second instance of its row
        [
            "(x1 o_1 x1) o_1 x1 != x1 o_1 (x1 o_1 x1)",
            "(x1 o_2 e) o_1 x1 != (x1 o_1 x1) o_2 e",
        ],
    ),
    (
        replace(word_operad(), compose=_two_slot_fault), 2, 2,
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


def test_three_element_checks_match_one_by_one_oracle():
    """The row-wise checks compare every instance and name the first
    failing one, also when it lies inside a row over w3, and also when a
    slot-major sequential check would meet a later failure first."""
    for P, arity_bound, size_bound, witnesses in THREE_ELEMENT_CASES:
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


X2 = ReducedWord(2, (2,))


def fault_at_x2_o2_x2(w1, i, w2):
    """Wrong only at x2 o_2 x2 in arity 2, which gives x3^-1 for x3.  Both x2
    are second in their Sigma_2 orbit {x1, x2}.  So equivariance first fails
    at w1 = x1, w2 = x2, against the composites x1 o_i x2 that its block
    tabled for w2 = x1."""
    if i == 2 and w1 == w2 == X2:
        return word_compose(w1, i, w2).inverse()
    return word_compose(w1, i, w2)


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
    "word-fault-at-x2-o2-x2": (
        replace(word_operad(), compose=fault_at_x2_o2_x2), 2, 1, 1,
        [None, "(sigma.x1) o_2 x2 fails for sigma=(2, 1)"],
    ),
    "word-act-ignoring-sigma": (
        replace(word_operad(), act=act_ignoring_sigma), 3, 2, 2,
        [None, "x1 x1 o_1 (rho.x1) fails for rho=(2, 1, 3)"],
    ),
}


def equivariance(compose, act, small):
    """_equivariance over a row store of its own, set up as
    check_operad_axioms sets it up: the rows over the elements of each
    arity p, under the key p."""
    compose_rows = operad_core._rows(compose)
    makers = {p: compose_rows(ws) for p, ws in small.items()}
    return _equivariance(compose_rows, act, small, makers, operad_core._row_store(makers))


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
        for c in (_symmetric_action(P.act, els), equivariance(P.compose, P.act, small))
    ]
    assert got == action_checks_one_by_one(P, arity_bound, size_bound, triple_size_bound)
    assert [witness for _, witness in got] == witnesses
    if case != "word-act-ignoring-sigma":
        rep = check_operad_axioms(P, arity_bound, size_bound, triple_size_bound)
        assert [(c.instances, c.witness) for c in rep.checks[4:]] == got


def test_action_checks_match_one_by_one_oracle_at_row_store_cap_zero(monkeypatch):
    """A row store dropped before every row it builds but the first only
    builds rows again: every action case still matches its oracle."""
    monkeypatch.setattr(operad_core, "ROW_STORE_CAP", 0)
    for case in ACTION_CASES:
        test_action_checks_match_one_by_one_oracle(case)


def test_a_replaced_compose_falls_back_to_one_call_per_element():
    """The row kernel is an attribute of word_compose, so a descriptor whose
    compose is replaced, as by a fault or a counting wrapper, is checked one
    composite per call: one call per entry of the rows a kernel builds, and
    the same report as through the kernel."""
    calls = 0

    def counting(w1, i, w2):
        nonlocal calls
        calls += 1
        return word_compose(w1, i, w2)

    lawful = check_operad_axioms(word_operad(), 2, 2)
    rep = check_operad_axioms(replace(word_operad(), compose=counting), 2, 2)
    assert calls == 20_336
    assert rep.passed and rep.to_json_dict() == lawful.to_json_dict()
    assert word_operad().compose.rows is word_compose_rows
    for fault in ("word-reduce", "perm-compose"):
        assert not hasattr(corrupted_operad(fault).compose, "rows")

    # given a row kernel, the same compose has every composite built by it
    calls, rows = 0, 0

    def count():
        nonlocal rows
        rows += 1

    counting.rows = counted_rows(count)
    rep = check_operad_axioms(replace(word_operad(), compose=counting), 2, 2)
    assert rep.to_json_dict() == lawful.to_json_dict()
    assert rows > 0 and calls == 0


def counted_rows(count):
    """word_compose_rows with count() called once per row built."""

    def bind(w2s):
        kernel = word_compose_rows(w2s)

        def row(w1, i):
            count()
            return kernel(w1, i)

        return row

    return bind


def rows_built(arity_bound, size_bound):
    """The calls of bound row kernels in the word check at the given bounds."""
    rows = 0

    def compose(w1, i, w2):
        return word_compose(w1, i, w2)

    def count():
        nonlocal rows
        rows += 1

    compose.rows = counted_rows(count)
    assert check_operad_axioms(replace(word_operad(), compose=compose), arity_bound, size_bound).passed
    return rows


def test_a_row_store_dropped_before_every_row_changes_no_report(monkeypatch):
    """The row store is a memo: with ROW_STORE_CAP = 0 it is dropped before
    every row it builds but the first, which only builds rows again.  The
    three-element checks still match their one-by-one oracle and both fault
    operads keep their pinned witnesses.  Under the default cap the store
    of the word check at (2, 2) is never dropped.  Both counts take in the
    42 rows of the unit laws, which are not kept: one row 1 o_1 w over w
    per arity, and one row w o_i 1 per (w, i)."""
    assert rows_built(2, 2) == 1_768
    monkeypatch.setattr(operad_core, "ROW_STORE_CAP", 0)
    assert rows_built(2, 2) == 6_866
    test_three_element_checks_match_one_by_one_oracle()
    test_corrupted_perm_is_caught_with_named_witness()
    test_corrupted_word_reduction_is_caught()


def test_equivariance_builds_its_composites_with_the_row_kernel():
    """Given a row kernel, equivariance makes no one-element compose call.
    Over a store of its own it builds one row per (x, i) and arity n of w2,
    over the w2s, which are also the orbit values, since relabelling keeps
    a word's length: 5 * 1 rows for x of arity 1 and 17 * 2 for arity 2,
    each for n = 1 and n = 2.  Within check_operad_axioms the associativity
    checks have built them all."""
    calls, rows = 0, 0

    def counting(w1, i, w2):
        nonlocal calls
        calls += 1
        return word_compose(w1, i, w2)

    def count():
        nonlocal rows
        rows += 1

    counting.rows = counted_rows(count)
    rep = equivariance(counting, word_perm_act, _elements_by_arity(word_operad(), 2, 2))
    assert (rep.instances, rep.witness) == (3127, None)
    assert (calls, rows) == (0, 2 * (5 * 1 + 17 * 2))


@pytest.mark.parametrize(
    "P, bounds",
    [
        (word_operad(), (2, 2)),
        (word_operad(), (3, 2)),
        (qpoly_operad(finite_field(2)), (3, 1)),
    ],
    ids=["word-2-2", "word-3-2", "qpoly-f2-3-1"],
)
def test_every_list_the_checker_binds_has_one_arity(P, bounds):
    """The word kernel splits a list of several arities into one kernel per
    arity; the checks never take that path, since every list they bind a
    kernel to holds elements of one arity."""
    arities = []

    def bind(ys):
        ys = list(ys)
        arities.append({y.arity for y in ys})
        return P.compose.rows(ys)

    def compose(w1, i, w2):
        return P.compose(w1, i, w2)

    compose.rows = bind
    assert check_operad_axioms(replace(P, compose=compose), *bounds).passed
    assert arities and all(len(a) == 1 for a in arities)


def test_act_calls_of_the_perm_check():
    """Each orbit is acted out once per arity, and each right-hand row of
    equivariance once per distinct composite and slot in its block: 5,037
    act calls at (4, 0), where acting once per instance took 9,201."""
    calls = 0

    def counting(sigma, w):
        nonlocal calls
        calls += 1
        return perm_act(sigma, w)

    rep = check_operad_axioms(replace(perm_operad(), act=counting), 4, 0)
    assert rep.passed
    assert calls == 5_037


# -- mutants of the row tables and of the witness order --------------------------
#
# Each mutant is patched into operad_core and must change a witness that a
# one-by-one oracle and a pinned witness fix: the equivariance witness of the
# named ACTION_CASES entry, or the three-element checks of every
# THREE_ELEMENT_CASES entry.  Equivalent, so not pinned: a row store whose
# rows keep fresh copies of their entries instead of first-met ones, since
# rows compare by value and identity is only a shortcut; and a row store
# dropped at a smaller or larger cap (see the ROW_STORE_CAP test).

def _store_keyed_by_x_alone(makers):
    """Wrong: the memo of each key forgets the slot, so (x, k, key) and
    (x, k', key) with k != k' share one row."""
    memos = defaultdict(dict)

    def row(x, k, key):
        if x not in memos[key]:
            memos[key][x] = tuple(makers[key](x, k))
        return memos[key][x]

    return row


def _store_with_one_memo(makers):
    """Wrong: one memo for every key, so the row of (x, k) first built under
    one key is served under every key."""
    memo = {}

    def row(x, k, key):
        if (x, k) not in memo:
            memo[x, k] = tuple(makers[key](x, k))
        return memo[x, k]

    return row


def _first_in_slot_major_order(lhs_rows, rhs_rows, sources):
    """Wrong: names the first mismatch of the first failing slot k of w1, not
    the first failing instance in enumeration order."""
    k = _first_difference(lhs_rows, rhs_rows)
    t = _first_difference(lhs_rows[k], rhs_rows[k])
    return t, sources[t].index(k) + 1


@pytest.mark.parametrize(
    "name, mutant, case",
    [
        ("_row_store", _store_keyed_by_x_alone, "perm"),
        ("_row_store", _store_keyed_by_x_alone, "word"),
        ("_row_store", _store_with_one_memo, "perm"),
        ("_row_store", _store_with_one_memo, "word"),
        ("_first_in_order", _first_in_slot_major_order, "perm-inverse-act"),
    ],
)
def test_equivariance_mutants_are_caught(monkeypatch, name, mutant, case):
    P, arity_bound, _, triple_size_bound, witnesses = ACTION_CASES[case]
    small = _elements_by_arity(P, arity_bound, triple_size_bound)
    assert equivariance(P.compose, P.act, small).witness == witnesses[1]
    monkeypatch.setattr(operad_core, name, mutant)
    try:
        witness = equivariance(P.compose, P.act, small).witness
    except (IndexError, StopIteration) as exc:  # a row served under the wrong key is short
        witness = repr(exc)
    assert witness != witnesses[1]


def test_three_element_checks_catch_a_row_memo_keyed_by_x_alone(monkeypatch):
    monkeypatch.setattr(operad_core, "_row_store", _store_keyed_by_x_alone)
    for P, arity_bound, size_bound, _ in THREE_ELEMENT_CASES:
        rep = check_operad_axioms(P, arity_bound, size_bound)
        got = [(c.instances, c.witness) for c in rep.checks[2:4]]
        assert got != three_element_checks_one_by_one(P, arity_bound, size_bound), P.name


def test_three_element_checks_catch_a_row_store_with_one_memo_for_every_arity(monkeypatch):
    """Every case fails where its one-by-one oracle reports: a row read over
    the elements of the wrong arity hands a composite a slot it lacks."""
    monkeypatch.setattr(operad_core, "_row_store", _store_with_one_memo)
    for P, arity_bound, size_bound, _ in THREE_ELEMENT_CASES:
        with pytest.raises(PositionOutOfRange):
            check_operad_axioms(P, arity_bound, size_bound)


# -- mutants of the bound word kernel --------------------------------------------
#
# Each mutant is word_compose_rows with one line changed, compiled in a copy
# of the namespace of endop.word_operad, so that the kernels it binds per
# arity of a mixed list are mutants too.  It must break the bound-kernel
# contract over a right-hand list closed under inversion but for one
# conjugate, and, installed as the row kernel of word_compose, move the
# three-element checks of a lawful word case away from their one-by-one
# oracle.

KERNEL_MUTANTS = {
    # the blocks of the first shift met are served at every shift
    "blocks-of-the-first-shift": (
        "blocks = shifted.get(shift)",
        "blocks = next(iter(shifted.values()), None)",
    ),
    # the partners by position: the one found for a w2 is given to the w2 at
    # the mirrored position.  (Pairing each w2 with itself is not pinned:
    # over lists closed under inversion it makes x_i^-1 receive w2 unchanged,
    # which no check at (2, 1), (3, 1) or (2, 2) tells from the law.)
    "partners-by-position": (
        "partners[:] = [index.get(w.inverse()) for w in w2s]",
        "partners[:] = [index.get(w.inverse()) for w in reversed(w2s)]",
    ),
    # the inverse is the partner's block before its shift
    "inverse-of-the-unshifted-block": ("else blocks[t]", "else w2s[t][2]"),
    # one cut: the letters around an empty w2 are joined but not reduced
    "one-cut-empty-block-unreduced": ("else _reduce_letters(pre + post)", "else pre + post"),
    # several cuts: nothing is reduced, where blocks meet or around an empty w2
    "several-cuts-never-reduced": (
        "return _reduce_letters(raw) if blocks_meet or not block else raw",
        "return raw",
    ),
}


def _mutant_kernel(old, new):
    source = textwrap.dedent(inspect.getsource(word_operad_module.word_compose_rows))
    assert source.count(old) == 1, old
    namespace = dict(vars(word_operad_module))
    exec(source.replace(old, new), namespace)
    return namespace["word_compose_rows"]


@pytest.mark.parametrize("mutant", KERNEL_MUTANTS)
def test_bound_kernel_mutants_are_caught(monkeypatch, mutant):
    rows = _mutant_kernel(*KERNEL_MUTANTS[mutant])
    rng = random.Random(3)
    broken = 0
    for x in words_and_a_conjugate(3, 2):
        try:
            check_bound_rows(rows, compose_by_substitution, x, words_and_a_conjugate(2, 2), rng)
        except AssertionError:
            broken += 1
    assert broken
    monkeypatch.setattr(word_compose, "rows", rows)
    moved = 0
    for P, arity_bound, size_bound, _ in THREE_ELEMENT_CASES:
        if P.compose is word_compose:
            rep = check_operad_axioms(P, arity_bound, size_bound)
            got = [(c.instances, c.witness) for c in rep.checks[2:4]]
            moved += got != three_element_checks_one_by_one(P, arity_bound, size_bound)
    assert moved


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
