"""The free-group word operad: reduction, substitution, enumeration counts,
group evaluation, and naturality of word images."""

import copy
import json
import os
import pickle
import random
import subprocess
import sys
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import endop
from endop.errors import BoundExceeded, IndexOutOfRange, NotAGroup, PositionOutOfRange
from endop.naturality import (
    and_monoid,
    cyclic_group,
    monoid_endomorphisms,
    symmetric_group_3,
)
from endop.operad_core import check_algebra_action, check_operad_axioms
from endop.perms import all_perms
from endop.word_operad import (
    ReducedWord,
    free_reduce,
    group_eval,
    parse_word,
    word_compose,
    word_compose_rows,
    word_enumerate,
    word_operad,
    word_perm_act,
)
from oracles import (
    check_bound_rows,
    compose_by_substitution,
    reduced_word_count,
    semigroup_eval,
    substitute,
)

S3 = symmetric_group_3()


def naive_reduce(letters):
    """Oracle: scan for an adjacent inverse pair, delete, repeat to fixpoint."""
    letters = list(letters)
    changed = True
    while changed:
        changed = False
        for k in range(len(letters) - 1):
            if letters[k] == -letters[k + 1]:
                del letters[k : k + 2]
                changed = True
                break
    return tuple(letters)


def test_free_reduce_examples():
    assert free_reduce([1, -1], 1).letters == ()
    assert free_reduce([1, 2, -2, 1], 2).letters == (1, 1)
    w = free_reduce([1, -2], 2)
    assert free_reduce(w.letters, 2) == w  # idempotent
    with pytest.raises(IndexOutOfRange):
        free_reduce([3], 2)
    with pytest.raises(ValueError):
        ReducedWord(1, (1, -1))


letters_strategy = st.lists(
    st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=0, max_size=12
)


@given(letters_strategy)
def test_free_reduce_matches_naive_oracle(letters):
    assert free_reduce(letters, 3).letters == naive_reduce(letters)


@given(letters_strategy)
def test_free_reduce_idempotent(letters):
    w = free_reduce(letters, 3)
    assert free_reduce(w.letters, 3) == w


@given(letters_strategy, st.integers(0, 3))
def test_parse_word_inverts_str(letters, arity):
    w = free_reduce([v for v in letters if abs(v) <= arity], arity)
    assert parse_word(str(w), arity) == w


def test_word_compose_examples():
    assert str(word_compose(parse_word("x1 x2", 2), 1, parse_word("x1^-1", 1))) == "x1^-1 x2"
    w = word_compose(parse_word("x1 x2 x1^-1", 2), 2, ReducedWord(0, ()))
    assert w == ReducedWord(1, ())
    # unit laws
    unit = ReducedWord(1, (1,))
    for n in (1, 2):
        for w0 in word_enumerate(n, 3):
            assert word_compose(unit, 1, w0) == w0
            for i in range(1, n + 1):
                assert word_compose(w0, i, unit) == w0
    with pytest.raises(PositionOutOfRange):
        word_compose(unit, 2, unit)


def test_word_compose_substitution_shape():
    # substitution into an inverted slot uses the inverse word
    w1 = parse_word("x1^-1", 1)
    w2 = parse_word("x1 x2", 2)
    assert str(word_compose(w1, 1, w2)) == "x2^-1 x1^-1"
    # indices above the slot shift by n - 1
    w1 = parse_word("x1 x2", 2)
    w2 = parse_word("x1 x2", 2)
    assert str(word_compose(w1, 1, w2)) == "x1 x2 x3"


def test_word_compose_matches_substitution_oracle():
    def triples(words):
        return [(w1, i, w2) for w1 in words for i in range(1, w1.arity + 1) for w2 in words]

    # every triple of arity <= 3 and length <= 2, where substitution never
    # cancels, and longer words of arity <= 2, where it does
    short_words = [w for n in range(4) for w in word_enumerate(n, 2)]
    long_words = [w for n in range(3) for w in word_enumerate(n, 3)]
    short = triples(short_words)
    assert len(short) == 9000
    cancelling = []
    composites = {}
    for w1, i, w2 in short + triples(long_words):
        raw = substitute(w1, i, w2)
        got = composites[w1, i, w2] = word_compose(w1, i, w2)
        assert got.arity == w1.arity + w2.arity - 1
        assert got.letters == naive_reduce(raw), (w1, i, w2)
        if len(got) < len(raw):
            cancelling.append((w1, i, w2))
    # a kernel bound to a whole word list gives the same composites
    for words in (short_words, long_words):
        row = word_compose_rows(words)
        for w1 in words:
            for i in range(1, w1.arity + 1):
                assert row(w1, i) == [composites[w1, i, w2] for w2 in words]
    # both shortcuts are exercised: x_i absent (a relabelling), and x_i
    # present, also inverted, with cancellation where pieces meet, also
    # around an empty w2
    assert any(i not in w1.letters and -i not in w1.letters for w1, i, _ in short)
    assert any(-i in w1.letters for w1, i, _ in short)
    assert any(-i in w1.letters and w2.letters for w1, i, w2 in cancelling)
    assert any(i in w1.letters and w2.letters for w1, i, w2 in cancelling)
    assert any(not w2.letters for _, _, w2 in cancelling)


def words_of_arity(n):
    if n == 0:
        return st.just(ReducedWord(0, ()))
    letters = st.lists(st.integers(-n, n).filter(bool), max_size=6)
    return letters.map(lambda raw: free_reduce(raw, n))


@given(
    st.integers(1, 4).flatmap(words_of_arity),
    st.lists(st.integers(0, 4).flatmap(words_of_arity), max_size=8),
    st.integers(0, 4),
    st.randoms(use_true_random=False),
)
def test_word_compose_row_matches_substitution_oracle(x, ys, empty_arity, rng):
    """A kernel bound to words of mixed arities, with the empty word, the
    inverses of some words but not of others, and a duplicate, keeps the
    bound-kernel contract; word_compose one at a time gives the same."""
    ys = ys + [ReducedWord(empty_arity, ())] + [y.inverse() for y in ys[::2]] + ys[:1]
    check_bound_rows(word_compose_rows, compose_by_substitution, x, ys, rng)
    for k in range(1, x.arity + 1):
        assert [word_compose(x, k, y) for y in ys] == [compose_by_substitution(x, k, y) for y in ys]
    for k in (0, x.arity + 1):
        with pytest.raises(PositionOutOfRange):
            word_compose(x, k, ys[0])


# a left operand with x_1, x_2 and x_3 inverted, blocks meeting, and cuts at
# both ends; right-hand lists closed under inversion, with no inverses, with
# duplicates, and empty
BOUND_KERNEL_CASES = {
    "closed": word_enumerate(2, 2),
    "no-inverses": [ReducedWord(2, (1, 2)), ReducedWord(1, (1, 1)), ReducedWord(3, (3, -1))],
    "duplicates": [ReducedWord(1, (1,)), ReducedWord(0, ()), ReducedWord(1, (1,))] * 2,
    "empty": [],
}


@pytest.mark.parametrize("case", BOUND_KERNEL_CASES)
def test_bound_word_kernel_keeps_its_contract(case):
    rng = random.Random(5)
    ys = BOUND_KERNEL_CASES[case]
    for x in [ReducedWord(1, (1,)), ReducedWord(3, (-1, 2, -3, -3, 1, -2))] + word_enumerate(3, 2):
        check_bound_rows(word_compose_rows, compose_by_substitution, x, ys, rng)


def test_reduced_word_contract():
    w = ReducedWord(2, (1, -2))
    assert w == parse_word("x1 x2^-1", 2) == word_compose(parse_word("x1", 1), 1, w)
    assert hash(w) == hash(parse_word("x1 x2^-1", 2))
    assert w != ReducedWord(3, (1, -2))
    assert w != (2, (1, -2))
    assert repr(w) == "ReducedWord(arity=2, letters=(1, -2))"
    assert str(ReducedWord(0, ())) == "e"
    with pytest.raises(AttributeError):
        w.arity = 3
    with pytest.raises(AttributeError):
        w.letters = (1,)
    assert w == ReducedWord(2, (1, -2)) == ReducedWord(2, [1, -2])
    assert ReducedWord(1, [1]).letters == (1,)
    assert copy.copy(w) == w and pickle.loads(pickle.dumps(w)) == w
    with pytest.raises(IndexOutOfRange):
        ReducedWord(1, (2,))
    with pytest.raises(IndexOutOfRange):
        ReducedWord(1, (0,))
    with pytest.raises(ValueError):
        ReducedWord(2, (2, -2))
    with pytest.raises(ValueError):
        ReducedWord(-1, ())


def test_word_perm_act():
    w = parse_word("x1 x2^-1", 2)
    swapped = word_perm_act((2, 1), w)
    assert str(swapped) == "x2 x1^-1"
    assert word_perm_act((2, 1), swapped) == w
    assert word_perm_act((1, 2), w) == w
    with pytest.raises(Exception):
        word_perm_act((1, 1), w)


def test_word_enumerate_counts_and_order():
    words = word_enumerate(1, 2)
    assert [str(w) for w in words] == ["e", "x1", "x1^-1", "x1 x1", "x1^-1 x1^-1"]
    assert len(word_enumerate(2, 1)) == 5
    assert word_enumerate(0, 7) == [ReducedWord(0, ())]
    assert word_enumerate(0, 10**9) == [ReducedWord(0, ())]  # without 10^9 empty layers
    # counted before listing: 1 + 2(3^12 - 1) = 1,062,881 words exceed the cap
    for n, bound in ((2, 12), (1, 10**9), (9, 10**9)):
        with pytest.raises(BoundExceeded):
            word_enumerate(n, bound)
    for n in (1, 2, 3):
        for bound in (0, 1, 2, 3):
            words = word_enumerate(n, bound)
            assert len(words) == len(set(words))
            assert all(w.letters == free_reduce(w.letters, n).letters for w in words)
            expected = sum(reduced_word_count(n, L) for L in range(bound + 1))
            assert len(words) == expected


def test_group_eval_examples():
    # x1 is the identity operation
    for g in range(6):
        assert group_eval(parse_word("x1", 1), S3, (g,)) == g
    # conjugating the 3-cycle (index 3) by the transposition (index 2)
    assert group_eval(parse_word("x1 x2 x1^-1", 2), S3, (2, 3)) == 4
    # oracle: multiply through the table directly
    expected = S3.mul(S3.mul(2, 3), S3.inverse(2))
    assert expected == 4
    # the empty word evaluates to the unit
    assert group_eval(ReducedWord(2, ()), S3, (5, 1)) == S3.unit
    with pytest.raises(NotAGroup):
        group_eval(parse_word("x1", 1), and_monoid(), (1,))


def test_word_axioms_small_bounds():
    rep = check_operad_axioms(word_operad(), 2, 2)
    assert rep.passed


@pytest.mark.slow
def test_word_axioms_full_length_three():
    """The (3, 3) check passes with the closed-form instance counts of
    test_word_axiom_instance_counts_have_closed_forms at |W_n| = 1, 7, 53,
    187.  It runs in a child process, whose peak RSS must stay within 64
    MiB: the row store bounds the tables of both associativity checks.  The
    child reads its VmHWM, which Linux starts afresh at exec; its ru_maxrss
    can start at the RSS of the process that forked it, here pytest's."""
    script = (
        "import json\n"
        "from endop.operad_core import check_operad_axioms\n"
        "from endop.word_operad import word_operad\n"
        "rep = check_operad_axioms(word_operad(), 3, 3)\n"
        "with open('/proc/self/status') as status:\n"
        "    peak_kib = int(status.read().split('VmHWM:')[1].split()[0])\n"
        "print(json.dumps([rep.to_json_dict(), peak_kib]))\n"
    )
    src = os.path.dirname(os.path.dirname(endop.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    report, peak_kib = json.loads(proc.stdout)
    assert [(c["name"], c["instances"], c["pass"]) for c in report["checks"]] == [
        ("unit-left", 248, True),
        ("unit-right", 674, True),
        ("sequential-associativity", 112_660_448, True),
        ("parallel-commutation", 37_611_184, True),
        ("symmetric-action", 7_198, True),
        ("equivariance", 1_717_885, True),
    ]
    assert peak_kib <= 64 * 1024, f"peak RSS {peak_kib / 1024:.1f} MiB"


def test_evaluation_respects_composition_on_s3():
    rep = check_algebra_action(
        word_operad(), 6, lambda w, args: group_eval(w, S3, args), 2, 2
    )
    assert rep.passed


@pytest.mark.slow
def test_evaluation_respects_composition_on_s3_length_three():
    rep = check_algebra_action(
        word_operad(), 6, lambda w, args: group_eval(w, S3, args), 2, 3
    )
    assert rep.passed


def test_word_evaluation_natural_for_all_s3_endomorphisms():
    endos = monoid_endomorphisms(S3)
    assert len(endos) == 10
    for n in (0, 1, 2):
        for w in word_enumerate(n, 3):
            for args in product(range(6), repeat=n):
                val = group_eval(w, S3, args)
                for f in endos:
                    assert group_eval(w, S3, tuple(f[a] for a in args)) == f[val]


def test_words_separated_by_evaluation_on_s3():
    """Distinct short words in two generators induce distinct maps on S3."""
    words = word_enumerate(2, 2)
    tables = {}
    for w in words:
        tbl = tuple(group_eval(w, S3, args) for args in product(range(6), repeat=2))
        assert tbl not in tables, f"{w} and {tables[tbl]} agree on S3"
        tables[tbl] = w


def test_semigroup_with_involution_action_fails_at_arity_zero_composite():
    """For the two-element max-semigroup with the identity involution the
    word action breaks on a composite that collapses through the empty word;
    the checker records the counterexample rather than guessing a fix."""
    ev = lambda w, args: semigroup_eval(w, max, lambda x: x, 0, args)
    rep = check_algebra_action(word_operad(), 2, ev, 2, 3)
    assert not rep.passed
    first = rep.first_failure()
    assert first.name == "action-composition"
    assert "o_2 e" in first.witness


def test_parse_print_round_trip():
    for n in (0, 1, 2, 3):
        for w in word_enumerate(n, 3):
            assert parse_word(str(w), n) == w
    assert parse_word("", 2) == ReducedWord(2, ())
    with pytest.raises(ValueError):
        parse_word("y1", 1)


def test_word_action_law_convention():
    # (sigma . w) evaluated at args equals w at the sigma-permuted args
    for n in (2, 3):
        for w in word_enumerate(n, 2):
            for sigma in all_perms(n):
                acted = word_perm_act(sigma, w)
                for args in product(range(6), repeat=n):
                    permuted = tuple(args[s - 1] for s in sigma)
                    assert group_eval(acted, S3, args) == group_eval(w, S3, permuted)


def test_group_eval_on_cyclic_group():
    Z6 = cyclic_group(6)
    # x1^3 is tripling
    w = free_reduce([1, 1, 1], 1)
    for g in range(6):
        assert group_eval(w, Z6, (g,)) == (3 * g) % 6
