"""The q-power polynomial operad: substitution closure, the generator
presentation, evaluation in polynomial rings, and the linearity
classification."""

import copy
import importlib
import pickle
import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endop.errors import (
    FieldMismatch,
    MalformedTree,
    PositionOutOfRange,
    TruncationMismatch,
)
from endop.operad_core import PERM_TAG, PermElement, check_operad_axioms
from endop.qpoly_operad import (
    POLY_TAG,
    FieldPolynomial,
    QPolynomial,
    TreeLeaf,
    TreeMu,
    TreePq,
    characterize_multilinear,
    eval_poly,
    generated_submonomials,
    is_q_power,
    monomial_tree,
    multilinearity_check,
    qpoly_compose,
    qpoly_compose_rows,
    qpoly_from_tree,
    qpoly_operad,
    qpoly_perm_act,
    syntactic_q_power_criterion,
)
from endop.scalars import FiniteField, finite_field
from endop.word_operad import WORD_TAG, ReducedWord
from oracles import check_bound_rows, enumerate_trees, rewrite_once

# the module itself: the package binds the name qpoly_operad to the function
qpoly_operad_module = importlib.import_module("endop.qpoly_operad")
F2 = finite_field(2)
F3 = finite_field(3)
F4 = finite_field(4)


def test_is_q_power():
    assert [e for e in range(1, 20) if is_q_power(e, 2)] == [1, 2, 4, 8, 16]
    assert [e for e in range(1, 30) if is_q_power(e, 3)] == [1, 3, 9, 27]
    assert not is_q_power(0, 2)
    assert not is_q_power(2, 4)  # powers of q, not merely of p


def test_qpolynomial_invariant_enforced():
    QPolynomial.monomial(F2, (2, 1))  # fine
    with pytest.raises(ValueError):
        QPolynomial.monomial(F2, (3,))
    with pytest.raises(ValueError):
        QPolynomial.monomial(F2, (1, 0))  # a variable is missing
    with pytest.raises(ValueError):
        QPolynomial.monomial(F4, (2, 1))  # 2 = p is not a power of q = 4
    with pytest.raises(ValueError):
        QPolynomial(F2, 0, {(): 1})  # the operad starts in arity one


def test_qpolynomial_is_a_field_polynomial():
    f = QPolynomial.parse(F4, 2, "g*X1*X2^4 + X1^4*X2")
    p = FieldPolynomial(F4, 2, f.terms)
    assert isinstance(f, FieldPolynomial)
    assert f == p and p == f and hash(f) == hash(p) and str(f) == str(p)
    assert type(f * f) is FieldPolynomial  # products leave the q-power shape


def test_compose_examples():
    for q, F in ((2, F2), (3, F3), (4, F4)):
        x1x2 = QPolynomial.monomial(F, (1, 1))
        x1q = QPolynomial.monomial(F, (q,))
        assert qpoly_compose(x1x2, 1, x1q) == QPolynomial.monomial(F, (q, 1))
        # the product of q-th powers is the q-th power of the product
        assert qpoly_compose(x1q, 1, x1x2) == QPolynomial.monomial(F, (q, q))
    with pytest.raises(PositionOutOfRange):
        qpoly_compose(QPolynomial.monomial(F2, (1,)), 2, QPolynomial.monomial(F2, (1,)))
    with pytest.raises(FieldMismatch):
        qpoly_compose(QPolynomial.monomial(F2, (1,)), 1, QPolynomial.monomial(F3, (1,)))


def test_compose_multi_monomial_uses_frobenius():
    # (X1^q) o (g X1 X2) = g^q X1^q X2^q, and g^q = g: the q-power map fixes
    # every coefficient, so compose never applies it
    g = F4.generator()
    f = QPolynomial.monomial(F4, (4,))
    s = QPolynomial(F4, 2, {(1, 1): g})
    out = qpoly_compose(f, 1, s)
    assert out == QPolynomial(F4, 2, {(4, 4): g ** 4})
    assert g ** 4 == g  # coefficient Frobenius is the identity on F_q itself


def test_compose_closure_exhaustive():
    for q, F in ((2, F2), (3, F3), (4, F4)):
        exps = (1, q, q * q)
        monos = [QPolynomial.monomial(F, (e,)) for e in exps]
        monos += [QPolynomial.monomial(F, (e1, e2)) for e1 in exps for e2 in exps]
        for f in monos:
            for g in monos:
                for i in range(1, f.arity + 1):
                    h = qpoly_compose(f, i, g)
                    for exp, coeff in h.terms.items():
                        assert all(is_q_power(e, q) for e in exp)
                        assert coeff != F.zero_raw


def test_unit_and_axioms():
    P = qpoly_operad(F2)
    rep = check_operad_axioms(P, 2, 1)
    assert rep.passed
    rep = check_operad_axioms(qpoly_operad(F3), 2, 1)
    assert rep.passed


def test_perm_act_moves_variables():
    f = QPolynomial.monomial(F2, (2, 1))
    assert qpoly_perm_act((2, 1), f) == QPolynomial.monomial(F2, (1, 2))


def test_from_tree_examples():
    assert qpoly_from_tree(TreeLeaf(1), F2) == QPolynomial.monomial(F2, (1,))
    assert qpoly_from_tree(TreeMu(TreeLeaf(1), TreeLeaf(2)), F2) == QPolynomial.monomial(
        F2, (1, 1)
    )
    both = TreeMu(TreePq(TreeLeaf(1)), TreePq(TreeLeaf(2)))
    after = TreePq(TreeMu(TreeLeaf(1), TreeLeaf(2)))
    assert qpoly_from_tree(both, F2) == qpoly_from_tree(after, F2) == QPolynomial.monomial(F2, (2, 2))
    with pytest.raises(MalformedTree):
        qpoly_from_tree(TreeMu(TreeLeaf(1), TreeLeaf(1)), F2)
    with pytest.raises(MalformedTree):
        qpoly_from_tree(TreeMu(TreeLeaf(1), TreeLeaf(3)), F2)


def test_generated_submonomials():
    pairs = generated_submonomials(1, 2, F2)
    assert [str(m) for m, _ in pairs] == ["X1", "X1^2"]
    pairs = generated_submonomials(2, 2, F2)
    assert {str(m) for m, _ in pairs} == {"X1*X2", "X1^2*X2", "X1*X2^2", "X1^2*X2^2"}
    pairs = generated_submonomials(3, 1, F2)
    assert len(pairs) == 1 and str(pairs[0][1]) == "mu(mu(1,2),3)"
    with pytest.raises(ValueError):
        generated_submonomials(1, 3, F2)
    # every q-power monomial within bounds is hit (presentation is onto)
    for q, F in ((2, F2), (3, F3)):
        pairs = generated_submonomials(2, q * q, F)
        got = {next(iter(m.terms)) for m, _ in pairs}
        want = {(e1, e2) for e1 in (1, q, q * q) for e2 in (1, q, q * q)}
        assert got == want


def test_presentation_relations_sound_on_small_trees():
    """Rewriting by any presented relation never changes the polynomial."""
    for F in (F2, F3):
        for n in (1, 2, 3):
            count = 0
            for tree in enumerate_trees(n, 5 - n):
                value = qpoly_from_tree(tree, F)
                for other in rewrite_once(tree):
                    count += 1
                    assert qpoly_from_tree(other, F) == value
            if n >= 2:
                assert count > 0  # arity one has no mu node to rewrite


def test_monomial_tree_witnesses():
    for heights in product(range(3), repeat=2):
        t = monomial_tree(heights)
        assert qpoly_from_tree(t, F3) == QPolynomial.monomial(F3, tuple(3 ** h for h in heights))


def test_eval_poly_examples():
    e1 = FieldPolynomial.variable(F2, 2, 1)
    e2 = FieldPolynomial.variable(F2, 2, 2)
    f = FieldPolynomial.variable(F2, 1, 1)
    assert eval_poly(f, [e1]) == e1
    prod_poly = FieldPolynomial.monomial(F2, (1, 1))
    assert eval_poly(prod_poly, [e1, e2]) == e1 * e2
    # char 2: the cross term of the square vanishes
    sq = FieldPolynomial.monomial(F2, (2,))
    assert eval_poly(sq, [e1 + e2]) == e1 * e1 + e2 * e2


def test_power_is_the_repeated_product():
    f = FieldPolynomial.parse(F3, 2, "1 + X1 + 2*X2^2")
    acc = FieldPolynomial.parse(F3, 2, "1")
    for e in range(9):
        assert f ** e == acc, e
        acc = acc * f


def test_negative_power_is_refused():
    # a negative exponent once looped for ever: e >>= 1 keeps -1 at -1
    x = FieldPolynomial.variable(finite_field(2), 1, 1)
    for e in (-1, -2, -7):
        with pytest.raises(ValueError, match="negative exponent"):
            x ** e


def test_eval_poly_rejects_arguments_over_another_field():
    with pytest.raises(FieldMismatch):
        eval_poly(FieldPolynomial.variable(F2, 1, 1), [FieldPolynomial.variable(F3, 1, 1)])


def test_multilinearity_verdicts():
    assert multilinearity_check(FieldPolynomial.monomial(F2, (1, 1))).multilinear
    assert multilinearity_check(FieldPolynomial.monomial(F4, (1, 1))).multilinear
    assert multilinearity_check(FieldPolynomial.monomial(F2, (2,))).multilinear
    v = multilinearity_check(FieldPolynomial.monomial(F4, (2,)))
    assert not v.multilinear and "homogeneity" in v.witness
    v = multilinearity_check(FieldPolynomial.monomial(F2, (3,)))
    assert not v.multilinear and "additivity" in v.witness


def test_characterize_multilinear_frozen_sets():
    cases = {
        (2, 1, 4): {"X1", "X1^2", "X1^4"},
        (3, 1, 9): {"X1", "X1^3", "X1^9"},
        (4, 1, 4): {"X1", "X1^4"},
        (2, 2, 4): {"X1*X2", "X1^2*X2", "X1*X2^2", "X1^2*X2^2"},
    }
    for (q, n, maxdeg), expected in cases.items():
        good, bad = characterize_multilinear(n, maxdeg, finite_field(q))
        assert {str(m) for m in good} == expected
        assert all(
            not syntactic_q_power_criterion(next(iter(m.terms)), q) for m in bad
        )


def test_frobenius_compatibility_of_evaluation():
    rng = random.Random(5)
    for F in (F2, F3):
        q = F.q
        gens = [FieldPolynomial.variable(F, 2, i) for i in (1, 2)]
        for _ in range(6):
            exp = (rng.choice((1, q)), rng.choice((1, q)))
            f = FieldPolynomial.monomial(F, exp)
            fq = f ** q
            args = [gens[0] + gens[1], gens[rng.randrange(2)]]
            assert eval_poly(fq, args) == eval_poly(f, args) ** q


def test_print_parse_round_trip():
    samples = [
        QPolynomial.monomial(F2, (2, 1)),
        QPolynomial(F4, 2, {(1, 4): F4.generator(), (4, 4): F4.one()}),
        QPolynomial(
            F4, 1, {(1,): F4.generator() + F4.one(), (4,): F4.one()}
        ),
    ]
    for f in samples:
        assert QPolynomial.parse(f.field, f.arity, str(f)) == f
    assert str(FieldPolynomial(F2, 1, {})) == "0"
    assert FieldPolynomial.parse(F2, 1, "0").is_zero()


ROUND_TRIP_FIELDS = [finite_field(q) for q in (2, 3, 4, 8, 9, 16)]


@st.composite
def polynomials(draw, cls, F=None, arity=None):
    """A FieldPolynomial with exponents 0..20, or a QPolynomial with
    exponents q^0..q^3, over one of the round-trip fields (or F) in arity
    1..3 (or arity); the empty term dict and zero coefficients give the zero
    polynomial."""
    F = F or draw(st.sampled_from(ROUND_TRIP_FIELDS))
    arity = arity or draw(st.integers(1, 3))
    if cls is QPolynomial:
        exponent = st.integers(0, 3).map(lambda h: F.q ** h)
    else:
        exponent = st.integers(0, 20)
    terms = draw(
        st.dictionaries(st.tuples(*[exponent] * arity), st.sampled_from(F.elements()), max_size=5)
    )
    return cls(F, arity, terms)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([FieldPolynomial, QPolynomial]).flatmap(polynomials))
def test_print_parse_round_trip_on_random_polynomials(f):
    back = type(f).parse(f.field, f.arity, str(f))
    assert type(back) is type(f)
    assert back == f, str(f)


def _random_qpoly(rng, F, arity):
    elements = [v for v in F.elements() if v != F.zero_raw]
    terms = {
        tuple(F.q ** rng.randrange(3) for _ in range(arity)): rng.choice(elements)
        for _ in range(rng.randint(1, 3))
    }
    return QPolynomial(F, arity, terms)


def _substitute(f, i, g):
    """f with g put in for X_i, computed with FieldPolynomial's own * and **
    (so (sum c N)^(q^e) is multiplied out, with no Frobenius anywhere)."""
    F, m, n = f.field, f.arity, g.arity
    arity = m + n - 1
    block = FieldPolynomial(
        F, arity, {(0,) * (i - 1) + exp + (0,) * (m - i): c for exp, c in g.terms.items()}
    )
    args = [FieldPolynomial.variable(F, arity, j if j < i else j + n - 1) for j in range(1, m + 1)]
    args[i - 1] = block
    return eval_poly(f, args)


def test_compose_matches_substitution_oracle():
    rng = random.Random(11)
    for F in (F2, F3, F4):
        cases = 0
        for _ in range(40):
            f = _random_qpoly(rng, F, rng.randint(1, 2))
            g = _random_qpoly(rng, F, rng.randint(1, 2))
            for i in range(1, f.arity + 1):
                assert qpoly_compose(f, i, g) == _substitute(f, i, g)
                cases += 1
        assert cases >= 40
    # a coefficient outside the prime field, under a q-power in F_4
    f = QPolynomial.parse(F4, 1, "X1^4")
    g = QPolynomial.parse(F4, 2, "g*X1*X2 + X1^4*X2")
    assert str(qpoly_compose(f, 1, g)) == "g*X1^4*X2^4 + X1^16*X2^4"
    assert qpoly_compose(f, 1, g) == _substitute(f, 1, g)


def test_bound_qpoly_kernel_keeps_its_contract():
    """Kernels bound to lists of mixed arities, with monomials and sums, a
    duplicate, and the empty list, give the substitution oracle's rows."""
    rng = random.Random(13)
    for F in (F2, F3, F4):
        gs = [_random_qpoly(rng, F, rng.randint(1, 3)) for _ in range(4)]
        for ys in (gs + gs[:1], []):
            for _ in range(5):
                f = _random_qpoly(rng, F, rng.randint(1, 3))
                check_bound_rows(qpoly_compose_rows, _substitute, f, ys, rng)
    assert qpoly_compose.rows is qpoly_compose_rows


def test_unchecked_results_pass_the_validating_constructor():
    """compose and perm_act skip the shape check; rebuilding each result
    through the constructor must give it back unchanged."""
    rng = random.Random(7)
    for F in (F2, F3, F4):
        multi_term = 0
        for _ in range(30):
            f = _random_qpoly(rng, F, rng.randint(1, 3))
            g = _random_qpoly(rng, F, rng.randint(1, 3))
            multi_term += len(f.terms) > 1 and len(g.terms) > 1
            results = [qpoly_compose(f, i, g) for i in range(1, f.arity + 1)]
            results += [qpoly_perm_act(sigma, f) for sigma in permutations(range(1, f.arity + 1))]
            for h in results:
                assert type(h) is QPolynomial
                assert QPolynomial(h.field, h.arity, h.terms) == h
        assert multi_term >= 5


def test_coefficients_are_raw_field_values():
    g = F4.generator()
    f = QPolynomial(F4, 1, {(1,): g, (4,): 1})
    assert f.terms == {(1,): F4.coerce((0, 1)), (4,): F4.coerce((1, 0))}
    assert f == QPolynomial(F4, 1, {(1,): (0, 1), (4,): (1, 0)})
    assert hash(f) == hash(QPolynomial.parse(F4, 1, "g*X1 + X1^4"))
    p = FieldPolynomial(F3, 1, {(2,): 5, (1,): 3})  # 5 = 2 and 3 = 0 in F_3
    assert p.terms == {(2,): F3.coerce((2,))}
    assert p.scale(F3.scalar(2)) == p.scale(2) == FieldPolynomial(F3, 1, {(2,): 1})
    with pytest.raises(FieldMismatch):
        FieldPolynomial(F2, 1, {(1,): F3.one()})
    with pytest.raises(FieldMismatch):
        QPolynomial(F2, 1, {(1,): F4.one()})
    with pytest.raises(FieldMismatch):
        FieldPolynomial.variable(F2, 1, 1) * FieldPolynomial.variable(F3, 1, 1)
    with pytest.raises(TruncationMismatch):
        FieldPolynomial.variable(F2, 1, 1) + FieldPolynomial.variable(F2, 2, 1)


@pytest.mark.parametrize("text", ["X1^^2", "X0", "X3", "X1^-1", "h*X1", "X1**X2", "(g)*X1"])
def test_parse_rejects_malformed_polynomials(text):
    with pytest.raises(ValueError, match="bad "):
        FieldPolynomial.parse(F3, 2, text)


# -- the tuple layout and its canonical terms ---------------------------------
#
# Equality and hashing are the tuple's, so they are right only if every way of
# building a polynomial leaves its terms sorted by exponent and free of zeros.

def _assert_canonical(p, F, arity):
    assert (p[0], p[1], p[3]) == (POLY_TAG, arity, F.key)
    exps = [exp for exp, _ in p[2]]
    assert exps == sorted(set(exps)), p[2]
    assert all(c for _, c in p[2]), p[2]


@st.composite
def same_ring(draw):
    """Two FieldPolynomials over one field in one arity."""
    F = draw(st.sampled_from(ROUND_TRIP_FIELDS))
    arity = draw(st.integers(1, 3))
    return draw(polynomials(FieldPolynomial, F, arity)), draw(polynomials(FieldPolynomial, F, arity))


@settings(max_examples=100, deadline=None)
@given(same_ring(), st.integers(0, 3))
def test_ring_operations_give_canonical_terms(pair, e):
    f, g = pair
    F, n = f.field, f.arity
    built = [f, g, f + g, f + f, f * g, f ** e, FieldPolynomial.parse(F, n, str(f))]
    built += [f.scale(v) for v in F.elements()[:3]]
    built += [FieldPolynomial.monomial(F, next(iter(g.terms), (0,) * n)), FieldPolynomial.variable(F, n, n)]
    for p in built:
        _assert_canonical(p, F, n)
    assert (f + g) + g.scale(F.neg(F.one_raw)) == f  # a sum that cancels back to f


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ROUND_TRIP_FIELDS[:4]).flatmap(
    lambda F: st.tuples(polynomials(QPolynomial, F), polynomials(QPolynomial, F))
))
def test_compose_and_act_give_canonical_terms(pair):
    f, g = pair
    m, n = f.arity, g.arity
    for i in range(1, m + 1):
        h = qpoly_compose(f, i, g)
        _assert_canonical(h, f.field, m + n - 1)
        assert h == _substitute(f, i, g)
    for sigma in permutations(range(1, m + 1)):
        _assert_canonical(qpoly_perm_act(sigma, f), f.field, m)


def test_compose_sorts_and_cancels():
    """Over F_2: (X1 + X1^2) o (X1 + X1^2) = X1 + X1^4, the two X1^2 terms
    cancelling; and substitution meets the terms of
    (X1*X2^2 + X1^2*X2) o_1 (X1 + X1^2) out of exponent order."""
    f = QPolynomial.parse(F2, 1, "X1 + X1^2")
    assert qpoly_compose(f, 1, f) == QPolynomial.parse(F2, 1, "X1 + X1^4")
    assert qpoly_compose(f, 1, f)[2] == (((1,), 1), ((4,), 1))
    g = QPolynomial.parse(F2, 2, "X1*X2^2 + X1^2*X2")
    h = qpoly_compose(g, 1, f)
    assert h == QPolynomial.parse(F2, 2, "X1*X2^2 + X1^2*X2^2 + X1^2*X2 + X1^4*X2")
    assert [exp for exp, _ in h[2]] == [(1, 2), (2, 1), (2, 2), (4, 1)]
    for p in (f, g, h):
        assert qpoly_compose.rows([f, g, f])(p, 1) == [qpoly_compose(p, 1, x) for x in (f, g, f)]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([FieldPolynomial, QPolynomial]).flatmap(polynomials),
    st.sampled_from([FieldPolynomial, QPolynomial]).flatmap(polynomials),
    st.randoms(use_true_random=False),
)
def test_equality_and_hash_agree_with_the_term_dicts(f, g, rng):
    same = f.field == g.field and f.arity == g.arity and f.terms == g.terms
    assert (f == g) is same and (f != g) is not same
    if same:
        assert hash(f) == hash(g)
    shuffled = list(f.terms.items())
    rng.shuffle(shuffled)
    again = type(f)(f.field, f.arity, dict(shuffled))
    assert again == f and hash(again) == hash(f) and again.terms == f.terms


def test_polynomials_differ_from_words_projections_and_tuples():
    assert POLY_TAG not in (WORD_TAG, PERM_TAG)
    f = QPolynomial.monomial(F2, (1,))
    assert f != ReducedWord(1, (1,)) and f != PermElement(1, 1)
    fields = f[1:]
    assert f != fields and f != fields[:2]
    assert f != tuple.__new__(ReducedWord, (WORD_TAG, *fields))
    assert f != tuple.__new__(PermElement, (PERM_TAG, *fields))
    assert len({f, ReducedWord(1, (1,)), PermElement(1, 1), fields, fields[:2]}) == 5


def test_fields_stay_apart():
    x2, x4 = (QPolynomial.monomial(F, (1,)) for F in (F2, F4))
    assert x2.terms == x4.terms and x2 != x4
    # x^3 + x + 1 and x^3 + x^2 + 1: two F_8s whose raw values differ
    a, b = (FiniteField(2, 3, poly) for poly in ((1, 1, 0, 1), (1, 0, 1, 1)))
    assert QPolynomial(a, 1, {(1,): 3}) != QPolynomial(b, 1, {(1,): 3})
    # equal fields built apart give equal polynomials
    assert FiniteField(2) is not F2 and QPolynomial.monomial(FiniteField(2), (1,)) == x2
    assert hash(QPolynomial.monomial(FiniteField(2), (1,))) == hash(x2)
    for mixed in (
        lambda: qpoly_compose(x2, 1, x4),
        lambda: qpoly_compose.rows([x2, x4])(x2, 1),
        lambda: x2 + x4,
        lambda: x2 * x4,
        lambda: eval_poly(x2, [x4]),
    ):
        with pytest.raises(FieldMismatch):
            mixed()
    with pytest.raises(TypeError):
        2 * x2  # not tuple repetition


@pytest.mark.parametrize("text", ["0", "X1*X2", "(g+1)*X1*X2^4 + g*X1^4*X2"])
@pytest.mark.parametrize("cls", [FieldPolynomial, QPolynomial])
def test_polynomials_are_values(cls, text):
    f = cls.parse(F4, 2, text)
    assert f.field is F4 and f.arity == 2 and f.terms == dict(f[2])
    assert str(f) == text
    for back in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert back == f and hash(back) == hash(f) and type(back) is cls
    for name in ("arity", "field", "terms", "other"):
        with pytest.raises(AttributeError):
            setattr(f, name, 1)


# -- mutants of compose that leave its terms out of canonical form --------------
#
# Each is patched in as the row kernel, which qpoly_compose calls, and the
# substitution oracles must catch it.

def _met_terms(f, i, g):
    """The terms of f o_i g as substitution meets them, like terms summed."""
    F, out = f.field, {}
    for exp, c in f.terms.items():
        for gexp, gc in g.terms.items():
            key = exp[: i - 1] + tuple(e * exp[i - 1] for e in gexp) + exp[i:]
            out[key] = F.add(out.get(key, F.zero_raw), F.mul(c, gc))
    return out


def _unsorted_row(gs):
    """Wrong: the terms in the order substitution meets them."""
    gs = list(gs)
    return lambda f, i: [
        tuple.__new__(QPolynomial, (POLY_TAG, f.arity + g.arity - 1,
                                    tuple((e, c) for e, c in _met_terms(f, i, g).items() if c), f[3]))
        for g in gs
    ]


def _zero_keeping_row(gs):
    """Wrong: sorted, but the terms that cancel stay with coefficient zero."""
    gs = list(gs)
    return lambda f, i: [
        tuple.__new__(QPolynomial, (POLY_TAG, f.arity + g.arity - 1,
                                    tuple(sorted(_met_terms(f, i, g).items())), f[3]))
        for g in gs
    ]


@pytest.mark.parametrize("mutant", [_unsorted_row, _zero_keeping_row])
@pytest.mark.parametrize("oracle", [test_compose_sorts_and_cancels, test_compose_matches_substitution_oracle])
def test_non_canonical_compose_mutants_are_caught(monkeypatch, mutant, oracle):
    oracle()
    monkeypatch.setattr(qpoly_operad_module, "qpoly_compose_rows", mutant)
    with pytest.raises(AssertionError):
        oracle()
