"""Permutation helpers, including the block permutations used by the
equivariance axioms, checked against honest function composition."""

from itertools import product

import pytest

from endop.errors import OperadMismatch
from endop.perms import all_perms, compose_perms, embed_at, invert_perm, stretch_at
from endop.qpoly_operad import QPolynomial, qpoly_perm_act
from endop.scalars import finite_field
from endop.word_operad import parse_word, word_perm_act
from oracles import identity_perm, perm_on_tuple


def test_basic_group_structure():
    for n in range(1, 5):
        perms = all_perms(n)
        assert len(perms) == [1, 1, 2, 6, 24][n]
        e = identity_perm(n)
        for s in perms:
            assert compose_perms(s, invert_perm(s)) == e
            assert compose_perms(invert_perm(s), s) == e
            for t in perms:
                expected = tuple(s[t[i] - 1] for i in range(n))
                assert compose_perms(s, t) == expected


def _compose_functions(f, g, i, m, n, args):
    """(f o_i g)(args) computed on raw tuples."""
    inner = g(args[i - 1 : i - 1 + n])
    return f(args[: i - 1] + (inner,) + args[i - 1 + n :])


def test_stretch_at_matches_function_composition():
    """(sigma.f) o_i g == stretch_at(sigma,i,n) . (f o_{sigma^-1(i)} g) on
    every tuple of a small carrier, for projection-shaped f and g."""
    base = 3
    for m in (2, 3):
        for n in (1, 2):
            s = m + n - 1
            for sigma in all_perms(m):
                sigma_inv = invert_perm(sigma)
                for a in range(1, m + 1):
                    f = lambda args, a=a: args[a - 1]
                    sf = lambda args, f=f, sigma=sigma: f(perm_on_tuple(sigma, args))
                    for b in range(1, n + 1):
                        g = lambda args, b=b: args[b - 1]
                        for i in range(1, m + 1):
                            tau = stretch_at(sigma, i, n)
                            assert sorted(tau) == list(range(1, s + 1))
                            for args in product(range(base), repeat=s):
                                lhs = _compose_functions(sf, g, i, m, n, args)
                                rhs = _compose_functions(
                                    f, g, sigma_inv[i - 1], m, n, perm_on_tuple(tau, args)
                                )
                                assert lhs == rhs


def test_embed_at_matches_function_composition():
    base = 3
    for m in (1, 2, 3):
        for n in (2, 3):
            s = m + n - 1
            for rho in all_perms(n):
                for i in range(1, m + 1):
                    tau = embed_at(m, i, rho)
                    assert sorted(tau) == list(range(1, s + 1))
                    for a in range(1, m + 1):
                        f = lambda args, a=a: args[a - 1]
                        for b in range(1, n + 1):
                            g = lambda args, b=b: args[b - 1]
                            rg = lambda args, g=g, rho=rho: g(perm_on_tuple(rho, args))
                            for args in product(range(base), repeat=s):
                                lhs = _compose_functions(f, rg, i, m, n, args)
                                rhs = _compose_functions(
                                    f, g, i, m, n, perm_on_tuple(tau, args)
                                )
                                assert lhs == rhs


WORD = parse_word("x1 x2^-1", 2)
POLY = QPolynomial.parse(finite_field(2), 2, "X1*X2^2")


@pytest.mark.parametrize(
    "act, element, sigma",
    [
        # unchecked, these build x2 x3^-1 in arity 2, move X1 X2^2 to
        # X1^2 X2, drop X2, and raise an IndexError
        (word_perm_act, WORD, (2, 3)),
        (qpoly_perm_act, POLY, (0, 1)),
        (qpoly_perm_act, POLY, (1, 1)),
        (qpoly_perm_act, POLY, (2, 3)),
    ],
)
def test_act_functions_refuse_non_permutations(act, element, sigma):
    with pytest.raises(OperadMismatch):
        act(sigma, element)
