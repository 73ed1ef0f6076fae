"""Exact linear algebra: Kronecker powers against the index formula, kernels
against exhaustive solution counts, equivariant hom spaces against both
the rational n! answer and a numpy brute-force count over F_2, and the
certified Schur-Weyl commutant against elimination over Q and sympy."""

import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import endop
from endop import linalg
from endop.errors import BoundExceeded, DomainMismatch, NotInvertible, UnsupportedDomain
from endop.linalg import (
    ExactMatrix,
    HomBasis,
    _certified_commutant,
    _intersect_conditions,
    _span_elements,
    all_invertible_matrices,
    diagonal_prime_matrix,
    equivariant_homs,
    howell_form,
    intertwiner_basis,
    kron_power,
    matrix_rank,
    module_elements,
    nullspace,
    permutation_operator,
    random_invertible_generators,
    schur_weyl_dimension,
    solution_generators,
    span_basis,
    symmetric_group_span,
)
from endop.perms import all_perms
from endop.scalars import QQ, IntegersMod, finite_field
from oracles import transpose

F2 = finite_field(2)
F3 = finite_field(3)


def test_kron_power_identity_and_scalar():
    I3 = ExactMatrix.identity(QQ, 3)
    assert kron_power(I3, 2) == ExactMatrix.identity(QQ, 9)
    a = ExactMatrix(QQ, [[Fraction(2, 3)]])
    assert kron_power(a, 2) == ExactMatrix(QQ, [[Fraction(4, 9)]])
    assert kron_power(a, 0) == ExactMatrix.identity(QQ, 1)


def test_matrices_without_rows_keep_their_column_count():
    Z4 = IntegersMod(4)
    empty = ExactMatrix(Z4, [], 1)
    assert (empty.nrows, empty.ncols) == (0, 1)
    assert (ExactMatrix(Z4, []).ncols, ExactMatrix.zeros(Z4, 0, 3).ncols) == (0, 3)
    # a 0x1 map times the 1x1 identity, and a 1x0 map's transpose
    assert (empty * ExactMatrix.identity(Z4, 1)).ncols == 1
    assert (transpose(empty).nrows, transpose(empty).ncols) == (1, 0)
    wide = empty.kron(ExactMatrix.zeros(Z4, 2, 3))
    assert (wide.nrows, wide.ncols) == (0, 3)


def test_matrix_shape_counts_in_sums_and_equality():
    Z4 = IntegersMod(4)
    with pytest.raises(ValueError):
        ExactMatrix(Z4, [[1, 2]]) + ExactMatrix(Z4, [[1]])
    with pytest.raises(ValueError):
        ExactMatrix(Z4, [], 1) + ExactMatrix(Z4, [], 2)
    # without rows, only the column count tells these apart
    assert ExactMatrix(Z4, []) != ExactMatrix(Z4, [], 1)
    assert ExactMatrix.zeros(Z4, 0, 2) == ExactMatrix(Z4, [], 2)
    assert len({ExactMatrix(Z4, [], c) for c in range(3)}) == 3
    assert ExactMatrix(Z4, [[1, 2]]) + ExactMatrix(Z4, [[3, 3]]) == ExactMatrix(Z4, [[0, 1]])


def test_negative_dimensions_are_rejected():
    with pytest.raises(ValueError):
        schur_weyl_dimension(-1, 2)
    with pytest.raises(ValueError):
        schur_weyl_dimension(2, -1)
    with pytest.raises(ValueError):
        all_invertible_matrices(F2, -1)
    with pytest.raises(ValueError):
        equivariant_homs([ExactMatrix.identity(QQ, 2)], -1)


def test_kron_square_f2_matches_index_formula():
    A = ExactMatrix(F2, [[1, 1], [0, 1]])
    K = kron_power(A, 2)
    # oracle: K[(2 i1 + i2, 2 j1 + j2)] = A[i1,j1] * A[i2,j2]
    for i1, i2, j1, j2 in product(range(2), repeat=4):
        expected = F2.mul(A.data[i1][j1], A.data[i2][j2])
        assert K.data[2 * i1 + i2][2 * j1 + j2] == expected
    assert [[F2.format_value(v) for v in row] for row in K.data] == [
        ["1", "1", "1", "1"],
        ["0", "1", "0", "1"],
        ["0", "0", "1", "1"],
        ["0", "0", "0", "1"],
    ]


def test_kron_functoriality_random():
    rng = random.Random(7)
    for dom in (QQ, F3):
        for _ in range(10):
            A = ExactMatrix(dom, [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)])
            B = ExactMatrix(dom, [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)])
            for n in range(3):
                assert kron_power(A * B, n) == kron_power(A, n) * kron_power(B, n)


def test_nullspace_edge_cases():
    assert nullspace(ExactMatrix.identity(QQ, 3)) == []
    basis = nullspace(ExactMatrix.zeros(F2, 3, 3))
    assert len(basis) == 3
    assert basis[0] == tuple(map(F2.coerce, ((1,), (0,), (0,))))
    m = ExactMatrix(F2, [[1, 1], [1, 1]])
    assert nullspace(m) == [tuple(map(F2.coerce, ((1,), (1,))))]
    with pytest.raises(UnsupportedDomain):
        nullspace(ExactMatrix.zeros(IntegersMod(4), 2, 2))
    assert nullspace(ExactMatrix.zeros(IntegersMod(5), 1, 2)) != []


@pytest.mark.parametrize("dom", [F2, F3], ids=str)
def test_nullspace_against_exhaustive_count(dom):
    # oracle: count solutions of A x = 0 by enumerating all vectors
    rng = random.Random(11)
    for trial in range(8):
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        A = ExactMatrix(dom, [[rng.randrange(dom.p) for _ in range(cols)] for _ in range(rows)])
        basis = nullspace(A)
        zero = dom.zero_raw
        for v in basis:
            for row in A.data:
                acc = zero
                for a, x in zip(row, v):
                    acc = dom.add(acc, dom.mul(a, x))
                assert acc == zero
        count = 0
        for vec in product(dom.elements(), repeat=cols):
            if all(
                _dot(dom, row, vec) == zero for row in A.data
            ):
                count += 1
        assert count == dom.size ** len(basis)


def _dot(dom, row, vec):
    acc = dom.zero_raw
    for a, x in zip(row, vec):
        acc = dom.add(acc, dom.mul(a, x))
    return acc


def test_hom_basis_rejects_dependent_matrices():
    m = ExactMatrix.identity(F2, 2)
    with pytest.raises(ValueError):
        HomBasis(2, 2, (m, m), F2)


def test_empty_hom_basis_spans_the_zero_matrix():
    assert HomBasis(2, 2, (), F2).span_elements() == [ExactMatrix.zeros(F2, 2, 2)]
    with pytest.raises(TypeError):
        HomBasis(2, 2, ())  # the domain is required
    with pytest.raises(DomainMismatch):
        HomBasis(2, 2, (ExactMatrix.identity(F3, 2),), F2)


def test_equivariant_identity_generator_is_everything():
    basis = equivariant_homs([ExactMatrix.identity(QQ, 2)], 2)
    assert basis.dimension == 16


def test_equivariant_rejects_singular_generator():
    with pytest.raises(NotInvertible):
        equivariant_homs([ExactMatrix.zeros(QQ, 2, 2)], 2)


def test_rational_commutant_is_group_algebra_dimension():
    dim, stable, basis = schur_weyl_dimension(2, 2, count=8, seed=0)
    assert dim == 2 and stable
    # d above n still gives the group-algebra dimension
    gens = random_invertible_generators(3, 8, seed=0)
    assert equivariant_homs(gens, 2).dimension == 2


def test_permutation_operators_commute_with_any_tensor_power():
    # exact residual zero, for every d, n <= 3 and an arbitrary generator set
    for d in (2, 3):
        for n in (2, 3):
            gens = random_invertible_generators(d, 3, seed=d + n)
            for sigma in all_perms(n):
                P = permutation_operator(QQ, d, sigma)
                for g in gens:
                    B = kron_power(g, n)
                    assert (B * P - P * B).is_zero()


def test_commutant_monotone_under_more_generators():
    gens = random_invertible_generators(2, 6, seed=3)
    dims = [equivariant_homs(gens[: k + 1], 2).dimension for k in range(len(gens))]
    assert all(d1 >= d2 for d1, d2 in zip(dims, dims[1:]))


def test_gl2_f2_commutant_pinned_and_numpy_oracle():
    gl2 = all_invertible_matrices(F2, 2)
    assert len(gl2) == 6
    basis = equivariant_homs(gl2, 2)
    assert basis.dimension == 3  # pinned regression value; must exceed 2
    # independent oracle: enumerate all 2^16 matrices over F_2 with numpy
    gens = [np.array([[int(F2.format_value(v)) for v in row] for row in g.data], dtype=np.int64) for g in gl2]
    kgens = [np.kron(g, g) % 2 for g in gens]
    count = 0
    for bits in range(1 << 16):
        phi = np.array([(bits >> k) & 1 for k in range(16)], dtype=np.int64).reshape(4, 4)
        if all(((kg @ phi - phi @ kg) % 2 == 0).all() for kg in kgens):
            count += 1
    assert count == 2 ** basis.dimension


@pytest.mark.parametrize(
    "d,n,expected",
    [(1, 1, 1), (2, 2, 2), (1, 2, 1), (2, 3, 5), (3, 3, 6)],
)
def test_symmetric_group_image_dim(d, n, expected):
    assert len(symmetric_group_span(d, n)[1]) == expected


def test_symmetric_group_image_dim_sympy_oracle():
    import sympy

    for d, n in ((2, 2), (2, 3), (3, 2)):
        vecs = []
        for sigma in all_perms(n):
            P = permutation_operator(QQ, d, sigma)
            vecs.append([int(x) for row in P.data for x in row])
        assert len(symmetric_group_span(d, n)[1]) == sympy.Matrix(vecs).rank()


def test_span_basis_is_the_solver_form():
    # each vector ends in a 1, in a column where the others are 0, listed by
    # that column; and the span is kept, at sympy's rank
    import sympy

    rng = random.Random(5)
    for _ in range(20):
        vecs = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(5)) for _ in range(rng.randint(0, 4))]
        basis = span_basis(vecs, QQ)
        lasts = [max(k for k, x in enumerate(v) if x) for v in basis]
        assert lasts == sorted(set(lasts))
        for v, last in zip(basis, lasts):
            assert v[last] == 1 and all(w[last] == 0 for w in basis if w is not v)
        assert len(basis) == sympy.Matrix(len(vecs), 5, [int(x) for v in vecs for x in v]).rank()
        assert len(span_basis(vecs + basis, QQ)) == len(basis)


# -- the certified Schur-Weyl commutant ------------------------------------------

def _eliminated(d, n, count, seed):
    """(dimension, stable, flattened basis) of the commutant by elimination
    over Q of the same generators' conditions, without the certificate."""
    doubled = random_invertible_generators(d, 2 * count, seed)
    size = d ** n
    cells = [(0, i, j) for i in range(size) for j in range(size)]
    conditions = [(0, 0, B, B) for B in (kron_power(g, n) for g in doubled)]
    first = _intersect_conditions(conditions[:count], cells, QQ)
    again = _intersect_conditions(conditions[count:], cells, QQ, first)
    flat = [tuple(QQ.format_value(gen.get(c, QQ.zero_raw)) for c in cells) for gen in first]
    return len(first), len(first) == len(again), flat


@pytest.mark.parametrize(
    "d, n", [(0, 2), (2, 0), (1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (4, 2), (2, 4)]
)
def test_certified_commutant_matches_elimination_over_q(d, n, monkeypatch):
    certified = []
    monkeypatch.setattr(
        linalg,
        "_certified_commutant",
        lambda *a: certified.append(_certified_commutant(*a)) or certified[-1],
    )
    for count in (0, 1, 2, 8):
        for seed in range(3):
            dim, stable, basis = schur_weyl_dimension(d, n, count, seed)
            # with no generator, or only the diagonal one, the commutant
            # exceeds the S_n image once d, n >= 2; and at d <= 1 the n!
            # operators outnumber the d^(2n) cells: those fall back to the
            # elimination that the oracle below would repeat
            expected = (count >= 2 or n < 2) and math.factorial(n) <= d ** (2 * n)
            assert (certified[-1] is not None) == expected, (count, seed)
            if expected:
                flat = [tuple(QQ.format_value(a) for row in m.data for a in row) for m in basis.matrices]
                assert (dim, stable, flat) == _eliminated(d, n, count, seed), (count, seed)


def test_certificate_falls_back_when_the_bounds_differ():
    # the diagonal generator alone: diag(4, 6, 6, 9) commutes with a
    # 1 + 4 + 1 dimensional space, against the S_n image's 2
    gens = [kron_power(g, 2) for g in random_invertible_generators(2, 2, seed=0)]
    cells = [(0, i, j) for i in range(4) for j in range(4)]
    assert _certified_commutant(2, 2, gens, 1, cells) is None
    assert schur_weyl_dimension(2, 2, count=1)[:2] == (6, False)
    # a non-integer entry has no reduction mod p
    half = kron_power(ExactMatrix(QQ, [[Fraction(1, 2)]]), 2)
    assert _certified_commutant(1, 2, [half], 1, [(0, 0, 0)]) is None


def _condition_rows(B):
    """The rows of Phi -> B Phi - Phi B on the row-major entries of Phi."""
    size = len(B)
    rows = []
    for i in range(size):
        for j in range(size):
            row = [0] * (size * size)
            for k in range(size):
                row[k * size + j] += B[i][k]
                row[i * size + k] -= B[k][j]
            rows.append(row)
    return rows


@pytest.mark.parametrize("d, n", [(2, 3), (3, 2), (2, 4)])
def test_schur_weyl_dimension_sympy_rank_oracle(d, n):
    from sympy import QQ as sympy_QQ
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix

    rows = []
    for g in random_invertible_generators(d, 8, seed=0):
        rows += _condition_rows([[int(x) for x in row] for row in kron_power(g, n).data])
    rank = DomainMatrix.from_list(rows, ZZ).to_sparse().convert_to(sympy_QQ).rank()
    assert schur_weyl_dimension(d, n)[0] == d ** (2 * n) - rank


CERTIFICATE_INJECTIONS = [
    # the last permutation operator with its first two rows swapped
    (
        "op = linalg.permutation_operator\n"
        "linalg.permutation_operator = lambda dom, d, s: (lambda P: linalg.ExactMatrix("
        "dom, (P.data[1], P.data[0]) + P.data[2:], P.ncols))(op(dom, d, s)) "
        "if list(s) == sorted(s, reverse=True) else op(dom, d, s)",
        "Schur-Weyl certificate at (d, n) = (2, 3): permutation operator 5",
    ),
    # a modular solve that drops one generator
    (
        "solved = linalg._intersect_conditions\n"
        "linalg._intersect_conditions = lambda c, cells, dom, *a: solved(c, cells, dom, *a)"
        "[isinstance(dom, IntegersMod):]",
        "Schur-Weyl certificate at (d, n) = (2, 3): dimension 4 mod 2147483647 < 5",
    ),
]


def test_certificate_faults_raise_under_python_O():
    """A wrong permutation operator or a short modular solve is caught by a
    check that -O does not strip, and the message names (d, n)."""
    src = os.path.dirname(os.path.dirname(endop.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for inject, message in CERTIFICATE_INJECTIONS:
        script = textwrap.dedent(
            """
            import sys
            from endop import linalg
            from endop.errors import VerificationFailed
            from endop.scalars import IntegersMod

            assert sys.flags.optimize
            {inject}
            try:
                linalg.schur_weyl_dimension(2, 3)
            except VerificationFailed as exc:
                print("VerificationFailed:", exc)
            """
        ).format(inject=inject)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("VerificationFailed: " + message), proc.stdout


def test_intertwiner_accepts_singular_conditions():
    # conditions need not come from invertible maps: against the empty tensor
    # power (B the 1x1 identity), f = 0 forces phi = 0
    zero = ExactMatrix.zeros(F2, 2, 2)
    basis = intertwiner_basis([(zero, kron_power(zero, 0))], 2, 1, F2)
    assert basis.dimension == 0
    # while 0.phi = phi.0 constrains nothing
    full = intertwiner_basis([(zero, kron_power(zero, 1))], 2, 2, F2)
    assert full.dimension == 4


def test_diagonal_prime_matrix():
    D = diagonal_prime_matrix(3)
    assert [D.data[i][i] for i in range(3)] == [2, 3, 5]
    assert matrix_rank(D) == 3


def test_rational_generators_are_pinned():

    def ints(gens):
        return [[[int(x) for x in row] for row in g.data] for g in gens]

    assert ints(random_invertible_generators(2, 4, seed=0)) == [
        [[2, 0], [0, 3]], [[-3, -1], [1, 0]], [[0, 3], [3, -1]], [[0, -1], [1, -2]],
    ]
    assert ints(random_invertible_generators(3, 3, seed=2)) == [
        [[2, 0, 0], [0, 3, 0], [0, 0, 5]],
        [[3, 3, -3], [-3, -3, -1], [3, -2, 2]],
        [[3, 2, 3], [-1, -1, 1], [-2, 1, -3]],
    ]


def test_matrix_json_uses_scalar_strings():
    m = ExactMatrix(QQ, [[Fraction(3, 4), 1]])
    assert m.to_json() == [["3/4", "1"]]
    g = finite_field(4).generator()
    m = ExactMatrix(finite_field(4), [[g.value, (1, 1)]])
    assert m.to_json() == [["g", "g+1"]]


# -- kernels over Z/m -----------------------------------------------------------

def _random_system(rng, m, ncols, nrows):
    """Rows with many zero divisors: entries are multiples of random divisors of m."""
    divisors = [d for d in range(1, m) if m % d == 0]
    return [
        [rng.choice(divisors) * rng.randrange(m) % m if rng.random() < 0.7 else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]


def _solve_rows(rows, ncols, m, cap):
    """Every solution of the system <row, x> = 0, solved and listed: x is
    the 1 x ncols unknown of object 1, and each row is the condition
    0 . Phi_0 = Phi_1 B with B the row as a column; object 0 has no unknown
    cells."""
    R = IntegersMod(m)
    conditions = (
        (0, 1, ExactMatrix.zeros(R, 1, 1), ExactMatrix(R, [[x] for x in row], 1))
        for row in rows
    )
    generators = solution_generators(conditions, [(1, 0, j) for j in range(ncols)], R)
    return module_elements(generators, m, ncols, cap)


@pytest.mark.parametrize("m", [4, 6, 8, 9, 12])
def test_zmod_kernel_matches_brute_force(m):
    rng = random.Random(m)
    for _ in range(60):
        ncols = rng.randint(0, 4 if m < 12 else 3)
        rows = _random_system(rng, m, ncols, rng.randint(0, 5))
        brute = [
            x
            for x in product(range(m), repeat=ncols)
            if all(sum(a * b for a, b in zip(row, x)) % m == 0 for row in rows)
        ]
        assert _solve_rows(rows, ncols, m, cap=m ** ncols) == brute, rows


@pytest.mark.parametrize("m", [4, 6, 8, 9, 12])
def test_howell_form_lists_its_span_once(m):
    rng = random.Random(100 + m)
    for _ in range(40):
        ncols = rng.randint(1, 3)
        rows = _random_system(rng, m, ncols, rng.randint(1, 3))
        span = {
            tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % m for j in range(ncols))
            for coeffs in product(range(m), repeat=len(rows))
        }
        listed = _span_elements(howell_form(rows, m, ncols), m, ncols)
        assert len(listed) == len(span) and set(listed) == span, rows


def test_zmod_kernel_cap_is_checked_before_listing():
    # x + y = 0 over Z/8: eight solutions
    assert len(_solve_rows([[1, 1]], 2, 8, cap=8)) == 8
    with pytest.raises(BoundExceeded):
        _solve_rows([[1, 1]], 2, 8, cap=7)
    assert _solve_rows([], 0, 4, cap=1) == [()]
