"""Exact linear algebra: Kronecker powers against the index formula, kernels
against exhaustive solution counts, and equivariant hom spaces against both
the rational n! answer and a numpy brute-force count over F_2."""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from endop.errors import BoundExceeded, NotInvertible, UnsupportedDomain
from endop.linalg import (
    ExactMatrix,
    HomBasis,
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
    symmetric_group_image_dim,
)
from endop.perms import all_perms
from endop.scalars import QQ, IntegersMod, finite_field

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
    assert (empty.transpose().nrows, empty.transpose().ncols) == (1, 0)
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
    assert [[v[0] for v in row] for row in K.data] == [
        [1, 1, 1, 1],
        [0, 1, 0, 1],
        [0, 0, 1, 1],
        [0, 0, 0, 1],
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
    assert basis[0] == ((1,), (0,), (0,))
    m = ExactMatrix(F2, [[1, 1], [1, 1]])
    assert nullspace(m) == [((1,), (1,))]
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
    gens = random_invertible_generators(QQ, 3, 8, seed=0)
    assert equivariant_homs(gens, 2).dimension == 2


def test_permutation_operators_commute_with_any_tensor_power():
    # exact residual zero, for every d, n <= 3 and an arbitrary generator set
    for d in (2, 3):
        for n in (2, 3):
            gens = random_invertible_generators(QQ, d, 3, seed=d + n)
            for sigma in all_perms(n):
                P = permutation_operator(QQ, d, sigma)
                for g in gens:
                    B = kron_power(g, n)
                    assert (B * P - P * B).is_zero()


def test_commutant_monotone_under_more_generators():
    gens = random_invertible_generators(QQ, 2, 6, seed=3)
    dims = [equivariant_homs(gens[: k + 1], 2).dimension for k in range(len(gens))]
    assert all(d1 >= d2 for d1, d2 in zip(dims, dims[1:]))


def test_gl2_f2_commutant_pinned_and_numpy_oracle():
    gl2 = all_invertible_matrices(F2, 2)
    assert len(gl2) == 6
    basis = equivariant_homs(gl2, 2)
    assert basis.dimension == 3  # pinned regression value; must exceed 2
    # independent oracle: enumerate all 2^16 matrices over F_2 with numpy
    gens = [np.array([[v[0] for v in row] for row in g.data], dtype=np.int64) for g in gl2]
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
    assert symmetric_group_image_dim(d, n, QQ) == expected


def test_symmetric_group_image_dim_sympy_oracle():
    import sympy

    for d, n in ((2, 2), (2, 3), (3, 2)):
        vecs = []
        for sigma in all_perms(n):
            P = permutation_operator(QQ, d, sigma)
            vecs.append([int(x) for row in P.data for x in row])
        assert symmetric_group_image_dim(d, n, QQ) == sympy.Matrix(vecs).rank()


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
    D = diagonal_prime_matrix(QQ, 3)
    assert [D.data[i][i] for i in range(3)] == [2, 3, 5]
    assert matrix_rank(D) == 3


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
