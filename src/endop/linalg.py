"""Dense exact linear algebra over the scalar domains.

Provides Kronecker powers, deterministic exact nullspaces, and bases of
equivariant hom spaces (matrices intertwining a list of group generators
acting on tensor powers).  Entries are stored row-major as raw domain values;
tensor indices are lexicographic with the leftmost factor most significant.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .errors import BoundExceeded, DomainMismatch, NotInvertible, UnsupportedDomain
from .perms import all_perms, invert_perm
from .scalars import QQ, Domain


class ExactMatrix:
    """Immutable dense matrix over one scalar domain.

    The column count is read off the rows; a matrix without rows takes it
    from `ncols` (default 0).
    """

    __slots__ = ("domain", "nrows", "ncols", "data")

    def __init__(self, domain: Domain, rows, ncols: int = 0):
        data = tuple(tuple(domain.coerce(x) for x in row) for row in rows)
        if data and any(len(r) != len(data[0]) for r in data):
            raise ValueError("ragged rows")
        self._fill(domain, data, ncols)

    def _fill(self, domain, data, ncols):
        self.domain = domain
        self.nrows = len(data)
        self.ncols = len(data[0]) if data else ncols
        self.data = data

    @classmethod
    def _canonical(cls, domain, data, ncols=0):
        """A matrix on a tuple of rows of canonical raw values, unchecked."""
        self = object.__new__(cls)
        self._fill(domain, data, ncols)
        return self

    @classmethod
    def identity(cls, domain, d):
        one, zero = domain.one_raw, domain.zero_raw
        return cls(domain, [[one if i == j else zero for j in range(d)] for i in range(d)])

    @classmethod
    def zeros(cls, domain, r, c):
        zero = domain.zero_raw
        return cls(domain, [[zero] * c for _ in range(r)], c)

    def _check(self, other):
        if self.domain is not other.domain and self.domain != other.domain:
            raise DomainMismatch("matrices live over different domains")

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.domain == other.domain
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.domain, self.data))

    def __add__(self, other):
        self._check(other)
        add = self.domain.add
        return ExactMatrix(
            self.domain,
            [
                [add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ],
            self.ncols,
        )

    def __neg__(self):
        neg = self.domain.neg
        return ExactMatrix(self.domain, [[neg(a) for a in row] for row in self.data], self.ncols)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        dom = self.domain
        add, mul, zero = dom.add, dom.mul, dom.zero_raw
        cols = list(zip(*other.data)) if other.data else []
        out = []
        for row in self.data:
            out_row = []
            for col in cols:
                acc = zero
                for a, b in zip(row, col):
                    if a != zero and b != zero:
                        acc = add(acc, mul(a, b))
                out_row.append(acc)
            out.append(tuple(out_row))
        return ExactMatrix._canonical(dom, tuple(out), other.ncols)

    def scale(self, c):
        c = self.domain.coerce(c)
        mul = self.domain.mul
        return ExactMatrix(self.domain, [[mul(c, a) for a in row] for row in self.data], self.ncols)

    def transpose(self):
        cols = list(zip(*self.data)) if self.data else [()] * self.ncols
        return ExactMatrix(self.domain, cols, self.nrows)

    def kron(self, other):
        """Kronecker product; leftmost factor most significant in the indices."""
        self._check(other)
        mul = self.domain.mul
        out = []
        for ra in self.data:
            for rb in other.data:
                out.append(tuple([mul(a, b) for a in ra for b in rb]))
        return ExactMatrix._canonical(self.domain, tuple(out), self.ncols * other.ncols)

    def is_zero(self):
        zero = self.domain.zero_raw
        return all(a == zero for row in self.data for a in row)

    def to_json(self):
        fmt = self.domain.format_value
        return [[fmt(a) for a in row] for row in self.data]

    def __repr__(self):
        return f"ExactMatrix({self.domain}, {self.nrows}x{self.ncols})"

    def __str__(self):
        return "\n".join("[" + ", ".join(map(self.domain.format_value, r)) + "]" for r in self.data)


def kron_power(m: ExactMatrix, n: int) -> ExactMatrix:
    """n-fold Kronecker power; the 1x1 identity for n = 0."""
    if n < 0:
        raise ValueError("negative tensor power")
    out = ExactMatrix.identity(m.domain, 1)
    for _ in range(n):
        out = out.kron(m)
    return out


def _require_field(domain):
    if not domain.is_field:
        raise UnsupportedDomain(f"exact elimination needs a field, got {domain}")


def _rref(rows, domain, ncols):
    """In-place reduced row echelon form; returns the pivot column list.

    Deterministic: the pivot for each column is the first not-yet-used row
    with a nonzero entry, scanning columns left to right.
    """
    zero = domain.zero_raw
    inv, mul, sub = domain.inv, domain.mul, domain.sub
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != zero:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        if pv != domain.one_raw:
            piv_inv = inv(pv)
            rows[r] = [x if x == zero else mul(piv_inv, x) for x in rows[r]]
        prow = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != zero:
                f = rows[i][c]
                rows[i] = [
                    x if y == zero else sub(x, mul(f, y))
                    for x, y in zip(rows[i], prow)
                ]
        pivots.append(c)
        r += 1
    return pivots


def _kernel_of_rows(rows, domain, ncols):
    """Kernel basis for a raw row list; rows are consumed in place."""
    pivots = _rref(rows, domain, ncols)
    pivot_set = set(pivots)
    zero, one, neg = domain.zero_raw, domain.one_raw, domain.neg
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for prow, pcol in enumerate(pivots):
            vec[pcol] = neg(rows[prow][free])
        basis.append(tuple(vec))
    return basis


def matrix_rank(m: ExactMatrix) -> int:
    _require_field(m.domain)
    rows = [list(r) for r in m.data]
    return len(_rref(rows, m.domain, m.ncols))


def vectors_rank(vectors, domain) -> int:
    _require_field(domain)
    rows = [list(v) for v in vectors]
    if not rows:
        return 0
    return len(_rref(rows, domain, len(rows[0])))


def nullspace(m: ExactMatrix):
    """Kernel basis over a field, one vector per free column.

    Vectors are raw-value tuples of length ncols, listed by ascending free
    column; the free coordinate carries 1.
    """
    _require_field(m.domain)
    return _kernel_of_rows([list(r) for r in m.data], m.domain, m.ncols)


# ---------------------------------------------------------------------------
# Kernels over Z/m.
#
# Over a composite modulus the solutions of a linear system form a submodule
# of (Z/m)^N rather than a vector space.  Its canonical generating set is the
# Howell form (Howell, "Spans in the module (Z_m)^s", 1986): an echelon form
# whose pivots divide m and reduce the entries above them, and in which the
# rows below each pivot span every element of the row span that vanishes up
# to and including that pivot's column.  It is computed by gcd elimination
# with annihilator rows, as in Storjohann & Mulders, "Fast algorithms for
# linear algebra modulo N" (ESA 1998).  Rows are lists of ints in 0..m-1.


def _unit_normaliser(a, m):
    """A unit u mod m with u * a = gcd(a, m) mod m, for 0 < a < m."""
    g = math.gcd(a, m)
    step = m // g
    u = pow(a // g, -1, step)
    while math.gcd(u, m) != 1:
        u += step
    return u


def howell_form(rows, m, ncols):
    """The nonzero rows of the Howell form of the span of `rows` mod m."""
    rows = [list(row) for row in rows]
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        top = rows[r]
        for i in range(r + 1, len(rows)):
            # Euclid on the two column-c entries: gcd on top, 0 below
            while rows[i][c]:
                q = top[c] // rows[i][c]
                top, rows[i] = rows[i], [(x - q * y) % m for x, y in zip(top, rows[i])]
        if not top[c]:
            continue
        u = _unit_normaliser(top[c], m)
        if u != 1:
            top = [u * x % m for x in top]
        rows[r] = top
        p = top[c]
        for i in range(r):
            q = rows[i][c] // p
            if q:
                rows[i] = [(y - q * x) % m for x, y in zip(top, rows[i])]
        if p != 1:
            # the annihilator multiple vanishes up to column c, so the rows
            # still to be echelonised must span it
            ann = m // p
            rows.append([ann * x % m for x in top])
        r += 1
    return rows[:r]


def _howell_remainder(pivoted, v, m):
    """v reduced by a Howell basis given as (pivot column, row) pairs; zero
    exactly when v lies in its span."""
    for c, row in pivoted:
        x = v[c]
        if x:
            p = row[c]
            if x % p:
                return v
            q = x // p
            v = [(y - q * b) % m for y, b in zip(v, row)]
    return v


def _kernel_generators(basis, m, ncols):
    """Howell basis of {x : H x = 0} for the Howell basis H, read off the
    Howell form of [H^T | I]: its rows that vanish on the H^T block."""
    k = len(basis)
    stacked = [
        [row[j] for row in basis] + [1 if i == j else 0 for i in range(ncols)]
        for j in range(ncols)
    ]
    return [row[k:] for row in howell_form(stacked, m, k + ncols) if not any(row[:k])]


def _span_elements(generators, m, ncols):
    """Every element of the span of a Howell basis, once each: coefficient
    i runs over range(m // pivot_i)."""
    elements = [(0,) * ncols]
    for g in generators:
        pivot = next(x for x in g if x)
        elements = [
            tuple([(e + c * x) % m for e, x in zip(el, g)])
            for el in elements
            for c in range(m // pivot)
        ]
    return elements


def zmod_kernel(rows, ncols, m, cap):
    """All x in (Z/m)^ncols with <row, x> = 0 for every row, in lexicographic
    order.

    `rows` may be any iterable and is consumed one row at a time: each row
    is reduced by the running Howell basis, which is recomputed only when a
    row falls outside its span.  Raises BoundExceeded, before listing
    anything, when the solution module has more than `cap` elements.
    """
    basis, pivoted = [], []
    for row in rows:
        v = _howell_remainder(pivoted, row, m)
        if any(v):
            basis = howell_form(basis + [v], m, ncols)
            pivoted = [(next(j for j, x in enumerate(g) if x), g) for g in basis]
    generators = _kernel_generators(basis, m, ncols)
    count = math.prod(m // next(x for x in g if x) for g in generators)
    if count > cap:
        raise BoundExceeded(f"{count} solutions mod {m} exceed the enumeration cap")
    return sorted(_span_elements(generators, m, ncols))


@dataclass(frozen=True)
class HomBasis:
    """A linearly independent list of d2 x d1 matrices over one domain."""

    domain_dim: int
    codomain_dim: int
    matrices: tuple
    domain: Domain = field(compare=False, default=None)

    def __post_init__(self):
        for m in self.matrices:
            if (m.nrows, m.ncols) != (self.codomain_dim, self.domain_dim):
                raise ValueError("basis matrix with wrong shape")
        if self.matrices:
            dom = self.matrices[0].domain
            vecs = [tuple(a for row in m.data for a in row) for m in self.matrices]
            if vectors_rank(vecs, dom) != len(vecs):
                raise ValueError("basis matrices are linearly dependent")

    @property
    def dimension(self):
        return len(self.matrices)

    def span_elements(self):
        """Every matrix in the span (finite domains only)."""
        if not self.matrices:
            dom = self.domain
            return [ExactMatrix.zeros(dom, self.codomain_dim, self.domain_dim)]
        dom = self.matrices[0].domain
        out = []
        from itertools import product as iproduct

        for coeffs in iproduct(dom.elements(), repeat=len(self.matrices)):
            acc = ExactMatrix.zeros(dom, self.codomain_dim, self.domain_dim)
            for c, m in zip(coeffs, self.matrices):
                acc = acc + m.scale(c)
            out.append(acc)
        return out

    def to_json(self):
        return [m.to_json() for m in self.matrices]


# ---------------------------------------------------------------------------
# Equivariant hom spaces.
#
# The unknown is a d_cod x d_dom matrix Phi subject to A_g Phi = Phi B_g for
# each generator g, where B_g is the tensor power acting on the source and
# A_g is the action on the target.  Generators are intersected one at a time:
# the running solution space is carried as a sparse matrix basis, and each
# step solves the restricted linear system exactly.


def _vec_index(i, j, ncols):
    return i * ncols + j


def _full_condition_rows(A, B, dom):
    dcod, ddom = A.nrows, B.nrows
    zero = dom.zero_raw
    add, sub = dom.add, dom.sub
    rows = []
    for i in range(dcod):
        Ai = A.data[i]
        for j in range(ddom):
            row = [zero] * (dcod * ddom)
            for a in range(dcod):
                if Ai[a] != zero:
                    col = _vec_index(a, j, ddom)
                    row[col] = add(row[col], Ai[a])
            for b in range(ddom):
                if B.data[b][j] != zero:
                    col = _vec_index(i, b, ddom)
                    row[col] = sub(row[col], B.data[b][j])
            rows.append(row)
    return rows


def _restricted_condition_rows(basis, A, B, dom):
    """Columns are vec(A Phi_t - Phi_t B) for the sparse basis matrices."""
    dcod, ddom = A.nrows, B.nrows
    zero = dom.zero_raw
    add, sub, mul = dom.add, dom.sub, dom.mul
    ncols = len(basis)
    rows = [[zero] * ncols for _ in range(dcod * ddom)]
    for t, phi in enumerate(basis):
        for (a, b), v in phi.items():
            for i in range(dcod):
                coeff = A.data[i][a]
                if coeff != zero:
                    idx = _vec_index(i, b, ddom)
                    rows[idx][t] = add(rows[idx][t], mul(coeff, v))
            for j in range(ddom):
                coeff = B.data[b][j]
                if coeff != zero:
                    idx = _vec_index(a, j, ddom)
                    rows[idx][t] = sub(rows[idx][t], mul(v, coeff))
    return rows


def _sparse_from_vec(vec, ddom, zero):
    return {
        (divmod(idx, ddom)): v for idx, v in enumerate(vec) if v != zero
    }


def _intersect_conditions(condition_pairs, dcod, ddom, dom, basis=None):
    """Running sparse basis of the solution space of A Phi = Phi B."""
    zero = dom.zero_raw
    for A, B in condition_pairs:
        if basis is not None and not basis:
            break
        if basis is None:
            rows = _full_condition_rows(A, B, dom)
            kernel = _kernel_of_rows(rows, dom, dcod * ddom)
            basis = [_sparse_from_vec(v, ddom, zero) for v in kernel]
        else:
            rows = _restricted_condition_rows(basis, A, B, dom)
            kernel = _kernel_of_rows(rows, dom, len(basis))
            new_basis = []
            for coeffs in kernel:
                acc = {}
                for c, phi in zip(coeffs, basis):
                    if c == zero:
                        continue
                    for cell, v in phi.items():
                        s = dom.add(acc.get(cell, zero), dom.mul(c, v))
                        if s == zero:
                            acc.pop(cell, None)
                        else:
                            acc[cell] = s
                new_basis.append(acc)
            basis = new_basis
    if basis is None:
        # no conditions: the whole matrix space
        basis = [{(i, j): dom.one_raw} for i in range(dcod) for j in range(ddom)]
    return basis


def _basis_to_matrices(basis, dcod, ddom, dom):
    zero = dom.zero_raw
    mats = []
    for phi in basis:
        rows = [[zero] * ddom for _ in range(dcod)]
        for (i, j), v in phi.items():
            rows[i][j] = v
        mats.append(ExactMatrix(dom, rows, ddom))
    return HomBasis(ddom, dcod, tuple(mats), dom)


def intertwiner_basis(condition_pairs, dcod, ddom, dom) -> HomBasis:
    """Solve A Phi = Phi B for every (A, B) pair; the pairs need not come
    from invertible maps.  Returns a basis of the joint solution space."""
    _require_field(dom)
    basis = _intersect_conditions(condition_pairs, dcod, ddom, dom)
    return _basis_to_matrices(basis, dcod, ddom, dom)


def equivariant_homs(generators, n: int, codomain_power: bool = True) -> HomBasis:
    """Basis of maps V^(tensor n) -> V^(tensor n) (or -> V) commuting with
    every generator of a subgroup of GL(V).

    Each generator g contributes the condition g_cod Phi = Phi g^(tensor n),
    where g_cod is g^(tensor n) for the tensor-power codomain and g itself
    for the vector codomain.
    """
    if not generators:
        raise ValueError("need at least one generator")
    dom = generators[0].domain
    d = generators[0].nrows
    for g in generators:
        if g.domain != dom:
            raise DomainMismatch("generators over mixed domains")
        if g.nrows != d or g.ncols != d:
            raise ValueError("generators must be square of equal size")
        if matrix_rank(g) != d:
            raise NotInvertible("singular generator")
    pairs = []
    for g in generators:
        B = kron_power(g, n)
        A = B if codomain_power else g
        pairs.append((A, B))
    ddom = d ** n
    dcod = ddom if codomain_power else d
    return intertwiner_basis(pairs, dcod, ddom, dom)


def permutation_operator(domain, d: int, sigma) -> ExactMatrix:
    """The operator permuting tensor factors: e_{t_1}x..xe_{t_n} goes to
    e_{t_{sigma^{-1}(1)}}x..xe_{t_{sigma^{-1}(n)}}."""
    n = len(sigma)
    inv = invert_perm(sigma)
    size = d ** n
    zero, one = domain.zero_raw, domain.one_raw
    rows = [[zero] * size for _ in range(size)]
    for col in range(size):
        t = []
        rest = col
        for _ in range(n):
            rest, r = divmod(rest, d)
            t.append(r)
        t.reverse()  # leftmost factor most significant
        s = [t[inv[j] - 1] for j in range(n)]
        row = 0
        for x in s:
            row = row * d + x
        rows[row][col] = one
    return ExactMatrix(domain, rows)


def symmetric_group_image_dim(d: int, n: int, domain=QQ) -> int:
    """Dimension of the span of the n! tensor-factor permutation operators."""
    vecs = []
    for sigma in all_perms(n):
        P = permutation_operator(domain, d, sigma)
        vecs.append(tuple(a for row in P.data for a in row))
    return vectors_rank(vecs, domain)


def diagonal_prime_matrix(domain, d: int) -> ExactMatrix:
    """diag(2, 3, 5, ...): scalars of pairwise distinct multiplicative order."""
    primes = []
    x = 2
    while len(primes) < d:
        for q in primes:
            if x % q == 0:
                break
        else:
            primes.append(x)
        x += 1
    zero = domain.zero_raw
    rows = [[zero] * d for _ in range(d)]
    for i, p in enumerate(primes):
        rows[i][i] = domain.coerce(p)
    return ExactMatrix(domain, rows)


def random_invertible_generators(domain, d: int, count: int, seed: int = 0):
    """Deterministic pseudorandom invertible matrices, preceded by the
    diagonal matrix with distinct prime entries."""
    rng = random.Random(seed)
    gens = [diagonal_prime_matrix(domain, d)]
    while len(gens) < count:
        rows = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        m = ExactMatrix(domain, rows)
        if matrix_rank(m) == d:
            gens.append(m)
    return gens


def all_invertible_matrices(domain, d: int):
    """Every element of GL_d over a finite domain (tiny sizes only)."""
    from itertools import product as iproduct

    els = domain.elements()
    out = []
    for flat in iproduct(els, repeat=d * d):
        rows = [flat[i * d : (i + 1) * d] for i in range(d)]
        m = ExactMatrix(domain, rows)
        if matrix_rank(m) == d:
            out.append(m)
    return out


def schur_weyl_dimension(d: int, n: int, count: int = 8, seed: int = 0, domain=QQ):
    """Dimension of the commutant of `count` seeded generators on V^(tensor n),
    with a stabilization check against doubling the generator list.

    Returns (dimension, stable, basis).  The doubled run reuses the first
    solution space and intersects the extra conditions into it, which gives
    the same space as solving the doubled system from scratch.
    """
    doubled = random_invertible_generators(domain, d, 2 * count, seed)
    ddom = d ** n
    pairs = []
    for g in doubled:
        B = kron_power(g, n)
        pairs.append((B, B))
    sparse = _intersect_conditions(pairs[:count], ddom, ddom, domain)
    basis = _basis_to_matrices(sparse, ddom, ddom, domain)
    sparse2 = _intersect_conditions(pairs[count:], ddom, ddom, domain, basis=sparse)
    return basis.dimension, basis.dimension == len(sparse2), basis
