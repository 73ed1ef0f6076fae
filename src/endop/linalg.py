"""Dense exact linear algebra over the scalar domains.

Provides Kronecker powers, deterministic exact nullspaces, and bases of
equivariant hom spaces (matrices intertwining a list of group generators
acting on tensor powers).  Entries are stored row-major as raw domain values;
tensor indices are lexicographic with the leftmost factor most significant.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cache
from itertools import product

from .errors import BoundExceeded, DomainMismatch, NotInvertible, UnsupportedDomain
from .errors import VerificationFailed
from .perms import all_perms, invert_perm
from .scalars import QQ, Domain, IntegersMod

# the most candidates an exhaustive driver enumerates, or solutions it lists
CANDIDATE_CAP = 1 << 20


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
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and self.domain == other.domain
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.domain, self.nrows, self.ncols, self.data))

    def __add__(self, other):
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
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
        out = []
        for row in self.data:
            # the row's combination of the rows of other
            acc = [zero] * other.ncols
            for a, brow in zip(row, other.data):
                if a:
                    acc = [add(x, mul(a, b)) if b else x for x, b in zip(acc, brow)]
            out.append(tuple(acc))
        return ExactMatrix._canonical(dom, tuple(out), other.ncols)

    def scale(self, c):
        c = self.domain.coerce(c)
        mul = self.domain.mul
        return ExactMatrix(self.domain, [[mul(c, a) for a in row] for row in self.data], self.ncols)

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
        return not any(map(any, self.data))

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
    out = ExactMatrix.identity(m.domain, 1) if n == 0 else m
    for _ in range(n - 1):
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
    one, inv, mul, sub = domain.one_raw, domain.inv, domain.mul, domain.sub
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        if pv != one:
            piv_inv = inv(pv)
            rows[r] = [mul(piv_inv, x) if x else x for x in rows[r]]
        prow = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [sub(x, mul(f, y)) if y else x for x, y in zip(rows[i], prow)]
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


def span_basis(vectors, domain):
    """A basis of the span of raw vectors over a field, in the solver's form:
    each vector ends in a 1 where the others are 0, listed by that column."""
    _require_field(domain)
    rows = [list(reversed(v)) for v in vectors]
    rank = len(_rref(rows, domain, len(rows[0]) if rows else 0))
    return [tuple(reversed(row)) for row in reversed(rows[:rank])]


def matrix_rank(m: ExactMatrix) -> int:
    return len(span_basis(m.data, m.domain))


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
# The solver below takes each step's kernel from here over Z/m.


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


@dataclass(frozen=True)
class HomBasis:
    """A linearly independent list of d2 x d1 matrices over one domain."""

    domain_dim: int
    codomain_dim: int
    matrices: tuple
    domain: Domain = field(compare=False)

    def __post_init__(self):
        for m in self.matrices:
            if (m.nrows, m.ncols) != (self.codomain_dim, self.domain_dim):
                raise ValueError("basis matrix with wrong shape")
            if m.domain != self.domain:
                raise DomainMismatch(f"basis matrix over {m.domain}, not {self.domain}")
        if self.matrices:
            vecs = [tuple(a for row in m.data for a in row) for m in self.matrices]
            if len(span_basis(vecs, self.domain)) != len(vecs):
                raise ValueError("basis matrices are linearly dependent")

    @property
    def dimension(self):
        return len(self.matrices)

    def span_elements(self):
        """Every matrix in the span (finite domains only)."""
        dom = self.domain
        out = []
        for coeffs in product(dom.elements(), repeat=len(self.matrices)):
            acc = ExactMatrix.zeros(dom, self.codomain_dim, self.domain_dim)
            for c, m in zip(coeffs, self.matrices):
                acc = acc + m.scale(c)
            out.append(acc)
        return out

    def to_json(self):
        return [m.to_json() for m in self.matrices]


# ---------------------------------------------------------------------------
# Linear naturality conditions: the one solver.
#
# The unknowns are matrices Phi_o, one per object o, whose free entries are
# the given cells (o, row, column); every other entry is zero.  A condition
# (src, dst, A, B) asks A Phi_src = Phi_dst B.  Conditions are intersected
# one at a time: the running solutions are carried as sparse generators
# keyed by cell, starting from the cells' unit vectors, and each step solves
# the small system the condition restricts to on their span.  Over a field
# that is elimination, and the generators stay the canonical basis of
# eliminating every condition at once (each vector ends in a 1, in a column
# where the others are 0).  Over Z/m it is the Howell form, and the
# generators span the solution module.


def _restricted_condition_rows(generators, src, dst, A, B, dom):
    """The nonzero rows of A Phi_src - Phi_dst B on the generators' span: one
    row per entry of the residual, one column per generator."""
    zero, add, sub, mul = dom.zero_raw, dom.add, dom.sub, dom.mul
    width, k = B.ncols, len(generators)
    a_cols = [
        [(i, x) for i, x in enumerate(col) if x]
        for col in (zip(*A.data) if A.data else [()] * A.ncols)
    ]
    b_rows = [[(j, x) for j, x in enumerate(row) if x] for row in B.data]
    rows = defaultdict(lambda: [zero] * k)
    for t, gen in enumerate(generators):
        for (o, a, b), v in gen.items():
            if o == src:
                for i, x in a_cols[a]:
                    row = rows[i * width + b]
                    row[t] = add(row[t], mul(x, v))
            if o == dst:
                for j, x in b_rows[b]:
                    row = rows[a * width + j]
                    row[t] = sub(row[t], mul(v, x))
    return [row for row in rows.values() if any(row)]


def _intersect_conditions(conditions, cells, dom, generators=None):
    """Sparse generators of the solutions of every condition (src, dst, A, B),
    A Phi_src = Phi_dst B, in the unknown cells; by default the intersection
    starts from the cells' unit vectors, and it stops once none is left."""
    zero, add, mul = dom.zero_raw, dom.add, dom.mul
    if generators is None:
        generators = [{cell: dom.one_raw} for cell in cells]
    for src, dst, A, B in conditions:
        if not generators:
            break
        rows = _restricted_condition_rows(generators, src, dst, A, B, dom)
        if not rows:
            continue
        k = len(generators)
        if dom.is_field:
            kernel = _kernel_of_rows(rows, dom, k)
        else:
            kernel = _kernel_generators(howell_form(rows, dom.size, k), dom.size, k)
        combined = []
        for coeffs in kernel:
            acc = {}
            for c, gen in zip(coeffs, generators):
                if not c:
                    continue
                for cell, v in gen.items():
                    s = add(acc.get(cell, zero), mul(c, v))
                    if s:
                        acc[cell] = s
                    else:
                        acc.pop(cell, None)
            if acc:
                combined.append(acc)
        generators = combined
    return generators


def solution_generators(conditions, cells, dom):
    """Generators of the solutions as flat tuples over `cells`: over a field
    the canonical basis of the solution space, over Z/m a generating set of
    the solution module."""
    index = {cell: k for k, cell in enumerate(cells)}
    out = []
    for gen in _intersect_conditions(conditions, cells, dom):
        vec = [dom.zero_raw] * len(cells)
        for cell, v in gen.items():
            vec[index[cell]] = v
        out.append(tuple(vec))
    return out


def module_elements(generators, m, ncols, cap):
    """Every element of the span of the generators mod m, once each, in
    lexicographic order.  Raises BoundExceeded, before listing anything, when
    there are more than `cap`."""
    basis = howell_form(generators, m, ncols)
    count = math.prod(m // next(x for x in g if x) for g in basis)
    if count > cap:
        raise BoundExceeded(f"{count} solutions mod {m} exceed the enumeration cap")
    return sorted(_span_elements(basis, m, ncols))


def _basis_to_matrices(basis, dcod, ddom, dom):
    zero = dom.zero_raw
    mats = []
    for phi in basis:
        rows = [[zero] * ddom for _ in range(dcod)]
        for (_, i, j), v in phi.items():
            rows[i][j] = v
        mats.append(ExactMatrix(dom, rows, ddom))
    return HomBasis(ddom, dcod, tuple(mats), dom)


def intertwiner_basis(condition_pairs, dcod, ddom, dom) -> HomBasis:
    """Solve A Phi = Phi B for every (A, B) pair; the pairs need not come
    from invertible maps.  Returns a basis of the joint solution space."""
    _require_field(dom)
    conditions = [(0, 0, A, B) for A, B in condition_pairs]
    cells = [(0, i, j) for i in range(dcod) for j in range(ddom)]
    basis = _intersect_conditions(conditions, cells, dom)
    return _basis_to_matrices(basis, dcod, ddom, dom)


def equivariant_homs(generators, n: int) -> HomBasis:
    """Basis of maps V^(tensor n) -> V^(tensor n) commuting with every
    generator of a subgroup of GL(V): each generator g contributes the
    condition g^(tensor n) Phi = Phi g^(tensor n).
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
    pairs = [(B, B) for B in (kron_power(g, n) for g in generators)]
    return intertwiner_basis(pairs, d ** n, d ** n, dom)


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


def symmetric_group_span(d: int, n: int):
    """The n! tensor-factor permutation operators over Q, and the `span_basis`
    of their span as flattened matrices: the S_n image in End(V^(tensor n))."""
    operators = [permutation_operator(QQ, d, sigma) for sigma in all_perms(n)]
    vecs = [tuple(a for row in P.data for a in row) for P in operators]
    return operators, span_basis(vecs, QQ)


def diagonal_prime_matrix(d: int) -> ExactMatrix:
    """diag(2, 3, 5, ...) over Q: scalars of pairwise distinct
    multiplicative order."""
    primes = []
    x = 2
    while len(primes) < d:
        if all(x % q for q in primes):
            primes.append(x)
        x += 1
    return ExactMatrix(QQ, [[p if i == j else 0 for j in range(d)] for i, p in enumerate(primes)])


def random_invertible_generators(d: int, count: int, seed: int = 0):
    """Deterministic pseudorandom invertible matrices over Q, preceded by
    the diagonal matrix with distinct prime entries."""
    if d < 0:
        raise ValueError(f"dimension {d} must be non-negative")
    rng = random.Random(seed)
    gens = [diagonal_prime_matrix(d)]
    while len(gens) < count:
        rows = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        m = ExactMatrix(QQ, rows)
        if matrix_rank(m) == d:
            gens.append(m)
    return gens


def all_square_matrices(domain, d: int):
    """Every d x d matrix over a finite domain, in lexicographic order."""
    els = domain.elements()
    for flat in product(els, repeat=d * d):
        yield ExactMatrix(domain, [flat[i * d : (i + 1) * d] for i in range(d)])


def all_invertible_matrices(domain, d: int):
    """Every element of GL_d over a finite domain, from at most CANDIDATE_CAP
    candidate matrices."""
    if d < 0:
        raise ValueError(f"dimension {d} must be non-negative")
    if domain.size ** (d * d) > CANDIDATE_CAP:
        raise BoundExceeded(f"cannot enumerate {domain.size}^{d * d} candidate matrices")
    return [m for m in all_square_matrices(domain, d) if matrix_rank(m) == d]


@cache
def _certificate_field():
    """Z/(2^31 - 1), built once on first use: its primality test is a trial
    division of some milliseconds, too slow for every call and for import."""
    return IntegersMod(2 ** 31 - 1)


def _certified_commutant(d, n, powers, count, cells):
    """The S_n image's `span_basis` if it is proven to be the commutant of
    powers[:count] over Q, else None.  For integer generators the commutant
    mod a prime is no smaller than over Q, and the re-checked S_n image no
    larger; where they meet, it is the commutant of the doubled list too."""
    size, where = d ** n, f"Schur-Weyl certificate at (d, n) = ({d}, {n})"
    # n! operators past d^(2n) cells (d <= 1, or d = 2 and n >= 9) cost more
    if math.factorial(n) > size * size or any(
        x.denominator != 1 for B in powers for row in B.data for x in row
    ):
        return None
    ints = [[[int(x) for x in row] for row in B.data] for B in powers]
    operators, basis = symmetric_group_span(d, n)
    for k, P in enumerate(operators):
        # P e_j = e_image[j] commutes with B iff B[image[i]][image[j]] = B[i][j]
        image = [next((i for i, x in enumerate(col) if x), 0) for col in zip(*P.data)]
        unit = [[int(image[j] == i) for j in range(size)] for i in range(size)]
        if sorted(image) != list(range(size)) or P != ExactMatrix(QQ, unit, size) or any(
            [B[image[i]][j] for j in image] != B[i] for B in ints for i in range(size)
        ):
            raise VerificationFailed(f"{where}: permutation operator {k} fails to commute")
    field = _certificate_field()
    conditions = [(0, 0, M, M) for M in (ExactMatrix(field, B, size) for B in ints[:count])]
    upper = len(_intersect_conditions(conditions, cells, field))
    if upper < len(basis):
        raise VerificationFailed(f"{where}: dimension {upper} mod {field.m} < {len(basis)} of S_n")
    return basis if upper == len(basis) else None


def schur_weyl_dimension(d: int, n: int, count: int = 8, seed: int = 0):
    """Dimension over Q of the commutant of `count` seeded generators on
    V^(tensor n), with a stabilization check against doubling the generator
    list.

    Returns (dimension, stable, basis).  The S_n image is certified first,
    stability with it.  Else the doubled run intersects the extra
    conditions into the first solution space, which is the same as solving
    the doubled system from scratch."""
    if d < 0 or n < 0:
        raise ValueError(f"dimension {d} and tensor power {n} must be non-negative")
    doubled = random_invertible_generators(d, 2 * count, seed)
    powers = [kron_power(g, n) for g in doubled]
    cells = [(0, i, j) for i in range(d ** n) for j in range(d ** n)]
    certified = _certified_commutant(d, n, powers, count, cells)
    if certified is not None:
        sparse = [dict(zip(cells, vec)) for vec in certified]
        return len(sparse), True, _basis_to_matrices(sparse, d ** n, d ** n, QQ)
    conditions = [(0, 0, B, B) for B in powers]
    sparse = _intersect_conditions(conditions[:count], cells, QQ)
    basis = _basis_to_matrices(sparse, d ** n, d ** n, QQ)
    sparse2 = _intersect_conditions(conditions[count:], cells, QQ, sparse)
    return basis.dimension, basis.dimension == len(sparse2), basis
