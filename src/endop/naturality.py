"""Exact computation of natural transformations F^n -> F over finite full
subcategories.

Each computation fixes a forgetful functor and the objects it restricts
to, finds every transformation compatible with all morphisms of that
subcategory, re-verifies every survivor before emitting it, and returns a
NaturalityReport.  For sets, monoids and groups one backtracking solver
propagates the conditions cell by cell.  For modules and graded modules the
conditions are linear, and one shared routine solves them with the one
solver of `linalg`, over fields and Z/m alike.  Naturality is closed under
composition of morphisms, so the set, module and graded drivers solve
against generators of their morphisms and list no hom set.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import chain, combinations_with_replacement, product

from .errors import (
    BoundExceeded,
    NotAGroup,
    NotAMonoid,
    UnsupportedDomain,
    VerificationFailed,
)
from .linalg import (
    CANDIDATE_CAP,
    ExactMatrix,
    HomBasis,
    kron_power,
    module_elements,
    solution_generators,
)
from .word_operad import group_eval, word_enumerate

HOM_ENUMERATION_CAP = 4096
SAMPLE_VERIFICATIONS = 1000


@dataclass(frozen=True)
class FiniteFunction:
    """A tabulated map {0..domain_size-1} -> {0..codomain_size-1}."""

    domain_size: int
    codomain_size: int
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.domain_size:
            raise ValueError("table length does not match the domain size")
        if any(not 0 <= v < self.codomain_size for v in self.values):
            raise ValueError("table value out of range")

    def to_json(self):
        return list(self.values)


def tuple_index(args, base: int) -> int:
    """Mixed-radix index of an argument tuple (leftmost most significant)."""
    idx = 0
    for a in args:
        idx = idx * base + a
    return idx


def tabulate(base: int, arity: int, fn) -> FiniteFunction:
    """Tabulate a map base^arity -> base as a FiniteFunction on tuple indices."""
    values = tuple(fn(args) for args in product(range(base), repeat=arity))
    return FiniteFunction(base ** arity, base, values)


def compose_tabulated(base, m, f1: FiniteFunction, i, n, f2: FiniteFunction):
    """Operadic composite of tabulated multi-argument maps on a common base."""

    def fn(args):
        inner = f2.values[tuple_index(args[i - 1 : i - 1 + n], base)]
        outer_args = args[: i - 1] + (inner,) + args[i - 1 + n :]
        return f1.values[tuple_index(outer_args, base)]

    return tabulate(base, m + n - 1, fn)


@dataclass(frozen=True)
class FiniteMonoidTable:
    """A monoid given by its multiplication table; table[a][b] = a*b.

    Associativity and a two-sided unit are checked exhaustively on
    construction.
    """

    table: tuple
    name: str = field(default="", compare=False)

    def __post_init__(self):
        table = tuple(tuple(row) for row in self.table)
        object.__setattr__(self, "table", table)
        m = len(table)
        if any(len(row) != m for row in table):
            raise NotAMonoid("multiplication table is not square")
        if any(not 0 <= v < m for row in table for v in row):
            raise NotAMonoid("table entry out of range")
        unit = None
        for e in range(m):
            if all(table[e][x] == x and table[x][e] == x for x in range(m)):
                unit = e
                break
        if unit is None:
            raise NotAMonoid("no two-sided unit")
        for a in range(m):
            for b in range(m):
                ab = table[a][b]
                for c in range(m):
                    if table[ab][c] != table[a][table[b][c]]:
                        raise NotAMonoid(f"associativity fails at ({a},{b},{c})")
        object.__setattr__(self, "unit", unit)
        inverses = []
        for a in range(m):
            inv = None
            for b in range(m):
                if table[a][b] == unit and table[b][a] == unit:
                    inv = b
                    break
            inverses.append(inv)
        object.__setattr__(self, "inverses", tuple(inverses))

    @property
    def size(self):
        return len(self.table)

    def mul(self, a, b):
        return self.table[a][b]

    def is_group(self) -> bool:
        return all(v is not None for v in self.inverses)

    def require_group(self):
        if not self.is_group():
            raise NotAGroup(f"{self.name or 'monoid'} has non-invertible elements")

    def inverse(self, a):
        inv = self.inverses[a]
        if inv is None:
            raise NotAGroup(f"element {a} has no inverse")
        return inv


# -- built-in tables ---------------------------------------------------------

def trivial_monoid() -> FiniteMonoidTable:
    return FiniteMonoidTable(((0,),), name="trivial")


def cyclic_group(m: int) -> FiniteMonoidTable:
    return FiniteMonoidTable(
        tuple(tuple((a + b) % m for b in range(m)) for a in range(m)), name=f"Z{m}"
    )


def symmetric_group_3() -> FiniteMonoidTable:
    """Permutations of {0,1,2} indexed lexicographically by one-line notation;
    (s . t)(x) = s(t(x))."""
    from itertools import permutations

    perms = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(s[t[x]] for x in range(3))] for t in perms) for s in perms
    )
    return FiniteMonoidTable(table, name="S3")


def left_mult_unit_monoid() -> FiniteMonoidTable:
    """{1, a, b} with a.x = a and b.x = b: every non-unit is left-absorbing."""
    return FiniteMonoidTable(((0, 1, 2), (1, 1, 1), (2, 2, 2)), name="left-absorb-3")


def and_monoid() -> FiniteMonoidTable:
    """({1, 0}, multiplication): the two-element meet-semilattice with unit."""
    return FiniteMonoidTable(((0, 1), (1, 1)), name="and2")


BUILTIN_TABLES = {
    "trivial": trivial_monoid,
    "z2": lambda: cyclic_group(2),
    "z3": lambda: cyclic_group(3),
    "z4": lambda: cyclic_group(4),
    "z5": lambda: cyclic_group(5),
    "z6": lambda: cyclic_group(6),
    "s3": symmetric_group_3,
    "and2": and_monoid,
    "left-absorb-3": left_mult_unit_monoid,
}

# All monoids of order <= 3 up to isomorphism (element 0 is the unit),
# one representative per class: 1 + 2 + 7 tables.
SMALL_MONOID_TABLES = (
    ((0,),),
    ((0, 1), (1, 0)),
    ((0, 1), (1, 1)),
    ((0, 1, 2), (1, 0, 2), (2, 2, 2)),
    ((0, 1, 2), (1, 1, 1), (2, 1, 1)),
    ((0, 1, 2), (1, 1, 1), (2, 1, 2)),
    ((0, 1, 2), (1, 1, 1), (2, 2, 2)),
    ((0, 1, 2), (1, 1, 2), (2, 1, 2)),
    ((0, 1, 2), (1, 1, 2), (2, 2, 1)),
    ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
)


def small_monoids():
    """One FiniteMonoidTable per isomorphism class of monoids of order <= 3."""
    return [
        FiniteMonoidTable(t, name=f"monoid{len(t)}#{k}")
        for k, t in enumerate(SMALL_MONOID_TABLES)
    ]


# -- reports -----------------------------------------------------------------

@dataclass
class NaturalityReport:
    context: str
    arity: int
    objects: list
    morphisms: int
    survivors: list
    complete: bool
    elapsed_ms: float
    extra: dict = field(default_factory=dict)

    @property
    def count(self):
        return len(self.survivors)

    def to_json_dict(self):
        def enc(s):
            if isinstance(s, (FiniteFunction, ExactMatrix, HomBasis)):
                return s.to_json()
            if isinstance(s, (list, tuple)):
                return [enc(x) for x in s]
            if isinstance(s, dict):
                return {k: enc(v) for k, v in s.items()}
            return s

        d = {
            "context": self.context,
            "arity": self.arity,
            "subcategory": {"objects": self.objects, "morphisms": self.morphisms},
            "survivors": [enc(s) for s in self.survivors],
            "complete": self.complete,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        d.update({k: enc(v) for k, v in self.extra.items()})
        return d


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.ms = (time.perf_counter() - self.t0) * 1000.0
        return False


# -- equivariant tables: one solver and one re-check --------------------------

def _solve_tables(count, size, consequences, forced=()):
    """Every table of `count` cells with values in range(size) that holds the
    `forced` (cell, value) pairs and is closed under consequences(phi, c),
    the pairs that cell c's value forces given the cells assigned so far
    (None elsewhere).  The lowest unassigned cell takes each value in
    ascending order, what it forces is propagated and a conflict backtracks,
    so the tables come in the lexicographic order of product()."""
    phi = [None] * count
    tables = []

    def assign(pairs, trail):
        while pairs:
            c, v = pairs.pop()
            if phi[c] is None:
                phi[c] = v
                trail.append(c)
                pairs.extend(consequences(phi, c))
            elif phi[c] != v:
                return False
        return True

    def search(c):
        while c < count and phi[c] is not None:
            c += 1
        if c == count:
            tables.append(tuple(phi))
            return
        for v in range(size):
            trail = []
            if assign([(c, v)], trail):
                search(c + 1)
            for u in trail:
                phi[u] = None

    if assign(list(forced), []):
        search(0)
    return tables


def _recheck_tables(tables, maps, size, arity):
    """Raise VerificationFailed unless phi(f.t) == f(phi(t)) for every table
    phi, map f and tuple t of [size]^arity, f acting componentwise."""
    for k, t in enumerate(product(range(size), repeat=arity)):
        for f in maps:
            j = tuple_index([f[a] for a in t], size)
            for phi in tables:
                if phi[j] != f[phi[k]]:
                    raise VerificationFailed(f"survivor {phi} is not natural")


def _equivariant_tables(maps, size, arity):
    """The tables of every map phi: [size]^arity -> [size] with
    phi(f.t) == f(phi(t)) for every map f and tuple t, f acting
    componentwise, in lexicographic order and re-checked."""
    tuples = list(product(range(size), repeat=arity))
    actions = [(f, [tuple_index([f[a] for a in t], size) for t in tuples]) for f in maps]
    tables = _solve_tables(
        len(tuples), size, lambda phi, c: [(moved[c], f[phi[c]]) for f, moved in actions]
    )
    _recheck_tables(tables, maps, size, arity)
    return tables


# -- the central operad of finite sets ---------------------------------------

def _set_generators(n):
    """Maps of [n] that generate the monoid of all n^n endomaps under
    composition (Howie, Fundamentals of Semigroup Theory, 1995): for n >= 2
    the swap (0 1) and the n-cycle i -> i + 1, which generate the
    permutations, and the collapse n-1 -> 0, an idempotent of rank n - 1;
    for n <= 1 the one map."""
    if n <= 1:
        return [tuple(range(n))]
    return [
        (1, 0) + tuple(range(2, n)),
        tuple(range(1, n)) + (0,),
        tuple(range(n - 1)) + (0,),
    ]


def _central_set(n, context):
    """The maps [n]^n -> [n] natural for every endomap of [n], solved and
    re-checked against the generators of _set_generators only.  A map
    natural for f and for g is natural for g.f, so they have the same
    solutions as all n^n endomaps, the order that `morphisms` reports."""
    with _Timer() as tm:
        survivors = _equivariant_tables(_set_generators(n), n, n)
    return NaturalityReport(
        context=context,
        arity=n,
        objects=[f"[{n}]"],
        morphisms=n ** n,
        survivors=[FiniteFunction(n ** n, n, phi) for phi in survivors],
        complete=True,
        elapsed_ms=tm.ms,
    )


def central_set_bruteforce(n: int) -> NaturalityReport:
    """All maps [n]^n -> [n] commuting with every endomap of [n].  Bounded
    at n <= 2, where the n^(n^n) candidate maps could still be
    enumerated."""
    if n > 2:
        raise BoundExceeded(f"cannot enumerate {n}^({n}^{n}) candidate maps")
    return _central_set(n, "central-set-bruteforce")


def central_set_determined(n: int) -> NaturalityReport:
    """All maps [n]^n -> [n] commuting with every endomap of [n], solved by
    propagation: a value at one tuple forces the values along its orbit
    under the three generating endomaps of _set_generators, which have the
    same solutions as all n^n.  For n = 0 there are no values at all."""
    if n > 4:
        raise BoundExceeded("determination check bounded at n <= 4")
    return _central_set(n, "central-set-determined")


# -- the central operad of R-modules -----------------------------------------

def _module_generators(domain, r):
    """Matrices that generate the monoid of all r x r matrices over F_q or
    Z/m under multiplication: the transvections I + E_ab for a != b, and
    diag(d, 1, ..., 1) for every d in R; for r = 0 the empty matrix.  By
    Smith normal form every matrix is U.D.V with U, V invertible and D a
    product of diag(d, 1, ..., 1) conjugated by permutations.  GL_r is SL_r
    times the diag(u, 1, ..., 1) for units u, and SL_r of a semilocal ring
    such as Z/m is generated by the elementary matrices
    I + a.E_ab = (I + E_ab)^a (Bass, Algebraic K-Theory, 1968)."""
    if r == 0:
        return [ExactMatrix(domain, [])]
    zero, one = domain.zero_raw, domain.one_raw

    def identity_with(a, b, v):
        rows = [[one if i == j else zero for j in range(r)] for i in range(r)]
        rows[a][b] = v
        return ExactMatrix(domain, rows)

    return [identity_with(a, b, one) for a in range(r) for b in range(r) if a != b] + [
        identity_with(0, 0, d) for d in domain.elements()
    ]


def _module_generator_family(domain, r):
    """Elementary matrices, the idempotents killing one coordinate, and all
    scalar matrices."""
    zero, one = domain.zero_raw, domain.one_raw
    gens = []
    for a in range(r):
        for b in range(r):
            rows = [[zero] * r for _ in range(r)]
            rows[a][b] = one
            gens.append(ExactMatrix(domain, rows))
    for i in range(r):
        rows = [[zero] * r for _ in range(r)]
        for j in range(r):
            if j != i:
                rows[j][j] = one
        gens.append(ExactMatrix(domain, rows))
    for v in domain.elements():
        rows = [[zero] * r for _ in range(r)]
        for j in range(r):
            rows[j][j] = v
        gens.append(ExactMatrix(domain, rows))
    return gens


def _natural_solutions(domain, shapes, cells, morphisms, n):
    """The re-checked survivors of f . phi_src == phi_dst . f^(tensor n) for
    every morphism (src, dst, f) in the list morphisms, as flat tuples over
    the unknown cells (object, row, column) of the maps phi_o of shape
    shapes[o], and the report's counts.  Over a field they are the canonical
    basis of the solutions; over Z/m, every solution, sorted, at most
    CANDIDATE_CAP."""
    conditions = ((src, dst, f, kron_power(f, n)) for src, dst, f in morphisms)
    survivors = solution_generators(conditions, cells, domain)
    if domain.is_field:
        extra = {"dimension": len(survivors), "transformation_count": domain.size ** len(survivors)}
    else:
        survivors = module_elements(survivors, domain.size, len(cells), CANDIDATE_CAP)
        extra = {"transformation_count": len(survivors)}
    for start in range(0, len(survivors), 256):  # bounds the re-check's memory
        _recheck(domain, shapes, cells, survivors[start : start + 256], morphisms, n)
    return survivors, extra


def _recheck(domain, shapes, cells, survivors, morphisms, n):
    """Raise VerificationFailed unless f . phi_src == phi_dst . f^(tensor n)
    for every survivor and morphism (src, dst, f), in ExactMatrix arithmetic:
    per morphism, one product on every survivor placed side by side and one
    on every survivor stacked."""
    zero, count = domain.zero_raw, len(survivors)
    wide = [[[zero] * (count * q) for _ in range(p)] for p, q in shapes]
    tall = [[[zero] * q for _ in range(count * p)] for p, q in shapes]
    for k, (o, a, b) in enumerate(cells):
        p, q = shapes[o]
        for s, vec in enumerate(survivors):
            wide[o][a][s * q + b] = tall[o][s * p + a][b] = vec[k]
    wide = [ExactMatrix(domain, rows, count * q) for rows, (_, q) in zip(wide, shapes)]
    tall = [ExactMatrix(domain, rows, q) for rows, (_, q) in zip(tall, shapes)]
    for src, dst, f in morphisms:
        left, right = f * wide[src], tall[dst] * kron_power(f, n)
        p, q = shapes[dst][0], shapes[src][1]
        # row u of the left product holds every survivor's row u side by
        # side; the right product holds them at rows u, u + p, u + 2p, ...
        if all(left.data[u] == tuple(chain.from_iterable(right.data[u::p])) for u in range(p)):
            continue
        s = next(
            s for s in range(count)
            if any(left.data[u][s * q : (s + 1) * q] != right.data[s * p + u] for u in range(p))
        )
        p = shapes[src][0]
        raise VerificationFailed(
            f"survivor {ExactMatrix(domain, tall[src].data[s * p : (s + 1) * p], q).to_json()}"
            f" on object {src} is not natural for {f.to_json()} from object {src} to {dst}"
        )


def central_module(domain, rank: int, arity: int) -> NaturalityReport:
    """Natural maps (R^r)^(tensor n) -> R^r over the one-object subcategory
    on the free module R^r.

    Over a field the report carries a basis of the solutions, over Z/m every
    solution.  The conditions are solved and re-checked against the
    generators of _module_generators only: a map natural for f and for g is
    natural for g.f, so they have the same solutions as all |R|^(r^2)
    endomorphisms, the order that `morphisms` reports.  When that order
    passes HOM_ENUMERATION_CAP, a generator family and a seeded sample of
    SAMPLE_VERIFICATIONS further endomorphisms stand in, with
    complete=False.
    """
    if not domain.is_finite:
        raise UnsupportedDomain("central_module expects a finite ring F_q or Z/m")
    if rank < 0 or arity < 0:
        raise ValueError(f"rank {rank} and arity {arity} must be non-negative")
    r, n = rank, arity
    width = r ** n
    complete = domain.size ** (r * r) <= HOM_ENUMERATION_CAP
    gens = _module_generators(domain, r) if complete else _module_generator_family(domain, r)
    morphisms = [(0, 0, f) for f in gens]
    if not complete:
        rng, els = random.Random(0), domain.elements()
        for _ in range(SAMPLE_VERIFICATIONS):
            flat = [[els[rng.randrange(domain.size)] for _ in range(r)] for _ in range(r)]
            morphisms.append((0, 0, ExactMatrix(domain, flat)))

    with _Timer() as tm:
        cells = [(0, i, j) for i in range(r) for j in range(width)]
        flat, extra = _natural_solutions(domain, [(r, width)], cells, morphisms, n)
        survivors = [
            ExactMatrix(domain, [vec[i * width : (i + 1) * width] for i in range(r)], width)
            for vec in flat
        ]
    if not complete:
        extra["method"] = "generator-based (sound but possibly over-approximating)"
    if domain.is_field:
        extra["basis"] = HomBasis(width, r, tuple(survivors), domain)
    return NaturalityReport(
        context="central-module",
        arity=n,
        objects=[f"{domain}^{r}"],
        morphisms=domain.size ** (r * r) if complete else len(gens),
        survivors=survivors,
        complete=complete,
        elapsed_ms=tm.ms,
        extra=extra,
    )


# -- the central operad of graded modules ------------------------------------

def _graded_objects(window: int, arity: int):
    return list(combinations_with_replacement(range(-window, window + 1), max(arity, 1)))


def _graded_cells(obj, arity):
    """Unknown cells (t, T) of a degree-zero map obj^(tensor arity) -> obj."""
    cells = []
    positions = range(len(obj))
    for t in positions:
        for T in product(positions, repeat=arity):
            if obj[t] == sum(obj[s] for s in T):
                cells.append((t, T))
    return cells


def _graded_generators(domain, objects):
    """Degree-zero maps (src, dst, f) that generate all of them under
    composition: per object and degree with k summands, the matrices of
    _module_generators(domain, k) on that block and the identity elsewhere;
    per ordered pair of distinct objects, the map sending the t-th summand
    of each degree in src to the t-th of that degree in dst, 0 elsewhere.
    Per degree every b x a matrix is G.C.H, G and H square and C that map's
    block, by Smith normal form over F_q and Z/m as in _module_generators."""
    zero, one = domain.zero_raw, domain.one_raw
    # each summand as (degree, number of summands of that degree before it)
    labels = [[(d, obj[:t].count(d)) for t, d in enumerate(obj)] for obj in objects]
    gens = []
    for oi, obj in enumerate(objects):
        for e in sorted(set(obj)):
            for g in _module_generators(domain, obj.count(e)):
                rows = [[g.data[a][b] if d == c == e else one if (d, a) == (c, b) else zero
                         for c, b in labels[oi]] for d, a in labels[oi]]
                gens.append((oi, oi, ExactMatrix(domain, rows, len(obj))))
    return gens + [
        (si, di, ExactMatrix(domain, [[one if x == y else zero for y in src] for x in dst], len(src)))
        for (si, src), (di, dst) in product(enumerate(labels), repeat=2) if si != di
    ]


def graded_central(domain, window: int, arity: int) -> NaturalityReport:
    """Natural degree-zero maps X^(tensor n) -> X over the subcategory of
    graded modules spanned by the direct sums of n shifted copies of the
    ground ring, with degrees drawn from -window..window.

    The unknowns are the degree-matched cells of one map per object, solved
    for as in central_module against _graded_generators; survivors are flat
    tuples over these cells.  `morphisms` counts every degree-zero map: from
    src to dst there are |R|^k, k the sum over degrees of the products of
    their numbers of summands, and HOM_ENUMERATION_CAP bounds each |R|^k.
    """
    if not domain.is_finite:
        raise UnsupportedDomain("graded_central expects a finite ring")
    if window < 0 or arity < 0:
        raise ValueError(f"window {window} and arity {arity} must be non-negative")
    n = arity
    objects = _graded_objects(window, n)
    with _Timer() as tm:
        ks = [sum(a.count(e) * b.count(e) for e in set(a)) for a, b in product(objects, repeat=2)]
        for k in ks:  # before the cells, which number up to len(obj)^(n + 1)
            if domain.size ** k > HOM_ENUMERATION_CAP:
                raise BoundExceeded(f"{domain.size}^{k} graded morphisms exceed the enumeration cap")
        cells = [(oi, t, T) for oi, obj in enumerate(objects) for t, T in _graded_cells(obj, n)]
        shapes = [(len(obj), len(obj) ** n) for obj in objects]
        indexed = [(oi, t, tuple_index(T, len(objects[oi]))) for oi, t, T in cells]
        gens = _graded_generators(domain, objects)
        survivors, extra = _natural_solutions(domain, shapes, indexed, gens, n)
        extra["cells"] = [
            {"object": str(objects[oi]), "out": t, "in": list(T)} for oi, t, T in cells
        ]
    return NaturalityReport(
        context="graded-central",
        arity=n,
        objects=[str(o) for o in objects],
        morphisms=sum(domain.size ** k for k in ks),
        survivors=survivors,
        complete=True,
        elapsed_ms=tm.ms,
        extra=extra,
    )


# -- reconstruction of a finite monoid ---------------------------------------

def mset_endomorphisms(M: FiniteMonoidTable):
    """The maps psi with psi(m.x) = m.psi(x), in lexicographic order: the
    endomorphisms of M as a left module over itself."""
    m = M.size
    if m ** m > CANDIDATE_CAP:
        raise BoundExceeded(f"{m}^{m} candidate maps is too many")
    return _equivariant_tables(M.table, m, 1)


def monoid_reconstruction(M: FiniteMonoidTable) -> NaturalityReport:
    """Recover a finite monoid from the endomorphisms of its underlying-set
    functor restricted to the free module M over itself.

    The survivors are the maps M -> M commuting with every M-module
    endomorphism of M; the verdict records whether they are exactly the left
    multiplications and whether composing them reproduces the original
    multiplication table.
    """
    m = M.size
    if m > 6:
        raise BoundExceeded("monoid reconstruction bounded at order 6")
    with _Timer() as tm:
        psis = mset_endomorphisms(M)
        survivors = _equivariant_tables(psis, m, 1)
        left_mults = {a: tuple(M.table[a][x] for x in range(m)) for a in range(m)}
        surv_set = set(survivors)
        match_left = set(left_mults.values()) == surv_set and len(left_mults) == len(surv_set)
        composition_ok = True
        for a in range(m):
            for b in range(m):
                composed = tuple(left_mults[a][left_mults[b][x]] for x in range(m))
                if composed != left_mults[M.mul(a, b)]:
                    composition_ok = False
        unit_ok = left_mults[M.unit] == tuple(range(m))
        iso = match_left and composition_ok and unit_ok
        out = [FiniteFunction(m, m, phi) for phi in survivors]
    return NaturalityReport(
        context="monoid-reconstruction",
        arity=1,
        objects=[M.name or f"monoid({m})"],
        morphisms=len(psis),
        survivors=out,
        complete=True,
        elapsed_ms=tm.ms,
        extra={"isomorphic": iso, "left_mult_match": match_left, "composition_matches": composition_ok},
    )


# -- natural maps on a fixed finite group -------------------------------------

def monoid_endomorphisms(M: FiniteMonoidTable):
    """All unit-preserving multiplicative self-maps, in lexicographic order."""
    m = M.size
    if m ** m > CANDIDATE_CAP:
        raise BoundExceeded(f"{m}^{m} candidate maps is too many")
    table = M.table

    def consequences(f, a):
        # f(a.b) = f(a).f(b) and f(b.a) = f(b).f(a) for every b assigned so far
        fa, pairs = f[a], []
        for b, fb in enumerate(f):
            if fb is not None:
                pairs += [(table[a][b], table[fa][fb]), (table[b][a], table[fb][fa])]
        return pairs

    return _solve_tables(m, m, consequences, forced=[(M.unit, M.unit)])


def finite_group_natural_maps(
    G: FiniteMonoidTable, arity: int, word_length_bound: int = 3
) -> NaturalityReport:
    """All maps G^n -> G commuting with every group endomorphism of G,
    together with the sublist realized by evaluating reduced words of
    bounded length.

    Word images are natural against arbitrary group homomorphisms, so they
    always land among the survivors; the report records both counts and any
    surplus is left uninterpreted.
    """
    G.require_group()
    g, n = G.size, arity
    if g > 6 or n > 2:
        raise BoundExceeded("bounded at |G| <= 6 and arity <= 2")
    if g ** (g ** n) > CANDIDATE_CAP:
        raise BoundExceeded(f"{g}^({g}^{n}) candidate maps exceed the enumeration cap")
    with _Timer() as tm:
        endos = monoid_endomorphisms(G)
        survivors = _equivariant_tables(endos, g, n)
        tuples = list(product(range(g), repeat=n))
        word_tables = {}
        for w in word_enumerate(n, word_length_bound):
            tbl = tuple(group_eval(w, G, args) for args in tuples)
            word_tables.setdefault(tbl, str(w))
        surv_set = set(survivors)
        if not set(word_tables) <= surv_set:
            raise VerificationFailed("a word image is missing from the survivors")
        out = [FiniteFunction(g ** n, g, phi) for phi in survivors]
    return NaturalityReport(
        context="group-natural-maps",
        arity=n,
        objects=[G.name or f"group({g})"],
        morphisms=len(endos),
        survivors=out,
        complete=True,
        elapsed_ms=tm.ms,
        extra={
            "word_image_count": len(word_tables),
            "surplus": len(surv_set) - len(word_tables),
            "word_length_bound": word_length_bound,
        },
    )
