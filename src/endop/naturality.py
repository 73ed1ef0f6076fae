"""Exact computation of natural transformations F^n -> F over finite full
subcategories.

Each computation fixes a forgetful functor and the objects it restricts
to, finds every transformation compatible with all morphisms of that
subcategory, re-verifies every survivor before emitting it, and returns a
NaturalityReport.  For sets, monoids and groups the candidates are
enumerated.  For modules and graded modules the conditions are linear, and
one shared routine solves them with the one solver of `linalg`, over fields
and Z/m alike.
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
    ExactMatrix,
    HomBasis,
    kron_power,
    module_elements,
    solution_generators,
)
from .word_operad import group_eval, word_enumerate

CANDIDATE_CAP = 1 << 20
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

    def __call__(self, x):
        return self.values[x]

    def compose(self, other: "FiniteFunction") -> "FiniteFunction":
        """self after other."""
        if other.codomain_size != self.domain_size:
            raise ValueError("composition shape mismatch")
        return FiniteFunction(
            other.domain_size,
            self.codomain_size,
            tuple(self.values[v] for v in other.values),
        )

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


def tabulate_projection(n: int, i: int) -> FiniteFunction:
    """The i-th coordinate projection [n]^n -> [n] (1-indexed slot)."""
    return tabulate(n, n, lambda args: args[i - 1])


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

    def to_json(self):
        return {"name": self.name, "unit": self.unit, "table": [list(r) for r in self.table]}


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


# -- the central operad of finite sets ---------------------------------------

def _set_naturality_holds(phi, endo, n):
    """phi commutes with the endomap: phi(f a_1, .., f a_n) == f(phi(a))."""
    for args in product(range(n), repeat=n):
        mapped = tuple(endo[a] for a in args)
        if phi[tuple_index(mapped, n)] != endo[phi[tuple_index(args, n)]]:
            return False
    return True


def central_set_bruteforce(n: int, endomaps=None) -> NaturalityReport:
    """All maps [n]^n -> [n] commuting with every endomap of [n], by full
    enumeration of the n^(n^n) candidates.  Only feasible for n <= 2."""
    if n > 2:
        raise BoundExceeded(f"cannot enumerate {n}^({n}^{n}) candidate maps")
    with _Timer() as tm:
        all_endos = [tuple(f) for f in product(range(n), repeat=n)]
        conditions = all_endos if endomaps is None else [tuple(f) for f in endomaps]
        survivors = []
        for cand in product(range(n), repeat=n ** n):
            if all(_set_naturality_holds(cand, f, n) for f in conditions):
                survivors.append(cand)
        # emission re-check against the full morphism list
        for phi in survivors:
            if not all(_set_naturality_holds(phi, f, n) for f in conditions):
                raise VerificationFailed(f"survivor {phi} is not natural")
        out = [FiniteFunction(n ** n, n, phi) for phi in survivors] if n > 0 else []
    return NaturalityReport(
        context="central-set-bruteforce",
        arity=n,
        objects=[f"[{n}]"],
        morphisms=len(conditions),
        survivors=out,
        complete=endomaps is None,
        elapsed_ms=tm.ms,
    )


def central_set_determined(n: int) -> NaturalityReport:
    """Candidates forced by the value at (1,..,n): each candidate value v
    induces the v-th projection, which is then checked against every endomap
    and every tuple.  For n = 0 there are no candidate values at all."""
    if n > 4:
        raise BoundExceeded("determination check bounded at n <= 4")
    with _Timer() as tm:
        endos = [tuple(f) for f in product(range(n), repeat=n)]
        survivors = []
        for v in range(n):
            phi = tuple(args[v] for args in product(range(n), repeat=n))
            if all(_set_naturality_holds(phi, f, n) for f in endos):
                survivors.append(FiniteFunction(n ** n, n, phi))
        for s in survivors:
            if not all(_set_naturality_holds(s.values, f, n) for f in endos):
                raise VerificationFailed(f"survivor {s.values} is not natural")
    return NaturalityReport(
        context="central-set-determined",
        arity=n,
        objects=[f"[{n}]"],
        morphisms=len(endos),
        survivors=survivors,
        complete=True,
        elapsed_ms=tm.ms,
    )


# -- the central operad of R-modules -----------------------------------------

def _all_square_matrices(domain, r):
    els = domain.elements()
    for flat in product(els, repeat=r * r):
        yield ExactMatrix(domain, [flat[i * r : (i + 1) * r] for i in range(r)])


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
    every morphism (src, dst, f) that morphisms() yields, as flat tuples over
    the unknown cells (object, row, column) of the maps phi_o of shape
    shapes[o], and the report's counts.  Over a field they are the canonical
    basis of the solutions; over Z/m, every solution, sorted, at most
    CANDIDATE_CAP."""
    def conditions():
        for src, dst, f in morphisms():
            yield src, dst, f, kron_power(f, n)

    survivors = solution_generators(conditions(), cells, domain)
    if domain.is_field:
        extra = {"dimension": len(survivors), "transformation_count": domain.size ** len(survivors)}
    else:
        survivors = module_elements(survivors, domain.size, len(cells), CANDIDATE_CAP)
        extra = {"transformation_count": len(survivors)}
    for start in range(0, len(survivors), 256):  # bounds the re-check's memory
        _recheck(domain, shapes, cells, survivors[start : start + 256], conditions())
    return survivors, extra


def _recheck(domain, shapes, cells, survivors, conditions):
    """Raise VerificationFailed unless f . phi_src == phi_dst . f^(tensor n)
    for every survivor and condition, in ExactMatrix arithmetic: per
    condition, one product on every survivor placed side by side and one on
    every survivor stacked."""
    zero, count = domain.zero_raw, len(survivors)
    wide = [[[zero] * (count * q) for _ in range(p)] for p, q in shapes]
    tall = [[[zero] * q for _ in range(count * p)] for p, q in shapes]
    for k, (o, a, b) in enumerate(cells):
        p, q = shapes[o]
        for s, vec in enumerate(survivors):
            wide[o][a][s * q + b] = tall[o][s * p + a][b] = vec[k]
    wide = [ExactMatrix(domain, rows, count * q) for rows, (_, q) in zip(wide, shapes)]
    tall = [ExactMatrix(domain, rows, q) for rows, (_, q) in zip(tall, shapes)]
    for src, dst, f, fn in conditions:
        left, right = f * wide[src], tall[dst] * fn
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
    solution.  When the full endomorphism monoid is too large to enumerate, a
    generator family and a seeded sample of SAMPLE_VERIFICATIONS further
    endomorphisms stand in, with complete=False.
    """
    if not domain.is_finite:
        raise UnsupportedDomain("central_module expects a finite ring F_q or Z/m")
    if rank < 0 or arity < 0:
        raise ValueError(f"rank {rank} and arity {arity} must be non-negative")
    r, n = rank, arity
    width = r ** n
    complete = domain.size ** (r * r) <= HOM_ENUMERATION_CAP
    family = None if complete else _module_generator_family(domain, r)

    def morphisms():
        # generated afresh for each pass, so that no list of them is kept
        if complete:
            yield from ((0, 0, f) for f in _all_square_matrices(domain, r))
            return
        yield from ((0, 0, f) for f in family)
        rng, els = random.Random(0), domain.elements()
        for _ in range(SAMPLE_VERIFICATIONS):
            flat = [[els[rng.randrange(domain.size)] for _ in range(r)] for _ in range(r)]
            yield 0, 0, ExactMatrix(domain, flat)

    with _Timer() as tm:
        cells = [(0, i, j) for i in range(r) for j in range(width)]
        flat, extra = _natural_solutions(domain, [(r, width)], cells, morphisms, n)
        survivors = [
            ExactMatrix(domain, [vec[i * width : (i + 1) * width] for i in range(r)], width)
            for vec in flat
        ]
    if not complete:
        extra["method"] = "generator-based (sound but possibly over-approximating)"
    extra["basis"] = HomBasis(width, r, tuple(survivors), domain) if domain.is_field else None
    return NaturalityReport(
        context="central-module",
        arity=n,
        objects=[f"{domain}^{r}"],
        morphisms=domain.size ** (r * r) if complete else len(family),
        survivors=survivors,
        complete=complete,
        elapsed_ms=tm.ms,
        extra=extra,
    )


# -- the central operad of graded modules ------------------------------------

def _graded_objects(window: int, arity: int):
    degrees = range(-window, window + 1)
    size = max(arity, 1)
    return [tuple(c) for c in combinations_with_replacement(degrees, size)]


def _graded_cells(obj, arity):
    """Unknown cells (t, T) of a degree-zero map obj^(tensor arity) -> obj."""
    cells = []
    positions = range(len(obj))
    for t in positions:
        for T in product(positions, repeat=arity):
            if obj[t] == sum(obj[s] for s in T):
                cells.append((t, T))
    return cells


def _graded_homs(src, dst, domain, cap):
    """All degree-zero module maps src -> dst (matrices supported on
    degree-matched cells)."""
    cells = [(u, s) for u in range(len(dst)) for s in range(len(src)) if dst[u] == src[s]]
    if domain.size ** len(cells) > cap:
        raise BoundExceeded(
            f"{domain.size}^{len(cells)} graded morphisms exceed the enumeration cap"
        )
    zero = domain.zero_raw
    homs = []
    for vals in product(domain.elements(), repeat=len(cells)):
        f = [[zero] * len(src) for _ in range(len(dst))]
        for (u, s), v in zip(cells, vals):
            f[u][s] = v
        homs.append(f)
    return homs


def graded_central(domain, window: int, arity: int) -> NaturalityReport:
    """Natural degree-zero maps X^(tensor n) -> X over the subcategory of
    graded modules spanned by the direct sums of n shifted copies of the
    ground ring, with degrees drawn from -window..window.

    The unknowns are the degree-matched cells of one map per object, solved
    for as in central_module; survivors are flat tuples over these cells.
    """
    if not domain.is_finite:
        raise UnsupportedDomain("graded_central expects a finite ring")
    if window < 0 or arity < 0:
        raise ValueError(f"window {window} and arity {arity} must be non-negative")
    n = arity
    objects = _graded_objects(window, n)
    with _Timer() as tm:
        cells = [(oi, t, T) for oi, obj in enumerate(objects) for t, T in _graded_cells(obj, n)]
        morphisms = [
            (si, di, ExactMatrix(domain, f, len(src)))
            for si, src in enumerate(objects)
            for di, dst in enumerate(objects)
            for f in _graded_homs(src, dst, domain, HOM_ENUMERATION_CAP)
        ]
        shapes = [(len(obj), len(obj) ** n) for obj in objects]
        indexed = [(oi, t, tuple_index(T, len(objects[oi]))) for oi, t, T in cells]
        survivors, extra = _natural_solutions(domain, shapes, indexed, lambda: morphisms, n)
        extra["cells"] = [
            {"object": str(objects[oi]), "out": t, "in": list(T)} for oi, t, T in cells
        ]
    return NaturalityReport(
        context="graded-central",
        arity=n,
        objects=[str(o) for o in objects],
        morphisms=len(morphisms),
        survivors=survivors,
        complete=True,
        elapsed_ms=tm.ms,
        extra=extra,
    )


# -- reconstruction of a finite monoid ---------------------------------------

def mset_endomorphisms(M: FiniteMonoidTable):
    """Brute-force search for the maps psi with psi(m.x) = m.psi(x); these are
    the endomorphisms of M as a left module over itself."""
    m = M.size
    if m ** m > CANDIDATE_CAP:
        raise BoundExceeded(f"{m}^{m} candidate maps is too many")
    table = M.table
    out = []
    for psi in product(range(m), repeat=m):
        ok = True
        for a in range(m):
            row = table[a]
            for x in range(m):
                if psi[row[x]] != row[psi[x]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(psi)
    return out


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
        survivors = []
        for phi in product(range(m), repeat=m):
            ok = True
            for psi in psis:
                for x in range(m):
                    if phi[psi[x]] != psi[phi[x]]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                survivors.append(phi)
        for phi in survivors:
            if not all(phi[psi[x]] == psi[phi[x]] for psi in psis for x in range(m)):
                raise VerificationFailed(f"survivor {phi} is not natural")

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
    """All unit-preserving multiplicative self-maps, by exhaustive search."""
    m = M.size
    if m ** m > CANDIDATE_CAP:
        raise BoundExceeded(f"{m}^{m} candidate maps is too many")
    table = M.table
    unit = M.unit
    out = []
    for f in product(range(m), repeat=m):
        if f[unit] != unit:
            continue
        ok = True
        for a in range(m):
            fa = f[a]
            row = table[a]
            for b in range(m):
                if f[row[b]] != table[fa][f[b]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(f)
    return out


def finite_group_natural_maps(
    G: FiniteMonoidTable, arity: int, word_length_bound: int = 3
) -> NaturalityReport:
    """All maps G^n -> G commuting with every group endomorphism of G, found
    exhaustively, together with the sublist realized by evaluating reduced
    words of bounded length.

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
        tuples = list(product(range(g), repeat=n))
        checks = []
        for f in endos:
            mapped = [tuple_index(tuple(f[a] for a in args), g) for args in tuples]
            checks.append((f, mapped))
        # constants first: they prune hardest
        checks.sort(key=lambda fm: (len(set(fm[0])), fm[0]))
        survivors = []
        for phi in product(range(g), repeat=g ** n):
            ok = True
            for f, mapped in checks:
                for idx in range(len(tuples)):
                    if phi[mapped[idx]] != f[phi[idx]]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                survivors.append(phi)
        for phi in survivors:
            if not all(
                phi[mapped[idx]] == f[phi[idx]]
                for f, mapped in checks
                for idx in range(len(tuples))
            ):
                raise VerificationFailed(f"survivor {phi} is not natural")
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
