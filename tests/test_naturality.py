"""The naturality engine: central operads of sets, modules, and graded
modules, monoid reconstruction, and natural maps on a fixed group."""

import os
import random
import subprocess
import sys
import textwrap
from functools import reduce
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import endop
from endop import naturality as nat
from endop.errors import BoundExceeded, NotAGroup, NotAMonoid, UnsupportedDomain
from endop.linalg import ExactMatrix, all_square_matrices, kron_power, nullspace
from endop.naturality import (
    BUILTIN_TABLES,
    SMALL_MONOID_TABLES,
    FiniteFunction,
    FiniteMonoidTable,
    central_module,
    central_set_bruteforce,
    central_set_determined,
    compose_tabulated,
    cyclic_group,
    finite_group_natural_maps,
    graded_central,
    monoid_endomorphisms,
    mset_endomorphisms,
    monoid_reconstruction,
    small_monoids,
    symmetric_group_3,
    tabulate,
    trivial_monoid,
    tuple_index,
)
from endop.operad_core import PermElement, perm_compose
from endop.scalars import IntegersMod, finite_field
from oracles import graded_homs


# -- brute-force oracles over tables ------------------------------------------
#
# The candidate loops the set, monoid and group computations ran before they
# propagated their conditions: every table in product() order, kept when it
# satisfies every condition.

def natural_tables(maps, size, arity):
    """Tables of phi: [size]^arity -> [size] with phi(f.t) == f(phi(t))."""
    tuples = list(product(range(size), repeat=arity))
    moved = [(f, [tuple_index([f[a] for a in t], size) for t in tuples]) for f in maps]
    return [
        phi for phi in product(range(size), repeat=len(tuples))
        if all(phi[j] == f[phi[k]] for f, js in moved for k, j in enumerate(js))
    ]


def multiplicative_tables(M):
    """Tables of the unit-preserving multiplicative self-maps of M."""
    m = M.size
    return [
        f for f in product(range(m), repeat=m)
        if f[M.unit] == M.unit
        and all(f[M.mul(a, b)] == M.mul(f[a], f[b]) for a in range(m) for b in range(m))
    ]


def test_central_set_reports_match_the_oracle():
    for n in (0, 1, 2):
        oracle = natural_tables(list(product(range(n), repeat=n)), n, n)
        for solve in (central_set_bruteforce, central_set_determined):
            assert [s.values for s in solve(n).survivors] == oracle, (solve, n)
    # past the oracle's reach, the survivors are the projections in order
    # (n = 3 is pinned in test_central_set_determined_matches_bruteforce)
    assert [s.values for s in central_set_determined(4).survivors] == [
        tabulate(4, 4, lambda args, i=i: args[i]).values for i in range(4)
    ]


@pytest.mark.parametrize(
    "M", small_monoids() + [make() for make in BUILTIN_TABLES.values()], ids=lambda M: M.name
)
def test_monoid_computations_match_the_oracle(M):
    psis = natural_tables(M.table, M.size, 1)
    assert mset_endomorphisms(M) == psis
    assert [s.values for s in monoid_reconstruction(M).survivors] == natural_tables(psis, M.size, 1)
    assert monoid_endomorphisms(M) == multiplicative_tables(M)


@pytest.mark.parametrize(
    "name, arity",
    [("z2", 0), ("z2", 1), ("z2", 2), ("z3", 0), ("z3", 1), ("z3", 2), ("s3", 1), ("z6", 1)],
)
def test_group_maps_match_the_oracle(name, arity):
    G = BUILTIN_TABLES[name]()
    rep = finite_group_natural_maps(G, arity)
    oracle = natural_tables(multiplicative_tables(G), G.size, arity)
    assert [s.values for s in rep.survivors] == oracle


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 3).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.integers(0, 2),
            st.lists(st.tuples(*[st.integers(0, k - 1)] * k), max_size=4),
        )
    )
)
def test_equivariant_tables_match_the_oracle(case):
    k, arity, maps = case
    assert nat._equivariant_tables(maps, k, arity) == natural_tables(maps, k, arity)


# -- central operad of sets ---------------------------------------------------

def test_central_set_bruteforce_values():
    assert central_set_bruteforce(0).survivors == []
    r1 = central_set_bruteforce(1)
    assert [s.values for s in r1.survivors] == [(0,)]
    r2 = central_set_bruteforce(2)
    assert {s.values for s in r2.survivors} == {(0, 0, 1, 1), (0, 1, 0, 1)}
    assert r2.complete
    with pytest.raises(BoundExceeded):
        central_set_bruteforce(3)


def test_central_set_determined_matches_bruteforce():
    for n in (0, 1, 2):
        det = central_set_determined(n)
        brute = central_set_bruteforce(n)
        assert {s.values for s in det.survivors} == {s.values for s in brute.survivors}
    r3 = central_set_determined(3)
    assert [s.values for s in r3.survivors] == [
        tabulate(3, 3, lambda args, i=i: args[i - 1]).values for i in (1, 2, 3)
    ]
    assert central_set_determined(4).count == 4
    with pytest.raises(BoundExceeded):
        central_set_determined(5)


def test_central_set_monotone_in_the_morphism_set():
    # fewer compatibility conditions can only enlarge the survivor set
    all_endos = [tuple(f) for f in product(range(2), repeat=2)]
    full = {s.values for s in central_set_bruteforce(2).survivors}
    for k in range(len(all_endos) + 1):
        partial = nat._equivariant_tables(all_endos[:k], 2, 2)
        assert full <= set(partial)
        assert partial == natural_tables(all_endos[:k], 2, 2)


def test_survivor_composition_matches_projection_operad():
    """The natural maps compose, as functions, the way the projection operad
    says they should."""
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            base = m + n - 1
            for a in range(1, m + 1):
                f1 = tabulate(base, m, lambda args, a=a: args[a - 1])
                for b in range(1, n + 1):
                    f2 = tabulate(base, n, lambda args, b=b: args[b - 1])
                    for i in range(1, m + 1):
                        got = compose_tabulated(base, m, f1, i, n, f2)
                        c = perm_compose(PermElement(m, a), i, PermElement(n, b))
                        assert got == tabulate(
                            base, base, lambda args, c=c: args[c.index - 1]
                        )


def test_tuple_index_is_mixed_radix():
    assert tuple_index((1, 0), 3) == 3
    assert tuple_index((2, 1), 3) == 7
    assert tuple_index((), 5) == 0


# -- central operad of modules ------------------------------------------------

@pytest.mark.parametrize("dom", [finite_field(2), finite_field(3)], ids=str)
def test_central_module_field_cases(dom):
    r1 = central_module(dom, 2, 1)
    assert r1.extra["dimension"] == 1
    span = set(r1.extra["basis"].span_elements())
    scalars = {ExactMatrix.identity(dom, 2).scale(v) for v in dom.elements()}
    assert span == scalars
    r2 = central_module(dom, 2, 2)
    assert r2.extra["dimension"] == 0
    r0 = central_module(dom, 2, 0)
    assert r0.extra["dimension"] == 0
    assert r0.complete and r0.morphisms == dom.size ** 4


def test_central_module_rank_one_is_the_ring():
    for dom in (finite_field(3), IntegersMod(4)):
        r = central_module(dom, 1, 1)
        assert r.extra["transformation_count"] == dom.size


def test_central_module_z4_scalars():
    Z4 = IntegersMod(4)
    r1 = central_module(Z4, 2, 1)
    expected = {ExactMatrix.identity(Z4, 2).scale(v) for v in range(4)}
    assert set(r1.survivors) == expected
    r2 = central_module(Z4, 2, 2)
    assert r2.survivors == [ExactMatrix.zeros(Z4, 2, 4)]
    r0 = central_module(Z4, 2, 0)
    assert r0.survivors == [ExactMatrix.zeros(Z4, 2, 1)]


def test_central_module_rejects_infinite_ring():
    from endop.scalars import QQ

    with pytest.raises(UnsupportedDomain):
        central_module(QQ, 2, 1)


def test_central_module_reaches_past_the_old_candidate_space():
    # 4^16 candidate maps: out of reach of enumeration, solved exactly
    r = central_module(IntegersMod(4), 2, 3)
    assert r.survivors == [ExactMatrix.zeros(IntegersMod(4), 2, 8)]
    assert r.complete and r.morphisms == 256
    for m in (4, 8, 9):
        R = IntegersMod(m)
        r = central_module(R, 3, 2)
        assert r.survivors == [ExactMatrix.zeros(R, 3, 9)], m
        assert not r.complete


def test_solution_module_cap(monkeypatch):
    # graded_central(Z/6, 2, 1) has 6^5 = 7,776 survivors
    monkeypatch.setattr(nat, "CANDIDATE_CAP", 7775)
    with pytest.raises(BoundExceeded):
        graded_central(IntegersMod(6), 2, 1)
    monkeypatch.setattr(nat, "CANDIDATE_CAP", 7776)
    assert graded_central(IntegersMod(6), 2, 1).count == 7776


@pytest.mark.parametrize(
    "driver, args",
    [
        (central_module, (IntegersMod(4), -1, 1)),
        (central_module, (IntegersMod(4), 2, -1)),
        (graded_central, (IntegersMod(4), -1, 1)),
        (graded_central, (IntegersMod(4), 1, -1)),
    ],
)
def test_negative_sizes_are_rejected(driver, args):
    with pytest.raises(ValueError):
        driver(*args)


@pytest.mark.parametrize("arity", [0, 1])
def test_rank_zero_agrees_over_zmod_and_fields(arity):
    # Hom((R^0)^(tensor n), R^0) is the zero module: one transformation
    counts = {
        str(dom): central_module(dom, 0, arity).to_json_dict()["transformation_count"]
        for dom in (IntegersMod(4), finite_field(2))
    }
    assert counts == {"Z/4": 1, "F2": 1}


# -- generators of the morphism monoids -------------------------------------------
#
# The set, module and graded drivers solve and re-check against generators
# of their morphisms only.  That gives the same answers because naturality
# for f and for g implies naturality for g.f, provided the generators
# generate.  Where the morphisms can be listed, the closure tests below prove
# that they do; past that, the cited theorems in the docstrings of
# _set_generators, _module_generators and _graded_generators are the proof.

COMPLETE_RINGS = [IntegersMod(m) for m in range(2, 9)] + [
    finite_field(q) for q in (2, 3, 4, 5, 7, 8)
]
# every (ring, rank) with rank >= 2 whose |R|^(r^2) matrices are at most
# HOM_ENUMERATION_CAP, among these rings
COMPLETE_MODULE_CASES = [(R, 2) for R in COMPLETE_RINGS] + [
    (IntegersMod(2), 3), (finite_field(2), 3)
]


def _closure(gens, mul):
    """The monoid or category generated by gens: every product of one or more
    of them, where mul gives None for a pair that does not compose."""
    seen = frontier = set(gens)
    while frontier:
        frontier = {mul(g, x) for x in frontier for g in gens} - seen - {None}
        seen = seen | frontier
    return seen


def _set_closure(gens):
    return _closure(gens, lambda g, f: tuple(g[x] for x in f))


def _matrix_product(domain):
    # raw values are range(size) over Z/m and F_q alike, so tables index them
    size = domain.size
    add = [[domain.add(a, b) for b in range(size)] for a in range(size)]
    mul = [[domain.mul(a, b) for b in range(size)] for a in range(size)]

    def entry(row, col):
        total = 0
        for x, y in zip(row, col):
            total = add[total][mul[x][y]]
        return total

    def product_of(a, b):
        cols = tuple(zip(*b))
        return tuple(tuple(entry(row, col) for col in cols) for row in a)

    return product_of


def _matrix_closure(domain, gens):
    return _closure([g.data for g in gens], _matrix_product(domain))


def _all_matrices(domain, r):
    return {f.data for f in all_square_matrices(domain, r)}


def _graded_category(domain, objects):
    """Every degree-zero map between the objects, as (src, dst, f)."""
    return [
        (si, di, ExactMatrix(domain, f, len(src)))
        for si, src in enumerate(objects)
        for di, dst in enumerate(objects)
        for f in graded_homs(src, dst, domain)
    ]


def _graded_closure(domain, gens):
    """The degree-zero maps that gens generate, as (src, dst, rows)."""
    product_of = _matrix_product(domain)
    return _closure(
        [(s, d, f.data) for s, d, f in gens],
        lambda g, f: (f[0], g[1], product_of(g[2], f[2])) if g[0] == f[1] else None,
    )


def _listed_graded_category(domain, window, arity):
    objects = nat._graded_objects(window, arity)
    return objects, {(s, d, f.data) for s, d, f in _graded_category(domain, objects)}


GRADED_RINGS = [IntegersMod(m) for m in (2, 4, 6)] + [finite_field(q) for q in (2, 3, 4)]


def test_set_generators_generate_every_endomap():
    # for n <= 1 the one generator is the one map, by construction
    for n in (0, 1):
        assert nat._set_generators(n) == list(product(range(n), repeat=n))
    for n in (2, 3, 4, 5):
        assert _set_closure(nat._set_generators(n)) == set(product(range(n), repeat=n)), n


@pytest.mark.parametrize("domain, rank", COMPLETE_MODULE_CASES, ids=str)
def test_module_generators_generate_every_matrix(domain, rank):
    assert domain.size ** (rank * rank) <= nat.HOM_ENUMERATION_CAP
    gens = nat._module_generators(domain, rank)
    assert _matrix_closure(domain, gens) == _all_matrices(domain, rank)


@pytest.mark.parametrize("window, arity", [(0, 2), (1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("domain", GRADED_RINGS, ids=str)
def test_graded_generators_generate_every_degree_zero_map(domain, window, arity):
    objects, listed = _listed_graded_category(domain, window, arity)
    assert _graded_closure(domain, nat._graded_generators(domain, objects)) == listed


def test_module_generators_at_rank_at_most_one_are_every_matrix():
    # by construction: diag(d) for every d is every 1 x 1 matrix, and the
    # empty matrix is the one 0 x 0 matrix
    for domain in COMPLETE_RINGS + [IntegersMod(9), finite_field(9)]:
        for rank in (0, 1):
            gens = {g.data for g in nat._module_generators(domain, rank)}
            assert gens == _all_matrices(domain, rank), (domain, rank)


# rank <= 1 is left out: there the generators are the whole monoid
AGAINST_EVERY_MORPHISM = [
    pytest.param(lambda n=n: central_set_determined(n), id=f"set-{n}") for n in range(5)
] + [
    pytest.param(lambda R=R, r=r, a=a: central_module(R, r, a), id=f"{R}-rank{r}-arity{a}")
    for R, r in COMPLETE_MODULE_CASES
    for a in (0, 1, 2)
] + [
    pytest.param(lambda R=R, w=w, a=a: graded_central(R, w, a), id=f"{R}-window{w}-arity{a}")
    for R in GRADED_RINGS
    for w in (0, 1)
    for a in (0, 1, 2)
]


@pytest.mark.parametrize("solve", AGAINST_EVERY_MORPHISM)
def test_generators_solve_as_the_whole_monoid(monkeypatch, solve):
    """The report equals the one of a solve against every morphism, which is
    what the set, module and graded drivers solved against before."""
    expected = _report(solve())
    monkeypatch.setattr(nat, "_set_generators", lambda n: list(product(range(n), repeat=n)))
    monkeypatch.setattr(
        nat, "_module_generators", lambda domain, r: list(all_square_matrices(domain, r))
    )
    monkeypatch.setattr(nat, "_graded_generators", _graded_category)
    assert _report(solve()) == expected


@pytest.mark.parametrize(
    "domain",
    [IntegersMod(m) for m in (2, 4, 6, 8, 9)] + [finite_field(q) for q in (2, 3, 4, 5)],
    ids=str,
)
def test_graded_morphisms_count_the_listed_category(monkeypatch, domain):
    """`morphisms` is a closed form.  It equals the number of listed
    degree-zero maps wherever they fit under the cap, and past it both raise
    the same BoundExceeded.  The solve is stubbed out: only the count is
    read here."""
    monkeypatch.setattr(nat, "_natural_solutions", lambda *args: ([], {}))
    for window, arity in product((0, 1, 2), (0, 1, 2, 3)):
        objects = nat._graded_objects(window, arity)
        try:
            count = sum(len(graded_homs(a, b, domain)) for a, b in product(objects, repeat=2))
        except BoundExceeded as listed:
            with pytest.raises(BoundExceeded) as exc:
                graded_central(domain, window, arity)
            assert str(exc.value) == str(listed), (window, arity)
        else:
            assert graded_central(domain, window, arity).morphisms == count, (window, arity)


@pytest.mark.parametrize(
    "window, arity, power", [(0, 2, "9^4"), (1, 2, "9^4"), (0, 3, "9^9"), (1, 3, "9^9")]
)
def test_graded_cap_bounds_the_maps_between_two_objects(window, arity, power):
    with pytest.raises(BoundExceeded) as exc:
        graded_central(IntegersMod(9), window, arity)
    assert str(exc.value) == f"{power} graded morphisms exceed the enumeration cap"


def test_graded_cap_is_checked_before_the_cells(monkeypatch):
    # an object has len(obj)^arity candidate cells: F_2 at window 1, arity 6
    # took 5 s to reach the cap when the cells were listed first
    monkeypatch.setattr(nat, "_graded_cells", None)
    with pytest.raises(BoundExceeded, match=r"^2\^36 graded morphisms"):
        graded_central(finite_field(2), 1, 6)


# -- mutants: generating sets with one class of generators removed ------------------
#
# Removing any one class breaks the closure proof.  Some removals also change
# survivors (pinned below); others do not, and only the closure tests catch
# them.  These leave every survivor unchanged: dropping the swap (n <= 3);
# dropping the unit diagonals over F_3, F_4, Z/4 and Z/6 at rank 2 (arity
# <= 2); and dropping the non-unit diagonals over F_3 and F_4 (arity <= 2).
# Over Z/4 the last changes arity 2 only (1 survivor becomes 2).

SET_CLASSES = ("swap", "cycle", "collapse")  # the order of _set_generators


def _set_generators_without(cls):
    generators = nat._set_generators
    return lambda n: [f for name, f in zip(SET_CLASSES, generators(n)) if name != cls]


def _module_class(domain, g):
    r = len(g.data)
    if any(g.data[a][b] for a in range(r) for b in range(r) if a != b):
        return "transvections"
    d = g.data[0][0]
    if any(domain.mul(d, e) == domain.one_raw for e in domain.elements()):
        return "unit diagonals"
    return "non-unit diagonals"


def _module_generators_without(cls):
    generators = nat._module_generators
    return lambda domain, r: [
        g for g in generators(domain, r) if _module_class(domain, g) != cls
    ]


@pytest.mark.parametrize("cls", SET_CLASSES)
def test_each_set_generator_class_is_needed(cls):
    # at n = 2 the swap is the 2-cycle, so each class is needed from n = 3
    for n in (3, 4, 5):
        gens = _set_generators_without(cls)(n)
        assert _set_closure(gens) != set(product(range(n), repeat=n)), n


@pytest.mark.parametrize("cls", ["transvections", "unit diagonals", "non-unit diagonals"])
@pytest.mark.parametrize(
    "domain", [finite_field(3), finite_field(4), IntegersMod(4), IntegersMod(6)], ids=str
)
def test_each_module_generator_class_is_needed(domain, cls):
    # over Z/2 and F_2 the one unit diagonal is the identity, which the
    # transvections already generate
    gens = _module_generators_without(cls)(domain, 2)
    assert _matrix_closure(domain, gens) != _all_matrices(domain, 2)


@pytest.mark.parametrize(
    "cls, count", [("swap", 3), ("cycle", 4), ("collapse", 81)]
)
def test_set_survivors_without_a_generator_class(monkeypatch, cls, count):
    assert central_set_determined(3).count == 3
    monkeypatch.setattr(nat, "_set_generators", _set_generators_without(cls))
    assert central_set_determined(3).count == count


@pytest.mark.parametrize(
    "domain, cls, count",
    [
        (IntegersMod(4), "transvections", 16),
        (IntegersMod(4), "unit diagonals", 4),
        (finite_field(3), "non-unit diagonals", 3),
    ],
    ids=str,
)
def test_module_survivors_without_a_generator_class(monkeypatch, domain, cls, count):
    assert central_module(domain, 2, 1).extra["transformation_count"] == domain.size
    monkeypatch.setattr(nat, "_module_generators", _module_generators_without(cls))
    assert central_module(domain, 2, 1).extra["transformation_count"] == count


# Graded generators fall into three classes.  Dropping any of them breaks the
# closure at window 1 and arity 2, the smallest shape that has all three.
# Over Z/2, Z/4, Z/6, Z/8 and F_2 to F_5, at windows 0-2 and arities 0-2,
# these drops leave every survivor unchanged, so only the closure test
# catches them: any drop at arity 1; dropping the connecting maps over F_3,
# F_4 and F_5; and dropping the block diagonals at windows 1 and 2.

GRADED_CLASSES = ("connecting maps", "block transvections", "block diagonals")


def _graded_class(src, dst, f):
    if src != dst:
        return "connecting maps"
    if any(v for a, row in enumerate(f.data) for b, v in enumerate(row) if a != b):
        return "block transvections"
    return "block diagonals"


def _graded_generators_without(cls):
    generators = nat._graded_generators
    return lambda domain, objects: [
        g for g in generators(domain, objects) if _graded_class(*g) != cls
    ]


@pytest.mark.parametrize("cls", GRADED_CLASSES)
@pytest.mark.parametrize("domain", GRADED_RINGS, ids=str)
def test_each_graded_generator_class_is_needed(domain, cls):
    objects, listed = _listed_graded_category(domain, 1, 2)
    gens = _graded_generators_without(cls)(domain, objects)
    assert _graded_closure(domain, gens) != listed


@pytest.mark.parametrize(
    "domain, window, arity, cls, count",
    [
        (IntegersMod(2), 1, 2, "connecting maps", 4),
        (IntegersMod(4), 0, 2, "block transvections", 128),
        (IntegersMod(4), 0, 0, "block diagonals", 4),
        (finite_field(4), 0, 2, "block diagonals", 4),
    ],
    ids=str,
)
def test_graded_survivors_without_a_generator_class(monkeypatch, domain, window, arity, cls, count):
    assert graded_central(domain, window, arity).extra["transformation_count"] == 1
    monkeypatch.setattr(nat, "_graded_generators", _graded_generators_without(cls))
    assert graded_central(domain, window, arity).extra["transformation_count"] == count


# -- brute-force oracles over Z/m ------------------------------------------------
#
# The candidate enumeration the Z/m drivers used before they solved their
# conditions: every candidate map, in lexicographic order, is kept when it
# satisfies every condition.  The conditions are evaluated with numpy
# integer arithmetic, all surviving candidates at once.

def _as_array(mat):
    return np.array(mat.data, dtype=np.int64).reshape(mat.nrows, mat.ncols)


def _candidates(m, count):
    return np.array(list(product(range(m), repeat=count)), dtype=np.int64).reshape(-1, count)


def enumerated_central_module(domain, r, n):
    m, width = domain.size, r ** n
    if m ** (r * r) <= nat.HOM_ENUMERATION_CAP:
        morphisms, complete = list(all_square_matrices(domain, r)), True
    else:
        morphisms, complete = nat._module_generator_family(domain, r), False

    def natural_for(cands, f):
        fa = _as_array(f)
        fb = reduce(np.kron, [fa] * n, np.eye(1, dtype=np.int64)) % m
        phi = cands.reshape(-1, r, width)
        diff = np.einsum("ij,cjk->cik", fa, phi) - np.einsum("cij,jk->cik", phi, fb)
        return cands[np.all(diff.reshape(len(cands), -1) % m == 0, axis=1)]

    cands = _candidates(m, r * width)
    for f in morphisms:
        cands = natural_for(cands, f)
    if not complete:
        rng = random.Random(0)
        for _ in range(nat.SAMPLE_VERIFICATIONS):
            flat = [rng.randrange(m) for _ in range(r * r)]
            cands = natural_for(cands, ExactMatrix(domain, [flat[i * r : (i + 1) * r] for i in range(r)]))
    survivors = [
        ExactMatrix(domain, [[int(v) for v in row] for row in c.reshape(r, width)])
        for c in cands
    ]
    extra = {"transformation_count": len(survivors)}
    if not complete:
        extra["method"] = "generator-based (sound but possibly over-approximating)"
    return nat.NaturalityReport(
        "central-module", n, [f"{domain}^{r}"], len(morphisms), survivors, complete, 0.0, extra
    )


def enumerated_graded_central(domain, window, n):
    m = domain.size
    objects = nat._graded_objects(window, n)
    cell_index = {}
    for oi, obj in enumerate(objects):
        for t, T in nat._graded_cells(obj, n):
            cell_index[(oi, t, T)] = len(cell_index)
    cands = _candidates(m, len(cell_index))
    homs = 0
    for si, src in enumerate(objects):
        for di, dst in enumerate(objects):
            for f in graded_homs(src, dst, domain):
                homs += 1
                # f o phi_src == phi_dst o f^(tensor n) at output u, input T
                forms = []
                for u in range(len(dst)):
                    for T in product(range(len(src)), repeat=n):
                        c = np.zeros(len(cell_index), dtype=np.int64)
                        for (oi, t, TT), k in cell_index.items():
                            if oi == si and TT == T:
                                c[k] += f[u][t]
                            if oi == di and t == u:
                                c[k] -= int(np.prod([f[a][b] for a, b in zip(TT, T)]))
                        forms.append(c)
                if forms and len(cands):
                    values = cands @ np.array(forms).T % m
                    cands = cands[np.all(values == 0, axis=1)]
    survivors = [tuple(int(v) for v in c) for c in cands]
    extra = {
        "transformation_count": len(survivors),
        "cells": [
            {"object": str(objects[oi]), "out": t, "in": list(T)} for (oi, t, T) in cell_index
        ],
    }
    return nat.NaturalityReport(
        "graded-central", n, [str(o) for o in objects], homs, survivors, True, 0.0, extra
    )


def _report(rep):
    d = rep.to_json_dict()
    del d["elapsed_ms"]
    return d


ZMOD_MODULI = (4, 6, 8, 9, 12)


@pytest.mark.parametrize("m", ZMOD_MODULI)
@pytest.mark.parametrize("rank, arity", [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1)])
def test_central_module_matches_enumeration(m, rank, arity):
    R = IntegersMod(m)
    assert _report(central_module(R, rank, arity)) == _report(
        enumerated_central_module(R, rank, arity)
    )


@pytest.mark.parametrize(
    "m, window, arity",
    [(m, w, a) for m in ZMOD_MODULI for w in (0, 1) for a in (0, 1)] + [(4, 0, 2)],
)
def test_graded_central_matches_enumeration(m, window, arity):
    R = IntegersMod(m)
    assert _report(graded_central(R, window, arity)) == _report(
        enumerated_graded_central(R, window, arity)
    )


RECHECK_INJECTIONS = [
    (
        "solved = linalg._intersect_conditions\n"
        "linalg._intersect_conditions = lambda *a: solved(*a) + [{(0, 0, 1): 1}]",
        "naturality.central_module(IntegersMod(4), 2, 1)",
        "survivor [['0 mod 4', '1 mod 4']",
    ),
    (
        # only the natural maps of Z/2 in arity 2 have 4 cells; its
        # endomorphisms have 2
        "solved = naturality._solve_tables\n"
        "naturality._solve_tables = lambda count, *a, **k: solved(count, *a, **k)"
        " + ([(1, 0, 0, 0)] if count == 4 else [])",
        "naturality.finite_group_natural_maps(naturality.cyclic_group(2), 2)",
        "survivor (1, 0, 0, 0) is not natural",
    ),
    (
        # the constant map 0 on [3]^3, re-checked against the generators only
        "solved = naturality._solve_tables\n"
        "naturality._solve_tables = lambda count, *a, **k: solved(count, *a, **k)"
        " + ([(0,) * 27] if count == 27 else [])",
        "naturality.central_set_determined(3)",
        "survivor (0, 0, 0, 0,",
    ),
]


def test_survivor_recheck_runs_under_python_O():
    """A wrong generator or table slipped into a solver's result is caught by
    the re-check, which must not be an assert that -O strips."""
    src = os.path.dirname(os.path.dirname(endop.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for inject, call, message in RECHECK_INJECTIONS:
        script = textwrap.dedent(
            """
            import sys
            from endop import linalg, naturality
            from endop.errors import VerificationFailed
            from endop.scalars import IntegersMod

            assert sys.flags.optimize
            {inject}
            try:
                {call}
            except VerificationFailed as exc:
                print("VerificationFailed:", exc)
            """
        ).format(inject=inject, call=call)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("VerificationFailed: " + message), proc.stdout


# -- the field basis against one elimination of every condition -----------------
#
# central_module and graded_central intersect the conditions one morphism
# at a time.  The oracle writes every condition
# f . phi_src - phi_dst . f^(tensor n) = 0 out as rows over the flat cells,
# stacks them, and takes the nullspace once.

def _stacked_nullspace(domain, cells, morphisms, n):
    index = {cell: k for k, cell in enumerate(cells)}
    rows = {}
    for src, dst, f in morphisms:
        fn = kron_power(f, n)
        for i in range(f.nrows):
            for j in range(fn.ncols):
                row = [domain.zero_raw] * len(cells)
                for (o, a, b), k in index.items():
                    if o == src and b == j:
                        row[k] = domain.add(row[k], f.data[i][a])
                    if o == dst and a == i:
                        row[k] = domain.sub(row[k], fn.data[b][j])
                rows[tuple(row)] = None
    return nullspace(ExactMatrix(domain, list(rows), len(cells)))


ORACLE_FIELDS = (finite_field(2), finite_field(3), finite_field(4), IntegersMod(5))


@pytest.mark.parametrize("domain", ORACLE_FIELDS, ids=str)
@pytest.mark.parametrize("rank, arity", [(r, a) for r in (1, 2) for a in (0, 1, 2)])
def test_central_module_basis_is_the_stacked_nullspace(domain, rank, arity):
    cells = [(0, i, j) for i in range(rank) for j in range(rank ** arity)]
    morphisms = [(0, 0, f) for f in all_square_matrices(domain, rank)]
    rep = central_module(domain, rank, arity)
    flat = [tuple(a for row in m.data for a in row) for m in rep.survivors]
    assert flat == _stacked_nullspace(domain, cells, morphisms, arity)
    assert rep.extra["dimension"] == len(flat)


@pytest.mark.parametrize("domain", ORACLE_FIELDS, ids=str)
@pytest.mark.parametrize("window, arity", [(w, a) for w in (0, 1) for a in (0, 1, 2)])
def test_graded_central_basis_is_the_stacked_nullspace(domain, window, arity):
    objects = nat._graded_objects(window, arity)
    cells = [
        (oi, t, tuple_index(T, len(obj)))
        for oi, obj in enumerate(objects)
        for t, T in nat._graded_cells(obj, arity)
    ]
    morphisms = _graded_category(domain, objects)
    rep = graded_central(domain, window, arity)
    assert rep.survivors == _stacked_nullspace(domain, cells, morphisms, arity)


# -- graded modules -----------------------------------------------------------

def test_graded_central_window_one():
    Z2 = IntegersMod(2)
    r1 = graded_central(Z2, 1, 1)
    assert r1.extra["dimension"] == 3
    assert r1.extra["transformation_count"] == 8
    # every basis vector is one degree-wise identity
    for vec in r1.survivors:
        assert sum(1 for v in vec if v != 0) == 1
    assert graded_central(Z2, 1, 0).extra["transformation_count"] == 1
    assert graded_central(Z2, 1, 2).extra["transformation_count"] == 1


def test_graded_window_zero_recovers_ungraded():
    for dom in (IntegersMod(2), finite_field(3)):
        graded = graded_central(dom, 0, 1)
        ungraded = central_module(dom, 1, 1)
        assert (
            graded.extra["transformation_count"]
            == ungraded.extra["transformation_count"]
            == dom.size
        )


def test_graded_central_composite_ring():
    Z4 = IntegersMod(4)
    r = graded_central(Z4, 1, 1)
    assert r.extra["transformation_count"] == 4 ** 3


def test_graded_arities_and_objects():
    Z2 = IntegersMod(2)
    r = graded_central(Z2, 1, 2)
    assert len(r.objects) == 6  # multisets of two degrees from -1..1


# -- monoid tables ------------------------------------------------------------

def test_monoid_table_validation():
    with pytest.raises(NotAMonoid):
        FiniteMonoidTable(((1, 1), (1, 1)))  # no unit
    with pytest.raises(NotAMonoid):
        FiniteMonoidTable(((0, 1, 2), (1, 0, 1), (2, 2, 0)))  # not associative
    # a unit that is not element 0 is found
    assert FiniteMonoidTable(((1, 0), (0, 1))).unit == 1
    M = cyclic_group(3)
    assert M.unit == 0 and M.is_group()
    assert and_unit_checks()


def and_unit_checks():
    from endop.naturality import and_monoid

    M = and_monoid()
    assert not M.is_group()
    with pytest.raises(NotAGroup):
        M.require_group()
    return True


def test_small_monoid_fixtures_are_complete():
    """Regenerate all monoids of order <= 3 up to isomorphism and compare
    with the shipped tables."""
    from itertools import permutations

    def canonical(t):
        n = len(t)
        best = None
        for p in permutations(range(1, n)):
            perm = (0,) + p
            inv = [0] * n
            for i, v in enumerate(perm):
                inv[v] = i
            rel = tuple(
                tuple(perm[t[inv[a]][inv[b]]] for b in range(n)) for a in range(n)
            )
            if best is None or rel < best:
                best = rel
        return best

    found = set()
    for n in (1, 2, 3):
        for vals in product(range(n), repeat=(n - 1) * (n - 1)):
            t = [[0] * n for _ in range(n)]
            for i in range(n):
                t[0][i] = i
                t[i][0] = i
            k = 0
            for a in range(1, n):
                for b in range(1, n):
                    t[a][b] = vals[k]
                    k += 1
            try:
                FiniteMonoidTable(tuple(tuple(r) for r in t))
            except NotAMonoid:
                continue
            found.add(canonical(tuple(tuple(r) for r in t)))
    assert found == {canonical(t) for t in SMALL_MONOID_TABLES}
    assert len(SMALL_MONOID_TABLES) == 10


# -- monoid reconstruction ----------------------------------------------------

def test_mset_endomorphisms_are_right_multiplications():
    S3 = symmetric_group_3()
    endos = set(mset_endomorphisms(S3))
    right = {tuple(S3.mul(x, a) for x in range(6)) for a in range(6)}
    assert endos == right


def test_monoid_reconstruction_examples():
    rep = monoid_reconstruction(trivial_monoid())
    assert rep.count == 1 and rep.extra["isomorphic"]
    rep = monoid_reconstruction(cyclic_group(2))
    assert rep.count == 2 and rep.extra["isomorphic"]
    from endop.naturality import left_mult_unit_monoid

    M = left_mult_unit_monoid()
    rep = monoid_reconstruction(M)
    assert rep.count == 3 and rep.extra["isomorphic"]
    left_mults = {tuple(M.table[a]) for a in range(3)}
    assert {s.values for s in rep.survivors} == left_mults


def test_monoid_reconstruction_all_small_monoids():
    for M in small_monoids() + [cyclic_group(6), symmetric_group_3()]:
        rep = monoid_reconstruction(M)
        assert rep.extra["isomorphic"], M.name
        assert rep.count == M.size


def test_monoid_reconstruction_bound():
    table = tuple(tuple((a + b) % 7 for b in range(7)) for a in range(7))
    with pytest.raises(BoundExceeded):
        monoid_reconstruction(FiniteMonoidTable(table))


# -- natural maps on a fixed group ---------------------------------------------

def test_z2_natural_maps():
    rep = finite_group_natural_maps(cyclic_group(2), 1)
    assert {s.values for s in rep.survivors} == {(0, 1), (0, 0)}  # identity, constant
    assert rep.extra["word_image_count"] == 2
    assert rep.extra["surplus"] == 0


def test_trivial_group_natural_maps():
    rep = finite_group_natural_maps(trivial_monoid(), 2)
    assert rep.count == 1


def test_s3_natural_maps_are_word_images():
    rep = finite_group_natural_maps(symmetric_group_3(), 1, word_length_bound=3)
    assert rep.morphisms == 10
    assert rep.count == 6
    assert rep.extra["word_image_count"] == 6
    assert rep.extra["surplus"] == 0
    # the power maps x -> x^k are exactly the survivors
    S3 = symmetric_group_3()
    powers = set()
    for k in range(6):
        tbl = []
        for x in range(6):
            acc = S3.unit
            for _ in range(k):
                acc = S3.mul(acc, x)
            tbl.append(acc)
        powers.add(tuple(tbl))
    assert {s.values for s in rep.survivors} == powers


def test_z2_arity_two_natural_maps():
    """Naturality against the two endomorphisms of Z/2 alone only forces
    phi(0,0) = 0, so maps that are no word image survive (e.g. the meet);
    the report states the surplus without interpreting it."""
    rep = finite_group_natural_maps(cyclic_group(2), 2)
    survivors = {s.values for s in rep.survivors}
    assert survivors == {v for v in product((0, 1), repeat=4) if v[0] == 0}
    # word images: e, x, y, x+y
    assert rep.extra["word_image_count"] == 4
    assert rep.extra["surplus"] == 4
    assert (0, 0, 0, 1) in survivors  # the meet map is natural here but not a word


def word_image_closure(G, n):
    """The subgroup of G^(G^n) that the n projections generate under the
    pointwise product: exactly the maps that words realise."""
    tuples = list(product(range(G.size), repeat=n))
    projections = [tuple(t[i] for t in tuples) for i in range(n)]
    found = frontier = {tuple(G.unit for _ in tuples)}
    while frontier:
        frontier = {
            tuple(G.mul(a, b) for a, b in zip(x, p)) for x in frontier for p in projections
        } - found
        found = found | frontier
    return found


@pytest.mark.parametrize(
    "name, arity, size", [("s3", 1, 6), ("z6", 1, 6), ("z3", 2, 9), ("z2", 2, 4)]
)
def test_word_images_are_the_generated_subgroup(name, arity, size):
    G = BUILTIN_TABLES[name]()
    images = word_image_closure(G, arity)
    rep = finite_group_natural_maps(G, arity)
    assert len(images) == size == rep.extra["word_image_count"]
    assert rep.extra["surplus"] == rep.count - len(images)
    assert images <= {s.values for s in rep.survivors}


def test_group_maps_bounds():
    with pytest.raises(BoundExceeded):
        finite_group_natural_maps(symmetric_group_3(), 2)
    with pytest.raises(NotAGroup):
        finite_group_natural_maps(small_monoids()[2], 1)


# -- report shape ---------------------------------------------------------------

def test_report_json_shape():
    rep = central_set_bruteforce(2)
    d = rep.to_json_dict()
    assert set(d) >= {"context", "arity", "subcategory", "survivors", "complete", "elapsed_ms"}
    assert d["subcategory"] == {"objects": ["[2]"], "morphisms": 4}
    assert d["survivors"] == [[0, 0, 1, 1], [0, 1, 0, 1]]


def test_emission_recheck_never_fails():
    # every driver re-verifies its survivors and raises VerificationFailed
    # on a miss; a clean pass of the drivers is the property itself
    central_set_determined(3)
    central_module(finite_field(2), 2, 1)
    graded_central(IntegersMod(2), 1, 1)
    monoid_reconstruction(cyclic_group(3))
    finite_group_natural_maps(cyclic_group(3), 1)
