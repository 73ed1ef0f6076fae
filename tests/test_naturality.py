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

import endop
from endop import naturality as nat
from endop.errors import BoundExceeded, NotAGroup, NotAMonoid, UnsupportedDomain
from endop.linalg import ExactMatrix, kron_power, nullspace
from endop.naturality import (
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
    mset_endomorphisms,
    monoid_reconstruction,
    small_monoids,
    symmetric_group_3,
    tabulate,
    tabulate_projection,
    trivial_monoid,
    tuple_index,
)
from endop.operad_core import PermElement, perm_compose
from endop.scalars import IntegersMod, finite_field


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
        tabulate_projection(3, i).values for i in (1, 2, 3)
    ]
    assert central_set_determined(4).count == 4
    with pytest.raises(BoundExceeded):
        central_set_determined(5)


def test_central_set_monotone_in_the_morphism_set():
    # fewer compatibility conditions can only enlarge the survivor set
    all_endos = [tuple(f) for f in product(range(2), repeat=2)]
    full = {s.values for s in central_set_bruteforce(2).survivors}
    for k in range(len(all_endos) + 1):
        partial = central_set_bruteforce(2, endomaps=all_endos[:k])
        assert full <= {s.values for s in partial.survivors}


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
        morphisms, complete = list(nat._all_square_matrices(domain, r)), True
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
    extra["basis"] = None
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
            for f in nat._graded_homs(src, dst, domain, nat.HOM_ENUMERATION_CAP):
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


def test_survivor_recheck_runs_under_python_O():
    """A wrong generator slipped into the solver's final generators is caught
    by the re-check, which must not be an assert that -O strips."""
    script = textwrap.dedent(
        """
        import sys
        from endop import linalg, naturality
        from endop.errors import VerificationFailed
        from endop.scalars import IntegersMod

        assert sys.flags.optimize
        solved = linalg._intersect_conditions
        linalg._intersect_conditions = lambda *a: solved(*a) + [{(0, 0, 1): 1}]
        try:
            naturality.central_module(IntegersMod(4), 2, 1)
        except VerificationFailed as exc:
            print("VerificationFailed:", exc)
        """
    )
    src = os.path.dirname(os.path.dirname(endop.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("VerificationFailed: survivor [['0 mod 4', '1 mod 4']")


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
    morphisms = [(0, 0, f) for f in nat._all_square_matrices(domain, rank)]
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
    morphisms = [
        (si, di, ExactMatrix(domain, f, len(src)))
        for si, src in enumerate(objects)
        for di, dst in enumerate(objects)
        for f in nat._graded_homs(src, dst, domain, nat.HOM_ENUMERATION_CAP)
    ]
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
