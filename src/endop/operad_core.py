"""The abstract operad contract, a generic axiom checker, and the built-in
projection (Perm) and one-object scalar operads.

An operad here is a family of elements graded by arity with partial
compositions o_i, a symmetric-group action relabelling inputs, and a unit in
arity one.  A concrete operad hands its operations to the checker in an
OperadDescriptor; the checker tests unit laws, sequential and parallel
associativity, and equivariance exhaustively on enumerated elements, one
CheckResult per check.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

from .errors import PositionOutOfRange
from .perms import all_perms, compose_perms, embed_at, invert_perm, require_perm, stretch_at

PERM_TAG = -2  # the first entry of every PermElement tuple
ROW_STORE_CAP = 1 << 13  # values a row store holds before it drops them all
_new = tuple.__new__


class PermElement(tuple):
    """The i-th projection among n inputs.

    A value: an immutable tuple (PERM_TAG, arity, index), so that hashing,
    equality and construction run in C.  The tag keeps a projection unequal
    to a plain tuple of its fields and to a word with the same numbers.
    Projections also order as tuples; that order means nothing.
    """

    __slots__ = ()

    def __new__(cls, arity, index):
        if arity < 1:
            raise ValueError("projections need at least one input")
        if not 1 <= index <= arity:
            raise ValueError(f"projection index {index} out of 1..{arity}")
        return _new(cls, (PERM_TAG, arity, index))

    arity = property(itemgetter(1))
    index = property(itemgetter(2))

    def __repr__(self):
        return f"PermElement(arity={self[1]!r}, index={self[2]!r})"

    def __str__(self):
        return f"pi{self[2]}[{self[1]}]"

    def __reduce__(self):
        return PermElement, (self[1], self[2])


def perm_compose(w1: PermElement, k: int, w2: PermElement) -> PermElement:
    """Plug a projection into slot k of another projection.

    The composite of projections is again a projection; its index follows
    from composing the underlying functions.
    """
    _, m, i = w1
    if not 1 <= k <= m:
        raise PositionOutOfRange(f"slot {k} out of 1..{m}")
    _, n, j = w2
    if i < k:
        idx = i
    elif i == k:
        idx = k + j - 1
    else:
        idx = i + n - 1
    return _new(PermElement, (PERM_TAG, m + n - 1, idx))


def perm_act(sigma, w: PermElement) -> PermElement:
    """Input relabelling: (sigma . pi_i)(a_1..a_n) = pi_i(a_sigma(1)..) = a_sigma(i).

    sigma must be a permutation of 1..n; anything else is an OperadMismatch."""
    _, n, i = w
    require_perm(sigma, n)
    return _new(PermElement, (PERM_TAG, n, sigma[i - 1]))


@dataclass(frozen=True)
class OperadDescriptor:
    """What the axiom checker reads of one concrete operad: compose(w1, i, w2)
    raises PositionOutOfRange for a slot outside 1..w1.arity, act(sigma, w)
    relabels inputs, unit is the arity-one unit, and enumerate_arity(n,
    size_bound) lists distinct elements of arity n, each with its `.arity`.
    A row kernel compose.rows(w2s), if compose has one, returns row with
    row(w1, i) == [compose(w1, i, w2) for w2 in w2s]; a replaced compose has
    none.  The checker builds every composite as such a row, and keeps those
    it reads more than once in one row store with one drop rule (see
    check_operad_axioms)."""

    name: str
    compose: Callable
    act: Callable
    unit: object
    enumerate_arity: Callable


def perm_operad() -> OperadDescriptor:
    return OperadDescriptor(
        name="perm",
        compose=perm_compose,
        act=perm_act,
        unit=PermElement(1, 1),
        enumerate_arity=lambda n, size_bound: (
            [PermElement(n, i) for i in range(1, n + 1)] if n >= 1 else []
        ),
    )


@dataclass(frozen=True)
class ScalarOperadElement:
    """Arity-one element of the one-object operad attached to a commutative
    ring: composition is ring multiplication."""

    scalar: object

    @property
    def arity(self):
        return 1

    def __str__(self):
        return str(self.scalar)


def trivial_operad(domain) -> OperadDescriptor:
    """The operad with the ring in arity one and nothing elsewhere."""

    def compose(w1, i, w2):
        return ScalarOperadElement(w1.scalar * w2.scalar)

    def act(sigma, w):
        return w

    def enumerate_arity(n, size_bound):
        if n != 1:
            return []
        return [ScalarOperadElement(domain.scalar(v)) for v in domain.elements()]

    return OperadDescriptor(
        name=f"trivial-{domain}",
        compose=compose,
        act=act,
        unit=ScalarOperadElement(domain.one()),
        enumerate_arity=enumerate_arity,
    )


@dataclass(slots=True)
class CheckResult:
    """One axiom check: the instances compared, and the first counterexample."""

    name: str
    instances: int = 0
    witness: str | None = None

    @property
    def passed(self) -> bool:
        return self.witness is None

    def fail(self, template: str, **fields):
        """Record a counterexample; only the first one is formatted."""
        if self.witness is None:
            self.witness = template.format(**fields)

    def to_json_dict(self):
        d = {"name": self.name, "instances": self.instances, "pass": self.passed}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass
class AxiomReport:
    operad: str
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> CheckResult | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def to_json_dict(self):
        return {"operad": self.operad, "checks": [c.to_json_dict() for c in self.checks]}


def _elements_by_arity(P, arity_bound, size_bound):
    table = {}
    for n in range(arity_bound + 1):
        els = list(P.enumerate_arity(n, size_bound))
        if els:
            table[n] = els
    return table


def _first_difference(lhs, rhs):
    return next(t for t, (a, b) in enumerate(zip(lhs, rhs)) if a != b)


def _intern(ids, values):
    """The small-int ids of values in the table ids, adding new values."""
    return [ids.setdefault(v, len(ids)) for v in values]


def _rows(compose):
    """compose.rows, or if compose has none, a kernel that binds a list ys to
    row(x, k) == [compose(x, k, y) for y in ys], one call per element."""
    return getattr(compose, "rows", None) or (lambda ys: lambda x, k: [compose(x, k, y) for y in ys])


def _row_store(makers):
    """row(x, k, key) == tuple(makers[key](x, k)), built the first time it is
    asked for.  There is one memo per key, and all share one table of
    values, so the rows keep one copy of each value.  A caller may register
    more makers in the dict while the store is in use.  Before a row is
    built while the values number more than ROW_STORE_CAP, every row and
    value is dropped."""
    values = {}
    memos = defaultdict(dict)

    def row(x, k, key):
        memo = memos[key]
        r = memo.get((x, k))
        if r is None:
            if len(values) > ROW_STORE_CAP:
                values.clear()
                memos.clear()
                memo = memos[key]
            r = memo[x, k] = tuple([values.setdefault(v, v) for v in makers[key](x, k)])
        return r

    return row


def _sequential_associativity(compose_rows, small, row) -> CheckResult:
    """(w1 o_i w2) o_{i+j-1} w3 = w1 o_i (w2 o_j w3), a row over w3 at a time,
    in enumeration order.

    In each block (arity n of w2, arity p of w3) the inner composites w2 o_j
    w3 are interned to small ints.  Every row comes from the row store but
    the outer one, w1 o_i d over the distinct inner composites d, built by a
    kernel bound to d: it lives for one (w1, i), and is read by ids.
    """
    check = CheckResult("sequential-associativity")
    for n, w2s in small.items():
        if n < 1:
            continue
        for p, w3s in small.items():
            inner_ids = {}
            inner = [[_intern(inner_ids, row(w2, j, p)) for j in range(1, n + 1)] for w2 in w2s]
            outer_row = compose_rows(list(inner_ids))
            for m, w1s in small.items():
                if m < 1:
                    continue
                for w1 in w1s:
                    for i in range(1, m + 1):
                        outer = outer_row(w1, i)
                        for w2, c12, inner_rows in zip(w2s, row(w1, i, n), inner):
                            for j, inner_row in enumerate(inner_rows, 1):
                                k = i + j - 1
                                lhs = row(c12, k, p)
                                rhs = tuple(map(outer.__getitem__, inner_row))
                                check.instances += len(w3s)
                                if lhs != rhs and check.witness is None:
                                    check.fail(
                                        "({w1} o_{i} {w2}) o_{k} {w3} != "
                                        "{w1} o_{i} ({w2} o_{j} {w3})",
                                        w1=w1, i=i, w2=w2, k=k, j=j,
                                        w3=w3s[_first_difference(lhs, rhs)],
                                    )
    return check


def _parallel_commutation(small, row) -> CheckResult:
    """(w1 o_j w3) o_i w2 = (w1 o_i w2) o_{j+n-1} w3 for i < j, a row over w3
    at a time, in enumeration order.

    Every row is the row store's.  A left-hand row over w3 is read across
    the columns (w1 o_j w3) o_i w2 over w2.
    """
    check = CheckResult("parallel-commutation")
    for m, w1s in small.items():
        if m < 2:
            continue
        for p, w3s in small.items():
            for n, w2s in small.items():
                if n < 1:
                    continue
                for w1 in w1s:
                    for i in range(1, m):
                        c1 = row(w1, i, n)
                        for j in range(i + 1, m + 1):
                            k = j + n - 1
                            columns = [row(d, i, n) for d in row(w1, j, p)]
                            for w2, c, lhs in zip(w2s, c1, zip(*columns)):
                                rhs = row(c, k, p)
                                check.instances += len(w3s)
                                if lhs != rhs and check.witness is None:
                                    check.fail(
                                        "({w1} o_{j} {w3}) o_{i} {w2} != "
                                        "({w1} o_{i} {w2}) o_{k} {w3}",
                                        w1=w1, i=i, w2=w2, k=k, j=j,
                                        w3=w3s[_first_difference(lhs, rhs)],
                                    )
    return check


def _orbit(act, perms, w):
    """The ids of act(sigma, w) over perms, and the distinct values by id."""
    ids = {}
    return _intern(ids, [act(sigma, w) for sigma in perms]), ids


def _symmetric_action(act, els) -> CheckResult:
    """id.w = w, then sigma.(tau.w) = (sigma tau).w a row over tau at a time.

    The product table of Sigma_n, as indices into all_perms(n), is built once
    per arity.  Per w the orbit tau.w is interned, and act(sigma, .) applied
    once to each distinct orbit element, so a row is two lists of ids.
    """
    check = CheckResult("symmetric-action")
    for n, ws in els.items():
        if n < 1:
            continue
        perms = all_perms(n)  # perms[0] is the identity
        index = {p: k for k, p in enumerate(perms)}
        products = [[index[compose_perms(sigma, tau)] for tau in perms] for sigma in perms]
        for w in ws:
            orbit, ids = _orbit(act, perms, w)
            distinct = list(ids)
            check.instances += 1
            if distinct[orbit[0]] != w:
                check.fail("id . {w} != {w}", w=w)
            for sigma, product in zip(perms, products):
                acted = _intern(ids, [act(sigma, d) for d in distinct])
                lhs = [acted[t] for t in orbit]
                rhs = [orbit[k] for k in product]
                check.instances += len(perms)
                if lhs != rhs and check.witness is None:
                    check.fail(
                        "sigma.(tau.{w}) != (sigma tau).{w} for {sigma}, {tau}",
                        w=w, sigma=sigma, tau=perms[_first_difference(lhs, rhs)],
                    )
    return check


def _first_in_order(lhs_rows, rhs_rows, sources):
    """The first (sigma index t, slot i) at which the rows over sigma differ,
    sigma-major as the instances are enumerated; the instance (t, i) is read
    in the rows of slot k = sources[t][i - 1] of w1."""
    return next(
        (t, i)
        for t, source in enumerate(sources)
        for i, k in enumerate(source, 1)
        if lhs_rows[k][t] != rhs_rows[k][t]
    )


def _acting(act, taus):
    """A row maker: row(c, k) == [act(tau, c) for tau in taus[k]]."""
    return lambda c, k: [act(tau, c) for tau in taus[k]]


def _equivariance(compose_rows, act, small, makers, row) -> CheckResult:
    """(sigma.w1) o_i w2 = stretch.(w1 o_{sigma^-1(i)} w2) and w1 o_i (rho.w2)
    = embed.(w1 o_i w2), compared as whole rows.

    Every row comes from the row store, whose makers are registered in
    makers.  The orbits of the elements are interned once per arity n.  When
    an orbit leaves the elements, a kernel over their distinct values is
    registered under ("orbits", n); when none does, as for words and
    projections, those values are the elements, and their rows are the
    arity-keyed rows under n.
    Slot k of w1 is moved to sigma(k) by sigma, with the relabelling
    stretch_at(sigma, sigma(k), n): per (w1, w2, k) the left-hand row over
    sigma is read across the rows (sigma.w1) o_sigma(k) w2 over the w2s,
    the arity-keyed rows that the associativity checks read, and the
    right-hand row is acted out under ("stretch", m, n) for the block
    (arity m of w1, arity n of w2).  Per (w1, w2, i) the left-hand row over
    rho is read from the row of w1 o_i over the orbit values, and the
    right-hand row is acted out under ("embed", m, n).  A pair whose rows
    differ is scanned again sigma-major, so that the witness is the first
    failing instance in enumeration order.
    """
    check = CheckResult("equivariance")
    # arity -> the elements, Sigma_n, the ids of their orbits, the values by
    # id, the elements first, and the key of the rows over those values
    tables = {}
    for n, ws in small.items():
        if n < 1:
            continue
        perms = all_perms(n)
        ids = {w: t for t, w in enumerate(ws)}
        orbits = [_intern(ids, [act(sigma, w) for sigma in perms]) for w in ws]
        key = n
        if len(ids) > len(ws):
            key = "orbits", n
            makers[key] = compose_rows(list(ids))
        tables[n] = ws, perms, orbits, list(ids), key
    for m, (w1s, perms_m, orbits1, values1, _) in tables.items():
        slots = range(1, m + 1)
        targets = [[sigma[k - 1] for sigma in perms_m] for k in slots]
        sources = [[k - 1 for k in invert_perm(sigma)] for sigma in perms_m]
        for n, (w2s, perms_n, orbits2, _, key) in tables.items():
            stretches = [[stretch_at(sigma, sigma[k - 1], n) for sigma in perms_m] for k in slots]
            embeddings = [[embed_at(m, i, rho) for rho in perms_n] for i in slots]
            stretched, embedded = ("stretch", m, n), ("embed", m, n)
            makers[stretched], makers[embedded] = _acting(act, stretches), _acting(act, embeddings)
            for w1, orbit1 in zip(w1s, orbits1):
                base = [row(w1, i, key) for i in slots]
                # per slot k, the rows (sigma.w1) o_sigma(k) w2 over sigma, by w2
                acted = [
                    list(zip(*[row(values1[o], t, n) for o, t in zip(orbit1, target)]))
                    for target in targets
                ]
                for b, (w2, orbit2) in enumerate(zip(w2s, orbits2)):
                    lhs = [rows[b] for rows in acted]
                    rhs = [row(r[b], k, stretched) for k, r in enumerate(base)]
                    check.instances += m * len(perms_m)
                    if lhs != rhs and check.witness is None:
                        t, i = _first_in_order(lhs, rhs, sources)
                        check.fail(
                            "(sigma.{w1}) o_{i} {w2} fails for sigma={sigma}",
                            w1=w1, i=i, w2=w2, sigma=perms_m[t],
                        )
                    lhs = [tuple(map(r.__getitem__, orbit2)) for r in base]
                    rhs = [row(r[b], k, embedded) for k, r in enumerate(base)]
                    check.instances += m * len(perms_n)
                    if lhs != rhs and check.witness is None:
                        k = _first_difference(lhs, rhs)
                        check.fail(
                            "{w1} o_{i} (rho.{w2}) fails for rho={rho}",
                            w1=w1, i=k + 1, w2=w2,
                            rho=perms_n[_first_difference(lhs[k], rhs[k])],
                        )
    return check


def check_operad_axioms(
    P: OperadDescriptor,
    arity_bound: int,
    size_bound: int,
    triple_size_bound: int | None = None,
) -> AxiomReport:
    """Exhaustive axiom test over the enumerated elements.

    Unit laws and the symmetric action run over elements of size <=
    size_bound; sequential associativity, parallel commutation and
    equivariance run over elements of size <= triple_size_bound, which
    defaults to size_bound.  Arities with no elements are skipped.  Failures
    are report content, not exceptions; each failing check carries its first
    counterexample in enumeration order.  Every instance is compared, but a
    value that repeats within a table is computed once.  Every row of
    composites or of acted composites that more than one instance reads
    comes from one row store, built on first use, whose rows keep one copy
    of each value: the rows over the elements of each arity p, registered
    here, and those that equivariance registers.  It drops every row before
    it builds one while it holds more than ROW_STORE_CAP values.  Sequential
    associativity keeps one transient row per (w1, i), and the action
    checks keep the product table of Sigma_n and the orbits sigma.w per
    arity (see the helpers).  No table outlives the call.

    Equivariance compares rows over sigma slot by slot, out of enumeration
    order, and keeps the failing instance first in enumeration order.  So
    P.compose and P.act must be functions of their inputs and return
    hashable elements.  Every composite is built by a kernel bound by
    P.compose.rows when it exists (see OperadDescriptor), and by one
    P.compose call per element if not.
    """
    if triple_size_bound is None:
        triple_size_bound = size_bound
    els = _elements_by_arity(P, arity_bound, size_bound)
    small = (
        els
        if triple_size_bound == size_bound
        else _elements_by_arity(P, arity_bound, triple_size_bound)
    )
    compose_rows = _rows(P.compose)
    report = AxiomReport(P.name)

    unit_left = CheckResult("unit-left")
    unit_right = CheckResult("unit-right")
    right_row = compose_rows([P.unit])
    for n, ws in els.items():
        for w, got in zip(ws, compose_rows(ws)(P.unit, 1)):
            unit_left.instances += 1
            if got != w:
                unit_left.fail("1 o_1 {w} = {got}", w=w, got=got)
            for i in range(1, n + 1):
                unit_right.instances += 1
                got = right_row(w, i)[0]
                if got != w:
                    unit_right.fail("{w} o_{i} 1 = {got}", w=w, i=i, got=got)
    report.checks.append(unit_left)
    report.checks.append(unit_right)
    makers = {p: compose_rows(ws) for p, ws in small.items()}
    row = _row_store(makers)
    report.checks.append(_sequential_associativity(compose_rows, small, row))
    report.checks.append(_parallel_commutation(small, row))
    report.checks.append(_symmetric_action(P.act, els))
    report.checks.append(_equivariance(compose_rows, P.act, small, makers, row))
    return report


def check_algebra_action(
    P: OperadDescriptor,
    carrier_size: int,
    evaluator: Callable,
    arity_bound: int,
    size_bound: int,
) -> AxiomReport:
    """Verify that `evaluator(w, args)` defines an action on {0..carrier-1}.

    Checks evaluation of composites against nested evaluation, and
    equivariance of evaluation under input relabelling, on every enumerated
    element and every argument tuple.
    """
    from itertools import product as iproduct

    from .errors import IncompleteEvaluation

    els = _elements_by_arity(P, arity_bound, size_bound)
    compose_rows = _rows(P.compose)
    carrier = range(carrier_size)
    report = AxiomReport(P.name)

    def ev(w, args):
        try:
            v = evaluator(w, args)
        except (KeyError, IndexError) as exc:
            raise IncompleteEvaluation(f"no value for {w} at {args}") from exc
        if v is None:
            raise IncompleteEvaluation(f"no value for {w} at {args}")
        return v

    unit = CheckResult("action-unit")
    for a in carrier:
        unit.instances += 1
        got = ev(P.unit, (a,))
        if got != a:
            unit.fail("unit({a}) = {got}", a=a, got=got)
    report.checks.append(unit)

    comp = CheckResult("action-composition")
    for m, w1s in els.items():
        if m < 1:
            continue
        for n, w2s in els.items():
            tuples = list(iproduct(carrier, repeat=m + n - 1))
            composites = compose_rows(w2s)
            for w1 in w1s:
                for i in range(1, m + 1):
                    lo, hi = i - 1, i - 1 + n
                    for w2, composite in zip(w2s, composites(w1, i)):
                        for args in tuples:
                            comp.instances += 1
                            inner = ev(w2, args[lo:hi])
                            nested = ev(w1, args[:lo] + (inner,) + args[hi:])
                            direct = ev(composite, args)
                            if direct != nested:
                                comp.fail(
                                    "eval({w1} o_{i} {w2}){args} = {direct} "
                                    "but nested evaluation gives {nested}",
                                    w1=w1, i=i, w2=w2, args=args, direct=direct, nested=nested,
                                )
    report.checks.append(comp)

    equiv = CheckResult("action-equivariance")
    for n, ws in els.items():
        if n < 1:
            continue
        tuples = list(iproduct(carrier, repeat=n))
        for w in ws:
            for sigma in all_perms(n):
                acted = P.act(sigma, w)
                for args in tuples:
                    equiv.instances += 1
                    permuted = tuple(args[s - 1] for s in sigma)
                    if ev(acted, args) != ev(w, permuted):
                        equiv.fail(
                            "eval(sigma.{w}){args} != eval({w}) on permuted "
                            "args, sigma={sigma}",
                            w=w, args=args, sigma=sigma,
                        )
    report.checks.append(equiv)
    return report
