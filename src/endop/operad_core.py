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

from dataclasses import dataclass, field
from typing import Callable

from .errors import OperadMismatch, PositionOutOfRange
from .perms import all_perms, compose_perms, embed_at, invert_perm, stretch_at


@dataclass(frozen=True)
class PermElement:
    """The i-th projection among n inputs."""

    arity: int
    index: int

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("projections need at least one input")
        if not 1 <= self.index <= self.arity:
            raise ValueError(f"projection index {self.index} out of 1..{self.arity}")

    def __str__(self):
        return f"pi{self.index}[{self.arity}]"


def perm_compose(w1: PermElement, k: int, w2: PermElement) -> PermElement:
    """Plug a projection into slot k of another projection.

    The composite of projections is again a projection; its index follows
    from composing the underlying functions.
    """
    if not 1 <= k <= w1.arity:
        raise PositionOutOfRange(f"slot {k} out of 1..{w1.arity}")
    m, n, i, j = w1.arity, w2.arity, w1.index, w2.index
    if i < k:
        idx = i
    elif i == k:
        idx = k + j - 1
    else:
        idx = i + n - 1
    return PermElement(m + n - 1, idx)


def perm_act(sigma, w: PermElement) -> PermElement:
    """Input relabelling: (sigma . pi_i)(a_1..a_n) = pi_i(a_sigma(1)..) = a_sigma(i)."""
    if len(sigma) != w.arity:
        raise OperadMismatch("permutation arity mismatch")
    return PermElement(w.arity, sigma[w.index - 1])


@dataclass(frozen=True)
class OperadDescriptor:
    """What the axiom checker reads of one concrete operad: compose(w1, i, w2)
    raises PositionOutOfRange for a slot outside 1..w1.arity, act(sigma, w)
    relabels inputs, unit is the arity-one unit, and enumerate_arity(n,
    size_bound) lists distinct elements of arity n, each with its `.arity`."""

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


def _shared(values, row):
    """row as a tuple of the first-met copies of its entries, adding new
    values to the table values: rows so built keep one copy of each value,
    and compare equal by identity when built from one table."""
    return tuple([values.setdefault(v, v) for v in row])


def _sequential_associativity(compose, small) -> CheckResult:
    """(w1 o_i w2) o_{i+j-1} w3 = w1 o_i (w2 o_j w3), a row over w3 at a time.

    In each block (arity n of w2, arity p of w3) the inner composites
    w2 o_j w3 are interned to small ints.  The block is then worked one arity
    m of w1 and one slot i at a time, the i loop outside the w1 loop: w1 o_i
    is applied once per (w1, i) to each distinct inner composite, so that a
    right-hand row is read off by ids, and a left-hand row is computed once
    per distinct (w1 o_i w2, k) of the (n, p, m, i), whichever w1 gave it.
    The tables of an (n, p, m, i) are dropped with it.  Slot-major order is
    not enumeration order, so of the failing instances of an (n, p, m) the
    one first in enumeration order (smallest w1 index, then i) is kept, and
    only it is formatted.
    """
    check = CheckResult("sequential-associativity")
    for n, w2s in small.items():
        if n < 1:
            continue
        for p, w3s in small.items():
            inner_ids = {}
            inner = [
                [_intern(inner_ids, [compose(w2, j, w3) for w3 in w3s]) for j in range(1, n + 1)]
                for w2 in w2s
            ]
            distinct = list(inner_ids)
            for m, w1s in small.items():
                if m < 1:
                    continue
                first = None  # ((w1 index, i), witness fields) of the earliest failure
                for i in range(1, m + 1):
                    values = {}
                    left_rows = {}
                    for a, w1 in enumerate(w1s):
                        outer = _shared(values, [compose(w1, i, d) for d in distinct])
                        for w2, inner_rows in zip(w2s, inner):
                            c12 = compose(w1, i, w2)
                            for j, inner_row in enumerate(inner_rows, 1):
                                k = i + j - 1
                                lhs = left_rows.get((c12, k))
                                if lhs is None:
                                    lhs = _shared(values, [compose(c12, k, w3) for w3 in w3s])
                                    left_rows[c12, k] = lhs
                                rhs = tuple(map(outer.__getitem__, inner_row))
                                check.instances += len(w3s)
                                if (
                                    lhs != rhs
                                    and check.witness is None
                                    and (first is None or (a, i) < first[0])
                                ):
                                    w3 = w3s[_first_difference(lhs, rhs)]
                                    first = (a, i), dict(w1=w1, i=i, w2=w2, k=k, j=j, w3=w3)
                if first is not None:
                    check.fail(
                        "({w1} o_{i} {w2}) o_{k} {w3} != {w1} o_{i} ({w2} o_{j} {w3})",
                        **first[1],
                    )
    return check


def _parallel_commutation(compose, small) -> CheckResult:
    """(w1 o_j w3) o_i w2 = (w1 o_i w2) o_{j+n-1} w3 for i < j, a row over w3
    at a time, in enumeration order.

    Per w1 the composites w1 o_j w3 are computed once for every j.  Two
    tables live for one block (arity m of w1, arity p of w3, arity n of w2)
    and are shared by all its (w1, i): the left column (w1 o_j w3) o_i w2
    over w2, computed once per distinct (w1 o_j w3, i), and the right-hand
    row (w1 o_i w2) o_{j+n-1} w3 over w3, once per distinct (w1 o_i w2,
    j+n-1).  A left-hand row over w3 is read across the columns.
    """
    check = CheckResult("parallel-commutation")
    for m, w1s in small.items():
        if m < 2:
            continue
        for p, w3s in small.items():
            for n, w2s in small.items():
                if n < 1:
                    continue
                values = {}
                columns = {}
                rhs_rows = {}
                for w1 in w1s:
                    by_slot = {j: [compose(w1, j, w3) for w3 in w3s] for j in range(2, m + 1)}
                    for i in range(1, m):
                        c1 = [compose(w1, i, w2) for w2 in w2s]
                        for j in range(i + 1, m + 1):
                            k = j + n - 1
                            row = []
                            for d in by_slot[j]:
                                column = columns.get((d, i))
                                if column is None:
                                    column = _shared(values, [compose(d, i, w2) for w2 in w2s])
                                    columns[d, i] = column
                                row.append(column)
                            for w2, c, lhs in zip(w2s, c1, zip(*row)):
                                rhs = rhs_rows.get((c, k))
                                if rhs is None:
                                    rhs = _shared(values, [compose(c, k, w3) for w3 in w3s])
                                    rhs_rows[c, k] = rhs
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


def _equivariance(compose, act, small) -> CheckResult:
    """(sigma.w1) o_i w2 = stretch.(w1 o_{sigma^-1(i)} w2), a row over i, and
    w1 o_i (rho.w2) = embed.(w1 o_i w2), a row over rho, at a time.

    Orbits are interned per arity of w1 and per block.  Per (w1, w2) the m
    composites w1 o_i w2 are computed once, each distinct sigma.w1 is
    composed with w2 once per slot, and w1 o_i once with each distinct rho.w2.
    """
    check = CheckResult("equivariance")
    for m, w1s in small.items():
        if m < 1:
            continue
        perms_m = all_perms(m)
        slots = range(1, m + 1)
        orbits1 = [_orbit(act, perms_m, w1) for w1 in w1s]
        for n, w2s in small.items():
            if n < 1:
                continue
            perms_n = all_perms(n)
            stretches = [[stretch_at(sigma, i, n) for i in slots] for sigma in perms_m]
            sources = [[k - 1 for k in invert_perm(sigma)] for sigma in perms_m]
            embeds = [[embed_at(m, i, rho) for rho in perms_n] for i in slots]
            orbits2 = [_orbit(act, perms_n, w2) for w2 in w2s]
            for w1, (orbit1, ids1) in zip(w1s, orbits1):
                for w2, (orbit2, ids2) in zip(w2s, orbits2):
                    base = [compose(w1, i, w2) for i in slots]
                    acted_rows = [[compose(d, i, w2) for i in slots] for d in ids1]
                    for sigma, o, stretch_row, source in zip(perms_m, orbit1, stretches, sources):
                        lhs = acted_rows[o]
                        rhs = [act(s, base[k]) for s, k in zip(stretch_row, source)]
                        check.instances += m
                        if lhs != rhs and check.witness is None:
                            check.fail(
                                "(sigma.{w1}) o_{i} {w2} fails for sigma={sigma}",
                                w1=w1, i=_first_difference(lhs, rhs) + 1, w2=w2, sigma=sigma,
                            )
                    for i, c, embed_row in zip(slots, base, embeds):
                        composed = [compose(w1, i, d) for d in ids2]
                        lhs = [composed[o] for o in orbit2]
                        rhs = [act(e, c) for e in embed_row]
                        check.instances += len(perms_n)
                        if lhs != rhs and check.witness is None:
                            check.fail(
                                "{w1} o_{i} (rho.{w2}) fails for rho={rho}",
                                w1=w1, i=i, w2=w2, rho=perms_n[_first_difference(lhs, rhs)],
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
    value that repeats within a table is computed once (see the helpers):
    inner composites per block of arities, left-hand rows of sequential
    associativity per block and slot, columns and right-hand rows of
    parallel commutation per block, the product table of Sigma_n per arity,
    the orbits sigma.w per element, and the composites w1 o_i w2 per
    (w1, w2).  No table outlives its block.  Sequential associativity runs
    slot-major, out of enumeration order, and keeps the failing instance
    first in enumeration order.  So P.compose and P.act must be functions
    of their inputs and return hashable elements.
    """
    if triple_size_bound is None:
        triple_size_bound = size_bound
    els = _elements_by_arity(P, arity_bound, size_bound)
    small = (
        els
        if triple_size_bound == size_bound
        else _elements_by_arity(P, arity_bound, triple_size_bound)
    )
    compose = P.compose
    report = AxiomReport(P.name)

    unit_left = CheckResult("unit-left")
    unit_right = CheckResult("unit-right")
    for n, ws in els.items():
        for w in ws:
            unit_left.instances += 1
            got = compose(P.unit, 1, w)
            if got != w:
                unit_left.fail("1 o_1 {w} = {got}", w=w, got=got)
            for i in range(1, n + 1):
                unit_right.instances += 1
                got = compose(w, i, P.unit)
                if got != w:
                    unit_right.fail("{w} o_{i} 1 = {got}", w=w, i=i, got=got)
    report.checks.append(unit_left)
    report.checks.append(unit_right)
    report.checks.append(_sequential_associativity(compose, small))
    report.checks.append(_parallel_commutation(compose, small))

    report.checks.append(_symmetric_action(P.act, els))
    report.checks.append(_equivariance(compose, P.act, small))
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
            for w1 in w1s:
                for i in range(1, m + 1):
                    lo, hi = i - 1, i - 1 + n
                    for w2 in w2s:
                        composite = P.compose(w1, i, w2)
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
