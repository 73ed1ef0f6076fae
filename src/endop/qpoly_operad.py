"""The operad of q-power polynomials over F_q: the multilinear natural
operations on commutative F_q-algebras.

Arity n carries the polynomials in X_1..X_n in which every variable occurs
in every monomial with exponent a power of q; composition substitutes one
polynomial into a variable slot.  The binary product and the q-th power
operation generate this operad, subject to commutativity, associativity,
and mu o (P_q (x) P_q) = P_q o mu.

One sparse type holds every polynomial: FieldPolynomial, a dict from
exponent tuples to raw field values (see scalars.FiniteField).  QPolynomial
is a FieldPolynomial that checks the q-power shape when it is built from
outside input; composition and relabelling keep that shape and build their
results unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from operator import add

from .errors import (
    FieldMismatch,
    MalformedTree,
    PositionOutOfRange,
    TruncationMismatch,
    VerificationFailed,
)
from .operad_core import OperadDescriptor
from .perms import require_perm
from .scalars import FiniteField, Scalar


def is_q_power(x: int, q: int) -> bool:
    if x < 1:
        return False
    while x % q == 0:
        x //= q
    return x == 1


def _coerce(field, coeff):
    if isinstance(coeff, Scalar) and coeff.domain != field:
        raise FieldMismatch("coefficient from a different field")
    return field.coerce(coeff)


def _collect(field, pairs):
    """Sum (exponent tuple, raw coefficient) pairs into a term dict, dropping
    the zero coefficients."""
    plus = field.add
    out = {}
    for exp, c in pairs:
        prev = out.get(exp)
        out[exp] = c if prev is None else plus(prev, c)
    return {exp: c for exp, c in out.items() if c}


def _format_terms(field, terms):
    if not terms:
        return "0"
    chunks = []
    for exp, coeff in sorted(terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        vars_part = "*".join(
            f"X{i + 1}" if e == 1 else f"X{i + 1}^{e}"
            for i, e in enumerate(exp)
            if e != 0
        )
        c = field.format_value(coeff)
        if "+" in c:
            c = f"({c})"
        if not vars_part:
            chunks.append(c)
        elif c == "1":
            chunks.append(vars_part)
        else:
            chunks.append(f"{c}*{vars_part}")
    return " + ".join(chunks)


def _parse_terms(field, arity, s):
    """Read the printed form back into a term dict: terms joined by " + ",
    each a "*"-product of coefficients (in parentheses when they contain a
    "+") and factors Xi or Xi^e with 1 <= i <= arity.  Anything else raises
    a ValueError that names the offending factor."""

    def term(chunk):
        coeff = field.one_raw
        exp = [0] * arity
        for factor in chunk.strip().split("*"):
            factor = factor.strip()
            if factor.startswith("X"):
                idx, caret, e = factor[1:].partition("^")
                if not (idx.isdigit() and 1 <= int(idx) <= arity) or (
                    caret and not e.isdigit()
                ):
                    raise ValueError(
                        f"bad factor {factor!r}: expected Xi or Xi^e with 1 <= i <= {arity}"
                    )
                exp[int(idx) - 1] += int(e) if caret else 1
                continue
            if factor.startswith("(") and factor.endswith(")"):
                factor = factor[1:-1]
            try:
                value = field.parse_value(factor)
            except ValueError as exc:
                raise ValueError(f"bad coefficient {factor!r} in {field}") from exc
            coeff = field.mul(coeff, value)
        return tuple(exp), coeff

    s = s.strip()
    if s == "0":
        return {}
    return _collect(field, (term(chunk) for chunk in s.split(" + ")))


class FieldPolynomial:
    """A sparse polynomial over F_q, {exponent tuple: raw coefficient}, with
    arbitrary nonnegative exponents.  Operands must share field and arity.
    """

    __slots__ = ("field", "arity", "terms", "_hash")

    def __init__(self, field: FiniteField, arity: int, terms=None):
        clean = {}
        for exp, coeff in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != arity or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp}")
            coeff = _coerce(field, coeff)
            if coeff:
                clean[exp] = coeff
        self.field, self.arity, self.terms = field, arity, clean

    @classmethod
    def _raw(cls, field, arity, terms):
        """A polynomial on a clean term dict, unchecked: for results whose
        shape holds by construction."""
        out = object.__new__(cls)
        out.field, out.arity, out.terms = field, arity, terms
        return out

    def _like(self, terms):
        """A polynomial in the same ring on a clean term dict, unchecked."""
        return FieldPolynomial._raw(self.field, self.arity, terms)

    @classmethod
    def variable(cls, field, arity, i):
        return cls.monomial(field, tuple(1 if j == i - 1 else 0 for j in range(arity)))

    @classmethod
    def monomial(cls, field, exponents):
        exponents = tuple(exponents)
        return cls(field, len(exponents), {exponents: field.one_raw})

    def _check(self, other):
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch("polynomials over different fields")
        if self.arity != other.arity:
            raise TruncationMismatch("polynomials in different variable counts")

    def __eq__(self, other):
        return (
            isinstance(other, FieldPolynomial)
            and (self.field is other.field or self.field == other.field)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        # computed once, as terms is never changed after construction; the
        # field is left out: it costs more to hash than all the rest, and
        # equal polynomials share it anyway
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.arity, frozenset(self.terms.items())))
            return self._hash

    def __add__(self, other):
        self._check(other)
        return self._like(_collect(self.field, chain(self.terms.items(), other.terms.items())))

    def __mul__(self, other):
        self._check(other)
        times = self.field.mul
        products = (
            (tuple(map(add, e1, e2)), times(c1, c2))
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        )
        return self._like(_collect(self.field, products))

    def __pow__(self, e: int):
        out = self._like({(0,) * self.arity: self.field.one_raw})
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def scale(self, c):
        c = _coerce(self.field, c)
        if not c:
            return self._like({})
        times = self.field.mul
        return self._like({e: times(v, c) for e, v in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __str__(self):
        return _format_terms(self.field, self.terms)

    def __repr__(self):
        return f"{type(self).__name__}({self.field}, {self})"

    @classmethod
    def parse(cls, field, arity, s):
        return cls(field, arity, _parse_terms(field, arity, s))


class QPolynomial(FieldPolynomial):
    """Element of the q-power operad: a FieldPolynomial in arity >= 1 in
    which every variable occurs in every monomial with exponent q^e for some
    e >= 0."""

    __slots__ = ()

    def __init__(self, field: FiniteField, arity: int, terms=None):
        if arity < 1:
            raise ValueError("the q-power operad is empty below arity one")
        super().__init__(field, arity, terms)
        for exp in self.terms:
            if not syntactic_q_power_criterion(exp, field.q):
                raise ValueError(
                    f"exponents {exp} are not all powers of q={field.q} (every variable "
                    "must occur with a q-power exponent)"
                )


def qpoly_compose(f: QPolynomial, i: int, g: QPolynomial) -> QPolynomial:
    """Substitute g for X_i in f.

    X_i^(q^e) becomes g^(q^e) = sum c_N N^(q^e): the q^e-th power map is
    additive in characteristic p and fixes every c in F_q.  The variables of
    f after X_i are shifted above the block i..i+n-1, like monomials
    recombine, and zero coefficients drop out.  Substitution keeps the
    q-power shape, so the result is built unchecked.
    """
    if f.field is not g.field and f.field != g.field:
        raise FieldMismatch("operands over different fields")
    m, n = f.arity, g.arity
    if not 1 <= i <= m:
        raise PositionOutOfRange(f"slot {i} out of 1..{m}")
    times, plus = f.field.mul, f.field.add
    out = {}
    met = False
    for exp, coeff in f.terms.items():
        e_i, before, after = exp[i - 1], exp[: i - 1], exp[i:]
        for gexp, gcoeff in g.terms.items():
            key = before + tuple([e * e_i for e in gexp]) + after
            c = times(coeff, gcoeff)  # nonzero: F_q has no zero divisors
            prev = out.get(key)
            if prev is None:
                out[key] = c
            else:
                out[key] = plus(prev, c)
                met = True
    if met:
        out = {exp: c for exp, c in out.items() if c}
    return QPolynomial._raw(f.field, m + n - 1, out)


def qpoly_perm_act(sigma, f: QPolynomial) -> QPolynomial:
    """Relabel X_k as X_sigma(k); the shape is kept, so unchecked."""
    require_perm(sigma, f.arity)
    out = {}
    for exp, coeff in f.terms.items():
        new_exp = [0] * f.arity
        for k, e in enumerate(exp):
            new_exp[sigma[k] - 1] = e
        out[tuple(new_exp)] = coeff
    return QPolynomial._raw(f.field, f.arity, out)


def qpoly_operad(field: FiniteField) -> OperadDescriptor:
    def enumerate_arity(n, size_bound):
        if n < 1:
            return []
        out = []
        for heights in product(range(size_bound + 1), repeat=n):
            exps = tuple(field.q ** h for h in heights)
            out.append(QPolynomial.monomial(field, exps))
        return out

    return OperadDescriptor(
        name=f"qpoly-{field}",
        compose=qpoly_compose,
        act=qpoly_perm_act,
        unit=QPolynomial.variable(field, 1, 1),
        enumerate_arity=enumerate_arity,
    )


# -- generator trees ----------------------------------------------------------

@dataclass(frozen=True)
class TreeLeaf:
    slot: int

    def __str__(self):
        return str(self.slot)


@dataclass(frozen=True)
class TreeMu:
    left: object
    right: object

    def __str__(self):
        return f"mu({self.left},{self.right})"


@dataclass(frozen=True)
class TreePq:
    child: object

    def __str__(self):
        return f"Pq({self.child})"


def _tree_leaves(t):
    if isinstance(t, TreeLeaf):
        return [t.slot]
    if isinstance(t, TreeMu):
        return _tree_leaves(t.left) + _tree_leaves(t.right)
    if isinstance(t, TreePq):
        return _tree_leaves(t.child)
    raise MalformedTree(f"unknown node {t!r}")


def qpoly_from_tree(tree, field: FiniteField) -> QPolynomial:
    """Interpret mu as multiplication, P_q as the q-th power, leaves as
    variables; the leaves must cover 1..n exactly once."""
    leaves = _tree_leaves(tree)
    n = len(leaves)
    if sorted(leaves) != list(range(1, n + 1)):
        raise MalformedTree(f"leaves {leaves} do not cover 1..{n} exactly once")

    def build(t) -> FieldPolynomial:
        if isinstance(t, TreeLeaf):
            return FieldPolynomial.variable(field, n, t.slot)
        if isinstance(t, TreeMu):
            return build(t.left) * build(t.right)
        return build(t.child) ** field.q

    return QPolynomial(field, n, build(tree).terms)


def monomial_tree(heights) -> object:
    """A witnessing tree for prod X_i^(q^h_i): P_q towers joined by a
    left-associated mu comb."""
    parts = []
    for slot, h in enumerate(heights, start=1):
        t = TreeLeaf(slot)
        for _ in range(h):
            t = TreePq(t)
        parts.append(t)
    tree = parts[0]
    for t in parts[1:]:
        tree = TreeMu(tree, t)
    return tree


def generated_submonomials(n: int, exp_bound: int, field: FiniteField):
    """Every coefficient-1 monomial with q-power exponents up to exp_bound,
    paired with a generator tree that evaluates to it."""
    q = field.q
    if not is_q_power(exp_bound, q) and exp_bound != 1:
        raise ValueError(f"exponent bound {exp_bound} must be a power of q={q}")
    max_h = 0
    x = exp_bound
    while x > 1:
        x //= q
        max_h += 1
    out = []
    for heights in product(range(max_h + 1), repeat=n):
        mono = QPolynomial.monomial(field, tuple(q ** h for h in heights))
        tree = monomial_tree(heights)
        if qpoly_from_tree(tree, field) != mono:
            raise VerificationFailed(f"tree {tree} does not evaluate to {mono}")
        out.append((mono, tree))
    return out


# -- the linearity test, in a free commutative algebra ------------------------

def eval_poly(f, args) -> FieldPolynomial:
    """Evaluate a polynomial by substituting elements of one polynomial ring
    for its variables."""
    if len(args) != f.arity:
        raise ValueError(f"expected {f.arity} arguments")
    if not args:
        raise ValueError("nullary evaluation is not defined here")
    first = args[0]
    for a in args:
        first._check(a)
    if f.field != first.field:
        raise FieldMismatch("polynomial and arguments over different fields")
    acc = first._like({})
    for exp, coeff in f.terms.items():
        term = first ** 0  # the constant 1 of the ring
        for a, e in zip(args, exp):
            if e:
                term = term * a ** e
        acc = acc + term.scale(coeff)
    return acc


@dataclass
class MultilinearityVerdict:
    multilinear: bool
    witness: str | None = None


def multilinearity_check(f) -> MultilinearityVerdict:
    """Decide whether Ev_f is linear in each slot, testing in the free
    commutative algebra on n+1 generators.

    Additivity in slot i substitutes e_i + e_{n+1}; homogeneity scales slot i
    by every field element.
    """
    n = f.arity
    field = f.field
    gens = [FieldPolynomial.variable(field, n + 1, i) for i in range(1, n + 2)]
    base_args = gens[:n]
    extra = gens[n]
    base_val = eval_poly(f, base_args)
    for i in range(n):
        args_sum = list(base_args)
        args_sum[i] = base_args[i] + extra
        lhs = eval_poly(f, args_sum)
        args_extra = list(base_args)
        args_extra[i] = extra
        rhs = base_val + eval_poly(f, args_extra)
        if lhs != rhs:
            return MultilinearityVerdict(
                False,
                f"additivity fails in slot {i + 1}: f(..,e{i + 1}+e{n + 1},..) != "
                f"f(..,e{i + 1},..) + f(..,e{n + 1},..)",
            )
        for v in field.elements():
            args_scaled = list(base_args)
            args_scaled[i] = base_args[i].scale(v)
            if eval_poly(f, args_scaled) != base_val.scale(v):
                return MultilinearityVerdict(
                    False,
                    f"homogeneity fails in slot {i + 1} at alpha = "
                    f"{field.format_value(v)}",
                )
    return MultilinearityVerdict(True)


def syntactic_q_power_criterion(exponents, q: int) -> bool:
    """The shape criterion: every variable occurs, with a q-power exponent."""
    return all(is_q_power(e, q) for e in exponents)


def characterize_multilinear(n: int, max_total_deg: int, field: FiniteField):
    """Classify every monomial of total degree 1..max_total_deg by the
    linearity test, checking agreement with the syntactic q-power shape.

    Returns (multilinear, not_multilinear) as lists of FieldPolynomial.
    """
    q = field.q
    good, bad = [], []
    for exp in product(range(max_total_deg + 1), repeat=n):
        total = sum(exp)
        if not 1 <= total <= max_total_deg:
            continue
        mono = FieldPolynomial.monomial(field, exp)
        verdict = multilinearity_check(mono)
        if verdict.multilinear != syntactic_q_power_criterion(exp, q):
            raise VerificationFailed(
                f"linearity test disagrees with the q-power shape at {mono}"
            )
        (good if verdict.multilinear else bad).append(mono)
    return good, bad
