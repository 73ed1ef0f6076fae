"""The operad of q-power polynomials over F_q: the multilinear natural
operations on commutative F_q-algebras.

Arity n carries the polynomials in X_1..X_n in which every variable occurs
in every monomial with exponent a power of q; composition substitutes one
polynomial into a variable slot.  The binary product and the q-th power
operation generate this operad, subject to commutativity, associativity,
and mu o (P_q (x) P_q) = P_q o mu.

One sparse type holds every polynomial: FieldPolynomial, a tuple whose
terms are (exponent tuple, raw coefficient) pairs sorted by exponent, with
no zero coefficient.  QPolynomial is a FieldPolynomial that checks the
q-power shape when it is built from outside input; composition and
relabelling keep that shape and build their results unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from functools import reduce
from operator import add, itemgetter, mul

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

POLY_TAG = -3  # the first entry of every FieldPolynomial tuple
_new = tuple.__new__


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
    """Sum (exponent tuple, raw coefficient) pairs into canonical terms:
    sorted by exponent, with the zero coefficients dropped."""
    plus = field.add
    out = {}
    for exp, c in pairs:
        prev = out.get(exp)
        out[exp] = c if prev is None else plus(prev, c)
    return tuple(sorted([(exp, c) for exp, c in out.items() if c]))


def _format_terms(field, terms):
    if not terms:
        return "0"
    chunks = []
    for exp, coeff in sorted(terms, key=lambda kv: (sum(kv[0]), kv[0])):
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
    return dict(_collect(field, (term(chunk) for chunk in s.split(" + "))))


class FieldPolynomial(tuple):
    """A sparse polynomial over F_q with arbitrary nonnegative exponents,
    built from a term dict {exponent tuple: coefficient}; ring operands must
    share field and arity.

    A value: an immutable tuple (POLY_TAG, arity, terms, field.key), so that
    construction, hashing and equality run in C.  Every way of building one
    leaves its terms canonical (raw values as in scalars.FiniteField), so
    equal polynomials are equal tuples.  The tag keeps a polynomial unequal
    to a word, a projection and a plain tuple, and the key keeps fields
    apart.  Polynomials order as tuples; that order means nothing.
    """

    __slots__ = ()

    def __new__(cls, field: FiniteField, arity: int, terms=None):
        clean = {}
        for exp, coeff in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != arity or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp}")
            coeff = _coerce(field, coeff)
            if coeff:
                clean[exp] = coeff
        return _new(cls, (POLY_TAG, arity, tuple(sorted(clean.items())), field.key))

    arity = property(itemgetter(1))
    field = property(lambda self: self[3].field)
    terms = property(lambda self: dict(self[2]), doc="{exponent tuple: raw coefficient}, a fresh dict")

    @classmethod
    def variable(cls, field, arity, i):
        return cls.monomial(field, tuple(1 if j == i - 1 else 0 for j in range(arity)))

    @classmethod
    def monomial(cls, field, exponents):
        exponents = tuple(exponents)
        return cls(field, len(exponents), {exponents: field.one_raw})

    def _check(self, other):
        if self[3] != other[3]:
            raise FieldMismatch("polynomials over different fields")
        if self[1] != other[1]:
            raise TruncationMismatch("polynomials in different variable counts")

    def __add__(self, other):
        self._check(other)
        terms = _collect(self[3].field, chain(self[2], other[2]))
        return _new(FieldPolynomial, (POLY_TAG, self[1], terms, self[3]))

    def __mul__(self, other):
        self._check(other)
        field = self[3].field
        times = field.mul
        products = (
            (tuple(map(add, e1, e2)), times(c1, c2))
            for e1, c1 in self[2]
            for e2, c2 in other[2]
        )
        return _new(FieldPolynomial, (POLY_TAG, self[1], _collect(field, products), self[3]))

    def __rmul__(self, other):  # not tuple repetition: int * polynomial is a TypeError
        return NotImplemented

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        out, base = None, self
        while e:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if e:
                base = base * base
        if out is None:  # e == 0: the constant 1 of the ring
            one = (((0,) * self[1], self[3].field.one_raw),)
            out = _new(FieldPolynomial, (POLY_TAG, self[1], one, self[3]))
        return out

    def scale(self, c):
        """c times the polynomial; a nonzero c keeps every term nonzero."""
        field = self[3].field
        c = _coerce(field, c)
        terms = tuple([(e, field.mul(v, c)) for e, v in self[2]]) if c else ()
        return _new(FieldPolynomial, (POLY_TAG, self[1], terms, self[3]))

    def is_zero(self):
        return not self[2]

    def __str__(self):
        return _format_terms(self.field, self[2])

    def __repr__(self):
        return f"{type(self).__name__}({self.field}, {self})"

    def __reduce__(self):
        return type(self), (self.field, self[1], self.terms)

    @classmethod
    def parse(cls, field, arity, s):
        return cls(field, arity, _parse_terms(field, arity, s))


class QPolynomial(FieldPolynomial):
    """Element of the q-power operad: a FieldPolynomial in arity >= 1 in
    which every variable occurs in every monomial with exponent q^e for some
    e >= 0."""

    __slots__ = ()

    def __new__(cls, field: FiniteField, arity: int, terms=None):
        if arity < 1:
            raise ValueError("the q-power operad is empty below arity one")
        out = super().__new__(cls, field, arity, terms)
        for exp, _ in out[2]:
            if not syntactic_q_power_criterion(exp, field.q):
                raise ValueError(
                    f"exponents {exp} are not all powers of q={field.q} (every variable "
                    "must occur with a q-power exponent)"
                )
        return out


def qpoly_compose_rows(gs):
    """row(f, i) == [qpoly_compose(f, i, g) for g in gs], gs read once, with
    f's terms split at X_i once per row.  A monomial f in which X_i occurs
    maps g's terms, in order, to distinct terms: nothing recombines, and the
    result needs no sorting."""
    gs = list(gs)

    def row(f, i):
        _, m, fterms, key = f
        if not 1 <= i <= m:
            raise PositionOutOfRange(f"slot {i} out of 1..{m}")
        field = key.field
        times = field.mul  # products are nonzero: F_q has no zero divisors
        split = [(exp[i - 1], exp[: i - 1], exp[i:], coeff) for exp, coeff in fterms]
        monomial = len(split) == 1 and split[0][0] > 0
        if monomial:
            (e_i, before, after, coeff), = split
        out = []
        for _, n, gterms, gkey in gs:
            if key != gkey:
                raise FieldMismatch("operands over different fields")
            if monomial:
                terms = tuple([
                    (before + tuple([e * e_i for e in gexp]) + after, times(coeff, gcoeff))
                    for gexp, gcoeff in gterms
                ])
            else:
                terms = _collect(field, (
                    (before + tuple([e * e_i for e in gexp]) + after, times(coeff, gcoeff))
                    for e_i, before, after, coeff in split
                    for gexp, gcoeff in gterms
                ))
            out.append(_new(QPolynomial, (POLY_TAG, m + n - 1, terms, key)))
        return out

    return row


def qpoly_compose(f: QPolynomial, i: int, g: QPolynomial) -> QPolynomial:
    """Substitute g for X_i in f: the one-element row of qpoly_compose_rows.

    X_i^(q^e) becomes g^(q^e) = sum c_N N^(q^e): the q^e-th power map is
    additive in characteristic p and fixes every c in F_q.  The variables of
    f after X_i are shifted above the block i..i+n-1, like monomials
    recombine, and zero coefficients drop out.  Substitution keeps the
    q-power shape, so the result is built unchecked.
    """
    return qpoly_compose_rows((g,))(f, i)[0]


qpoly_compose.rows = qpoly_compose_rows


def qpoly_perm_act(sigma, f: QPolynomial) -> QPolynomial:
    """Relabel X_k as X_sigma(k); the shape is kept, so unchecked."""
    _, n, terms, key = f
    require_perm(sigma, n)
    source = [0] * n  # source[j]: the old slot of the new X_(j+1)
    for k, s in enumerate(sigma):
        source[s - 1] = k
    out = sorted([(tuple([exp[k] for k in source]), c) for exp, c in terms])
    return _new(QPolynomial, (POLY_TAG, n, tuple(out), key))


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
    if f[3] != first[3]:
        raise FieldMismatch("polynomial and arguments over different fields")
    acc = first.scale(0)  # the zero of the ring
    for exp, coeff in f[2]:
        powers = [a ** e for a, e in zip(args, exp) if e]
        term = reduce(mul, powers) if powers else first ** 0
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
