"""The operad of q-power polynomials over F_q: the multilinear natural
operations on commutative F_q-algebras.

Arity n carries the polynomials in X_1..X_n in which every variable occurs
in every monomial with exponent a power of q; composition substitutes one
polynomial into a variable slot, with Frobenius handling the required powers
of the substituted polynomial.  The binary product and the q-th power
operation generate this operad, subject to commutativity, associativity,
and mu o (P_q (x) P_q) = P_q o mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import (
    CapTooSmall,
    FieldMismatch,
    MalformedTree,
    OperadMismatch,
    PositionOutOfRange,
    TruncationMismatch,
    VerificationFailed,
)
from .operad_core import OperadDescriptor
from .scalars import FiniteField, Scalar, frobenius_pow


def is_q_power(x: int, q: int) -> bool:
    if x < 1:
        return False
    while x % q == 0:
        x //= q
    return x == 1


def _sorted_terms(terms):
    return tuple(sorted(terms.items(), key=lambda kv: (sum(kv[0]), kv[0])))


def _format_terms(field, arity, terms):
    if not terms:
        return "0"
    chunks = []
    for exp, coeff in _sorted_terms(terms):
        vars_part = "*".join(
            f"X{i + 1}" if e == 1 else f"X{i + 1}^{e}"
            for i, e in enumerate(exp)
            if e != 0
        )
        c = field.format_value(coeff.value)
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
    terms = {}
    s = s.strip()
    if s == "0":
        return terms
    for chunk in s.split(" + "):
        coeff = field.one()
        exp = [0] * arity
        for factor in chunk.strip().split("*"):
            factor = factor.strip()
            if factor.startswith("(") and factor.endswith(")"):
                coeff = coeff * Scalar(field, field.parse_value(factor[1:-1]))
            elif factor.startswith("X"):
                body = factor[1:]
                if "^" in body:
                    idx, _, e = body.partition("^")
                    exp[int(idx) - 1] += int(e)
                else:
                    exp[int(body) - 1] += 1
            else:
                coeff = coeff * Scalar(field, field.parse_value(factor))
        key = tuple(exp)
        prev = terms.get(key)
        total = coeff if prev is None else prev + coeff
        if total.is_zero():
            terms.pop(key, None)
        else:
            terms[key] = total
    return terms


class FieldPolynomial:
    """A polynomial over F_q with arbitrary nonnegative exponents.

    Used by the multilinearity tests, which must also handle polynomials
    outside the q-power operad.
    """

    __slots__ = ("field", "arity", "terms")

    def __init__(self, field: FiniteField, arity: int, terms=None):
        self.field = field
        self.arity = arity
        clean = {}
        for exp, coeff in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != arity or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp}")
            if not isinstance(coeff, Scalar):
                coeff = field.scalar(coeff)
            if coeff.domain != field:
                raise FieldMismatch("coefficient from a different field")
            if not coeff.is_zero():
                clean[exp] = coeff
        self.terms = clean

    @classmethod
    def variable(cls, field, arity, i):
        exp = tuple(1 if j == i - 1 else 0 for j in range(arity))
        return cls(field, arity, {exp: field.one()})

    @classmethod
    def monomial(cls, field, exponents, coeff=None):
        exponents = tuple(exponents)
        c = field.one() if coeff is None else coeff
        return cls(field, len(exponents), {exponents: c})

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch("polynomials over different fields")
        if self.arity != other.arity:
            raise ValueError("polynomials in different variable counts")

    def __eq__(self, other):
        return (
            isinstance(other, FieldPolynomial)
            and self.field == other.field
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.arity, _sorted_terms(self.terms)))

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp)
            total = c if s is None else s + c
            if total.is_zero():
                out.pop(exp, None)
            else:
                out[exp] = total
        return FieldPolynomial(self.field, self.arity, out)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = out.get(exp)
                total = c if s is None else s + c
                if total.is_zero():
                    out.pop(exp, None)
                else:
                    out[exp] = total
        return FieldPolynomial(self.field, self.arity, out)

    def __pow__(self, e: int):
        out = FieldPolynomial(self.field, self.arity, {(0,) * self.arity: self.field.one()})
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def scale(self, c: Scalar):
        return FieldPolynomial(
            self.field, self.arity, {e: v * c for e, v in self.terms.items()}
        )

    def max_total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def is_zero(self):
        return not self.terms

    def __str__(self):
        return _format_terms(self.field, self.arity, self.terms)

    def __repr__(self):
        return f"FieldPolynomial({self.field}, {self})"

    @classmethod
    def parse(cls, field, arity, s):
        return cls(field, arity, _parse_terms(field, arity, s))


@dataclass(frozen=True)
class QPolynomial:
    """Element of the q-power operad: every variable occurs in every monomial
    and every exponent is q^e for some e >= 0."""

    field: FiniteField
    arity: int
    terms: tuple  # canonical sorted ((exp, coeff), ...)

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("the q-power operad is empty below arity one")
        q = self.field.q
        norm = {}
        for exp, coeff in dict(self.terms).items():
            exp = tuple(exp)
            if len(exp) != self.arity:
                raise ValueError("exponent vector length mismatch")
            if not all(is_q_power(e, q) for e in exp):
                raise ValueError(
                    f"exponents {exp} are not all powers of q={q} (every variable "
                    "must occur with a q-power exponent)"
                )
            if not isinstance(coeff, Scalar):
                coeff = self.field.scalar(coeff)
            if coeff.domain != self.field:
                raise FieldMismatch("coefficient from a different field")
            if not coeff.is_zero():
                norm[exp] = coeff
        object.__setattr__(self, "terms", _sorted_terms(norm))

    @classmethod
    def from_terms(cls, field, arity, terms):
        return cls(field, arity, tuple(terms.items()))

    @classmethod
    def monomial(cls, field, exponents, coeff=None):
        exponents = tuple(exponents)
        return cls.from_terms(
            field, len(exponents), {exponents: coeff if coeff is not None else field.one()}
        )

    @classmethod
    def variable(cls, field, arity=1, i=1):
        return cls.monomial(field, tuple(1 if j == i - 1 else 0 for j in range(arity)))

    def __post_check(self):
        pass

    def term_dict(self):
        return dict(self.terms)

    def as_polynomial(self) -> FieldPolynomial:
        return FieldPolynomial(self.field, self.arity, self.term_dict())

    def is_zero(self):
        return not self.terms

    def __str__(self):
        return _format_terms(self.field, self.arity, self.term_dict())

    @classmethod
    def parse(cls, field, arity, s):
        return cls.from_terms(field, arity, _parse_terms(field, arity, s))


def qpoly_compose(f: QPolynomial, i: int, g: QPolynomial) -> QPolynomial:
    """Substitute g for X_i in f.

    X_i^(q^e) becomes g^(q^e), expanded monomial-wise through Frobenius:
    (sum c_N N)^(q^e) = sum c_N^(q^e) N^(q^e).  Remaining variables of f are
    shifted above the block i..i+n-1, like monomials recombine, and zero
    coefficients drop out.  The q-power shape is preserved.
    """
    if f.field != g.field:
        raise FieldMismatch("operands over different fields")
    m, n = f.arity, g.arity
    if not 1 <= i <= m:
        raise PositionOutOfRange(f"slot {i} out of 1..{m}")
    q = f.field.q
    out = {}
    gterms = g.term_dict()
    for exp, coeff in f.term_dict().items():
        e_i = exp[i - 1]
        height = 0
        x = e_i
        while x > 1:
            x //= q
            height += 1
        # the fixed part of the monomial, with f's variables reindexed
        fixed = [0] * (m + n - 1)
        for j, e in enumerate(exp, start=1):
            if j == i:
                continue
            pos = j - 1 if j < i else j + n - 2
            fixed[pos] = e
        for gexp, gcoeff in gterms.items():
            new_exp = list(fixed)
            for j, e in enumerate(gexp):
                new_exp[i - 1 + j] = e * e_i
            key = tuple(new_exp)
            c = coeff * frobenius_pow(gcoeff, height)
            prev = out.get(key)
            total = c if prev is None else prev + c
            if total.is_zero():
                out.pop(key, None)
            else:
                out[key] = total
    return QPolynomial.from_terms(f.field, m + n - 1, out)


def qpoly_perm_act(sigma, f: QPolynomial) -> QPolynomial:
    """Relabel X_k as X_sigma(k)."""
    if len(sigma) != f.arity:
        raise OperadMismatch("permutation arity mismatch")
    out = {}
    for exp, coeff in f.term_dict().items():
        new_exp = [0] * f.arity
        for k, e in enumerate(exp):
            new_exp[sigma[k] - 1] = e
        out[tuple(new_exp)] = coeff
    return QPolynomial.from_terms(f.field, f.arity, out)


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
        unit=QPolynomial.variable(field),
        arity_of=lambda f: f.arity,
        enumerate_arity=enumerate_arity,
        element_type=QPolynomial,
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

    poly = build(tree)
    return QPolynomial.from_terms(field, n, poly.terms)


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


def enumerate_trees(n: int, max_internal: int):
    """All generator trees on leaves 1..n with at most max_internal internal
    nodes (mu and P_q both count)."""

    def gen(leaves, budget):
        if len(leaves) == 1:
            t = TreeLeaf(leaves[0])
            yield t, 0
            prev = [(t, 0)]
            for h in range(1, budget + 1):
                prev = [(TreePq(s), c + 1) for s, c in prev]
                yield from prev
        else:
            for split in range(1, 1 << (len(leaves) - 1)):
                left = [x for k, x in enumerate(leaves) if (split >> k) & 1]
                right = [x for k, x in enumerate(leaves) if not (split >> k) & 1]
                for lt, lc in gen(left, budget - 1):
                    for rt, rc in gen(right, budget - 1 - lc):
                        base = TreeMu(lt, rt)
                        cost = lc + rc + 1
                        if cost > budget:
                            continue
                        yield base, cost
                        t, c = base, cost
                        while c < budget:
                            t = TreePq(t)
                            c += 1
                            yield t, c

    seen = set()
    for t, _ in gen(list(range(1, n + 1)), max_internal):
        if t not in seen:
            seen.add(t)
            yield t


def rewrite_once(tree):
    """Trees one presentation-relation step away: commutativity and
    associativity of mu, and mu(P_q x, P_q y) <-> P_q mu(x, y)."""
    results = []
    if isinstance(tree, TreeMu):
        results.append(TreeMu(tree.right, tree.left))
        if isinstance(tree.left, TreeMu):
            results.append(TreeMu(tree.left.left, TreeMu(tree.left.right, tree.right)))
        if isinstance(tree.right, TreeMu):
            results.append(TreeMu(TreeMu(tree.left, tree.right.left), tree.right.right))
        if isinstance(tree.left, TreePq) and isinstance(tree.right, TreePq):
            results.append(TreePq(TreeMu(tree.left.child, tree.right.child)))
        for sub in rewrite_once(tree.left):
            results.append(TreeMu(sub, tree.right))
        for sub in rewrite_once(tree.right):
            results.append(TreeMu(tree.left, sub))
    elif isinstance(tree, TreePq):
        if isinstance(tree.child, TreeMu):
            left, right = tree.child.left, tree.child.right
            results.append(TreeMu(TreePq(left), TreePq(right)))
        for sub in rewrite_once(tree.child):
            results.append(TreePq(sub))
    return results


# -- the truncated polynomial ring used for linearity testing -----------------

class TruncatedSymElement:
    """Element of the free commutative algebra on m generators, truncated
    above total degree `cap`."""

    __slots__ = ("field", "nvars", "cap", "terms")

    def __init__(self, field, nvars, cap, terms=None):
        self.field = field
        self.nvars = nvars
        self.cap = cap
        clean = {}
        for exp, coeff in (terms or {}).items():
            exp = tuple(exp)
            if sum(exp) > cap:
                continue
            if not isinstance(coeff, Scalar):
                coeff = field.scalar(coeff)
            if not coeff.is_zero():
                clean[exp] = coeff
        self.terms = clean

    @classmethod
    def generator(cls, field, nvars, cap, i):
        exp = tuple(1 if j == i - 1 else 0 for j in range(nvars))
        return cls(field, nvars, cap, {exp: field.one()})

    @classmethod
    def zero(cls, field, nvars, cap):
        return cls(field, nvars, cap)

    def _check(self, other):
        if (
            self.field != other.field
            or self.nvars != other.nvars
            or self.cap != other.cap
        ):
            raise TruncationMismatch("elements from different truncated rings")

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSymElement)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.cap == other.cap
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.nvars, self.cap, _sorted_terms(self.terms)))

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp)
            total = c if s is None else s + c
            if total.is_zero():
                out.pop(exp, None)
            else:
                out[exp] = total
        return TruncatedSymElement(self.field, self.nvars, self.cap, out)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            for e2, c2 in other.terms.items():
                if d1 + sum(e2) > self.cap:
                    continue
                exp = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = out.get(exp)
                total = c if s is None else s + c
                if total.is_zero():
                    out.pop(exp, None)
                else:
                    out[exp] = total
        return TruncatedSymElement(self.field, self.nvars, self.cap, out)

    def __pow__(self, e: int):
        out = TruncatedSymElement(
            self.field, self.nvars, self.cap, {(0,) * self.nvars: self.field.one()}
        )
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def scale(self, c: Scalar):
        return TruncatedSymElement(
            self.field, self.nvars, self.cap, {e: v * c for e, v in self.terms.items()}
        )

    def __str__(self):
        return _format_terms(self.field, self.nvars, self.terms)

    def __repr__(self):
        return f"TruncatedSymElement({self})"


def eval_poly(f, args) -> TruncatedSymElement:
    """Evaluate a polynomial at truncated-ring elements by substitution."""
    if isinstance(f, QPolynomial):
        f = f.as_polynomial()
    if len(args) != f.arity:
        raise ValueError(f"expected {f.arity} arguments")
    first = args[0] if args else None
    if first is None:
        raise ValueError("nullary evaluation is not defined here")
    for a in args:
        first._check(a)
    if f.field != first.field:
        raise TruncationMismatch("polynomial and arguments over different fields")
    acc = TruncatedSymElement.zero(first.field, first.nvars, first.cap)
    for exp, coeff in f.terms.items():
        term = TruncatedSymElement(
            first.field, first.nvars, first.cap, {(0,) * first.nvars: coeff}
        )
        for a, e in zip(args, exp):
            if e:
                term = term * (a ** e)
        acc = acc + term
    return acc


@dataclass
class MultilinearityVerdict:
    multilinear: bool
    witness: str | None = None

    def __bool__(self):
        return self.multilinear


def multilinearity_check(f, cap: int | None = None) -> MultilinearityVerdict:
    """Decide whether Ev_f is linear in each slot, testing in the truncated
    free commutative algebra on n+1 generators.

    Additivity in slot i substitutes e_i + e_{n+1}; homogeneity scales slot i
    by every field element.  The cap must be at least n * deg(f) so that no
    failure can hide above the truncation degree.
    """
    if isinstance(f, QPolynomial):
        f = f.as_polynomial()
    n = f.arity
    needed = n * f.max_total_degree()
    if cap is None:
        cap = needed
    if cap < needed:
        raise CapTooSmall(f"cap {cap} below n*deg(f) = {needed}")
    field = f.field
    gens = [TruncatedSymElement.generator(field, n + 1, cap, i) for i in range(1, n + 2)]
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
            alpha = Scalar(field, v)
            args_scaled = list(base_args)
            args_scaled[i] = base_args[i].scale(alpha)
            if eval_poly(f, args_scaled) != base_val.scale(alpha):
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
