"""Exact scalar arithmetic: prime-power fields F_q, rationals, and Z/m.

Every value is immutable and kept in canonical form: rationals reduced with
positive denominator, residues in 0..m-1, and F_q elements as ints 0..q-1
whose base-p digits are the coefficients of their reduced polynomial in the
generator, lowest degree first.  Every domain's zero is falsy.  No floating
point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product

from .errors import DomainMismatch, NotInvertible, UnsupportedDomain


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# Polynomials over F_p as coefficient tuples, ascending degree.

def _ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _ptrim(out)


def _pmod(a, m, p):
    # m is monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1] % p
        if lead:
            shift = len(a) - 1 - dm
            for i, c in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    return _ptrim(a)


def _peval(poly, x, p):
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % p
    return acc


def _check_irreducible(poly, p, k):
    """Root/factor search; only supported for degree k <= 4."""
    if k == 1:
        return
    if k > 4:
        raise UnsupportedDomain(
            "irreducibility checking is only implemented for extension degree <= 4"
        )
    for x in range(p):
        if _peval(poly, x, p) == 0:
            raise ValueError(f"polynomial has root {x} over F_{p}, not irreducible")
    if k == 4:
        # degree-4 polynomials may factor into two irreducible quadratics
        for b in range(p):
            for c in range(p):
                quad = (c, b, 1)
                if any(_peval(quad, x, p) == 0 for x in range(p)):
                    continue
                if not _pmod(poly, quad, p):
                    raise ValueError(
                        f"polynomial divisible by irreducible quadratic {quad}"
                    )


# Conway-style defaults for the shipped extension fields.
DEFAULT_POLYS = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
    (3, 2): (1, 0, 1),        # x^2 + 1
}


class Domain:
    """Common interface of the scalar domains (arithmetic on raw values).
    Every raw zero is falsy."""

    is_field = False
    is_finite = False
    zero_raw = 0
    one_raw = 1

    def scalar(self, value) -> "Scalar":
        return Scalar(self, self.coerce(value))

    def zero(self) -> "Scalar":
        return Scalar(self, self.zero_raw)

    def one(self) -> "Scalar":
        return Scalar(self, self.one_raw)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        acc = self.one_raw
        base = a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def elements(self):
        raise UnsupportedDomain(f"{self} is not finite")


@dataclass(frozen=True)
class RationalField(Domain):
    """The rationals, backed by arbitrary-precision Fraction values."""

    is_field = True
    zero_raw = Fraction(0)
    one_raw = Fraction(1)

    def coerce(self, v):
        if type(v) is Fraction:
            return v
        if isinstance(v, Scalar):
            if v.domain != self:
                raise DomainMismatch(f"{v} does not live in {self}")
            return v.value
        if isinstance(v, (int, Fraction, str)):
            return Fraction(v)
        raise DomainMismatch(f"cannot coerce {v!r} into {self}")

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise NotInvertible("0 has no inverse")
        return 1 / a

    def format_value(self, v) -> str:
        return str(v)

    def parse_value(self, s: str):
        return Fraction(s.strip())

    def __str__(self):
        return "Q"


@dataclass(frozen=True)
class IntegersMod(Domain):
    """The ring Z/m with canonical representatives 0..m-1."""

    m: int
    # trial division once per domain, not per read; no part of equality or hash
    is_field: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("modulus must be at least 2")
        object.__setattr__(self, "is_field", is_prime(self.m))

    is_finite = True

    @property
    def size(self):
        return self.m

    def coerce(self, v):
        if isinstance(v, Scalar):
            if v.domain != self:
                raise DomainMismatch(f"{v} does not live in {self}")
            return v.value
        if isinstance(v, int):
            return v % self.m
        raise DomainMismatch(f"cannot coerce {v!r} into {self}")

    def add(self, a, b):
        return (a + b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def inv(self, a):
        if math.gcd(a, self.m) != 1:
            raise NotInvertible(f"{a} is not a unit mod {self.m}")
        return pow(a, -1, self.m)

    def elements(self):
        return list(range(self.m))

    def format_value(self, v) -> str:
        return f"{v} mod {self.m}"

    def parse_value(self, s: str):
        head, _, tail = s.partition(" mod ")
        if tail and int(tail) != self.m:
            raise DomainMismatch(f"residue {s!r} has wrong modulus for {self}")
        return int(head) % self.m

    def __str__(self):
        return f"Z/{self.m}"


# Extension fields up to this order multiply through log tables: two lists
# of q and 2(q - 1) entries, about 80 bytes per element.  Larger ones build
# none and multiply decoded digit vectors with _pmul/_pmod.
LOG_TABLE_MAX_Q = 1 << 12


class FieldKey(tuple):
    """(p, k, poly) of a FiniteField, which it carries as .field.  A value
    that holds a field and must hash and compare in C holds this key in its
    place: the key hashes as a tuple, the field through its dataclass
    __hash__, a Python call."""


@dataclass(frozen=True)
class FiniteField(Domain):
    """F_q with q = p^k.  The defining polynomial is monic of degree k
    (ascending coefficients) and is checked for irreducibility by exhaustive
    root/factor search.

    An element is stored as an int in 0..q-1 whose base-p digit i is its
    coefficient of g^i, g the class of x: 0 and 1 are zero and one, and a
    prime field holds plain residues.  An extension field of order up to
    LOG_TABLE_MAX_Q builds log/antilog tables on first use, from powers of
    a primitive element taken with _pmul/_pmod, and multiplies and inverts
    by lookup.  Addition is XOR in characteristic 2 and digit-wise mod p
    otherwise.
    """

    p: int
    k: int = 1
    poly: tuple = None
    # p^k and the FieldKey, once per field; no part of equality or hash
    q: int = field(init=False, compare=False, repr=False)
    key: FieldKey = field(init=False, compare=False, repr=False)

    is_field = True
    is_finite = True

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"characteristic {self.p} is not prime")
        if self.k < 1:
            raise ValueError("extension degree must be >= 1")
        poly = self.poly
        if poly is None:
            if self.k == 1:
                poly = (0, 1)
            elif (self.p, self.k) in DEFAULT_POLYS:
                poly = DEFAULT_POLYS[(self.p, self.k)]
            else:
                raise ValueError(
                    f"no default polynomial for p={self.p}, k={self.k}; pass one"
                )
        poly = tuple(c % self.p for c in poly)
        if len(poly) != self.k + 1 or poly[-1] != 1:
            raise ValueError("defining polynomial must be monic of degree k")
        _check_irreducible(poly, self.p, self.k)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "q", self.p ** self.k)
        key = FieldKey((self.p, self.k, poly))
        key.field = self
        object.__setattr__(self, "key", key)

    @property
    def size(self):
        return self.q

    def _digits(self, v):
        """The coefficient vector of raw value v, ascending."""
        out = []
        for _ in range(self.k):
            v, c = divmod(v, self.p)
            out.append(c)
        return out

    def _encode(self, vec):
        """The raw value of a coefficient vector of length at most k."""
        v = 0
        for c in reversed(vec):
            v = v * self.p + c
        return v

    def _poly_mul(self, a, b):
        p = self.p
        return self._encode(_pmod(_pmul(self._digits(a), self._digits(b), p), self.poly, p))

    @cached_property
    def _tables(self):
        """(log, antilog) of an extension field of order at most
        LOG_TABLE_MAX_Q, else None.  antilog[i] = c^i for a primitive c, over
        two periods so that a sum of two logs indexes it; log[0] is None."""
        if self.k == 1 or self.q > LOG_TABLE_MAX_Q:
            return None
        n = self.q - 1
        for c in range(2, self.q):
            antilog = [1]
            while (x := self._poly_mul(antilog[-1], c)) != 1:
                antilog.append(x)
            if len(antilog) == n:
                break
        log = [None] * self.q
        for i, x in enumerate(antilog):
            log[x] = i
        return log, antilog + antilog

    def generator(self) -> "Scalar":
        """The class of x, a root of the defining polynomial (k >= 2)."""
        if self.k == 1:
            raise UnsupportedDomain("prime field has no extension generator")
        return Scalar(self, self.p)

    def coerce(self, v):
        """Raw value of v: a Scalar of this field; an int, reduced mod p in a
        prime field and taken as the raw value 0..q-1 in an extension field;
        or a coefficient vector, reduced by the defining polynomial."""
        if isinstance(v, int):
            if self.k == 1:
                return v % self.p
            if 0 <= v < self.q:
                return v
            raise DomainMismatch(f"{v} is not a raw value 0..{self.q - 1} of {self}")
        if isinstance(v, Scalar):
            if v.domain != self:
                raise DomainMismatch(f"{v} does not live in {self}")
            return v.value
        if isinstance(v, (tuple, list)):
            vec = [c % self.p for c in v]
            if len(vec) > self.k:
                vec = _pmod(vec, self.poly, self.p)
            return self._encode(vec)
        raise DomainMismatch(f"cannot coerce {v!r} into {self}")

    def add(self, a, b):
        p = self.p
        if p == 2:
            return a ^ b
        if self.k == 1:
            return (a + b) % p
        if not a or not b:
            return a or b
        return self._encode([(x + y) % p for x, y in zip(self._digits(a), self._digits(b))])

    def neg(self, a):
        if self.p == 2 or not a:
            return a
        if self.k == 1:
            return self.p - a
        return self._encode([-c % self.p for c in self._digits(a)])

    def sub(self, a, b):
        if self.p == 2:
            return a ^ b
        return (a - b) % self.p if self.k == 1 else super().sub(a, b)

    def mul(self, a, b):
        if not a or not b:
            return 0
        if self.k == 1:
            return a * b % self.p
        tables = self._tables
        if tables is None:
            return self._poly_mul(a, b)
        log, antilog = tables
        return antilog[log[a] + log[b]]

    def inv(self, a):
        if not a:
            raise NotInvertible("0 has no inverse")
        if self.k == 1:
            return pow(a, -1, self.p)
        tables = self._tables
        if tables is None:
            return self.pow(a, self.q - 2)
        log, antilog = tables
        return antilog[self.q - 1 - log[a]]

    def elements(self):
        return [self._encode(t) for t in product(range(self.p), repeat=self.k)]

    def format_value(self, v) -> str:
        if self.k == 1:
            return str(v)
        terms = []
        for i, c in reversed(list(enumerate(self._digits(v)))):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "g" if i == 1 else f"g^{i}"
                terms.append(var if c == 1 else f"{c}{var}")
        return "+".join(terms) if terms else "0"

    def parse_value(self, s: str):
        s = s.replace(" ", "")
        if self.k == 1:
            return int(s) % self.p
        vec = [0] * self.k
        if s == "0":
            return 0
        for term in s.split("+"):
            if "g" not in term:
                vec[0] = (vec[0] + int(term)) % self.p
                continue
            coeff_s, _, rest = term.partition("g")
            coeff = int(coeff_s) if coeff_s else 1
            deg = int(rest[1:]) if rest.startswith("^") else 1
            if deg >= self.k:
                raise DomainMismatch(f"degree {deg} term out of range for {self}")
            vec[deg] = (vec[deg] + coeff) % self.p
        return self._encode(vec)

    def to_json_dict(self):
        return {"p": self.p, "k": self.k, "poly": list(self.poly)}

    def __str__(self):
        return f"F{self.q}"


QQ = RationalField()


def finite_field(q: int) -> FiniteField:
    """F_q from the prime-power order, with the shipped default polynomial."""
    for p in range(2, q + 1):
        if is_prime(p) and q % p == 0:
            k = 0
            n = q
            while n % p == 0:
                n //= p
                k += 1
            if n != 1:
                raise ValueError(f"{q} is not a prime power")
            return FiniteField(p, k)
    raise ValueError(f"{q} is not a prime power")


@dataclass(frozen=True)
class Scalar:
    """A tagged exact value: element of F_q, Q, or Z/m."""

    domain: Domain
    value: object

    def _same(self, other):
        if not isinstance(other, Scalar) or other.domain != self.domain:
            raise DomainMismatch(f"{self} and {other!r} live in different domains")
        return other.value

    def __add__(self, other):
        return Scalar(self.domain, self.domain.add(self.value, self._same(other)))

    def __sub__(self, other):
        return Scalar(self.domain, self.domain.sub(self.value, self._same(other)))

    def __neg__(self):
        return Scalar(self.domain, self.domain.neg(self.value))

    def __mul__(self, other):
        return Scalar(self.domain, self.domain.mul(self.value, self._same(other)))

    def __truediv__(self, other):
        return Scalar(
            self.domain, self.domain.mul(self.value, self.domain.inv(self._same(other)))
        )

    def __pow__(self, e: int):
        return Scalar(self.domain, self.domain.pow(self.value, e))

    def inverse(self):
        return Scalar(self.domain, self.domain.inv(self.value))

    def is_zero(self) -> bool:
        return not self.value

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        return self.domain.format_value(self.value)

    def __repr__(self):
        return f"Scalar({self.domain}, {self})"

