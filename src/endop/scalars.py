"""Exact scalar arithmetic: prime-power fields F_q, rationals, and Z/m.

Every value is immutable and kept in canonical form: rationals reduced with
positive denominator, F_q elements as coefficient vectors reduced modulo the
defining polynomial, residues in 0..m-1.  No floating point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
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


def _pdivides(d, a, p):
    """Whether monic d divides a over F_p."""
    r = list(a)
    dd = len(d) - 1
    while len(r) - 1 >= dd and _ptrim(r):
        r = list(_ptrim(r))
        if len(r) - 1 < dd:
            break
        lead = r[-1]
        shift = len(r) - 1 - dd
        for i, c in enumerate(d):
            r[shift + i] = (r[shift + i] - lead * c) % p
        r = list(_ptrim(r))
    return not _ptrim(r)


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
                quad = _ptrim((c, b, 1))
                if any(_peval(quad, x, p) == 0 for x in range(p)):
                    continue
                if _pdivides(quad, poly, p):
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
    """Common interface of the scalar domains (arithmetic on raw values)."""

    is_field = False
    is_finite = False

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
    zero_raw = 0

    @property
    def one_raw(self):
        return 1 % self.m

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


@dataclass(frozen=True)
class FiniteField(Domain):
    """F_q with q = p^k, elements as length-k coefficient vectors over F_p.

    The defining polynomial is monic of degree k (ascending coefficients)
    and is checked for irreducibility by exhaustive root/factor search.
    """

    p: int
    k: int = 1
    poly: tuple = None

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

    @property
    def q(self):
        return self.p ** self.k

    @property
    def size(self):
        return self.q

    @property
    def zero_raw(self):
        return (0,) * self.k

    @property
    def one_raw(self):
        return (1,) + (0,) * (self.k - 1)

    def generator(self) -> "Scalar":
        """The class of x, a root of the defining polynomial (k >= 2)."""
        if self.k == 1:
            raise UnsupportedDomain("prime field has no extension generator")
        return Scalar(self, (0, 1) + (0,) * (self.k - 2))

    def coerce(self, v):
        if isinstance(v, Scalar):
            if v.domain != self:
                raise DomainMismatch(f"{v} does not live in {self}")
            return v.value
        if isinstance(v, int):
            return (v % self.p,) + (0,) * (self.k - 1)
        if isinstance(v, (tuple, list)):
            vec = tuple(c % self.p for c in v)
            if len(vec) > self.k:
                vec = _pmod(vec, self.poly, self.p)
            return vec + (0,) * (self.k - len(vec))
        raise DomainMismatch(f"cannot coerce {v!r} into {self}")

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        prod = _pmul(a, b, self.p)
        red = _pmod(prod, self.poly, self.p)
        return tuple(red) + (0,) * (self.k - len(red))

    def inv(self, a):
        if all(c == 0 for c in a):
            raise NotInvertible("0 has no inverse")
        return self.pow(a, self.q - 2)

    def elements(self):
        return [t for t in product(range(self.p), repeat=self.k)]

    def format_value(self, v) -> str:
        if self.k == 1:
            return str(v[0])
        terms = []
        for i in range(self.k - 1, -1, -1):
            c = v[i]
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
            return (int(s) % self.p,)
        vec = [0] * self.k
        if s == "0":
            return tuple(vec)
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
        return tuple(vec)

    def to_json_dict(self):
        return {"p": self.p, "k": self.k, "poly": list(self.poly)}

    @classmethod
    def from_json_dict(cls, d):
        return cls(d["p"], d["k"], tuple(d["poly"]))

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
        return self.value == self.domain.zero_raw

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        return self.domain.format_value(self.value)

    def __repr__(self):
        return f"Scalar({self.domain}, {self})"

