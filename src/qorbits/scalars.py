"""Exact scalar arithmetic: rationals and rational functions in the deformation parameter q.

The ground field is the rationals (stdlib ``fractions.Fraction``).  On top of
it sits :class:`QScalar`, the field of rational functions in one variable q.
A QScalar stores its value as q**s * n/d: an exponent s and two integer
polynomials n and d with nonzero constant terms, in a unique canonical form,
so that equality of values is equality of representations.  All of its
arithmetic runs on integer coefficient tuples: a sum aligns the two
exponents, a product adds them, gcds are primitive pseudo-remainder
sequences over Z[q] and divisions by a gcd are exact integer divisions
(Gauss's lemma).  Since the power of q is kept apart, no gcd ever meets it.
Laurent polynomials in q (the common case: q-integers, q-binomials,
R-matrix entries) are the values with d a constant.  Each operation has one
general path; monomials take it too.  The one exception is a sum or product
of two integer Laurent polynomials (d = 1), done with no gcd, because every
symbolic Mat sum and scaling is one.

Identities claimed "for symbolic q" may alternatively be checked by exact
evaluation at random rational points (see :func:`random_q`).  Such a check
is a Schwartz-Zippel test: :func:`random_q` draws (num, den) uniformly from
the 257 * 128 - 384 pairs with |num|, den <= 128 that give neither 0 nor
+-1, and no value is given by more than 64 of them, so a nonzero rational
function whose numerator has degree d vanishes at the drawn q with
probability at most 64 d / 32512 < d / 500; k independent samples pass a
false identity of that degree with probability at most (d / 500)**k.
Symbolic and evaluated modes share one code path through
:class:`ScalarDomain`; a sampled domain builds each q-number once, the
shared symbolic one keeps no table.

All values are immutable.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)


# ---------------------------------------------------------------------------
# dense univariate polynomials over Z, coefficient tuples indexed by degree
# ---------------------------------------------------------------------------

def _ptrim(c: list) -> tuple:
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return tuple(c[:n])


def _low(a) -> int:
    """Index of the lowest nonzero coefficient of a nonzero polynomial."""
    i = 0
    while not a[i]:
        i += 1
    return i


def _padd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = [x + y for x, y in zip(a, b)]
    out.extend(a[len(b):])
    return _ptrim(out)


def _pneg(a: tuple) -> tuple:
    return tuple(-x for x in a)


def _pmul(a: tuple, b: tuple) -> tuple:
    """Product of nonzero integer polynomials (Z is a domain: no trim)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return tuple(out)


def _int_div_exact(f: tuple, g: tuple) -> tuple:
    """Exact quotient of integer polynomials by long division;
    ArithmeticError if g does not divide f in Z[q]."""
    dg, lg = len(g) - 1, g[-1]
    r = list(f)
    q = [0] * (len(f) - dg)
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i]
        if c == 0:
            continue
        c, rem = divmod(c, lg)
        if rem:
            raise ArithmeticError("inexact integer polynomial division")
        q[i - dg] = c
        for j in range(dg + 1):
            r[i - dg + j] -= c * g[j]
    if any(r):
        raise ArithmeticError("inexact integer polynomial division")
    return tuple(q)


# integer-polynomial gcd via primitive pseudo-remainder sequences; this keeps
# coefficient growth under control compared to naive Euclid over Q
def _int_primitive(a: list) -> list:
    g = math.gcd(*a)
    return [c // g for c in a] if g > 1 else list(a)


def _int_prem(f: list, g: list) -> list:
    """Pseudo-remainder of integer polynomials, f modulo g."""
    f = list(f)
    dg, lg = len(g) - 1, g[-1]
    while len(f) - 1 >= dg and f:
        df = len(f) - 1
        lf = f[-1]
        f = [c * lg for c in f]
        shift = df - dg
        for j in range(dg + 1):
            f[shift + j] -= lf * g[j]
        while f and not f[-1]:
            f.pop()
    return f


def _pgcd(a: tuple, b: tuple) -> tuple:
    """Primitive gcd of nonzero integer polynomials, up to sign, by primitive
    remainder sequences."""
    f = _int_primitive(a)
    g = _int_primitive(b)
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = _int_prem(f, g)
        f, g = g, _int_primitive(r) if r else []
    return tuple(f)


def _pstr(a, shift: int = 0) -> str:
    """The coefficients a, of q**shift up, in descending powers of q."""
    parts = []
    for d in range(len(a) - 1, -1, -1):
        if a[d]:
            parts.append(_term_str(a[d], d + shift, lead=not parts))
    return "".join(parts) or "0"


def _term_str(c: Fraction, e: int, lead: bool) -> str:
    sign = ("-" if c < 0 else "") if lead else (" - " if c < 0 else " + ")
    mag = abs(c)
    if e == 0:
        body = str(mag)
    else:
        pw = "q" if e == 1 else f"q^{e}"
        body = pw if mag == 1 else f"{mag}*{pw}"
    return sign + body


# ---------------------------------------------------------------------------
# QScalar: canonical rational function in q
# ---------------------------------------------------------------------------

class QScalar:
    """Rational function in q over the rationals, in unique canonical form.

    Storage is an exponent s and a pair of integer polynomials n, d
    (coefficient tuples indexed by degree), the value being q**s * n/d.  In
    the canonical form n and d have nonzero constant terms, they are coprime
    in Q[q], their coefficients together have gcd 1, and d(0) > 0; zero is
    ``((), (1,), 0)``.  Equal values have equal (n, d, s), so ``==`` and
    ``hash`` are structural.  A Laurent polynomial has d of length 1.

    ``num`` and ``den`` are tuples of Fraction coefficients of the same
    value with the power of q put back, in ``num`` when s > 0 and in
    ``den`` when s < 0, scaled so that the lowest-degree coefficient of
    ``den`` is 1; a Laurent polynomial has ``den`` a pure power of q.  No
    arithmetic reads them: they serve formatting and error text.  Two
    integer Laurent polynomials (d = 1) meet in ``+ - *`` and ``/`` by q**j
    with no gcd: the coefficients are aligned or multiplied.  ``QScalar(num,
    den)`` accepts int or Fraction coefficient tuples and canonicalizes
    them.
    """

    __slots__ = ("_n", "_d", "_s", "_hash")

    def __init__(self, num, den=(1,)):
        num, den = tuple(num), tuple(den)
        scale = math.lcm(*(Fraction(c).denominator for c in num + den))
        n = _ptrim([int(c * scale) for c in num])
        d = _ptrim([int(c * scale) for c in den])
        if not d:
            raise ZeroDivisionError("zero denominator")
        ln, ld = (_low(n), _low(d)) if n else (0, 0)
        n, d = n[ln:], d[ld:]
        # cancel the gcd, then the joint content and the sign
        n, d = (_content_and_sign(*_cancel(n, d, _pgcd(n, d))) if n
                else ((), (1,)))
        self._n = n
        self._d = d
        self._s = ln - ld
        self._hash = None

    # -- Fraction coefficients ----------------------------------------------
    @property
    def num(self) -> tuple:
        low = self._d[0]
        return tuple(Fraction(c, low) for c in (0,) * self._s + self._n)

    @property
    def den(self) -> tuple:
        low = self._d[0]
        return tuple(Fraction(c, low) for c in (0,) * -self._s + self._d)

    # -- constructors -----------------------------------------------------
    @staticmethod
    def from_rational(r) -> "QScalar":
        if not isinstance(r, (int, Fraction)):
            r = Fraction(r)
        if not r:
            return Q_ZERO
        return _make((r.numerator,), (r.denominator,), 0)

    @staticmethod
    def q_power(k: int) -> "QScalar":
        return _make((1,), (1,), k)

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self._n

    def is_laurent(self) -> bool:
        """True when the denominator is a pure power of q."""
        return len(self._d) == 1

    def is_rational(self) -> bool:
        return len(self._d) == 1 and len(self._n) <= 1 and not self._s

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a constant: {self}")
        return Fraction(self._n[0], self._d[0]) if self._n else _F0

    # -- arithmetic ---------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, QScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return QScalar.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self, o._n, o._d, o._s)

    __radd__ = __add__

    def __neg__(self):
        if not self._n:
            return self
        return _make(_pneg(self._n), self._d, self._s)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self, _pneg(o._n), o._d, o._s)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum(o, _pneg(self._n), self._d, self._s)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._n or not o._n:
            return Q_ZERO
        return _cross_cancelled_product(self._n, self._d, o._n, o._d,
                                        self._s + o._s)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._n:
            raise ZeroDivisionError("division by zero QScalar")
        if not self._n:
            return Q_ZERO
        return _cross_cancelled_product(self._n, self._d, o._d, o._n,
                                        self._s - o._s)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if k < 0:
            return Q_ONE / self ** -k
        return math.prod([self] * k, start=Q_ONE)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._n == o._n and self._d == o._d and self._s == o._s

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._n, self._d, self._s))
        return self._hash

    def __bool__(self):
        return bool(self._n)

    def __repr__(self):
        try:
            return format_scalar(self)
        except ValueError:
            return f"({_pstr(self.num)})/({_pstr(self.den)})"


_new = object.__new__


def _make(n: tuple, d: tuple, s: int) -> QScalar:
    """The QScalar q**s * n/d from a pair already in canonical form."""
    x = _new(QScalar)
    x._n = n
    x._d = d
    x._s = s
    x._hash = None
    return x


def _content_and_sign(n: tuple, d: tuple) -> tuple:
    """Divide a coprime pair by its joint content; make d(0) positive."""
    g = math.gcd(*n, *d)
    if g != 1:
        n = tuple(c // g for c in n)
        d = tuple(c // g for c in d)
    if d[0] < 0:
        n, d = _pneg(n), _pneg(d)
    return n, d


def _cancel(a: tuple, b: tuple, g: tuple) -> tuple:
    """(a/g, b/g) for a common divisor g of a and b."""
    if len(g) > 1:
        return _int_div_exact(a, g), _int_div_exact(b, g)
    return a, b


def _sum(x: QScalar, n2: tuple, d2: tuple, s2: int) -> QScalar:
    """x + q**s2 * n2/d2 for a canonical (n2, d2, s2)."""
    n1, d1, s1 = x._n, x._d, x._s
    if not n1:
        return _make(n2, d2, s2) if n2 else Q_ZERO
    if not n2:
        return x
    # align the exponents: both terms over q**low
    low = min(s1, s2)
    n1 = (0,) * (s1 - low) + n1
    n2 = (0,) * (s2 - low) + n2
    # 1,762 of 1,913 sums of a symbolic-rank2 batch; both off: wall_s +10 %
    if d1 == d2 == (1,):
        # integer Laurent polynomials: add the aligned coefficients and
        # strip the low zeros, with no gcd (a pair over 1 has content 1)
        num = _padd(n1, n2)
        if not num:
            return Q_ZERO
        k = _low(num)
        return _make(num[k:], d1, low + k)
    # textbook rational addition: after splitting off the denominator
    # gcd, the only factor the sum can share with the denominator is
    # that gcd itself
    g = _pgcd(d1, d2)
    d1p, d2p = _cancel(d1, d2, g)
    num = _padd(_pmul(n1, d2p), _pmul(n2, d1p))
    if not num:
        return Q_ZERO
    k = _low(num)
    num = num[k:]
    den = _pmul(d1, d2p)
    if len(g) > 1:
        num, den = _cancel(num, den, _pgcd(num, g))
    return _make(*_content_and_sign(num, den), low + k)


def _cross_cancelled_product(n1, d1, n2, d2, s) -> QScalar:
    """q**s (n1/d1)(n2/d2) for coprime pairs with nonzero constant terms,
    cancelling across before multiplying; the product keeps them nonzero."""
    # 1,647 of 2,015 products of a symbolic-rank2 batch; both off: wall_s +10 %
    if d1 == d2 == (1,):
        # both integer Laurent polynomials: multiply, no gcd
        return _make(_pmul(n1, n2), d1, s)
    n1, d2 = _cancel(n1, d2, _pgcd(n1, d2))
    n2, d1 = _cancel(n2, d1, _pgcd(n2, d1))
    return _make(*_content_and_sign(_pmul(n1, n2), _pmul(d1, d2)), s)


Q_ZERO = _make((), (1,), 0)
Q_ONE = _make((1,), (1,), 0)
Q = QScalar.q_power(1)


# ---------------------------------------------------------------------------
# a symbolic matrix as integer Laurent numerators over one denominator
# ---------------------------------------------------------------------------
#
# The numerators are QScalars with d = 1 (integer Laurent polynomials); the
# denominator is a QScalar with d = 1 and s = 0 (an integer polynomial with
# positive constant term, so q does not divide it); every lcm and content
# is :func:`lcm_factors` and :func:`common_divisor`.  Sums and scalings of
# numerators are QScalar's own gcd-free + - *.  Products of numerators run
# on Python ints by Kronecker substitution (Kronecker 1882; Schoenhage 1982):
# a numerator becomes its value at X = 2**bits, relative to the least exponent,
# and a sum of products is read back from balanced base-X digits, which is
# exact while every coefficient is below 2**(bits - 1) in absolute value.
# Numerators take few distinct values: a product packs, decodes and divides
# each distinct value once (:func:`pack_operands`, :func:`unpack_reduced`).

def _poly(n: tuple) -> QScalar:
    return Q_ONE if n == (1,) else _make(n, (1,), 0)


def laurent_split(s: QScalar) -> tuple:
    """(N, D) with s = N / D: N an integer Laurent polynomial, D an integer
    polynomial with D(0) > 0, coprime in Z[q]; s may be a rational."""
    if not isinstance(s, QScalar):
        s = QScalar.from_rational(s)
    return _make(s._n, (1,), s._s), _poly(s._d)


def lcm_factors(a: QScalar, b: QScalar) -> tuple:
    """(l, l / a, l / b) for the least common multiple l of two denominators."""
    if a._n == b._n:
        return a, Q_ONE, Q_ONE
    g = common_divisor(a, (b,))._n
    fa = _int_div_exact(b._n, g)
    return _poly(_pmul(a._n, fa)), _poly(fa), _poly(_int_div_exact(a._n, g))


def common_divisor(den: QScalar, nums) -> QScalar:
    """gcd in Z[q] of a denominator and integer Laurent polynomials, as a
    denominator; q is a unit here, since it does not divide den.

    The gcd is kept as an integer content times a primitive polynomial and
    updated numerator by numerator, skipping repeats (a projector's entries
    take few distinct values); the scan stops as soon as it is 1.
    """
    d = den._n
    c = math.gcd(*d)
    p = tuple(x // c for x in d) if c > 1 else d
    seen = set()
    for v in nums:
        if c == 1 and len(p) == 1:
            return Q_ONE
        n = v._n
        # skips 1,814 of 2,217 per symbolic-rank2 batch; wall_s +25 % without
        if n in seen:
            continue
        seen.add(n)
        if c > 1:
            c = math.gcd(c, *n)
        if len(p) > 1:
            p = _pgcd(p, n)
    if c == 1 and len(p) == 1:
        return Q_ONE
    if p[0] < 0:
        p = _pneg(p)
    return _poly(tuple(c * x for x in p) if c > 1 else p)


def divide_exact(v: QScalar, g: QScalar) -> QScalar:
    """v / g for an integer Laurent polynomial or a denominator v and a
    denominator g that divides it in Z[q]."""
    return _make(_int_div_exact(v._n, g._n), v._d, v._s)


def mapped_rows(rows, table) -> list:
    """Rows of column -> table[value], equal entries sharing the result (no
    Mat is written into); a loop, as most rows hold 1-3 entries."""
    out = []
    for row in rows:
        new = {}
        for c, v in row.items():
            new[c] = table[v]
        out.append(new)
    return out


def pack_value(v: QScalar, bits: int, low: int) -> int:
    """The numerator v at X = 2**bits, times X**-low (low <= v's least power)."""
    acc = 0
    for x in reversed(v._n):
        acc = (acc << bits) + x
    return acc << (bits * (v._s - low))


def unpack_value(acc: int, bits: int, low: int) -> QScalar:
    """Inverse of :func:`pack_value` on a nonzero int whose balanced base
    2**bits digits, in [-2**(bits - 1), 2**(bits - 1)), are the coefficients
    from q**low up, the zero ones below the least power skipped at once."""
    if bits < 2:
        raise ValueError("balanced digits need at least 2 bits")
    mask, half, full = (1 << bits) - 1, 1 << (bits - 1), 1 << bits
    skip = ((acc & -acc).bit_length() - 1) // bits
    acc >>= bits * skip
    digits = []
    while acc:
        x = acc & mask
        if x >= half:
            x -= full
        digits.append(x)
        acc = (acc - x) >> bits
    return _make(tuple(digits), (1,), low + skip)


def pack_operands(arows, brows, extra: int = 0) -> tuple:
    """(a, b, bits, low): a product's operands, each distinct numerator
    packed once, a and b each from its least power of q, low their sum.
    bits is extra plus the least B >= 2 with 2**(B - 1) > H = max_i sum_k
    |a_ik|_1 * max_kj |b_kj|_inf, a bound on every product coefficient."""
    l1, top = {}, 0
    for row in arows:
        s = 0
        for v in row.values():
            x = l1.get(v)
            if x is None:
                x = l1[v] = sum(map(abs, v._n))
            s += x
        top = max(top, s)
    bvals = {v for row in brows for v in row.values()}
    big = max([max(max(v._n), -min(v._n)) for v in bvals], default=0)
    bits = max(2, (top * big).bit_length() + 1) + extra
    alow = min([v._s for v in l1], default=0)
    blow = min([v._s for v in bvals], default=0)
    return (mapped_rows(arows, {v: pack_value(v, bits, alow) for v in l1}),
            mapped_rows(brows, {v: pack_value(v, bits, blow) for v in bvals}),
            bits, alow + blow)


def unpack_reduced(rows, bits: int, low: int, den: QScalar) -> tuple:
    """(numerator rows, den) of packed product rows over den, reduced: each
    distinct int decoded, and divided by the content, once."""
    table = {x: unpack_value(x, bits, low)
             for x in {x for row in rows for x in row.values()}}
    g = common_divisor(den, table.values())
    if g is not Q_ONE:
        den = divide_exact(den, g)
        table = {x: divide_exact(v, g) for x, v in table.items()}
    return mapped_rows(rows, table), Q_ONE if den == Q_ONE else den


# ---------------------------------------------------------------------------
# q-integers
# ---------------------------------------------------------------------------

def q_int(m: int) -> QScalar:
    """The q-analog (q**m - q**-m)/(q - q**-1); antisymmetric in m."""
    if m == 0:
        return Q_ZERO
    if m < 0:
        return -q_int(-m)
    return _make((1, 0) * (m - 1) + (1,), (1,), 1 - m)


class QEvalError(ZeroDivisionError):
    """Raised when a QScalar is evaluated where its denominator vanishes."""


def eval_at(s: QScalar, q0) -> Fraction:
    """Exact value of s at the rational point q = q0 (q0 != 0)."""
    q0 = Fraction(q0)
    if q0 == 0:
        raise QEvalError("q = 0 is outside the domain of q-scalars")
    # homogenized over the common degree, so the sums stay in Z
    a, b = q0.numerator, q0.denominator
    top = max(len(s._n), len(s._d))
    den = _hom_eval(s._d, a, b, top)
    if den == 0:
        raise QEvalError(
            f"denominator {_pstr(s.den)} vanishes at q = {q0}")
    return Fraction(_hom_eval(s._n, a, b, top), den) * q0 ** s._s


def _hom_eval(f: tuple, a: int, b: int, top: int) -> int:
    """b**(top-1) * f(a/b) for an integer polynomial f of length <= top."""
    acc, bp = 0, 1
    for c in reversed(f):
        acc = acc * a + c * bp
        bp *= b
    return acc * b ** (top - len(f))


# ---------------------------------------------------------------------------
# text grammar: signed sums of terms c*q^e
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coeff>\d+(?:\s*/\s*\d+)?)\s*
                (?:\*\s*(?P<pow1>q(?:\s*\^\s*(?P<exp1>[+-]?\d+))?))?
          | (?P<pow2>q(?:\s*\^\s*(?P<exp2>[+-]?\d+))?)
        )\s*""",
    re.VERBOSE,
)


class ScalarParseError(ValueError):
    pass


def parse_scalar(text: str) -> QScalar:
    """Parse the scalar grammar: e.g. ``q^-1 + 2 - 3/2*q^3``."""
    pos, first = 0, True
    total = Q_ZERO
    text = text.strip()
    if not text:
        raise ScalarParseError("empty scalar")
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ScalarParseError(f"bad scalar syntax at offset {pos}: {text!r}")
        sign = m.group("sign")
        if sign is None and not first:
            raise ScalarParseError(f"missing +/- between terms at offset {pos}: {text!r}")
        raw_coeff = m.group("coeff")
        coeff = Fraction(raw_coeff.replace(" ", "")) if raw_coeff else _F1
        if sign == "-":
            coeff = -coeff
        exp = 0
        if m.group("pow1") or m.group("pow2"):
            e = m.group("exp1") or m.group("exp2")
            exp = int(e) if e is not None else 1
        total = total + QScalar.q_power(exp) * coeff
        pos = m.end()
        first = False
    return total


def format_scalar(s: QScalar) -> str:
    """Canonical string for a Laurent QScalar (descending powers of q)."""
    if not s.is_laurent():
        raise ValueError("only Laurent scalars have a canonical text form")
    return _pstr([Fraction(c, s._d[0]) for c in s._n], s._s)


def as_integer(x):
    """x as an int when it is an integer constant, else None.

    Accepts the elements of either domain (Fraction or QScalar) and ints.
    """
    if isinstance(x, QScalar):
        if not x.is_rational():
            return None
        x = x.as_rational()
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else None
    return x if isinstance(x, int) else None


# ---------------------------------------------------------------------------
# scalar domain: one code path for symbolic q and sampled rational q
# ---------------------------------------------------------------------------

class ScalarDomain:
    """Field of scalars: rational functions in q, or Q at a fixed q0.

    All operations in this package are generic over the domain's elements
    (QScalar in symbolic mode, Fraction in evaluated mode), which supports
    the randomized identity-testing workflow: rebuild the same computation
    at sampled rational q and compare exactly.

    A sampled domain builds each q_int(m) and q_pow(k) once, into tables of
    its own; SYMBOLIC keeps none, as it is shared by every certification.
    """

    def __init__(self, q0=None):
        if q0 is None:
            self.q0 = None
            self.q = Q
            self.zero = Q_ZERO
            self.one = Q_ONE
        else:
            q0 = Fraction(q0)
            if q0 in (0, 1, -1):
                raise ValueError("q must avoid 0 and the rational roots of unity +-1")
            self.q0 = q0
            self.q = q0
            self.zero = _F0
            self.one = _F1
            self._q_pows, self._q_ints = {}, {}

    @property
    def symbolic(self) -> bool:
        return self.q0 is None

    def lift(self, x):
        """Coerce an int, Fraction or QScalar into this domain."""
        if self.symbolic:
            if isinstance(x, QScalar):
                return x
            return QScalar.from_rational(x)
        if isinstance(x, QScalar):
            return eval_at(x, self.q0)
        return Fraction(x)

    def q_pow(self, k: int):
        if self.symbolic:
            return QScalar.q_power(k)
        if k not in self._q_pows:
            self._q_pows[k] = self.q0 ** k
        return self._q_pows[k]

    def q_int(self, m: int):
        """[m]_q; at q0 = a/b it is (a**2m - b**2m) / (a**(m-1) b**(m-1) (a**2 - b**2)),
        one Fraction built from integer powers, once per m."""
        if self.symbolic:
            return q_int(m)
        if m not in self._q_ints:
            a, b = self.q0.numerator, self.q0.denominator
            self._q_ints[m] = (_F0 if m == 0 else -self.q_int(-m) if m < 0 else
                               Fraction(a ** (2 * m) - b ** (2 * m),
                                        (a * b) ** (m - 1) * (a * a - b * b)))
        return self._q_ints[m]

    def ratio(self, nums, dens):
        """prod(nums) / prod(dens); at sampled q one Fraction of the products
        of the integer numerators and denominators, so one reduction."""
        if self.symbolic:
            return math.prod(nums, start=self.one) / math.prod(dens, start=self.one)
        n = d = 1
        for x in nums:
            n, d = n * x.numerator, d * x.denominator
        for x in dens:
            n, d = n * x.denominator, d * x.numerator
        return Fraction(n, d)

    def q_factorial(self, m: int):
        out = self.one
        for i in range(2, m + 1):
            out = out * self.q_int(i)
        return out

    def q_binomial(self, p: int, k: int):
        """p_q! / (k_q! (p-k)_q!); zero outside 0 <= k <= p."""
        if k < 0 or k > p:
            return self.zero
        return self.q_factorial(p) / (self.q_factorial(k) * self.q_factorial(p - k))

    @property
    def zeta(self):
        """q - q**-1, the unit-shift denominator."""
        return self.q_pow(1) - self.q_pow(-1)

    def describe(self) -> str:
        return "q" if self.symbolic else str(self.q0)

    def __repr__(self):
        return f"ScalarDomain({self.describe()})"


SYMBOLIC = ScalarDomain()


def at_q(q0) -> ScalarDomain:
    return ScalarDomain(q0)


# ---------------------------------------------------------------------------
# random sampling for identity testing
# ---------------------------------------------------------------------------

_PIT_BOUND = 2 ** 7


def random_q(rng) -> Fraction:
    """Random rational q with |num|, den <= 128, excluding 0 and +-1."""
    while True:
        num = rng.randint(-_PIT_BOUND, _PIT_BOUND)
        den = rng.randint(1, _PIT_BOUND)
        v = Fraction(num, den)
        if v not in (0, 1, -1):
            return v


def random_rationals(rng, count: int) -> list:
    """Distinct random nonzero rational parameter points for identity testing."""
    out = []
    seen = set()
    while len(out) < count:
        v = Fraction(rng.randint(-_PIT_BOUND, _PIT_BOUND), rng.randint(1, _PIT_BOUND))
        if v == 0 or v in seen:
            continue
        seen.add(v)
        out.append(v)
    return out
