"""Exact scalar arithmetic: rationals and rational functions in the deformation parameter q.

The ground field is the rationals (stdlib ``fractions.Fraction``).  On top of
it sits :class:`QScalar`, the field of rational functions in one variable q.
A QScalar stores two integer polynomials n/d in a unique canonical form, so
that equality of values is equality of representations, and all of its
arithmetic runs on integer coefficient tuples: gcds are primitive
pseudo-remainder sequences over Z[q] and divisions by a gcd are exact
integer divisions (Gauss's lemma).  Laurent polynomials in q (the common
case: q-integers, q-binomials, R-matrix entries) are rational functions whose
denominator is a monomial c*q**k.

Identities claimed "for symbolic q" may alternatively be certified by exact
evaluation at several random rational points (see :func:`random_q`); all
degree bounds in this package are far below the sample space, so a handful of
agreeing samples is decisive in practice.  Symbolic and evaluated modes share
one code path through :class:`ScalarDomain`.

All values are immutable.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

Rational = Fraction

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


def _padd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = [x + y for x, y in zip(a, b)]
    out.extend(a[len(b):])
    return _ptrim(out)


def _pneg(a: tuple) -> tuple:
    return tuple(-x for x in a)


def _is_monomial(a: tuple) -> bool:
    """True for c*q**k with c != 0."""
    return a.count(0) == len(a) - 1


def _pmul(a: tuple, b: tuple) -> tuple:
    """Product of nonzero integer polynomials (Z is a domain: no trim)."""
    if _is_monomial(a):
        a, b = b, a
    if _is_monomial(b):
        c = b[-1]
        return (0,) * (len(b) - 1) + tuple(c * x for x in a)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return tuple(out)


def _low_coeff(a: tuple) -> int:
    """Lowest-degree nonzero coefficient of a nonzero polynomial."""
    return next(filter(None, a))


def _plow(a: tuple) -> int:
    """Degree of the lowest nonzero term of a nonzero polynomial."""
    return a.index(_low_coeff(a))


def _q_pow_poly(k: int) -> tuple:
    return (0,) * k + (1,)


def _int_div_exact(f: tuple, g: tuple) -> tuple:
    """Exact quotient of integer polynomials (divisibility guaranteed)."""
    dg, lg = len(g) - 1, g[-1]
    if lg == 1 and _is_monomial(g):
        # g = q**dg: a shift
        if any(f[:dg]):
            raise ArithmeticError("inexact integer polynomial division")
        return f[dg:]
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


@lru_cache(maxsize=1 << 16)
def _pgcd_int(a: tuple, b: tuple) -> tuple:
    """Primitive gcd of integer polynomials by primitive remainder sequences.

    Memoized: the same denominator pairs (small q-integer products) recur
    millions of times across matrix entries.
    """
    f = _int_primitive(a)
    g = _int_primitive(b)
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = _int_prem(f, g)
        f, g = g, _int_primitive(r) if r else []
    return tuple(f)


def _pgcd(a: tuple, b: tuple) -> tuple:
    """Primitive gcd of nonzero integer polynomials, up to sign.

    The gcd of f with a monomial c*q**k is q**min(k, low(f)), with no
    remainder sequence and no cache lookup.
    """
    if _is_monomial(b):
        return _q_pow_poly(min(len(b) - 1, _plow(a)))
    if _is_monomial(a):
        return _q_pow_poly(min(len(a) - 1, _plow(b)))
    return _pgcd_int(a, b)


def _pstr(a: tuple, var: str = "q") -> str:
    if not a:
        return "0"
    parts = []
    for d in range(len(a) - 1, -1, -1):
        c = a[d]
        if not c:
            continue
        parts.append(_term_str(c, d, lead=not parts, var=var))
    return "".join(parts)


def _term_str(c: Fraction, e: int, lead: bool, var: str = "q") -> str:
    sign = "-" if c < 0 else ("" if lead else "+")
    if not lead:
        sign = " - " if c < 0 else " + "
    mag = abs(c)
    if e == 0:
        body = str(mag)
    else:
        pw = var if e == 1 else f"{var}^{e}"
        body = pw if mag == 1 else f"{mag}*{pw}"
    return sign + body


# ---------------------------------------------------------------------------
# QScalar: canonical rational function in q
# ---------------------------------------------------------------------------

class FractionView(Sequence):
    """Read-only view of integer coefficients c as the Fractions c/low.

    low is the lowest nonzero coefficient of the integer denominator the
    view belongs to.  The view compares equal to the tuple of those
    Fractions; they are made only when read, so taking a view and its
    ``len`` is cheap.
    """

    __slots__ = ("_coeffs", "_den")

    def __init__(self, coeffs: tuple, den: tuple):
        self._coeffs = coeffs
        self._den = den

    def __len__(self):
        return len(self._coeffs)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self._coeffs[i], _low_coeff(self._den))

    def __eq__(self, other):
        if isinstance(other, (tuple, FractionView)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self):
        return repr(tuple(self))


class QScalar:
    """Rational function in q over the rationals, in unique canonical form.

    Storage is a pair of integer polynomials n/d (coefficient tuples indexed
    by degree) with n and d coprime in Q[q], the coefficients of n and d
    together of gcd 1, and the lowest nonzero coefficient of d positive;
    zero is ``((), (1,))``.  Equal values have equal (n, d), so ``==`` and
    ``hash`` are structural.

    ``num`` and ``den`` are Fraction views (:class:`FractionView`) of the
    same value, scaled so that the lowest-degree coefficient of ``den`` is
    1; a Laurent polynomial has ``den`` a pure power of q.
    ``QScalar(num, den)`` accepts int or Fraction coefficient tuples and
    canonicalizes them.
    """

    __slots__ = ("_n", "_d", "_hash")

    def __init__(self, num, den=(1,)):
        num, den = tuple(num), tuple(den)
        scale = math.lcm(*(Fraction(c).denominator for c in num + den))
        n = _ptrim([int(c * scale) for c in num])
        d = _ptrim([int(c * scale) for c in den])
        if not d:
            raise ZeroDivisionError("zero denominator")
        n, d = _reduced(n, d) if n else ((), (1,))
        self._n = n
        self._d = d
        self._hash = None

    # -- Fraction views -----------------------------------------------------
    @property
    def num(self) -> "FractionView":
        return FractionView(self._n, self._d)

    @property
    def den(self) -> "FractionView":
        return FractionView(self._d, self._d)

    # -- constructors -----------------------------------------------------
    @staticmethod
    def from_rational(r) -> "QScalar":
        if not isinstance(r, (int, Fraction)):
            r = Fraction(r)
        if not r:
            return Q_ZERO
        return _make((r.numerator,), (r.denominator,))

    @staticmethod
    def q_power(k: int) -> "QScalar":
        if k >= 0:
            return _make(_q_pow_poly(k), (1,))
        return _make((1,), _q_pow_poly(-k))

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self._n

    def is_laurent(self) -> bool:
        """True when the denominator is a pure power of q."""
        return _is_monomial(self._d)

    def is_rational(self) -> bool:
        return len(self._d) == 1 and len(self._n) <= 1

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
        return _sum(self, o._n, o._d)

    __radd__ = __add__

    def __neg__(self):
        if not self._n:
            return self
        return _make(_pneg(self._n), self._d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self, _pneg(o._n), o._d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum(o, _pneg(self._n), self._d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._n or not o._n:
            return Q_ZERO
        return _cross_cancelled_product(self._n, self._d, o._n, o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._n:
            raise ZeroDivisionError("division by zero QScalar")
        if not self._n:
            return Q_ZERO
        return _cross_cancelled_product(self._n, self._d, o._d, o._n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        # powers of a canonical pair stay coprime with content 1 (content
        # is multiplicative): no gcd work at all
        if k == 0:
            return Q_ONE
        if not self._n:
            if k < 0:
                raise ZeroDivisionError("zero to a negative power")
            return Q_ZERO
        num, den = self._n, self._d
        if k < 0:
            num, den = den, num
            if _low_coeff(den) < 0:
                num, den = _pneg(num), _pneg(den)
            k = -k
        out_n, out_d = (1,), (1,)
        base_n, base_d = num, den
        while k:
            if k & 1:
                out_n = _pmul(out_n, base_n)
                out_d = _pmul(out_d, base_d)
            k >>= 1
            if k:
                base_n = _pmul(base_n, base_n)
                base_d = _pmul(base_d, base_d)
        return _make(out_n, out_d)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._n == o._n and self._d == o._d

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._n, self._d))
        return self._hash

    def __bool__(self):
        return bool(self._n)

    def __repr__(self):
        try:
            return format_scalar(self)
        except ValueError:
            return f"({_pstr(self.num)})/({_pstr(self.den)})"


_new = object.__new__


def _make(n: tuple, d: tuple) -> QScalar:
    """A QScalar from a pair already in canonical form."""
    s = _new(QScalar)
    s._n = n
    s._d = d
    s._hash = None
    return s


def _content_and_sign(n: tuple, d: tuple) -> tuple:
    """Divide a coprime pair by its joint content; make low(d) positive."""
    g = math.gcd(*n, *d)
    if g != 1:
        n = tuple(c // g for c in n)
        d = tuple(c // g for c in d)
    if _low_coeff(d) < 0:
        n, d = _pneg(n), _pneg(d)
    return n, d


def _cancel(a: tuple, b: tuple, g: tuple) -> tuple:
    """(a/g, b/g) for a common divisor g of a and b."""
    if len(g) > 1:
        return _int_div_exact(a, g), _int_div_exact(b, g)
    return a, b


def _reduced(n: tuple, d: tuple) -> tuple:
    """Canonical pair for n/d (n != 0): cancel the gcd, then content and sign."""
    return _content_and_sign(*_cancel(n, d, _pgcd(n, d)))


def _sum(x: QScalar, n2: tuple, d2: tuple) -> QScalar:
    """x + n2/d2 for a canonical pair (n2, d2)."""
    n1, d1 = x._n, x._d
    if not n1:
        return _make(n2, d2) if n2 else Q_ZERO
    if not n2:
        return x
    if d1 == d2:
        num = _padd(n1, n2)
        return _make(*_reduced(num, d1)) if num else Q_ZERO
    # textbook rational addition: after splitting off the denominator
    # gcd, the only factor the sum can share with the denominator is
    # that gcd itself
    g = _pgcd(d1, d2)
    d1p, d2p = _cancel(d1, d2, g)
    num = _padd(_pmul(n1, d2p), _pmul(n2, d1p))
    if not num:
        return Q_ZERO
    den = _pmul(d1, d2p)
    if len(g) > 1:
        num, den = _cancel(num, den, _pgcd(num, g))
    return _make(*_content_and_sign(num, den))


def _cross_cancelled_product(n1, d1, n2, d2) -> QScalar:
    """(n1/d1)(n2/d2) for coprime pairs, cancelling across before multiplying."""
    n1, d2 = _cancel(n1, d2, _pgcd(n1, d2))
    n2, d1 = _cancel(n2, d1, _pgcd(n2, d1))
    return _make(*_content_and_sign(_pmul(n1, n2), _pmul(d1, d2)))


Q_ZERO = _make((), (1,))
Q_ONE = _make((1,), (1,))
Q = QScalar.q_power(1)


# ---------------------------------------------------------------------------
# q-integers and q-binomials
# ---------------------------------------------------------------------------

def q_int(m: int) -> QScalar:
    """The q-analog (q**m - q**-m)/(q - q**-1); antisymmetric in m."""
    if m == 0:
        return Q_ZERO
    if m < 0:
        return -q_int(-m)
    return _make((1, 0) * (m - 1) + (1,), _q_pow_poly(m - 1))


def q_factorial(m: int) -> QScalar:
    out = Q_ONE
    for i in range(2, m + 1):
        out = out * q_int(i)
    return out


def q_binomial(p: int, k: int) -> QScalar:
    """q-binomial p_q!/(k_q! (p-k)_q!); zero outside 0 <= k <= p."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    if k < 0 or k > p:
        return Q_ZERO
    k = min(k, p - k)
    out = Q_ONE
    for i in range(1, k + 1):
        out = out * q_int(p - k + i) / q_int(i)
    return out


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
    return Fraction(_hom_eval(s._n, a, b, top), den)


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
    if s.is_zero():
        return "0"
    if not s.is_laurent():
        raise ValueError("only Laurent scalars have a canonical text form")
    shift = _plow(s._d)
    num = s.num
    parts = []
    for d in range(len(num) - 1, -1, -1):
        c = num[d]
        if not c:
            continue
        parts.append(_term_str(c, d - shift, lead=not parts))
    return "".join(parts)


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
        return self.q0 ** k

    def q_int(self, m: int):
        if self.symbolic:
            return q_int(m)
        if m == 0:
            return _F0
        return (self.q0 ** m - self.q0 ** (-m)) / (self.q0 - 1 / self.q0)

    def q_factorial(self, m: int):
        out = self.one
        for i in range(2, m + 1):
            out = out * self.q_int(i)
        return out

    def q_binomial(self, p: int, k: int):
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


def random_rationals(rng, count: int, distinct: bool = True,
                     nonzero: bool = True) -> list:
    """Random rational parameter points for identity testing."""
    out = []
    seen = set()
    while len(out) < count:
        v = Fraction(rng.randint(-_PIT_BOUND, _PIT_BOUND), rng.randint(1, _PIT_BOUND))
        if nonzero and v == 0:
            continue
        if distinct and v in seen:
            continue
        seen.add(v)
        out.append(v)
    return out
