"""Exact scalar arithmetic: rationals and rational functions in the deformation parameter q.

The ground field is the rationals (stdlib ``fractions.Fraction``).  On top of
it sits :class:`QScalar`, the field of rational functions in one variable q,
stored in a unique canonical form so that equality of values is equality of
representations.  Laurent polynomials in q (the common case: q-integers,
q-binomials, R-matrix entries) are rational functions whose denominator is a
pure power of q.

Identities claimed "for symbolic q" may alternatively be certified by exact
evaluation at several random rational points (see :func:`random_q`); all
degree bounds in this package are far below the sample space, so a handful of
agreeing samples is decisive in practice.  Symbolic and evaluated modes share
one code path through :class:`ScalarDomain`.

All values are immutable and safe to share between threads.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

Rational = Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)


# ---------------------------------------------------------------------------
# dense univariate polynomials over Q, coefficient tuples indexed by degree
# ---------------------------------------------------------------------------

def _ptrim(c: list) -> tuple:
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return tuple(c[:n])


def _padd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _ptrim(out)


def _pneg(a: tuple) -> tuple:
    return tuple(-x for x in a)


def _pmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    # integer convolution with one common denominator per operand: much
    # cheaper than per-coefficient Fraction arithmetic on long polynomials
    ia, da = _int_scaled(a)
    ib, db = _int_scaled(b)
    out = [0] * (len(ia) + len(ib) - 1)
    for i, x in enumerate(ia):
        if x:
            for j, y in enumerate(ib):
                if y:
                    out[i + j] += x * y
    d = da * db
    return _ptrim([Fraction(c, d) for c in out])


def _int_scaled(a: tuple):
    """(integer coefficients, common denominator) for a Fraction tuple."""
    den = 1
    for c in a:
        cd = c.denominator
        if cd != 1:
            den = den * cd // math.gcd(den, cd)
    if den == 1:
        return [c.numerator for c in a], 1
    return [c.numerator * (den // c.denominator) for c in a], den


def _pscale(a: tuple, s: Fraction) -> tuple:
    if not s:
        return ()
    return tuple(x * s for x in a)


def _pshift(a: tuple, k: int) -> tuple:
    """Multiply by q**k (k >= 0)."""
    if not a:
        return ()
    return (_F0,) * k + tuple(a)


def _plow(a: tuple) -> int:
    for i, x in enumerate(a):
        if x:
            return i
    raise ValueError("zero polynomial has no lowest term")


def _pdivmod(a: tuple, b: tuple) -> tuple:
    """Quotient and remainder over the rationals."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [_F0] * max(len(a) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if not c:
            continue
        c = c / lb
        q[i - db] = c
        for j in range(db + 1):
            r[i - db + j] -= c * b[j]
    return _ptrim(q), _ptrim(r)


def _pdiv_exact(a: tuple, b: tuple) -> tuple:
    q, r = _pdivmod(a, b)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


def _int_div_exact(f: list, g: list) -> list:
    """Exact division of integer polynomials (divisibility guaranteed)."""
    if not f:
        return []
    r = list(f)
    dg, lg = len(g) - 1, g[-1]
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
    return q


def _peval(a: tuple, x: Fraction) -> Fraction:
    acc = _F0
    for c in reversed(a):
        acc = acc * x + c
    return acc


# integer-polynomial gcd via primitive pseudo-remainder sequences; this keeps
# coefficient growth under control compared to naive Euclid over Q
def _int_content(a: list) -> int:
    g = 0
    for c in a:
        g = math.gcd(g, abs(c))
        if g == 1:
            break
    return g or 1


def _int_primitive(a: list) -> list:
    g = _int_content(a)
    return [c // g for c in a]


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


def _pgcd_int(f: list, g: list) -> list:
    """Primitive gcd of integer polynomials by primitive remainder sequences."""
    f = _int_primitive(f)
    g = _int_primitive(g)
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = _int_prem(f, g)
        f, g = g, _int_primitive(r) if r else []
    return f


@lru_cache(maxsize=1 << 16)
def _pgcd(a: tuple, b: tuple) -> tuple:
    """Primitive gcd as a Fraction tuple (monic not enforced).

    Memoized: the same denominator pairs (small q-integer products) recur
    millions of times across matrix entries.
    """
    if not a:
        return b
    if not b:
        return a
    f = _pgcd_int(_int_scaled(a)[0], _int_scaled(b)[0])
    return tuple(Fraction(c) for c in f)


@lru_cache(maxsize=1 << 16)
def _pdiv_cached(a: tuple, b: tuple) -> tuple:
    return _pdiv_exact(a, b)


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

class QScalar:
    """Rational function in q over the rationals, in unique canonical form.

    Canonical form: num/den with den and num coprime polynomials and the
    lowest-degree coefficient of den equal to 1.  Laurent polynomials carry a
    denominator that is a pure power of q.  Equal values have equal (num, den)
    tuples, so ``==`` and ``hash`` are structural.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=(_F1,), _canonical=False):
        if not _canonical:
            num, den = _canonicalize(tuple(num), tuple(den))
        self.num = num
        self.den = den
        self._hash = None

    # -- constructors -----------------------------------------------------
    @staticmethod
    def from_rational(r) -> "QScalar":
        r = Fraction(r)
        if not r:
            return Q_ZERO
        return QScalar((r,), (_F1,), _canonical=True)

    @staticmethod
    def q_power(k: int) -> "QScalar":
        if k >= 0:
            return QScalar(_pshift((_F1,), k), (_F1,), _canonical=True)
        return QScalar((_F1,), _pshift((_F1,), -k), _canonical=True)

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.num

    def is_laurent(self) -> bool:
        """True when the denominator is a pure power of q."""
        return sum(1 for c in self.den if c) == 1

    def is_rational(self) -> bool:
        return len(self.den) == 1 and len(self.num) <= 1

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a constant: {self}")
        return self.num[0] if self.num else _F0

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
        if not self.num:
            return o
        if not o.num:
            return self
        if self.den == o.den:
            num = _padd(self.num, o.num)
            if not num:
                return Q_ZERO
            return _reduced_against(num, self.den)
        # textbook rational addition: after splitting off the denominator
        # gcd, the only factor the sum can share with the denominator is
        # that gcd itself
        g = _pgcd(self.den, o.den)
        if len(g) > 1:
            d1p = _pdiv_exact(self.den, g)
            d2p = _pdiv_exact(o.den, g)
        else:
            d1p, d2p = self.den, o.den
        num = _padd(_pmul(self.num, d2p), _pmul(o.num, d1p))
        if not num:
            return Q_ZERO
        den = _pmul(self.den, d2p)
        if len(g) > 1:
            g2 = _pgcd(num, g)
            if len(g2) > 1:
                num = _pdiv_exact(num, g2)
                den = _pdiv_exact(den, g2)
        return QScalar(*_normalize_reduced(num, den), _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        if not self.num:
            return self
        return QScalar(_pneg(self.num), self.den, _canonical=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num or not o.num:
            return Q_ZERO
        return _cross_cancelled_product(self.num, self.den, o.num, o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by zero QScalar")
        if not self.num:
            return Q_ZERO
        return _cross_cancelled_product(self.num, self.den, o.den, o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        # powers of a reduced fraction stay reduced: no gcd work at all
        if k == 0:
            return Q_ONE
        if not self.num:
            if k < 0:
                raise ZeroDivisionError("zero to a negative power")
            return Q_ZERO
        num, den = self.num, self.den
        if k < 0:
            num, den = den, num
            num, den = _normalize_reduced(num, den)
            k = -k
        out_n, out_d = (_F1,), (_F1,)
        base_n, base_d = num, den
        while k:
            if k & 1:
                out_n = _pmul(out_n, base_n)
                out_d = _pmul(out_d, base_d)
            k >>= 1
            if k:
                base_n = _pmul(base_n, base_n)
                base_d = _pmul(base_d, base_d)
        return QScalar(out_n, out_d, _canonical=True)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        try:
            return format_scalar(self)
        except ValueError:
            return f"({_pstr(self.num)})/({_pstr(self.den)})"


def _normalize_reduced(num: tuple, den: tuple) -> tuple:
    """Scale an already-coprime pair so the denominator's low coefficient is 1."""
    low = den[_plow(den)]
    if low != 1:
        inv = _F1 / low
        num = _pscale(num, inv)
        den = _pscale(den, inv)
    return num, den


def _reduced_against(num: tuple, den: tuple) -> "QScalar":
    g = _pgcd(num, den)
    if len(g) > 1:
        num = _pdiv_exact(num, g)
        den = _pdiv_exact(den, g)
    return QScalar(*_normalize_reduced(num, den), _canonical=True)


def _cross_cancelled_product(n1, d1, n2, d2) -> "QScalar":
    """(n1/d1)(n2/d2) for coprime pairs, cancelling across before multiplying."""
    g1 = _pgcd(n1, d2)
    if len(g1) > 1:
        n1 = _pdiv_exact(n1, g1)
        d2 = _pdiv_exact(d2, g1)
    g2 = _pgcd(n2, d1)
    if len(g2) > 1:
        n2 = _pdiv_exact(n2, g2)
        d1 = _pdiv_exact(d1, g2)
    return QScalar(*_normalize_reduced(_pmul(n1, n2), _pmul(d1, d2)),
                   _canonical=True)


def _canonicalize(num: tuple, den: tuple) -> tuple:
    num = _ptrim(list(num))
    den = _ptrim(list(den))
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return (), (_F1,)
    # integer pipeline: scale both to Z[q], cancel the primitive gcd there
    # (Gauss: quotients stay integral), then normalize the denominator's
    # lowest coefficient to one
    n_int, n_den = _int_scaled(num)
    d_int, d_den = _int_scaled(den)
    g = _pgcd_int(n_int, d_int)
    if len(g) > 1:
        n_int = _int_div_exact(n_int, g)
        d_int = _int_div_exact(d_int, g)
    low_idx = 0
    while d_int[low_idx] == 0:
        low_idx += 1
    low = d_int[low_idx]
    num_scale = Fraction(d_den, n_den * low)
    den_out = tuple(Fraction(c, low) for c in d_int)
    num_out = tuple(Fraction(c) * num_scale for c in n_int)
    return _ptrim(list(num_out)), _ptrim(list(den_out))


Q_ZERO = QScalar((), (_F1,), _canonical=True)
Q_ONE = QScalar((_F1,), (_F1,), _canonical=True)
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
    num = [_F0] * (2 * m - 1)
    for i in range(m):
        num[2 * i] = _F1
    return QScalar(tuple(num), _pshift((_F1,), m - 1), _canonical=True)


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
    den = _peval(s.den, q0)
    if den == 0:
        raise QEvalError(
            f"denominator {_pstr(s.den)} vanishes at q = {q0}")
    return _peval(s.num, q0) / den


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
    shift = _plow(s.den)
    parts = []
    for d in range(len(s.num) - 1, -1, -1):
        c = s.num[d]
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
