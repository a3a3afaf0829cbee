"""Hecke symmetries: construction, validation, skew inverse, rank.

A Hecke symmetry is a Yang-Baxter operator R on V (x) V whose minimal
polynomial is (R - q)(R + 1/q), together with the derived data that makes the
whole machine run: the skew inverse Psi, the weight endomorphisms B and C,
and the symmetry rank p (the height at which the q-antisymmetrizer tower
collapses to a rank-one projector and then to zero).

Conventions frozen here once and used everywhere downstream:

* R is any square Mat on n**2 dimensions, n = dim V read off its shape;
  its entry at row (k, l), column (i, j) is the structure constant
  multiplying x_k (x) x_l in the image of x_i (x) x_j; the same array serves
  as the two-leg left automorphism, so the Hecke inverse is the closed form
  R - (q - 1/q) I;
* B and C are stored as operators (row = output index): B = partial trace of
  Psi over leg 1, C = partial trace of Psi over leg 2, and the quantum trace
  of an operator matrix X is trace(C X).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from types import MappingProxyType
from typing import Mapping, Optional

from .scalars import (ScalarDomain, SYMBOLIC, as_integer, format_scalar,
                      parse_scalar)
from .projectors import HeckeError, _level
from .tensor import LegOperator, Mat, embed_on_legs, inverse, weighted_partial_trace


class RFileError(ValueError):
    """Malformed R-matrix file."""


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def standard_r(n: int, domain: ScalarDomain = SYMBOLIC) -> Mat:
    """The Drinfeld-Jimbo Hecke symmetry of rank n on an n-dimensional space.

    Entries: q on (i,i;i,i), 1 on the transpositions (j,i;i,j) for i != j,
    and q - 1/q on the diagonal family (i,j;i,j) with i < j.  The orientation
    of the triangular family is the one the validation oracle accepts with
    the fundamental representation at unit mass parameter.
    """
    if n < 1:
        raise HeckeError("n must be positive")
    q = domain.q
    zeta = domain.zeta
    entries = []
    for i in range(n):
        entries.append((i * n + i, i * n + i, q))
        for j in range(n):
            if i != j:
                entries.append((j * n + i, i * n + j, domain.one))
            if i < j:
                entries.append((i * n + j, i * n + j, zeta))
    return Mat.from_entries(n * n, n * n, domain.zero, entries)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    """One entry per Hecke axiom; details holds the traces of B and C and the
    reason for each failed entry.  The report holds no operators and is
    read-only (details is a read-only view): one report is shared by every
    caller that certifies the same R at the same q."""
    ybe: bool
    hecke: bool
    skew_invertible: bool
    even: bool
    rank: Optional[int]
    bc_product: bool
    bc_trace: bool
    details: Mapping = field(hash=False)

    def __post_init__(self):
        object.__setattr__(self, "details", MappingProxyType(dict(self.details)))

    @property
    def passed(self) -> bool:
        return (self.ybe and self.hecke and self.skew_invertible and self.even
                and self.bc_product and self.bc_trace)

    def first_failure(self) -> Optional[str]:
        """The first failed axiom in certification order, or None."""
        d = self.details
        for ok, reason in ((self.ybe, d.get("ybe_error")),
                           (self.hecke, d.get("hecke_error")),
                           (self.skew_invertible, d.get("skew_error")),
                           (self.even, d.get("rank_error", d.get("rank_outcome"))),
                           (self.bc_product, d.get("bc_product_error")),
                           (self.bc_trace, d.get("bc_trace_error"))):
            if not ok:
                return reason
        return None


def _dim_v(r: Mat) -> int:
    """n = dim V for R on V (x) V, read off its n**2 x n**2 shape; any other
    shape is a HeckeError."""
    n = isqrt(r.nrows)
    if n < 1 or n * n != r.nrows or r.ncols != r.nrows:
        raise HeckeError(f"R is {r.nrows}x{r.ncols}, not n**2 x n**2")
    return n


def check_ybe(r: Mat) -> bool:
    n = _dim_v(r)
    r12, r23 = r.embed(1, n), r.embed(n, 1)
    return (r12 * r23 * r12) == (r23 * r12 * r23)


def check_hecke(r: Mat, domain: ScalarDomain) -> bool:
    dim = _dim_v(r) ** 2
    lhs = ((r - Mat.identity(dim, domain.zero, domain.q))
           * (r + Mat.identity(dim, domain.zero, domain.q_pow(-1))))
    return lhs.is_zero()


def skew_inverse_bc(r: Mat, domain: ScalarDomain):
    """Solve for the skew inverse Psi and the weights B, C.

    The defining contraction says that the second-factor transpose of Psi
    inverts the second-factor transpose of R, so Psi is obtained by one exact
    n**2 x n**2 inversion after reindexing.  The independent second identity
    (tracing Psi against R on the other side) is asserted, not assumed.
    """
    n = _dim_v(r)
    dim = n * n
    # row (i,j), col (a,b) holds the entry with output (j,b) and input (i,a)
    a = []
    for jb, ia, v in r.entries():
        (j, b), (i, aa) = divmod(jb, n), divmod(ia, n)
        a.append((i * n + j, aa * n + b, v))
    try:
        ainv = inverse(Mat.from_entries(dim, dim, domain.zero, a))
    except ValueError as exc:
        raise HeckeError("not skew-invertible") from exc
    psi_entries = []
    for ab, sk, v in ainv.entries():
        (aa, b), (s, k) = divmod(ab, n), divmod(sk, n)
        psi_entries.append((aa * n + s, b * n + k, v))
    psi = Mat.from_entries(dim, dim, domain.zero, psi_entries)

    ident_w = Mat.identity(n, domain.zero, domain.one)
    flip = Mat.from_entries(dim, dim, domain.zero, (
        (k, (k % n) * n + k // n, domain.one) for k in range(dim)))
    first = weighted_partial_trace(r.embed(1, n) * psi.embed(n, 1), {2},
                                   ident_w, (n,) * 3)
    if not (first == flip):
        raise HeckeError("skew inverse failed the defining contraction")
    second = weighted_partial_trace(psi.embed(1, n) * r.embed(n, 1), {2},
                                    ident_w, (n,) * 3)
    if not (second == flip):
        raise HeckeError("skew inverse failed the second contraction")

    b = weighted_partial_trace(psi, {1}, ident_w, (n, n))
    c = weighted_partial_trace(psi, {2}, ident_w, (n, n))
    return psi, b, c


def _certified_rank(r: LegOperator, domain: ScalarDomain,
                    memo: dict) -> Optional[int]:
    """p from one pass up the nested antisymmetrizer levels kept in memo.

    Every level is certified idempotent when it is built, and every level
    below the collapse has an integer trace; p is None when the levels do
    not collapse right after a rank-one level within n + 2 legs.  Ranks are
    traces of certified idempotents, exact in characteristic zero.
    """
    prev_rank = None
    for m in range(1, r.n + 3):
        trace, basis, _ = _level(memo, r, domain, "A", m)
        if not basis.ncols:             # p_m = b_m l_m = 0
            return m - 1 if prev_rank == 1 else None
        prev_rank = as_integer(trace)
        if prev_rank is None:
            raise HeckeError(f"projector trace at height {m} is not an integer")
    return None


def _certify(r: LegOperator, domain: ScalarDomain):
    """(report, (Psi, B, C) or None, memo): every axiom, checked once.

    The antisymmetrizer levels go into the memo only for a Yang-Baxter
    Hecke operator (the absorption they rest on needs both); the B C
    normalization is checked only when the skew inverse and rank exist.
    """
    ybe = check_ybe(r)
    hecke = check_hecke(r, domain)
    details: dict = {}
    if not ybe:
        details["ybe_error"] = "Yang-Baxter equation fails"
    if not hecke:
        details["hecke_error"] = "Hecke condition fails"
    weights = None
    try:
        weights = skew_inverse_bc(r, domain)
        details["trace_b"] = weights[1].trace()
        details["trace_c"] = weights[2].trace()
    except HeckeError as exc:
        details["skew_error"] = str(exc)
    p, memo = None, {}
    if ybe and hecke:
        try:
            p = _certified_rank(r, domain, memo)
        except HeckeError as exc:
            details["rank_error"] = str(exc)
        if p is None:
            details["rank_outcome"] = (
                f"no collapse after a rank-one level within {r.n + 2} legs")
    bc_product = bc_trace = False
    if weights is None or p is None:
        details["bc_product_error"] = details["bc_trace_error"] = (
            "not checked: needs the skew inverse and the symmetry rank")
    else:
        bc_product = (weights[1] * weights[2]
                      == Mat.identity(r.n, domain.zero, domain.q_pow(-2 * p)))
        if not bc_product:
            details["bc_product_error"] = "B C != q**(-2p) I"
        expect = domain.q_int(p) * domain.q_pow(-p)
        bc_trace = details["trace_b"] == expect == details["trace_c"]
        if not bc_trace:
            details["bc_trace_error"] = "trace of B or C is not p_q / q**p"
    report = ValidationReport(ybe=ybe, hecke=hecke,
                              skew_invertible=weights is not None,
                              even=p is not None, rank=p, bc_product=bc_product,
                              bc_trace=bc_trace, details=details)
    return report, weights, memo


# An `all` run certifies 6 symmetries at its default 3 q samples (ranks 2
# and 3); the table keeps the most recently used certifications up to this
# bound.
_CERTIFICATES = 32


class _Content(tuple):
    """The exact content of (R, q) as a key: q (None when symbolic), n, the
    common denominator and every stored (row, column, numerator).  It
    carries R, tagged as an operator on two legs, and the domain to the
    certifier; a shape that is not n**2 x n**2 is a HeckeError."""

    def __new__(cls, r: Mat, domain: ScalarDomain):
        n = _dim_v(r)
        key = super().__new__(cls, (
            domain.q0, n, r.den,
            tuple((i, j, v) for i, row in enumerate(r.data)
                  for j, v in row.items())))
        key.r, key.domain = LegOperator(n, 2, r), domain
        return key


@lru_cache(maxsize=_CERTIFICATES)
def _certified(content: _Content):
    """:func:`_certify` at most once per exact (R, q) in a process; the memo
    it returns already holds the certified levels.  An exception is never
    stored.  ``_certified.cache_clear()`` empties the table, memos included."""
    return _certify(content.r, content.domain)


def validate_hecke_symmetry(r: Mat,
                            domain: ScalarDomain) -> ValidationReport:
    """Independent axiom checks; failures are report entries, not faults.

    The report is the certification of this exact (R, q), shared with
    :class:`HeckeSymmetry`: the certifier runs only if neither certified
    the same content before in this process."""
    return _certified(_Content(r, domain))[0]


# ---------------------------------------------------------------------------
# the validated bundle
# ---------------------------------------------------------------------------

class HeckeSymmetry:
    """Validated bundle (n, R, Psi, B, C, p) with the memo of derived objects.

    Construction reads the certification :func:`validate_hecke_symmetry`
    reads (Yang-Baxter equation, Hecke condition, both skew-inverse
    contractions, the antisymmetrizer collapse at rank p, B C = q**(-2p) I
    and trace B = trace C = p_q / q**p), certifying R only if this exact
    (R, q) was not certified before in the process, and raises HeckeError
    naming the first failed axiom.  The bundle is immutable.  Everything
    derived from it (projectors, charts, modules, trace weights, Casimir
    pairings) lives in its certification's memo, which holds the certified
    levels of A(1)..A(p+1) and is shared by every symmetry of the same (R, q).
    """

    def __init__(self, r: Mat, domain: ScalarDomain = SYMBOLIC):
        content = _Content(r, domain)
        report, weights, self._memo = _certified(content)
        if not report.passed:
            raise HeckeError(report.first_failure())
        self.r = content.r
        n = self.n = self.r.n
        self.domain = domain
        self.psi, self.b, self.c = weights
        self.p = report.rank
        # R**-1 = R - (q - 1/q) I, forced by the Hecke condition
        self.r_inv = LegOperator(n, 2, r - Mat.identity(n * n, domain.zero,
                                                        domain.zeta))

    def memo(self, key, build):
        """The derived object stored under key; build() makes it on first
        request.  Only a returned value is stored, never an exception."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @property
    def q(self):
        return self.domain.q

    def identity(self, m: int) -> Mat:
        return Mat.identity(self.n ** m, self.domain.zero, self.domain.one)

    def r_on(self, i: int, total: int) -> LegOperator:
        """R acting on legs (i, i+1) of a total-leg space."""
        return embed_on_legs(self.r, i, total)

    def __repr__(self):
        return f"HeckeSymmetry(n={self.n}, p={self.p}, q={self.domain.describe()})"


def standard_hecke(n: int, domain: ScalarDomain = SYMBOLIC) -> HeckeSymmetry:
    return HeckeSymmetry(standard_r(n, domain), domain)


# ---------------------------------------------------------------------------
# R-matrix files
# ---------------------------------------------------------------------------

def read_r_file(path) -> tuple:
    """(n, [(row, column, symbolic value)]) of an R-matrix file, every field
    checked and no matrix built, so its cost does not grow with n.

    Format: {"n": int, "parameter": "q", "entries": [{"out": [k, l],
    "in": [i, j], "value": "<scalar>"}, ...]} with 1-based indices; absent
    entries are zero.  The entry multiplies x_k (x) x_l in the image of
    x_i (x) x_j.  :func:`build_r` makes the R-matrix over a domain.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise RFileError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}") from exc
    if not isinstance(data, dict) or "n" not in data:
        raise RFileError(f"{path}: missing required field 'n'")
    n = data["n"]
    if type(n) is not int or n < 1:     # a JSON boolean is a bool, not an int
        raise RFileError(f"{path}: field 'n' must be a positive integer")
    if data.get("parameter", "q") != "q":
        raise RFileError(f"{path}: unsupported parameter {data.get('parameter')!r}")
    raw = data.get("entries", [])
    if not isinstance(raw, list):
        raise RFileError(f"{path}: field 'entries' must be a list")
    entries = []
    seen = set()
    for idx, entry in enumerate(raw):
        try:
            k, l = entry["out"]
            i, j = entry["in"]
            value = entry["value"]
        except (KeyError, TypeError, ValueError) as exc:
            raise RFileError(f"{path}: malformed entry #{idx}: {entry!r}") from exc
        if not isinstance(value, str):
            raise RFileError(f"{path}: entry #{idx}: value {value!r} "
                             f"is not a string")
        for name, v in (("out", k), ("out", l), ("in", i), ("in", j)):
            if type(v) is not int or not 1 <= v <= n:
                raise RFileError(f"{path}: entry #{idx}: {name} index "
                                 f"{json.dumps(v)} outside 1..{n}")
        key = (k, l, i, j)
        if key in seen:
            raise RFileError(f"{path}: duplicate entry for out={k},{l} in={i},{j}")
        seen.add(key)
        try:
            scal = parse_scalar(value)
        except ValueError as exc:
            raise RFileError(f"{path}: entry #{idx}: {exc}") from exc
        entries.append(((k - 1) * n + (l - 1), (i - 1) * n + (j - 1), scal))
    return n, entries


def build_r(n: int, entries, domain: ScalarDomain) -> Mat:
    """The R-matrix of :func:`read_r_file`'s (n, entries) over the domain."""
    return Mat.from_entries(n * n, n * n, domain.zero,
                            ((out, inp, domain.lift(v)) for out, inp, v in entries))


def save_r_to_file(path, r: Mat) -> None:
    """Write an R-matrix in canonical form (sorted entries, canonical scalars)."""
    n = _dim_v(r)
    entries = []
    for out, inp, v in r.entries():
        (ko, lo), (ki, li) = divmod(out, n), divmod(inp, n)
        text = str(v) if isinstance(v, Fraction) else format_scalar(v)
        entries.append({
            "out": [ko + 1, lo + 1],
            "in": [ki + 1, li + 1],
            "value": text,
        })
    payload = {"n": n, "parameter": "q", "entries": entries}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
