"""q-symmetrizers and q-antisymmetrizers on tensor powers.

Both towers come from the factorization over the minimal coset
representatives of S_{m-1} in S_m (Dipper-James 1986; Jimbo 1986):

    x_1 = I,
    x_m = x_{m-1}|_{1..m-1} (I + sum_{j=1}^{m-1} c**j R_{m-1} R_{m-2} .. R_{m-j}),

with c = q for S and c = -1/q for A, so x_m = sum_w c**l(w) R_w and
x_m x_m = gamma_m x_m with gamma_m = q**(+-m(m-1)/2) [m]_q! (plus for S,
minus for A).  The projector is x_m / gamma_m, and one recurrence builds
level m from the normalized level m - 1: c is folded into R once per
level, so y_j = y_{j-1} (c R)_{m-j} makes m - 1 products with a sparse
embedded cR and no scale of a large operator, and the sum is scaled once
by gamma_{m-1}/gamma_m = 1/(q**(+-(m-1)) [m]_q).  Nothing is taken on
faith: the certifier checks each A(m) idempotent with integer trace and
A(p+1) = 0, so a wrong factor fails construction.

Every projector, plain or embedded, is kept in the memo of the symmetry's
certification under ("S" | "A", m) or ("S" | "A", m, start, total).  The
certification seeds the memo with the antisymmetrizers A(1)..A(p+1) that
the symmetry-rank certificate built, so those are never built twice; every
other level is built on first request from the memoized level below.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from .scalars import ScalarDomain
from .tensor import LegOperator, embed_on_legs


def _level_factor(domain: ScalarDomain, m: int, kind: str):
    """gamma_{m-1}/gamma_m = 1/(q**(+-(m-1)) [m]_q)."""
    sign = 1 if kind == "S" else -1
    return domain.q_pow(-sign * (m - 1)) / domain.q_int(m)


def _unnormalized(x_prev: LegOperator, m: int, r: LegOperator,
                  domain: ScalarDomain, kind: str) -> LegOperator:
    """x_{m-1}|_{1..m-1} (I + sum_{j<m} (cR)_{m-1} (cR)_{m-2} .. (cR)_{m-j})."""
    cr = r.scale(domain.q if kind == "S" else -domain.q_pow(-1))
    y = x = embed_on_legs(x_prev, 1, m)
    for j in range(1, m):
        y = y * embed_on_legs(cr, m - j, m)
        x = x + y
    return x


def _next_level(prev: LegOperator, m: int, r: LegOperator,
                domain: ScalarDomain, kind: str) -> LegOperator:
    """The projector on m legs from the projector on m - 1 legs."""
    return _unnormalized(prev, m, r, domain, kind).scale(
        _level_factor(domain, m, kind))


def antisymmetrizer_tower(r: LegOperator, domain: ScalarDomain,
                          max_m: int) -> Iterator[Tuple[int, LegOperator]]:
    x = LegOperator.identity(r.n, 1, domain)
    yield 1, x
    for m in range(2, max_m + 1):
        x = _next_level(x, m, r, domain, "A")
        yield m, x


def _base(h, m: int, kind: str) -> LegOperator:
    def build():
        if m == 1:
            return LegOperator.identity(h.n, 1, h.domain)
        return _next_level(_base(h, m - 1, kind), m, h.r, h.domain, kind)
    return h.memo((kind, m), build)


def _projector(h, m: int, total_legs, start: int, kind: str) -> LegOperator:
    if m < 1:
        raise ValueError("m must be positive")
    base = _base(h, m, kind)
    if total_legs is None or (total_legs == m and start == 1):
        return base
    return h.memo((kind, m, start, total_legs),
                  lambda: embed_on_legs(base, start, total_legs))


def q_symmetrizer(h, m: int, total_legs: int | None = None,
                  start: int = 1) -> LegOperator:
    """S(m) embedded at legs start..start+m-1 of a total_legs space."""
    return _projector(h, m, total_legs, start, "S")


def q_antisymmetrizer(h, m: int, total_legs: int | None = None,
                      start: int = 1) -> LegOperator:
    """A(m) embedded at legs start..start+m-1 of a total_legs space."""
    return _projector(h, m, total_legs, start, "A")
