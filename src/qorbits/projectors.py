"""q-symmetrizers and q-antisymmetrizers on tensor powers.

Both towers come from the factorization over the minimal coset
representatives of S_{m-1} in S_m (Dipper-James 1986; Jimbo 1986):

    x_1 = I,
    x_m = x_{m-1}|_{1..m-1} (I + sum_{j=1}^{m-1} c**j R_{m-1} R_{m-2} .. R_{m-j}),

with c = q for S and c = -1/q for A, so x_m = sum_w c**l(w) R_w.  Keeping
y_j = y_{j-1} R_{m-j} makes a level m - 1 products with a sparse embedded R
and no division.  x_m x_m = gamma_m x_m with gamma_m = q**(+-m(m-1)/2) [m]_q!
(plus for S, minus for A), and the projector is x_m scaled once by
1/gamma_m, taken from that formula.  Nothing is taken on faith: the
certifier checks each A(m) idempotent with integer trace and A(p+1) = 0, so
a wrong gamma_m fails construction.

Every projector, plain or embedded, is kept in the memo of the symmetry's
certification under ("S" | "A", m) or ("S" | "A", m, start, total).  The
certification seeds the memo with the antisymmetrizers A(1)..A(p+1) that
the symmetry-rank certificate built, so those are never built twice; every
other level is built on first request from the memoized level below,
rescaled by its gamma to x_{m-1}.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from .scalars import ScalarDomain
from .tensor import LegOperator, embed_on_legs


def _gamma(domain: ScalarDomain, m: int, kind: str):
    """gamma_m = q**(+-m(m-1)/2) [m]_q!, so that x_m x_m = gamma_m x_m."""
    sign = 1 if kind == "S" else -1
    return domain.q_pow(sign * m * (m - 1) // 2) * domain.q_factorial(m)


def _unnormalized(x_prev: LegOperator, m: int, r: LegOperator,
                  domain: ScalarDomain, kind: str) -> LegOperator:
    """x_m = x_{m-1} (I + sum_{j<m} c**j R_{m-1} R_{m-2} .. R_{m-j})."""
    c = domain.q if kind == "S" else -domain.q_pow(-1)
    y = x = embed_on_legs(x_prev, 1, m)
    for j in range(1, m):
        y = y * embed_on_legs(r, m - j, m)
        x = x + y.scale(c ** j)
    return x


def antisymmetrizer_tower(r: LegOperator, domain: ScalarDomain,
                          max_m: int) -> Iterator[Tuple[int, LegOperator]]:
    x = LegOperator.identity(r.n, 1, domain)
    yield 1, x
    for m in range(2, max_m + 1):
        x = _unnormalized(x, m, r, domain, "A")
        yield m, x.scale(domain.one / _gamma(domain, m, "A"))


def _base(h, m: int, kind: str) -> LegOperator:
    def build():
        dom = h.domain
        if m == 1:
            return LegOperator.identity(h.n, 1, dom)
        x_prev = _base(h, m - 1, kind).scale(_gamma(dom, m - 1, kind))
        x = _unnormalized(x_prev, m, h.r, dom, kind)
        return x.scale(dom.one / _gamma(dom, m, kind))
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
