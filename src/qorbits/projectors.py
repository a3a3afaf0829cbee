"""q-symmetrizers and q-antisymmetrizers on tensor powers.

The symmetrizer tower follows the two-sided recursion

    S(1) = I,
    S(m) on legs 1..m = (1/m_q) S(m-1)|_{2..m} (q**(1-m) I + (m-1)_q R_12)
                                    S(m-1)|_{2..m},

and the antisymmetrizer is its mirror under q -> -1/q,

    A(1) = I,  A(2) = (q I - R)/2_q,
    A(m) = (1/m_q) A(m-1)|_{2..m} (q**(m-1) I - (m-1)_q R_12) A(m-1)|_{2..m}.

The higher antisymmetrizer recursion is certified after the fact by the
projector, absorption and rank invariants (rank = trace for an exact
idempotent); those properties characterise it inside the Hecke-algebra
image, so nothing is taken on faith from the recursion itself.

Projectors are cached per (m, start, total) on the owning HeckeSymmetry.
Construction fills the cache with the antisymmetrizers A(1)..A(p+1) that
the symmetry-rank certificate built (each idempotent with integer trace,
A(p+1) = 0), so those are never built twice; everything else is built on
first request.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from .scalars import ScalarDomain
from .tensor import LegOperator, embed_on_legs


def _tower_step(prev: LegOperator, m: int, r: LegOperator,
                domain: ScalarDomain, sign: int) -> LegOperator:
    """One recursion step on m legs; sign +1 builds S, -1 builds A."""
    outer = embed_on_legs(prev, 2, m)
    r12 = embed_on_legs(r, 1, m)
    ident = LegOperator.identity(r.n, m, domain)
    if sign > 0:
        middle = ident.scale(domain.q_pow(1 - m)) + r12.scale(domain.q_int(m - 1))
    else:
        middle = ident.scale(domain.q_pow(m - 1)) - r12.scale(domain.q_int(m - 1))
    return (outer * middle * outer).scale(domain.one / domain.q_int(m))


def antisymmetrizer_tower(r: LegOperator, domain: ScalarDomain,
                          max_m: int) -> Iterator[Tuple[int, LegOperator]]:
    cur = LegOperator.identity(r.n, 1, domain)
    yield 1, cur
    for m in range(2, max_m + 1):
        cur = _tower_step(cur, m, r, domain, -1)
        yield m, cur


def _cached_base(h, m: int, sign: int) -> LegOperator:
    key = ("S" if sign > 0 else "A", m)
    op = h._proj_cache.get(key)
    if op is None:
        if m == 1:
            op = LegOperator.identity(h.n, 1, h.domain)
        else:
            op = _tower_step(_cached_base(h, m - 1, sign), m, h.r, h.domain, sign)
        h._proj_cache[key] = op
    return op


def _projector(h, m: int, total_legs, start: int, sign: int) -> LegOperator:
    if m < 1:
        raise ValueError("m must be positive")
    base = _cached_base(h, m, sign)
    if total_legs is None or (total_legs == m and start == 1):
        return base
    key = ("S" if sign > 0 else "A", m, start, total_legs)
    op = h._proj_cache.get(key)
    if op is None:
        op = h._proj_cache[key] = embed_on_legs(base, start, total_legs)
    return op


def q_symmetrizer(h, m: int, total_legs: int | None = None,
                  start: int = 1) -> LegOperator:
    """S(m) embedded at legs start..start+m-1 of a total_legs space."""
    return _projector(h, m, total_legs, start, +1)


def q_antisymmetrizer(h, m: int, total_legs: int | None = None,
                      start: int = 1) -> LegOperator:
    """A(m) embedded at legs start..start+m-1 of a total_legs space."""
    return _projector(h, m, total_legs, start, -1)
