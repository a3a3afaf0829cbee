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

Every projector, plain or embedded, is kept in the owning symmetry's memo
under ("S" | "A", m) or ("S" | "A", m, start, total).  Construction seeds
the memo with the antisymmetrizers A(1)..A(p+1) that the symmetry-rank
certificate built (each idempotent with integer trace, A(p+1) = 0), so
those are never built twice; everything else is built on first request.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from .scalars import ScalarDomain
from .tensor import LegOperator, embed_on_legs


def _tower_step(prev: LegOperator, m: int, r: LegOperator,
                domain: ScalarDomain, kind: str) -> LegOperator:
    """One recursion step on m legs; kind "S" or "A" names the tower."""
    outer = embed_on_legs(prev, 2, m)
    r12 = embed_on_legs(r, 1, m)
    ident = LegOperator.identity(r.n, m, domain)
    if kind == "S":
        middle = ident.scale(domain.q_pow(1 - m)) + r12.scale(domain.q_int(m - 1))
    else:
        middle = ident.scale(domain.q_pow(m - 1)) - r12.scale(domain.q_int(m - 1))
    return (outer * middle * outer).scale(domain.one / domain.q_int(m))


def antisymmetrizer_tower(r: LegOperator, domain: ScalarDomain,
                          max_m: int) -> Iterator[Tuple[int, LegOperator]]:
    cur = LegOperator.identity(r.n, 1, domain)
    yield 1, cur
    for m in range(2, max_m + 1):
        cur = _tower_step(cur, m, r, domain, "A")
        yield m, cur


def _base(h, m: int, kind: str) -> LegOperator:
    def build():
        if m == 1:
            return LegOperator.identity(h.n, 1, h.domain)
        return _tower_step(_base(h, m - 1, kind), m, h.r, h.domain, kind)
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
