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

Each level is kept in the memo of the symmetry's certification under
("S" | "A", m) and built on first request from the memoized level below.
The certifier walks the same memo up to the collapse, so A(1)..A(p+1) are
never built twice.  An embedded projector is a copy of its level placed
between identities (no arithmetic) and is not kept.
"""

from __future__ import annotations

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


def _level(memo: dict, r: LegOperator, domain: ScalarDomain, kind: str,
           m: int) -> LegOperator:
    """The projector on m legs, kept in memo under (kind, m); an absent
    level is built from the level below, and only a built level is stored."""
    if (kind, m) not in memo:
        if m == 1:
            x = LegOperator.identity(r.n, 1, domain)
        else:
            x = _unnormalized(_level(memo, r, domain, kind, m - 1), m, r,
                              domain, kind).scale(_level_factor(domain, m, kind))
        memo[kind, m] = x
    return memo[kind, m]


def _projector(h, m: int, total_legs, start: int, kind: str) -> LegOperator:
    if m < 1:
        raise ValueError("m must be positive")
    base = _level(h._memo, h.r, h.domain, kind, m)
    if total_legs is None or (total_legs == m and start == 1):
        return base
    return embed_on_legs(base, start, total_legs)


def q_symmetrizer(h, m: int, total_legs: int | None = None,
                  start: int = 1) -> LegOperator:
    """S(m) embedded at legs start..start+m-1 of a total_legs space."""
    return _projector(h, m, total_legs, start, "S")


def q_antisymmetrizer(h, m: int, total_legs: int | None = None,
                      start: int = 1) -> LegOperator:
    """A(m) embedded at legs start..start+m-1 of a total_legs space."""
    return _projector(h, m, total_legs, start, "A")
