"""q-symmetrizers and q-antisymmetrizers, each level built in the chart of
the level below.

Write P(m) for S(m) or A(m), c for q (S) or -1/q (A), and d_m for the rank
of P(m).  The coset factorization (Dipper-James 1986; Jimbo 1986) gives
P(m) = x_m / gamma_m with x_m = x_{m-1} (I + sum_j c**j R_{m-1} .. R_{m-j})
and gamma_m = q**(+-m(m-1)/2) [m]_q!.  The Yang-Baxter equation and the
Hecke condition give absorption, R_i P(m-1) = P(m-1) R_i = c P(m-1) for
i < m - 1, which collapses the coset sum to

    P(m) = (gamma_{m-1}/gamma_m) P(m-1) (I + c_m R_{m-1}) P(m-1),

c_m = q**(m-1) [m-1]_q (S) or -q**(1-m) [m-1]_q (A).  With the chart
P(m-1) = B_{m-1} L_{m-1}, L_{m-1} B_{m-1} = I, this is P(m) =
(B_{m-1} (x) I) p_m (L_{m-1} (x) I) for the level on d_{m-1} n dimensions

    p_m = (gamma_{m-1}/gamma_m) (I + c_m rho_m),
    rho_m = (l_{m-1} (x) I) (I_{d_{m-2}} (x) R) (b_{m-1} (x) I).

One reduction of p_m gives its chart: b_m is its pivot columns and l_m the
nonzero rows of its reduced form, so p_m = b_m l_m, and the chart on m legs
is B_m = (B_{m-1} (x) I) b_m, L_m = l_m (L_{m-1} (x) I).  Given
l_{m-1} b_{m-1} = I, p_m**2 = p_m holds if and only if P(m)**2 = P(m),
tr p_m = tr P(m), and p_m = 0 if and only if P(m) = 0 (so p_{p+1} = 0 if
and only if A(p+1) = 0).  Every level checks p_m = b_m l_m and l_m b_m = I,
hence p_m**2 = p_m, when built, so a wrong factor fails construction; the
certifier, which checks the Yang-Baxter equation and the Hecke condition
first, reads the integer traces and the collapse off the levels.

Level m is kept in the memo of the symmetry's certification under
("S" | "A", m), and modules and trace weights read it alone (:mod:`reps`);
the chart on m legs and P(m) = B_m L_m, built on request, under
(kind, m, "chart") and (kind, m, "projector").  P(m) is a LegOperator,
a Mat tagged with its m legs; its products and sums are plain Mats.  A
projector on more legs is embed_on_legs of P(m), built by the caller and
not kept.  The levels and charts are plain Mats on level dimensions.
"""

from __future__ import annotations

from .scalars import ScalarDomain
# unused here; perfbench/selftest.py checks the tracer rebinds it in this module
from .tensor import LegOperator, Mat, embed_on_legs, row_reduce  # noqa: F401


class HeckeError(ValueError):
    """R fails a certificate of a Hecke symmetry (see :mod:`hecke`)."""


def _level_factor(domain: ScalarDomain, m: int, kind: str):
    """gamma_{m-1}/gamma_m = 1/(q**(+-(m-1)) [m]_q)."""
    sign = 1 if kind == "S" else -1
    return domain.q_pow(-sign * (m - 1)) / domain.q_int(m)


def _level(memo: dict, r: LegOperator, domain: ScalarDomain, kind: str,
           m: int) -> tuple:
    """(tr p_m, b_m, l_m), kept in memo under (kind, m); an absent level is
    built from the level below and certified, and only then stored."""
    n = r.n
    if m == 1:
        ident = Mat.identity(n, domain.zero, domain.one)
        memo.setdefault((kind, 1), (ident.trace(), ident, ident))
    if (kind, m) not in memo:
        _, b, l = _level(memo, r, domain, kind, m - 1)
        rho = r if m == 2 else (l.embed(1, n) * r.embed(
            b.nrows // n, 1) * b.embed(1, n))    # l_1 = b_1 = I at m = 2
        f = _level_factor(domain, m, kind)
        c = domain.q_pow(m - 1) if kind == "S" else -domain.q_pow(1 - m)
        op = (Mat.identity(rho.nrows, domain.zero, f)
              + rho.scale(c * domain.q_int(m - 1) * f))
        cols, left_inverse = row_reduce(op)
        basis = op.transpose().take_rows(cols).transpose()
        if not (op == basis * left_inverse and left_inverse * basis
                == Mat.identity(len(cols), domain.zero, domain.one)):
            name = "symmetrizer" if kind == "S" else "antisymmetrizer"
            raise HeckeError(f"{name} at height {m} is not idempotent")
        memo[kind, m] = op.trace(), basis, left_inverse
    return memo[kind, m]


def _chart(h, kind: str, m: int) -> tuple:
    """(B_m, L_m), the chart of the image of P(m) on m legs.  Past the
    collapse (d_m = 0) it is n**m x 0 and 0 x n**m, with no chart below it
    built and nothing embedded."""
    def build():
        _, b, l = _level(h._memo, h.r, h.domain, kind, m)
        if m <= 2:                  # B_1 = L_1 = I
            return b, l
        if not b.ncols:
            size, zero = h.n ** m, h.domain.zero
            return Mat.zeros(size, 0, zero), Mat.zeros(0, size, zero)
        basis, left_inverse = _chart(h, kind, m - 1)
        return basis.embed(1, h.n) * b, l * left_inverse.embed(1, h.n)
    return h.memo((kind, m, "chart"), build)


def _projector(h, m: int, kind: str) -> LegOperator:
    if m < 1:
        raise ValueError("m must be positive")
    return h.memo((kind, m, "projector"), lambda: LegOperator(
        h.n, m, Mat.__mul__(*_chart(h, kind, m))))


def q_symmetrizer(h, m: int) -> LegOperator:
    """S(m) on m legs; embed_on_legs places it among more."""
    return _projector(h, m, "S")


def q_antisymmetrizer(h, m: int) -> LegOperator:
    """A(m) on m legs; embed_on_legs places it among more."""
    return _projector(h, m, "A")
