"""Split-Casimir images, quantum traces on symmetric powers, q-dimensions.

The split Casimir element q**(2p) l_i^a (x) l_a^j C_j^i turns a pair of
representations into one exact operator.  With the right symmetric power on
the first factor and the left symmetric power on the second it produces the
family of numerical matrices whose Cayley-Hamilton identities, spectra and
weighted traces this package verifies.

Conventions.  The operator stored in :class:`CasimirMatrix` acts on
V_(k) (x) V_(m) in the compressed charts of the reps module; the abstract
generator matrix is its full transpose, which leaves every quantity checked
here (polynomial identities, spectra, idempotent ranks, weighted traces of
powers) unchanged.  The quantum-trace weight on V_(m), the compression of
C**(x)m times q**(p*(m-1)), is built on the levels: W_1 = C and
W_m = q**p l_m (W_{m-1} (x) C) b_m.  Its round trip is checked on the level,
b_m W_m = q**p (W_{m-1} (x) C) b_m, which times B_{m-1} (x) I, a map with a
left inverse, is the full-leg one given that at m - 1.  It is calibrated as
q**p trace(W_m) = dim_q V_(m) (q**p trace(C) = p_q at m = 1), so the trace
over V_(m) is the single contraction trace(W_m X).

The rank-2 closed form (:func:`closed_form_p2`) is compressed by the chart
(B_k (x) B_m, L_k (x) L_m) of V_(k) (x) V_(m) with nothing built on k+m
legs.  Its first term, S(k) S(m), compresses to I, as L_j B_j = I is
certified on every level.  In its second, (L_k (x) I) S(k+1) (B_k (x) I)
is the certified level p_{k+1} (B_{k+1} = (B_k (x) I) b_{k+1}, L_{k+1} =
l_{k+1} (L_k (x) I)): it is the compression of (I (x) S(m)) (p_{k+1} (x) I)
by (I (x) B_m, I (x) L_m) on d_k n**m dimensions, whose round trip, as
B_k (x) I has a left inverse, is the one on k+m legs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .scalars import ScalarDomain
from .tensor import Mat, block_pairing
from .identities import RootData, central_trace
from .projectors import q_symmetrizer
from .reps import (Compression, Representation, sym_chart,
                   sym_level, sym_power_left, sym_power_right_rea_p2)


class CasimirError(ValueError):
    pass


# ---------------------------------------------------------------------------
# q-dimensions
# ---------------------------------------------------------------------------

def q_dimension(lam: Sequence[int], p: int, domain: ScalarDomain):
    """Quantum dimension of the module labelled by a signature with <= p parts.

    Product over pairs of (lam_i - lam_j - i + j)_q / (j - i)_q; only the
    differences of parts enter, so shifted signatures agree.
    """
    lam = list(lam)
    if len(lam) > p:
        raise CasimirError(f"signature {lam} has more than p={p} parts")
    lam = lam + [0] * (p - len(lam))
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    return domain.ratio([domain.q_int(lam[i] - lam[j] + j - i) for i, j in pairs],
                        [domain.q_int(j - i) for i, j in pairs])


# ---------------------------------------------------------------------------
# trace weights on symmetric powers
# ---------------------------------------------------------------------------

def trace_weights(h, m: int) -> Mat:
    """The calibrated weight W_m on V_(m) (see the module docstring), memoized
    with the symmetry's certification; its calibration is asserted."""
    return h.memo(("weights", m), lambda: _calibrated_weights(h, m))


def _calibrated_weights(h, m: int) -> Mat:
    dom = h.domain
    weight = h.c if m == 1 else sym_level(h, m).compress(
        trace_weights(h, m - 1).kron(h.c)).scale(dom.q_pow(h.p))
    total = weight.trace() * dom.q_pow(h.p)
    expected = q_dimension([m], h.p, dom)
    if total != expected:
        raise CasimirError(
            f"weight calibration failed at m={m}: q**{h.p} * trace = "
            f"{total}, q-dimension = {expected}")
    return weight


def generator_trace_identity(h, m: int) -> bool:
    """q**(2p) sum_ij C[i,j] pi_(m)(l_i^j) equals q**(1-m) m_q identity.

    This is the contraction that converts the unit-element shift of the
    abstract generator matrix into a plain scalar shift of the Casimir
    operator; it is asserted rather than assumed.  The contraction is
    certified scalar by :func:`qorbits.identities.central_trace`, which
    raises IdentityError when it is not.
    """
    dom = h.domain
    rep = sym_power_left(h, m)
    value = central_trace(rep.generator_matrix(), {1}, h.c.transpose(),
                          (h.n, rep.d), f"the generator trace at m={m}")
    return value * dom.q_pow(2 * h.p) == dom.q_pow(1 - m) * dom.q_int(m)


# ---------------------------------------------------------------------------
# split Casimir matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CasimirMatrix:
    k: int
    m: int
    op: Mat                      # operator on V_(k) (x) V_(m)
    dk: int
    dm: int

    @property
    def dim(self) -> int:
        return self.dk * self.dm


def module_trace(op: Mat, dk: int, dm: int, weight: Mat):
    """Certified quantum trace over the V_(m) factor of V_(k) (x) V_(m).

    The partial trace against the calibrated weight (:func:`trace_weights`)
    must be a scalar on the first factor (centrality of the traced
    element); returns that scalar.
    """
    return central_trace(op, {2}, weight, (dk, dm), "module trace")


def _casimir_pairing(h, first: Representation, second: Representation,
                     transpose: bool) -> Mat:
    """q**(2p) C_j^i (L1 L2)_i^j = q**(2p) sum_ja F'_ja (x) B_aj.

    F are the first module's blocks and F' those of (C^T (x) I) F, which
    carries the weight of the C-weighted trace over the auxiliary index of
    the product of L1 = sum_ia E_ia (x) F_ia (x) I and L2 = sum_aj E_aj (x)
    I (x) B_aj; B are the second module's blocks, transposed when transpose
    is set.  The pairing (:func:`qorbits.tensor.block_pairing`) builds
    nothing on V (x) V_first (x) V_second.  Its callers memoize it under
    ("pairing", k, m, transpose)."""
    weighted = h.c.transpose().embed(1, first.d) * first.blocks
    acc = block_pairing(weighted, second.blocks, h.n, transpose)
    return acc.scale(h.domain.q_pow(2 * h.p))


def split_casimir_matrix(h, k: int, m: int, algebra: str = "rea") -> CasimirMatrix:
    """Image of the split Casimir under (right sym power k) (x) (left sym power m).

    The k side carries the spectrally normalized right REA module, so
    algebra="rea" yields the matrix whose basic roots at m=1 are
    {1, q**(-2k-2)} (:func:`basic_roots`); algebra="mrea" adds the unit shift
    q**(1-m) m_q / zeta times the identity (mass parameter 1).  Requires
    symmetry rank 2 on the k side, where right modules exist.
    """
    if k < 1 or m < 1:
        raise CasimirError("k and m must be positive")
    if h.p != 2:
        raise CasimirError("requires symmetry rank 2")
    if algebra not in ("rea", "mrea"):
        raise CasimirError(f"unknown algebra {algebra!r}")
    dom = h.domain
    right = sym_power_right_rea_p2(h, k)
    left = sym_power_left(h, m)
    acc = h.memo(("pairing", k, m, False),
                 lambda: _casimir_pairing(h, right, left, False))
    if algebra == "mrea":
        shift = dom.q_pow(1 - m) * dom.q_int(m) / dom.zeta
        acc = acc + Mat.identity(acc.nrows, dom.zero, shift)
    return CasimirMatrix(k=k, m=m, op=acc, dk=right.d, dm=left.d)


def basic_roots(domain: ScalarDomain, k: int, algebra: str = "rea") -> RootData:
    """The basic roots of split_casimir_matrix(h, k, 1, algebra).

    algebra="rea": {1, q**(-2k-2)} with hbar = 0, the spectral normalization
    of the right module; algebra="mrea": both roots shifted by 1/zeta, with
    hbar = 1.  The higher roots at m > 1 follow from these by
    :func:`qorbits.identities.omega_roots_p2`.
    """
    mu = [domain.one, domain.q_pow(-2 * k - 2)]
    if algebra == "rea":
        return RootData(mu=mu, hbar=Fraction(0), domain=domain)
    if algebra == "mrea":
        shift = domain.one / domain.zeta
        return RootData(mu=[v + shift for v in mu], hbar=Fraction(1),
                        domain=domain)
    raise CasimirError(f"unknown algebra {algebra!r}")


def left_casimir_matrix(h, k: int, m: int) -> CasimirMatrix:
    """Casimir image with left symmetric powers on both factors (any rank).

    Realizes the generator matrix of the m-th symmetric extension inside the
    left module of degree k; because both factors carry homomorphisms, the
    second factor's blocks enter transposed (the generator matrix indexes
    rows by the lower index).  This is the only route available when the
    symmetry rank exceeds 2, and is what the conjecture scan consumes.
    """
    if k < 1 or m < 1:
        raise CasimirError("k and m must be positive")
    outer = sym_power_left(h, k)
    inner = sym_power_left(h, m)
    acc = h.memo(("pairing", k, m, True),
                 lambda: _casimir_pairing(h, outer, inner, True))
    return CasimirMatrix(k=k, m=m, op=acc, dk=outer.d, dm=inner.d)


def closed_form_p2(h, k: int, m: int) -> CasimirMatrix:
    """Two-term symmetrizer form of the rank-2 Casimir matrix (REA form).

    q**(m-1) L = (m_q / q**(2k+2)) S(k) S(m)
               + (zeta m_q (k+1)_q / q**(k+1)) S(m) S(k+1) S(m)

    on k+m legs, compressed on the levels (see the module docstring): the
    first term to the identity, the second from (I (x) S(m)) (p_{k+1} (x) I),
    each scaled once compressed.  Must equal
    :func:`split_casimir_matrix` exactly.
    """
    if h.p != 2:
        raise CasimirError("requires symmetry rank 2")
    if not k >= m >= 1:
        raise CasimirError("closed form requires k >= m >= 1")
    dom = h.domain
    dk, level = sym_level(h, k).dim, sym_level(h, k + 1)
    chart = sym_chart(h, m)
    # the two coefficients above, each times q**(1-m)
    c1 = dom.q_int(m) / dom.q_pow(2 * k + m + 1)
    c2 = dom.zeta * dom.q_int(m) * dom.q_int(k + 1) / dom.q_pow(k + m)
    x = (q_symmetrizer(h, m).embed(dk, 1)
         * (level.basis * level.left_inverse).embed(1, h.n ** (m - 1)))
    second = Compression(chart.basis.embed(dk, 1),
                         chart.left_inverse.embed(dk, 1)).compress(x)
    return CasimirMatrix(k=k, m=m, op=second.scale(c2) + Mat.identity(
        second.nrows, dom.zero, c1), dk=dk, dm=chart.dim)
