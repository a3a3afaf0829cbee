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
powers) unchanged.  The quantum-trace weight on V_(m) is the m-fold product
of the single-leg weight C compressed to the symmetric component; its
calibration against q-dimensions fixes the normalization exponent p*m, and
the trace map on V_(m)-endomorphisms carries the complementary factor
q**(p*(m-1)) so that the single-leg case reduces to trace(C X).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .scalars import ScalarDomain
from .tensor import Mat
from .projectors import q_symmetrizer
from .reps import (Compression, Representation, sym_chart, sym_power_left,
                   sym_power_right_rea_p2)


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
    out = domain.one
    for i in range(p):
        for j in range(i + 1, p):
            out = out * domain.q_int(lam[i] - lam[j] - (i + 1) + (j + 1))
            out = out / domain.q_int(j - i)
    return out


# ---------------------------------------------------------------------------
# trace weights on symmetric powers
# ---------------------------------------------------------------------------

@dataclass
class TraceWeights:
    """Quantum-trace data for V_(m): compressed weight and its normalization.

    Invariant (asserted at construction): q**(p*m) * trace(weight) equals the
    q-dimension of V_(m).  The extension of the single-leg trace map to
    matrices over End(V_(m)) multiplies the weighted trace by
    q**(p*(m-1)); at m = 1 this is literally trace(C X).
    """
    m: int
    p: int
    weight: Mat
    norm_exponent: int
    domain: ScalarDomain


def trace_weights(h, m: int) -> TraceWeights:
    """Calibrated weight on V_(m) (cached per symmetry)."""
    key = ("weights", m)
    cached = h._rep_cache.get(key)
    if cached is not None:
        return cached
    dom = h.domain
    chart = sym_chart(h, m)
    cw = h.c
    for _ in range(m - 1):
        cw = cw.kron(h.c)
    compressed = chart.compress(cw)
    w = TraceWeights(m=m, p=h.p, weight=compressed, norm_exponent=h.p * m,
                     domain=dom)
    total = compressed.trace() * dom.q_pow(w.norm_exponent)
    expected = q_dimension([m], h.p, dom)
    if total != expected:
        raise CasimirError(
            f"weight calibration failed at m={m}: q**{w.norm_exponent} * "
            f"trace = {total}, q-dimension = {expected}")
    h._rep_cache[key] = w
    return w


def generator_trace_identity(h, m: int) -> bool:
    """q**(2p) sum_ij C[i,j] pi_(m)(l_i^j) equals q**(1-m) m_q identity.

    This is the contraction that converts the unit-element shift of the
    abstract generator matrix into a plain scalar shift of the Casimir
    operator; it is asserted rather than assumed.
    """
    dom = h.domain
    rep = sym_power_left(h, m)
    acc = Mat.zeros(rep.d, rep.d, dom.zero)
    for i in range(h.n):
        for j in range(h.n):
            c = h.c.rows[i][j]
            if c:
                acc = acc + rep.rho[i][j].scale(c)
    acc = acc.scale(dom.q_pow(2 * h.p))
    expect = Mat.identity(rep.d, dom.zero, dom.one).scale(
        dom.q_pow(1 - m) * dom.q_int(m))
    return acc == expect


# ---------------------------------------------------------------------------
# split Casimir matrices
# ---------------------------------------------------------------------------

@dataclass
class CasimirMatrix:
    k: int
    m: int
    algebra: str                 # "mrea" (unit mass) | "rea"
    op: Mat                      # operator on V_(k) (x) V_(m)
    dk: int
    dm: int
    label: str

    @property
    def dim(self) -> int:
        return self.dk * self.dm

    def trace_generators(self, weights: TraceWeights, certify: bool = True):
        """Quantum trace over the V_(m) factor; scalar on the V_(k) factor.

        Returns the scalar; with certify=True the partial trace must be an
        exact multiple of the identity (centrality of the traced element).
        """
        return _certified_module_trace(self.op, self.dk, self.dm, weights,
                                       certify)


def module_trace(op: Mat, dk: int, dm: int, weights: TraceWeights,
                 certify: bool = True):
    """Public entry for the certified weighted trace over the module factor."""
    return _certified_module_trace(op, dk, dm, weights, certify)


def quantum_trace(blocks, c_weight: Mat, weights: Optional[TraceWeights] = None,
                  full_scalar: bool = False):
    """Weighted trace of a generator-indexed matrix of module endomorphisms.

    blocks[a][b] is the endomorphism sitting at generator position (a, b);
    the generator index is contracted against the single-leg weight, and
    with full_scalar=True the module factor is traced against the calibrated
    weight as well.  Shapes must agree with the weight matrices.
    """
    n = len(blocks)
    if c_weight.nrows != n or c_weight.ncols != n:
        raise CasimirError("weight does not match the generator index")
    d = blocks[0][0].nrows
    zero = None
    acc = None
    for a in range(n):
        for b in range(n):
            blk = blocks[a][b]
            if blk.nrows != d or blk.ncols != d:
                raise CasimirError("ragged block matrix")
            w = c_weight.rows[a][b]
            if not w:
                continue
            term = blk.scale(w)
            acc = term if acc is None else acc + term
    if acc is None:
        raise CasimirError("empty contraction")
    if not full_scalar:
        return acc
    if weights is None:
        raise CasimirError("full scalar trace needs calibrated weights")
    dom = weights.domain
    out = dom.zero
    for a in range(weights.weight.nrows):
        for b in range(weights.weight.ncols):
            w = weights.weight.rows[a][b]
            if w:
                out = out + w * acc.rows[b][a]
    return out * dom.q_pow(weights.p * (weights.m - 1))


def _certified_module_trace(op: Mat, dk: int, dm: int,
                            weights: TraceWeights, certify: bool):
    d = weights.domain
    out = Mat.zeros(dk, dk, d.zero)
    w = weights.weight
    for a in range(dm):
        for b in range(dm):
            wv = w.rows[a][b]
            if not wv:
                continue
            for r in range(dk):
                orow = out.rows[r]
                srow = op.rows[r * dm + b]
                for c in range(dk):
                    v = srow[c * dm + a]
                    if v:
                        orow[c] = orow[c] + wv * v
    scale = d.q_pow(weights.p * (weights.m - 1))
    value = out.rows[0][0] * scale
    if certify:
        ident = Mat.identity(dk, d.zero, d.one)
        if not (out == ident.scale(out.rows[0][0])):
            raise CasimirError("module trace is not scalar on the first factor")
    return value


def split_casimir_matrix(h, k: int, m: int, algebra: str = "rea",
                         right_rep: Optional[Representation] = None,
                         left_rep: Optional[Representation] = None) -> CasimirMatrix:
    """Image of the split Casimir under (right sym power k) (x) (left sym power m).

    The k side carries the spectrally normalized right REA module, so
    algebra="rea" yields the matrix whose basic roots at m=1 are
    {1, q**(-2k-2)}; algebra="mrea" adds the unit shift
    q**(1-m) m_q / zeta times the identity (mass parameter 1).  Requires
    symmetry rank 2 on the k side, where right modules exist.
    """
    if k < 1 or m < 1:
        raise CasimirError("k and m must be positive")
    if h.p != 2:
        raise CasimirError("requires symmetry rank 2")
    dom = h.domain
    right = right_rep if right_rep is not None else _cached_right_rea(h, k)
    left = left_rep if left_rep is not None else _cached_left(h, m)
    dk, dm = right.d, left.d
    dim = dk * dm
    acc = Mat.zeros(dim, dim, dom.zero)
    for i in range(h.n):
        for j in range(h.n):
            c = h.c.rows[i][j]
            if not c:
                continue
            for a in range(h.n):
                term = right.rho[i][a].kron(left.rho[a][j])
                acc = acc + term.scale(c)
    acc = acc.scale(dom.q_pow(2 * h.p))
    label = f"L(k={k},m={m})"
    if algebra == "mrea":
        shift = dom.q_pow(1 - m) * dom.q_int(m) / dom.zeta
        acc = acc + Mat.identity(dim, dom.zero, dom.one).scale(shift)
        label += " [mrea]"
    elif algebra != "rea":
        raise CasimirError(f"unknown algebra {algebra!r}")
    return CasimirMatrix(k=k, m=m, algebra=algebra, op=acc, dk=dk, dm=dm,
                         label=label)


def _cached_right_rea(h, k: int) -> Representation:
    key = ("right_rea", k)
    rep = h._rep_cache.get(key)
    if rep is None:
        rep = sym_power_right_rea_p2(h, k)
        h._rep_cache[key] = rep
    return rep


def _cached_left(h, m: int) -> Representation:
    key = ("left", m)
    rep = h._rep_cache.get(key)
    if rep is None:
        rep = sym_power_left(h, m)
        h._rep_cache[key] = rep
    return rep


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
    dom = h.domain
    outer = _cached_left(h, k)
    inner = _cached_left(h, m)
    dim = outer.d * inner.d
    acc = Mat.zeros(dim, dim, dom.zero)
    for i in range(h.n):
        for j in range(h.n):
            c = h.c.rows[i][j]
            if not c:
                continue
            for a in range(h.n):
                term = outer.rho[i][a].kron(inner.rho[a][j].transpose())
                acc = acc + term.scale(c)
    acc = acc.scale(dom.q_pow(2 * h.p))
    return CasimirMatrix(k=k, m=m, algebra="mrea", op=acc, dk=outer.d,
                         dm=inner.d, label=f"L(m={m}) in left sym power {k}")


def closed_form_p2(h, k: int, m: int) -> CasimirMatrix:
    """Two-term symmetrizer form of the rank-2 Casimir matrix (REA form).

    q**(m-1) L = (m_q / q**(2k+2)) S(k) S(m)
               + (zeta m_q (k+1)_q / q**(k+1)) S(m) S(k+1) S(m)

    on k+m legs, compressed to the product basis of V_(k) (x) V_(m); must
    equal :func:`split_casimir_matrix` exactly.
    """
    if h.p != 2:
        raise CasimirError("requires symmetry rank 2")
    if not k >= m >= 1:
        raise CasimirError("closed form requires k >= m >= 1")
    dom = h.domain
    total = k + m
    sk = q_symmetrizer(h, k, total, 1)
    sm = q_symmetrizer(h, m, total, k + 1)
    sk1 = q_symmetrizer(h, k + 1, total, 1)
    c1 = dom.q_int(m) / dom.q_pow(2 * k + 2)
    c2 = dom.zeta * dom.q_int(m) * dom.q_int(k + 1) / dom.q_pow(k + 1)
    big = (sk.mat * sm.mat).scale(c1) + (sm.mat * sk1.mat * sm.mat).scale(c2)
    chart = Compression.product(sym_chart(h, k), sym_chart(h, m))
    compressed = chart.compress(big).scale(dom.q_pow(1 - m))
    dk = sym_chart(h, k).dim
    dm = sym_chart(h, m).dim
    return CasimirMatrix(k=k, m=m, algebra="rea", op=compressed, dk=dk, dm=dm,
                         label=f"L(k={k},m={m}) [closed form]")
