"""Central elements, Newton identities, Cayley-Hamilton verification.

Two families generate the center of the reflection equation algebra: the
antisymmetrizer-weighted multi-leg traces sigma_k and the power-sum traces
s_k = q trace_R(L**k).  Their images in a finite-dimensional module are
certified scalars (the matrix literally equals scalar times identity), the
Newton rows tie the two families together exactly, and the parametric
resolution replaces symbolic inversion of the Newton system by eigenvalue
data.

The multi-leg trace contracts every auxiliary leg with the single-leg weight
C, an interpretation pinned by requiring the Newton rows to hold exactly in
representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .scalars import ScalarDomain
from .tensor import Mat, embed_on_legs
from .projectors import q_antisymmetrizer
from .reps import Representation
from .hecke import hecke_inverse


class IdentityError(ValueError):
    pass


# ---------------------------------------------------------------------------
# symmetric-function utilities
# ---------------------------------------------------------------------------

def elementary_symmetric(values: Sequence, k: int, zero=Fraction(0),
                         one=Fraction(1)):
    """e_k of the given values by the stable triangular recurrence."""
    n = len(values)
    if k < 0 or k > n:
        return zero
    if k == 0:
        return one
    acc = [one] + [zero] * k
    for v in values:
        for j in range(min(k, len(acc) - 1), 0, -1):
            acc[j] = acc[j] + v * acc[j - 1]
    return acc[k]


def elementary_symmetric_without(values: Sequence, k: int, skip: Sequence[int],
                                 zero=Fraction(0), one=Fraction(1)):
    """e_k with the listed positions deleted."""
    kept = [v for i, v in enumerate(values) if i not in set(skip)]
    return elementary_symmetric(kept, k, zero, one)


def compositions(m: int, parts: int) -> List[Tuple[int, ...]]:
    """All nonnegative integer vectors of the given length summing to m.

    Deterministic order: lexicographically decreasing, so (m, 0, ..., 0)
    comes first.
    """
    if parts == 1:
        return [(m,)]
    out = []
    for first in range(m, -1, -1):
        for rest in compositions(m - first, parts - 1):
            out.append((first,) + rest)
    return out


# ---------------------------------------------------------------------------
# central elements in representations
# ---------------------------------------------------------------------------

@dataclass
class CentralValues:
    sigma: list              # sigma_0 = 1, sigma_1..sigma_p
    s: list                  # s_0 = 1, s_1..s_p
    provenance: str


def trace_r_blocks(blocks: List[List[Mat]], c_weight: Mat, zero) -> Mat:
    """trace(C X) over the generator index of an operator-valued matrix."""
    n = len(blocks)
    d = blocks[0][0].nrows
    acc = Mat.zeros(d, d, zero)
    for a in range(n):
        for b in range(n):
            w = c_weight.rows[a][b]
            if w:
                acc = acc + blocks[a][b].scale(w)
    return acc


def _certify_scalar(mat: Mat, domain: ScalarDomain, what: str):
    value = mat.rows[0][0]
    ident = Mat.identity(mat.nrows, domain.zero, domain.one)
    if not (mat == ident.scale(value)):
        raise IdentityError(f"centrality violation: {what} is not scalar")
    return value


def central_elements_in_rep(h, rep: Representation, up_to: int) -> CentralValues:
    """sigma_k and s_k evaluated in a module, certified scalar.

    sigma_k is q**k times the multi-leg weighted trace of
    A(k) L_1bar ... L_kbar with L_(t+1)bar = R_t L_tbar R_t**(-1); s_k is
    q trace_R(L**k).  Every auxiliary leg is contracted with C.
    """
    if up_to > h.p:
        raise IdentityError("up_to exceeds the symmetry rank")
    dom = h.domain
    n, d = rep.n, rep.d
    blocks = rep.oriented_blocks()
    sigma = [dom.one]
    s_vals = [dom.one]

    # power sums: block-matrix powers, then the C-weighted generator trace
    power = blocks
    for k in range(1, up_to + 1):
        if k > 1:
            power = _block_mul(power, blocks, n, d, dom.zero)
        tr = trace_r_blocks(power, h.c, dom.zero)
        s_vals.append(dom.q_pow(1) * _certify_scalar(tr, dom, f"s_{k}"))

    rinv = hecke_inverse(h.r, h.domain)
    for k in range(1, up_to + 1):
        sigma.append(_sigma_k(h, rep, blocks, k, rinv))
    return CentralValues(sigma=sigma, s=s_vals, provenance=rep.label)


def _block_mul(a: List[List[Mat]], b: List[List[Mat]], n: int, d: int, zero):
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = Mat.zeros(d, d, zero)
            for t in range(n):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def _sigma_k(h, rep: Representation, blocks, k: int, rinv) -> object:
    """q**k Tr_{R(1..k)} A(k) L_1bar ... L_kbar, all aux legs against C."""
    dom = h.domain
    n, d = rep.n, rep.d
    dim_aux = n ** k
    # L_1bar as a big matrix on (aux (x) module): aux leg 1 carries the
    # generator indices, the other legs are spectators
    big_dim = dim_aux * d
    rest = n ** (k - 1)
    l_cur = Mat.zeros(big_dim, big_dim, dom.zero)
    for i in range(n):
        for j in range(n):
            blk = blocks[i][j]
            for t in range(rest):
                arow = (i * rest + t) * d
                acol = (j * rest + t) * d
                for r in range(d):
                    brow = blk.rows[r]
                    orow = l_cur.rows[arow + r]
                    for c in range(d):
                        if brow[c]:
                            orow[acol + c] = brow[c]
    product = l_cur
    for t in range(1, k):
        r_t = embed_on_legs(h.r, t, k).mat
        rinv_t = embed_on_legs(rinv, t, k).mat
        l_cur = _aux_conjugate(r_t, l_cur, rinv_t, d, dom.zero)
        product = product * l_cur

    a_k = q_antisymmetrizer(h, k).mat
    product = _aux_mul_left(a_k, product, d, dom.zero)

    # contract every auxiliary leg with C
    result = Mat.zeros(d, d, dom.zero)
    c_rows = h.c.rows
    for a in range(dim_aux):
        for b in range(dim_aux):
            w = dom.one
            ok = True
            aa, bb = a, b
            for _ in range(k):
                da, db = aa % n, bb % n
                # digits from least significant leg; weight factors commute
                wv = c_rows[da][db]
                if not wv:
                    ok = False
                    break
                w = w * wv
                aa //= n
                bb //= n
            if not ok:
                continue
            base_r, base_c = a * d, b * d
            for r in range(d):
                prow = product.rows[base_r + r]
                orow = result.rows[r]
                for c in range(d):
                    v = prow[base_c + c]
                    if v:
                        orow[c] = orow[c] + w * v
    value = _certify_scalar(result, dom, f"sigma_{k}")
    return dom.q_pow(k) * value


def _aux_conjugate(r_mat: Mat, big: Mat, rinv_mat: Mat, d: int, zero) -> Mat:
    return _aux_mul_left(r_mat, _aux_mul_right(big, rinv_mat, d, zero), d, zero)


def _aux_mul_left(aux: Mat, big: Mat, d: int, zero) -> Mat:
    """(aux (x) I_d) big, exploiting sparsity of the aux factor."""
    dim_aux = aux.nrows
    out = Mat.zeros(dim_aux * d, big.ncols, zero)
    for a in range(dim_aux):
        arow = aux.rows[a]
        for b in range(dim_aux):
            v = arow[b]
            if not v:
                continue
            for r in range(d):
                srow = big.rows[b * d + r]
                orow = out.rows[a * d + r]
                for c, x in enumerate(srow):
                    if x:
                        orow[c] = orow[c] + v * x
    return out


def _aux_mul_right(big: Mat, aux: Mat, d: int, zero) -> Mat:
    """big (aux (x) I_d)."""
    dim_aux = aux.nrows
    out = Mat.zeros(big.nrows, dim_aux * d, zero)
    for b in range(dim_aux):
        brow_nz = [(a, aux.rows[b][a]) for a in range(dim_aux) if aux.rows[b][a]]
        if not brow_nz:
            continue
        for r in range(big.nrows):
            srow = big.rows[r]
            orow = out.rows[r]
            for c in range(d):
                x = srow[b * d + c]
                if x:
                    for a, v in brow_nz:
                        orow[a * d + c] = orow[a * d + c] + x * v
    return out


# ---------------------------------------------------------------------------
# Newton identities
# ---------------------------------------------------------------------------

def newton_check(cv: CentralValues, p: int, domain: ScalarDomain) -> dict:
    """Verify all p rows: sum_t (-1)**(t-1) s_t sigma_(k-t) = k_q q**(1-k) sigma_k."""
    if len(cv.sigma) < p + 1 or len(cv.s) < p + 1:
        raise IdentityError("central values incomplete")
    report = {}
    for k in range(1, p + 1):
        lhs = domain.zero
        for t in range(1, k + 1):
            term = cv.s[t] * cv.sigma[k - t]
            lhs = lhs + term if (t - 1) % 2 == 0 else lhs - term
        rhs = domain.q_int(k) * domain.q_pow(1 - k) * cv.sigma[k]
        report[k] = (lhs == rhs)
    return report


@dataclass
class RootData:
    mu: list
    hbar: Fraction
    domain: ScalarDomain

    def require_distinct(self):
        for i in range(len(self.mu)):
            for j in range(i + 1, len(self.mu)):
                if self.mu[i] == self.mu[j]:
                    raise IdentityError(
                        f"repeated eigenvalue at positions {i}, {j}")


def parametric_newton(rd: RootData, k: int):
    """trace_R(L**k) = q**(-p) sum_i mu_i**k d_i with Vandermonde-ratio d_i."""
    rd.require_distinct()
    dom = rd.domain
    p = len(rd.mu)
    mu = [dom.lift(v) for v in rd.mu]
    total = dom.zero
    q = dom.q_pow(1)
    qi = dom.q_pow(-1)
    for i in range(p):
        d_i = dom.one
        for j in range(p):
            if j == i:
                continue
            d_i = d_i * (q * mu[i] - qi * mu[j]) / (mu[i] - mu[j])
        total = total + mu[i] ** k * d_i
    return dom.q_pow(-p) * total


def parametric_central_values(rd: RootData, p: int) -> CentralValues:
    """CentralValues built from eigenvalue data instead of a module."""
    dom = rd.domain
    mu = [dom.lift(v) for v in rd.mu]
    sigma = [dom.one]
    s_vals = [dom.one]
    for k in range(1, p + 1):
        sigma.append(elementary_symmetric(mu, k, dom.zero, dom.one))
        s_vals.append(dom.q_pow(1) * parametric_newton(rd, k))
    return CentralValues(sigma=sigma, s=s_vals, provenance="parametric")


# ---------------------------------------------------------------------------
# Cayley-Hamilton verification
# ---------------------------------------------------------------------------

def ch_verify(mat: Mat, roots: Sequence, domain: ScalarDomain) -> Tuple[bool, int]:
    """Exact product of (M - root I); passes iff identically zero.

    Returns (ok, support) where support counts nonzero residual entries.
    Repeated roots are allowed; the product is still checked.
    """
    n = mat.nrows
    ident = Mat.identity(n, domain.zero, domain.one)
    prod = ident
    for r in roots:
        prod = prod * (mat - ident.scale(domain.lift(r) if isinstance(r, (int, Fraction)) else r))
    return prod.is_zero(), prod.support()


def ch_verify_coefficients(mat: Mat, sigmas: Sequence,
                           domain: ScalarDomain) -> Tuple[bool, int]:
    """Coefficient form: sum_k (-M)**(p-k) sigma_k = 0 with sigma_0 = 1."""
    n = mat.nrows
    p = len(sigmas) - 1
    ident = Mat.identity(n, domain.zero, domain.one)
    neg = -mat
    powers = [ident]
    for _ in range(p):
        powers.append(powers[-1] * neg)
    acc = Mat.zeros(n, n, domain.zero)
    for k in range(p + 1):
        acc = acc + powers[p - k].scale(sigmas[k])
    return acc.is_zero(), acc.support()


# ---------------------------------------------------------------------------
# higher Cayley-Hamilton roots
# ---------------------------------------------------------------------------

def xi_symmetric(kvec: Sequence[int], m: int, domain: ScalarDomain):
    """The mass-term symmetric function in the higher root formula."""
    p = len(kvec)
    acc = domain.zero
    partial = 0
    for s in range(1, p):
        partial += kvec[s - 1]
        acc = acc + (domain.q_pow(partial + kvec[s] - m)
                     * domain.q_int(kvec[s]) * domain.q_int(partial))
    return acc


def conjecture_roots(rd: RootData, m: int, p: int) -> List[Tuple[Tuple[int, ...], object]]:
    """Conjectured higher roots mu_k(m) for all length-p compositions of m.

    q**(m-1) mu_k(m) = sum_i (k_i)_q q**(k_i - m) mu_i + hbar xi(k); the list
    has binomial(m + p - 1, m) entries in deterministic order.
    """
    dom = rd.domain
    if len(rd.mu) != p:
        raise IdentityError("eigenvalue list does not match p")
    mu = [dom.lift(v) for v in rd.mu]
    hbar = dom.lift(rd.hbar)
    out = []
    for kvec in compositions(m, p):
        acc = dom.zero
        for i, ki in enumerate(kvec):
            if ki:
                acc = acc + dom.q_int(ki) * dom.q_pow(ki - m) * mu[i]
        acc = acc + hbar * xi_symmetric(kvec, m, dom)
        out.append((kvec, acc * dom.q_pow(1 - m)))
    return out


def omega_roots_p2(rd: RootData, m: int) -> List[Tuple[Tuple[int, int], object]]:
    """Rank-2 closed form of the higher roots, for cross-checking.

    q**(m-1) omega_s = q**(s-m) s_q mu_1 + q**(-s) (m-s)_q mu_2
                       + hbar s_q (m-s)_q,  s = 0..m, k = (s, m-s).
    """
    dom = rd.domain
    if len(rd.mu) != 2:
        raise IdentityError("rank-2 form needs two eigenvalues")
    mu1, mu2 = (dom.lift(v) for v in rd.mu)
    hbar = dom.lift(rd.hbar)
    out = []
    for s in range(m, -1, -1):
        val = (dom.q_pow(s - m) * dom.q_int(s) * mu1
               + dom.q_pow(-s) * dom.q_int(m - s) * mu2
               + hbar * dom.q_int(s) * dom.q_int(m - s))
        out.append(((s, m - s), val * dom.q_pow(1 - m)))
    return out
