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
from typing import List, Optional, Sequence, Tuple

from .scalars import ScalarDomain
from .tensor import Mat, embed_on_legs, weighted_partial_trace
from .projectors import q_antisymmetrizer
from .reps import Representation


class IdentityError(ValueError):
    pass


# ---------------------------------------------------------------------------
# symmetric-function utilities
# ---------------------------------------------------------------------------

def elementary_symmetric_all(values: Sequence, zero=Fraction(0),
                             one=Fraction(1)) -> list:
    """[e_0, ..., e_n] of n values from one run of the triangular recurrence."""
    acc = [one] + [zero] * len(values)
    for t, v in enumerate(values, start=1):
        for j in range(t, 0, -1):
            acc[j] = acc[j] + v * acc[j - 1]
    return acc


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


def central_trace(op: Mat, legs, weight: Mat, dims, what: str):
    """The scalar c with (weighted partial trace of op) == c I, certified.

    Every centrality certificate goes through here: s_k and sigma_k in a
    module, and the module trace of a Casimir-matrix power.
    """
    traced = weighted_partial_trace(op, legs, weight, dims)
    value = traced[0, 0]
    if not traced == Mat.identity(traced.nrows, traced.zero, value):
        raise IdentityError(f"centrality violation: {what} is not scalar")
    return value


def central_elements_in_rep(h, rep: Representation, up_to: int) -> CentralValues:
    """sigma_k and s_k evaluated in a module, certified scalar.

    sigma_k is q**k times the multi-leg weighted trace of
    A(k) L_1bar ... L_kbar with L_(t+1)bar = R_t L_tbar R_t**(-1); s_k is
    q trace_R(L**k).  Every auxiliary leg is contracted with C, pairing
    generator position (a, b) with C[a][b]: the trace weight C^T.
    """
    if up_to > h.p:
        raise IdentityError("up_to exceeds the symmetry rank")
    dom = h.domain
    c_gen = h.c.transpose()
    sigma = [dom.one]
    s_vals = [dom.one]
    gen = rep.generator_matrix()
    power = gen
    for k in range(1, up_to + 1):
        if k > 1:
            power = power * gen
        tr = central_trace(power, {1}, c_gen, (h.n, rep.d), f"s_{k}")
        s_vals.append(dom.q_pow(1) * tr)
    for k in range(1, up_to + 1):
        sigma.append(_sigma_k(h, rep, k, c_gen))
    return CentralValues(sigma=sigma, s=s_vals, provenance=rep.label)


def _sigma_k(h, rep: Representation, k: int, c_gen: Mat) -> object:
    """q**k Tr_{R(1..k)} A(k) L_1bar ... L_kbar, all aux legs against C."""
    dom, d = h.domain, rep.d
    l_cur = rep.generator_matrix(k)
    product = l_cur
    for t in range(1, k):
        r_t = embed_on_legs(h.r, t, k).embed(1, d)
        rinv_t = embed_on_legs(h.r_inv, t, k).embed(1, d)
        l_cur = r_t * l_cur * rinv_t
        product = product * l_cur
    product = q_antisymmetrizer(h, k).embed(1, d) * product
    value = central_trace(product, range(1, k + 1), c_gen, [h.n] * k + [d],
                          f"sigma_{k}")
    return dom.q_pow(k) * value


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


def repeated_pair(values: Sequence) -> Optional[Tuple[int, int]]:
    """The first positions i < j with values[i] == values[j], or None."""
    for i, v in enumerate(values):
        for j in range(i + 1, len(values)):
            if values[j] == v:
                return i, j
    return None


@dataclass(frozen=True)
class RootData:
    """One orbit: p eigenvalues mu and the mass hbar over a scalar domain.

    Construction lifts mu (to a tuple) and hbar into the domain, once, so
    every formula reads them as domain elements.
    """

    mu: tuple
    hbar: object
    domain: ScalarDomain

    def __post_init__(self):
        lift = self.domain.lift
        object.__setattr__(self, "mu", tuple(lift(v) for v in self.mu))
        object.__setattr__(self, "hbar", lift(self.hbar))

    @property
    def p(self) -> int:
        return len(self.mu)

    def is_1_generic(self) -> bool:
        return repeated_pair(self.mu) is None

    def is_m_generic(self, m: int, mode: str = "quantum") -> bool:
        """Pairwise distinctness of the derived degree-m eigenvalue family.

        mode selects which family: the deformed root formula ("quantum") or
        the integer-coefficient classical one ("classical").
        """
        if mode not in ("quantum", "classical"):
            raise IdentityError(f"unknown mode {mode!r}")
        if not self.is_1_generic():
            return False
        if mode == "quantum":
            vals = [v for _, v in conjecture_roots(self, m)]
        else:
            vals = [classical_higher_eigenvalue(kvec, self.mu, self.hbar)
                    for kvec in compositions(m, self.p)]
        return repeated_pair(vals) is None

    def successor(self, nu):
        """The string successor nu/q**2 + hbar/q."""
        dom = self.domain
        return dom.q_pow(-2) * nu + dom.q_pow(-1) * self.hbar


def multiplicity(kvec: Sequence[int], mu: Sequence, hbar, domain=None):
    """The multiplicity d_k of one composition k: a product over pairs i < j.

    Over a scalar domain it is the quantum form
        (q**(k_i-k_j) mu_i - q**(k_j-k_i) mu_j - hbar (k_i-k_j)_q) / (mu_i - mu_j);
    with domain None it is that form at q = 1, the classical one
        (mu_i - mu_j - hbar (k_i - k_j)) / (mu_i - mu_j),
    over any exact scalars.  The quantum product is one ScalarDomain.ratio.
    """
    pairs = [(i, j, kvec[i] - kvec[j])
             for i in range(len(mu)) for j in range(i + 1, len(mu))]
    if domain is not None:
        q = domain.q_pow
        return domain.ratio([q(d) * mu[i] - q(-d) * mu[j] - hbar * domain.q_int(d)
                             for i, j, d in pairs], [mu[i] - mu[j] for i, j, _ in pairs])
    acc = Fraction(1)
    for i, j, d in pairs:
        acc = acc * (mu[i] - mu[j] - hbar * d) / (mu[i] - mu[j])
    return acc


def parametric_central_values(rd: RootData, p: int) -> CentralValues:
    """CentralValues from eigenvalue data instead of a module: sigma_k from one
    e-vector, s_k = q trace_R(L**k) = q**(1-p) sum_i mu_i**k d_i.  The weights
    d_i = prod_(j != i) (q mu_i - mu_j / q) / (mu_i - mu_j), the degree-1
    quantum multiplicities at hbar = 0, are built once, and mu_i**k d_i are
    kept as running products."""
    pair = repeated_pair(rd.mu)
    if pair is not None:
        raise IdentityError("repeated eigenvalue at positions %d, %d" % pair)
    dom = rd.domain
    sigma = (elementary_symmetric_all(rd.mu, dom.zero, dom.one) + [dom.zero] * p)[:p + 1]
    s_vals = [dom.one]
    terms = [multiplicity(kvec, rd.mu, dom.zero, dom) for kvec in compositions(1, rd.p)]
    for _ in range(p):
        terms = [t * v for t, v in zip(terms, rd.mu)]
        s_vals.append(dom.q_pow(1 - rd.p) * sum(terms, dom.zero))
    return CentralValues(sigma=sigma, s=s_vals, provenance="parametric")


# ---------------------------------------------------------------------------
# Cayley-Hamilton verification
# ---------------------------------------------------------------------------

def root_products(mat: Mat, roots: Sequence, domain: ScalarDomain):
    """Yield P_0 = I and then P_j = P_(j-1) (M - r_j), with P_1 = M - r_1: one
    product per root after the first.  The chain ends at its first zero
    product, since every later one is zero too, so the last product yielded
    is zero if and only if the full product is."""
    n, zero = mat.nrows, domain.zero
    prod = Mat.identity(n, zero, domain.one)
    yield prod
    for j, r in enumerate(roots):
        if prod.is_zero():
            return
        factor = mat - Mat.identity(n, zero, domain.lift(r))
        prod = factor if j == 0 else prod * factor
        yield prod


def ch_verify(mat: Mat, roots: Sequence, domain: ScalarDomain) -> Tuple[bool, int]:
    """Exact product of (M - root I); passes iff identically zero.

    Returns (ok, support) where support counts nonzero entries of the last
    product of :func:`root_products`: the full product, or a leading
    sub-product that is already zero.  Repeated roots are allowed; the
    product is still checked.
    """
    for prod in root_products(mat, roots, domain):
        pass
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


def classical_higher_eigenvalue(kvec: Sequence[int], mu: Sequence, hbar):
    """mu_k(m) = sum k_i mu_i + hbar sum_{i<j} k_i k_j (any exact scalars)."""
    acc = 0
    for k, v in zip(kvec, mu):
        if k:
            acc = acc + k * v
    cross = 0
    p = len(kvec)
    for i in range(p):
        for j in range(i + 1, p):
            cross += kvec[i] * kvec[j]
    return acc + hbar * cross


def conjecture_roots(rd: RootData, m: int) -> List[Tuple[Tuple[int, ...], object]]:
    """Conjectured higher roots mu_k(m) for all length-p compositions of m.

    q**(m-1) mu_k(m) = sum_i (k_i)_q q**(k_i - m) mu_i + hbar xi(k); the list
    has binomial(m + p - 1, m) entries in deterministic order.
    """
    dom = rd.domain
    out = []
    for kvec in compositions(m, rd.p):
        acc = dom.zero
        for i, ki in enumerate(kvec):
            if ki:
                acc = acc + dom.q_int(ki) * dom.q_pow(ki - m) * rd.mu[i]
        acc = acc + rd.hbar * xi_symmetric(kvec, m, dom)
        out.append((kvec, acc * dom.q_pow(1 - m)))
    return out


def omega_roots_p2(rd: RootData, m: int) -> List[Tuple[Tuple[int, int], object]]:
    """Rank-2 closed form of the higher roots, for cross-checking.

    q**(m-1) omega_s = q**(s-m) s_q mu_1 + q**(-s) (m-s)_q mu_2
                       + hbar s_q (m-s)_q,  s = 0..m, k = (s, m-s).
    """
    dom = rd.domain
    if rd.p != 2:
        raise IdentityError("rank-2 form needs two eigenvalues")
    (mu1, mu2), hbar = rd.mu, rd.hbar
    out = []
    for s in range(m, -1, -1):
        val = (dom.q_pow(s - m) * dom.q_int(s) * mu1
               + dom.q_pow(-s) * dom.q_int(m - s) * mu2
               + hbar * dom.q_int(s) * dom.q_int(m - s))
        out.append(((s, m - s), val * dom.q_pow(1 - m)))
    return out
