"""Noncommutative orbits: genericity, idempotents, multiplicities, strings.

An orbit is the data of p pairwise distinct eigenvalues (the central
character), a mass parameter and a scalar domain, held in one record,
:class:`qorbits.identities.RootData`.  This module carries the
spectral decomposition machinery (Lagrange idempotents of an exactly
verified Cayley-Hamilton identity), the classical and quantum multiplicity
formulas with their independent dimension-ratio oracles, the eigenvalue
formulas attached to signatures, the higher Newton identities, and the
string analysis that detects quantized non-generic orbits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .scalars import ScalarDomain, as_integer
from .tensor import Mat
from .identities import (RootData, classical_higher_eigenvalue,
                         compositions, conjecture_roots, multiplicity,
                         repeated_pair, root_products)
from .casimir import (basic_roots, left_casimir_matrix, module_trace,
                      q_dimension, split_casimir_matrix, trace_weights)


class OrbitError(ValueError):
    pass


# ---------------------------------------------------------------------------
# partitions and signatures
# ---------------------------------------------------------------------------

def is_signature(lam: Sequence[int]) -> bool:
    return all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def signature_dual(lam: Sequence[int]) -> Tuple[int, ...]:
    """The label of the dual module: negate and reverse."""
    return tuple(-x for x in reversed(lam))


def frobenius_dim(lam: Sequence[int]) -> Fraction:
    """Classical dimension: product over pairs of (l_i - l_j - i + j)/(j - i),
    one Fraction of two integer products."""
    num = den = 1
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            num, den = num * (lam[i] - lam[j] + j - i), den * (j - i)
    return Fraction(num, den)


def add_vectors(a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def quadratic_casimir_value(lam: Sequence[int]) -> Fraction:
    """Value of the quadratic central element on the labelled module."""
    n = len(lam)
    return Fraction(sum(l * l + l * (n + 1 - 2 * i) for i, l in enumerate(lam, start=1)))


def is_m_admissible(lam: Sequence[int], m: int, hbar=Fraction(1)) -> bool:
    """Gaps of at least m and pairwise distinct derived eigenvalues."""
    if not is_signature(lam):
        return False
    if any(lam[i] - lam[i + 1] < m for i in range(len(lam) - 1)):
        return False
    mu = classical_eigenvalues(lam)
    return repeated_pair([classical_higher_eigenvalue(kvec, mu, hbar)
                          for kvec in compositions(m, len(lam))]) is None


# ---------------------------------------------------------------------------
# eigenvalues attached to signatures
# ---------------------------------------------------------------------------

def classical_eigenvalues(lam: Sequence[int]) -> List[Fraction]:
    """mu_i = lam_(p-i+1) + i - 1 at unit mass scale."""
    p = len(lam)
    return [Fraction(lam[p - i] + i - 1) for i in range(1, p + 1)]


def classical_higher_eigenvalue_s2(lam: Sequence[int], kvec: Sequence[int],
                                   m: int) -> Fraction:
    """Independent route through the quadratic-Casimir difference formula."""
    p = len(lam)
    lam_star = list(signature_dual(lam))
    lam_star_k = list(add_vectors(lam_star, kvec))
    row_m = [m] + [0] * (p - 1)
    s2 = quadratic_casimir_value
    return -Fraction(1, 2) * (s2(lam_star_k) - s2(lam_star) - s2(row_m))


def rep_eigenvalues(lam: Sequence[int], p: int, mode: str,
                    domain: ScalarDomain) -> list:
    """Eigenvalue family attached to a signature with at most p parts.

    mode="rea_q":  eta q**(-2(lam_(p-i+1) + i)) with eta = -q**2/zeta;
    mode="mrea_q": (lam_(p-i+1) + i - 1)_q / q**(lam_(p-i+1) + i - 1).
    Their classical limit, lam_(p-i+1) + i - 1 at unit mass scale, is
    :func:`classical_eigenvalues`.
    """
    lam = list(lam)
    if len(lam) > p:
        raise OrbitError("signature longer than p")
    if not is_signature(lam):
        raise OrbitError(f"not a signature: {lam}")
    lam = lam + [0] * (p - len(lam))
    out = []
    if mode == "rea_q":
        eta = -domain.q_pow(2) / domain.zeta
        for i in range(1, p + 1):
            out.append(eta * domain.q_pow(-2 * (lam[p - i] + i)))
        return out
    if mode == "mrea_q":
        for i in range(1, p + 1):
            e = lam[p - i] + i - 1
            out.append(domain.q_int(e) * domain.q_pow(-e))
        return out
    raise OrbitError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# spectral idempotents
# ---------------------------------------------------------------------------

def spectral_idempotents(mat: Mat, roots: Sequence,
                         domain: ScalarDomain) -> List[Mat]:
    """Lagrange idempotents of a matrix with verified polynomial identity.

    e_j = prod_{i != j} (M - r_i)/(r_j - r_i); requires pairwise distinct
    roots and an exactly vanishing product over all of them.  Each factor
    M - r_i is formed once, and each idempotent is scaled once.
    """
    roots = [domain.lift(r) for r in roots]
    pair = repeated_pair(roots)
    if pair is not None:
        raise OrbitError("repeated roots at positions %d, %d" % pair)
    n, zero = mat.nrows, domain.zero
    ident = Mat.identity(n, zero, domain.one)

    def product(factors):           # the empty product is I, never a factor
        return reduce(Mat.__mul__, factors) if factors else ident
    factors = [mat - Mat.identity(n, zero, r) for r in roots]
    residual = product(factors)
    if not residual.is_zero():
        raise OrbitError(
            f"matrix does not satisfy the polynomial identity "
            f"(residual support {residual.support()})")
    return [product(factors[:j] + factors[j + 1:]).scale(domain.ratio(
                [domain.one], [rj - ri for i, ri in enumerate(roots) if i != j]))
            for j, rj in enumerate(roots)]


# ---------------------------------------------------------------------------
# multiplicities
# ---------------------------------------------------------------------------

def multiplicities(rd: RootData, m: int, mode: str) -> Dict[Tuple[int, ...], object]:
    """Eigenvalue multiplicities d_k(m) over all compositions of m, each
    from :func:`qorbits.identities.multiplicity`.

    mode="classical": product over pairs of
        (mu_i - mu_j - (k_i - k_j) hbar) / (mu_i - mu_j);
    mode="quantum": product over pairs of
        (q**(k_i-k_j) mu_i - q**(k_j-k_i) mu_j - hbar (k_i-k_j)_q)
        / (mu_i - mu_j).

    The quantum form is proven for rank 2; for p > 2 it is conditional
    evidence (it presumes the representation category is faithful).
    """
    if mode not in ("classical", "quantum"):
        raise OrbitError(f"unknown mode {mode!r}")
    if not rd.is_m_generic(m, mode):
        raise OrbitError(f"orbit is not {m}-generic")
    qdom = rd.domain if mode == "quantum" else None
    return {kvec: multiplicity(kvec, rd.mu, rd.hbar, qdom)
            for kvec in compositions(m, rd.p)}


def quantum_dim_ratios(lam: Sequence[int], m: int, p: int,
                       domain: ScalarDomain) -> dict:
    """Oracle for the quantum multiplicities at zero mass: composition k of
    m -> qdim(lam* + k) / qdim(lam*), with qdim(lam*) computed once."""
    lam_star = signature_dual(list(lam) + [0] * (p - len(lam)))
    base = q_dimension(lam_star, p, domain)
    return {kvec: q_dimension(add_vectors(lam_star, kvec), p, domain) / base
            for kvec in compositions(m, p)}


def classical_dim_ratios(lam: Sequence[int], m: int, p: int) -> dict:
    """Composition k of m -> dim(lam* + k) / dim(lam*), Frobenius dimensions."""
    lam_star = list(signature_dual(list(lam) + [0] * (p - len(lam))))
    base = frobenius_dim(lam_star)
    return {kvec: frobenius_dim(list(add_vectors(lam_star, kvec))) / base
            for kvec in compositions(m, p)}


# ---------------------------------------------------------------------------
# higher Newton identities
# ---------------------------------------------------------------------------

def higher_newton_classical(lam: Sequence[int], m: int, s_max: int) -> dict:
    """Two-route check of the classical higher Newton identities at unit
    mass, hbar = 1.

    Route A: trace formula sum_k mu_k(m)**s d_k(m) with the multiplicity
    products at mu = mu(lam).  Route B (oracle): the same sum with the
    quadratic-Casimir eigenvalues and Frobenius dimension ratios, which
    carry no mass, so the mass is a constant.  Both are exact rationals;
    the report maps s to (equal?, value).
    """
    p = len(lam)
    mu = classical_eigenvalues(list(lam))
    if repeated_pair(mu) is not None:
        raise OrbitError("orbit is not 1-generic")
    hbar = Fraction(1)
    d_ratio = classical_dim_ratios(lam, m, p)
    # (mu_k, d_k) of each route, once per composition: neither depends on s
    terms = [(classical_higher_eigenvalue(kvec, mu, hbar),
              multiplicity(kvec, mu, hbar),
              classical_higher_eigenvalue_s2(list(lam), kvec, m),
              d_ratio[kvec]) for kvec in compositions(m, p)]
    report = {}
    for s in range(1, s_max + 1):
        route_a = sum((a ** s * da for a, da, _, _ in terms), Fraction(0))
        route_b = sum((b ** s * db for _, _, b, db in terms), Fraction(0))
        report[s] = (route_a == route_b, route_a)
    return report


def higher_newton_quantum_p2(h, k: int, m: int, s_max: int,
                             algebra: str = "rea") -> dict:
    """Matrix-trace versus formula check of the weighted higher Newton rows.

    The left side is the calibrated quantum trace of the exact Casimir-matrix
    power over the symmetric-power module; the right side is
    q**(-p) sum_k mu_k(m)**s d_k(m) at the eigenvalues the module realizes
    ({1, q**(-2k-2)} for the REA form, their unit shifts for unit mass).
    """
    if h.p != 2:
        raise OrbitError("requires symmetry rank 2")
    if algebra not in ("rea", "mrea"):
        raise OrbitError(f"unknown algebra {algebra!r}")
    dom = h.domain
    rd = basic_roots(dom, k, algebra)
    d_k = multiplicities(rd, m, "quantum")
    roots = dict(conjecture_roots(rd, m))
    cm = split_casimir_matrix(h, k, m, algebra)
    weight = trace_weights(h, m)
    report = {}
    power = cm.op
    for s in range(1, s_max + 1):
        if s > 1:
            power = power * cm.op
        lhs = module_trace(power, cm.dk, cm.dm, weight)
        rhs = dom.zero
        for kvec, d_val in d_k.items():
            rhs = rhs + roots[kvec] ** s * d_val
        rhs = rhs * dom.q_pow(-2)
        report[s] = (lhs == rhs, lhs)
    return report


# ---------------------------------------------------------------------------
# conjecture scan
# ---------------------------------------------------------------------------

class RootMultiplicity(NamedTuple):
    """One distinct conjectured root value and its multiplicity in the scan."""

    compositions: Tuple[Tuple[int, ...], ...]   # the compositions with this value
    value: object
    n: object             # an int once certified, else the solved field element


@dataclass
class ScanReport:
    """Outcome of :func:`conjecture_scan`.

    ``consistent`` is the certificate: the product of (M - r) over the
    distinct conjectured roots vanishes (``product_zero``), and the
    multiplicities solved from the traces of its partial products are
    nonnegative integers that sum to ``dim``.  The vanishing product may be
    a leading sub-product of the scan's chain, over the values it took
    first; the values after it have multiplicity 0.
    ``eigen_dim_total`` sums the multiplicities that are nonnegative
    integers.
    """

    k: int
    m: int
    p: int
    dim: int
    product_zero: bool
    eigen_dim_total: int
    consistent: bool
    witness: Optional[str]
    multiplicities: List[RootMultiplicity] = field(default_factory=list)


def chain_multiplicities(mat: Mat, values: Sequence,
                         domain: ScalarDomain) -> Tuple[list, bool, int]:
    """Multiplicities of pairwise distinct values from one product chain.

    Walks P_j = (M - r_1)...(M - r_j) (:func:`root_products`) up to its
    first zero product P_t, or to P_R when none is zero, keeping the traces
    of P_0 .. P_(t-1) and P_t as the certificate.  When P_t = 0, M is
    diagonalizable with spectrum among r_1 .. r_t, and its eigenspace
    dimensions n_s solve the triangular system
    tr P_j = sum_(j <= s < t) n_s prod_(i < j) (r_s - r_i), whose row 0 is
    sum n_s = dim; they are read off by back-substitution, and every later
    value has n_s = 0.  Returns the n_s and (ok, support) of P_t as
    :func:`qorbits.identities.ch_verify` does.  Repeated values leave the
    system singular and raise OrbitError.
    """
    values = [domain.lift(v) for v in values]
    if repeated_pair(values) is not None:
        raise OrbitError("chain multiplicities need pairwise distinct values")
    chain = root_products(mat, values, domain)
    last, traces = next(chain), []
    for prod in chain:
        traces.append(last.trace())
        last = prod
    used = values[:len(traces)]
    coef = [[domain.one] for _ in used]      # coef[s][j]: the product above
    for s, rs in enumerate(used):
        for ri in used[:s]:
            coef[s].append(coef[s][-1] * (rs - ri))
    counts = [domain.zero] * len(values)
    for j in reversed(range(len(used))):
        acc = traces[j]
        for s in range(j + 1, len(used)):
            acc = acc - counts[s] * coef[s][j]
        counts[j] = acc / coef[j][j]
    return counts, last.is_zero(), last.support()


def _pieri_live(kvec: Sequence[int], k: int, m: int) -> bool:
    """Whether Pieri's rule lets the composition occur in V_(k) (x) V_(m):
    only (j, 0, ..., 0, m - j) with j >= m - k do."""
    return not any(kvec[1:-1]) and kvec[0] >= m - k


def conjecture_scan(h, k: int, m: int) -> ScanReport:
    """Exact spectrum test of the higher root formula in a left module.

    Builds the generator matrix M of degree m inside the left symmetric
    power of degree k and forms the conjectured roots from the module's
    basic eigenvalues (unit mass).  The certificate is that a product of
    (M - r) over distinct root values vanishes, so M is diagonalizable
    with its spectrum among them, and that the multiplicities read off the
    traces of the same product chain (:func:`chain_multiplicities`) are
    nonnegative integers summing to the module dimension.  The chain takes
    the values that Pieri's rule admits first and stops at its first zero
    product, so the vanishing product may be a leading sub-product; the
    order only decides where the chain can stop, never the verdict.  For
    rank 2 this is a theorem; beyond, a mismatch is a reportable finding,
    not an error.
    """
    dom = h.domain
    cm = left_casimir_matrix(h, k, m)
    mu = rep_eigenvalues((k,) + (0,) * (h.p - 1), h.p, "mrea_q", dom)
    rd = RootData(mu=mu, hbar=Fraction(1), domain=dom)
    groups = {}                      # root value -> its compositions
    for kvec, r in conjecture_roots(rd, m):
        groups.setdefault(r, []).append(kvec)
    chained = sorted(groups, key=lambda r: not any(     # live values first
        _pieri_live(kvec, k, m) for kvec in groups[r]))
    counts, ok, support = chain_multiplicities(cm.op, chained, dom)
    count = dict(zip(chained, counts))
    mults = []
    for r, kvecs in groups.items():
        as_int = as_integer(count[r])
        mults.append(RootMultiplicity(tuple(kvecs), r,
                                      count[r] if as_int is None else as_int))
    certified = [x.n for x in mults if isinstance(x.n, int) and x.n >= 0]
    total = sum(certified)
    consistent = ok and len(certified) == len(mults) and total == cm.dim
    witness = None
    if not consistent:
        listing = ", ".join("|".join(str(kv) for kv in x.compositions)
                            + f": {x.n}" for x in mults)
        witness = (f"root-product support {support}; multiplicities {listing}; "
                   f"certified multiplicities sum to {total} of {cm.dim}")
    return ScanReport(k=k, m=m, p=h.p, dim=cm.dim, product_zero=ok,
                      eigen_dim_total=total, consistent=consistent,
                      witness=witness, multiplicities=mults)


# ---------------------------------------------------------------------------
# strings
# ---------------------------------------------------------------------------

@dataclass
class StringDecomposition:
    strings: List[Tuple[object, int]]        # (head value, length)
    minimal_roots: List[object]              # heads, the suggested simple roots


def string_decompose(rd: RootData) -> StringDecomposition:
    """Split the eigenvalue set into maximal successor chains.

    The successor map nu -> nu/q**2 + hbar/q (:meth:`RootData.successor`)
    chains eigenvalues that arise from quantizing a degenerate orbit; each
    chain is walked from its head, a value that is no other value's
    successor, and contributes its head as a simple root of the suggested
    minimal polynomial.  The map is affine with slope q**(-2) != 1, so its
    only periodic point is its fixed point hbar/zeta, a string of length 1,
    and every walk ends.  Independent of the input ordering.
    """
    if not rd.is_1_generic():
        raise OrbitError("orbit is not 1-generic")
    succ_of = {}
    for v in rd.mu:
        s = rd.successor(v)
        if s != v and s in rd.mu:
            succ_of[v] = s
    strings = []
    for head in rd.mu:
        if head in succ_of.values():
            continue
        length, cur = 1, head
        while cur in succ_of:
            cur = succ_of[cur]
            length += 1
        strings.append((head, length))
    if sum(length for _, length in strings) != rd.p:
        raise OrbitError("string decomposition did not cover all eigenvalues")
    return StringDecomposition(strings=strings,
                               minimal_roots=[s[0] for s in strings])
