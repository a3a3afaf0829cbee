"""q-index pairing, q-Euler characteristic and the class algebra shadow.

Projective module classes are integer vectors up to a common shift; the
q-index of a class at the trivial signature is its q-Euler characteristic,
a shift-invariant q-deformation of the classical Euler number of
flag-variety line bundles.  The class algebra is checked only through its
numeric shadow: the relation values are q-binomials and the characteristic
is additive across fixed total weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .scalars import ScalarDomain
from .casimir import q_dimension
from .identities import compositions
from .orbits import frobenius_dim


class EulerError(ValueError):
    pass


@dataclass(frozen=True)
class ModuleClass:
    """Integer vector modulo common shifts; equality is on canonical form."""
    k: Tuple[int, ...]

    def canonical(self) -> Tuple[int, ...]:
        low = min(self.k)
        return tuple(x - low for x in self.k)

    def __eq__(self, other):
        if not isinstance(other, ModuleClass):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def __mul__(self, other: "ModuleClass") -> "ModuleClass":
        if len(self.k) != len(other.k):
            raise EulerError("class length mismatch")
        return ModuleClass(tuple(a + b for a, b in zip(self.k, other.k)))


def q_index_and_euler(k: Sequence[int], p: int, domain: ScalarDomain):
    """Product over pairs of (k_i - k_j + i - j)_q / (i - j)_q.

    This is the q-Euler characteristic chi_q of the class k: the q-dimension
    of the signature -k (the Weyl dimension formula evaluated there),
    computed by :func:`qorbits.casimir.q_dimension`.  It is invariant under
    shifting k by a common integer; the classical Euler number is its value
    at q -> 1.
    """
    k = list(k)
    if len(k) != p:
        raise EulerError(f"expected a length-{p} vector, got {len(k)}")
    return q_dimension([-x for x in k], p, domain)


def classical_euler(k: Sequence[int], p: int) -> Fraction:
    """Classical Euler number, the q -> 1 limit: the classical dimension
    :func:`qorbits.orbits.frobenius_dim` of the signature -k."""
    k = list(k)
    if len(k) != p:
        raise EulerError(f"expected a length-{p} vector, got {len(k)}")
    return frobenius_dim([-x for x in k])


def q_algebra_check(p: int, domain: ScalarDomain, m_max: int = 5) -> dict:
    """Numeric shadow of the class-algebra relations.

    (a) the relation right-hand sides are q-binomials (the q-dimensions of
    the wedge powers); (b) the characteristic is linear across each total
    weight: the chi_q values over all length-p weight-m vectors sum to the
    q-dimension of the symmetric power, for m up to m_max.
    """
    if p < 2:
        raise EulerError("p must be at least 2")
    report = {}
    for k in range(p + 1):
        lhs = q_dimension([1] * k, p, domain)
        rhs = domain.q_binomial(p, k)
        report[f"wedge_dim_k{k}"] = (lhs == rhs)
    for m in range(1, m_max + 1):
        total = domain.zero
        for kvec in compositions(m, p):
            total = total + q_index_and_euler(list(kvec), p, domain)
        expected = q_dimension([m], p, domain)
        report[f"euler_sum_m{m}"] = (total == expected)
    return report
