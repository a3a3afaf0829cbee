import os
import random
from fractions import Fraction

import pytest
from hypothesis import settings

from qorbits import hecke, tensor
from qorbits.scalars import at_q
from qorbits.hecke import standard_hecke
from qorbits.tensor import LegOperator, Mat

def from_rows(rows, zero=None) -> Mat:
    """A Mat from dense rows (a literal matrix); the zero defaults to that of
    the first entry."""
    if zero is None:
        zero = rows[0][0] * 0
    return Mat.from_entries(len(rows), len(rows[0]) if rows else 0, zero,
                            ((i, j, v) for i, row in enumerate(rows)
                             for j, v in enumerate(row)))


def leg_identity(n: int, m: int, dom) -> LegOperator:
    """The identity on m legs of an n-dimensional space."""
    return LegOperator(n, m, Mat.identity(n ** m, dom.zero, dom.one))


def flip(n: int, dom) -> Mat:
    """The permutation operator P on two legs (P**2 = I)."""
    return Mat.from_entries(n * n, n * n, dom.zero, (
        (k, (k % n) * n + k // n, dom.one) for k in range(n * n)))


# HYPOTHESIS_PROFILE=ci draws the same examples on every run and prints the
# blob that replays a failing one, so a CI failure reproduces locally.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(autouse=True)
def fresh_certificates():
    """Every test starts with an empty certificate table, so no test reads a
    certification made by an earlier one (some monkeypatch the certifier)."""
    hecke._certified.cache_clear()


@pytest.fixture(scope="session")
def h2():
    """Rank-2 standard symmetry over symbolic q."""
    return standard_hecke(2)


@pytest.fixture(scope="session")
def h3():
    """Rank-3 standard symmetry over symbolic q."""
    return standard_hecke(3)


@pytest.fixture(scope="session")
def h2_sampled():
    return standard_hecke(2, at_q(Fraction(3, 5)))


@pytest.fixture()
def rng():
    return random.Random(20240817)


@pytest.fixture()
def scale_sizes(monkeypatch):
    """scale_sizes(fn) runs fn() and returns its result with the row counts
    of the matrices that Mat.scale was called on meanwhile."""
    def run(fn):
        sizes = []
        real = Mat.scale

        def counting(mat, s):
            sizes.append(mat.nrows)
            return real(mat, s)
        with monkeypatch.context() as patch:
            patch.setattr(Mat, "scale", counting)
            out = fn()
        return out, sizes
    return run


@pytest.fixture()
def largest_built(monkeypatch):
    """[the largest row or column count of any Mat built meanwhile]"""
    # every Mat is made by tensor._mat; a LegOperator tags one already made
    built = [0]
    make = tensor._mat

    def record(mat):
        built[0] = max(built[0], mat.nrows, mat.ncols)
        return mat

    monkeypatch.setattr(tensor, "_mat", lambda *a: record(make(*a)))
    return built


@pytest.fixture(scope="session")
def dvl3():
    """dvl3(domain): the Dubois-Violette--Launer R = q I + e on n = 3 with
    e_(ij),(kl) = (E**-1)_ij E_kl, E = [[1, q, q], [-1, 0, 0], [0, -1, 0]].
    Its rank is 2 and dim V_(m) are 3, 8, 21, 55, ..., the coefficients of
    1/(1 - 3t + t**2), not the binomials C(m + 2, 2)."""
    def build(dom):
        q, one, zero = dom.q, dom.one, dom.zero
        e = [[one, q, q], [-one, zero, zero], [zero, -one, zero]]
        e_inv = [[zero, -one, zero], [zero, zero, -one],
                 [dom.q_pow(-1), dom.q_pow(-1), one]]
        pairs = [(i, j) for i in range(3) for j in range(3)]
        return Mat.from_entries(
            9, 9, zero, ((3 * i + j, 3 * k + l, e_inv[i][j] * e[k][l]
                          + (q if (i, j) == (k, l) else zero))
                         for i, j in pairs for k, l in pairs))
    return build
