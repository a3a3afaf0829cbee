from fractions import Fraction
from math import comb

import pytest

from qorbits.hecke import standard_hecke
from qorbits.scalars import at_q, eval_at, random_q
from qorbits.tensor import embed_on_legs, pivot_columns
from qorbits.projectors import (antisymmetrizer_tower, q_antisymmetrizer,
                                q_symmetrizer)


class TestLowDegrees:
    def test_degree_one_is_identity(self, h2):
        assert q_symmetrizer(h2, 1) == h2.identity(1)
        assert q_antisymmetrizer(h2, 1) == h2.identity(1)

    def test_degree_two_formulas(self, h2):
        dom = h2.domain
        two = dom.q_int(2)
        s2 = (h2.identity(2).scale(dom.q_pow(-1)) + h2.r).scale(dom.one / two)
        a2 = (h2.identity(2).scale(dom.q) - h2.r).scale(dom.one / two)
        assert q_symmetrizer(h2, 2) == s2
        assert q_antisymmetrizer(h2, 2) == a2

    def test_degree_two_complement(self, h2):
        assert q_symmetrizer(h2, 2) + q_antisymmetrizer(h2, 2) == h2.identity(2)


class TestProjectorProperties:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_idempotent(self, h2, m):
        s = q_symmetrizer(h2, m)
        a = q_antisymmetrizer(h2, m)
        assert s * s == s
        assert a * a == a

    def test_symmetric_cube_rank(self, h2):
        # n = 2: the symmetric component in degree 3 has dimension 4
        s3 = q_symmetrizer(h2, 3)
        assert len(pivot_columns(s3.mat)) == 4

    def test_antisymmetrizer_collapse(self, h2):
        assert len(pivot_columns(q_antisymmetrizer(h2, 2).mat)) == 1
        assert q_antisymmetrizer(h2, 3).is_zero()
        assert q_antisymmetrizer(h2, 4).is_zero()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rank_sequence_n3(self, h3, m):
        s = q_symmetrizer(h3, m)
        a = q_antisymmetrizer(h3, m)
        assert s.mat.trace() == h3.domain.lift(comb(3 + m - 1, m))
        assert a.mat.trace() == h3.domain.lift(comb(3, m))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_absorption(self, h2, m):
        dom = h2.domain
        s = q_symmetrizer(h2, m)
        a = q_antisymmetrizer(h2, m)
        for i in range(1, m):
            r_i = h2.r_on(i, m)
            assert r_i * s == s.scale(dom.q)
            if not a.is_zero():
                assert r_i * a == a.scale(-dom.q_pow(-1))

    def test_nested_absorption(self, h2):
        for m in (2, 3, 4):
            s_m = q_symmetrizer(h2, m)
            for k in range(1, m):
                s_k = q_symmetrizer(h2, k, m, 1)
                assert s_m * s_k == s_m
                assert s_k * s_m == s_m

    def test_embedded_at_offset(self, h3):
        s = q_symmetrizer(h3, 2, 3, 2)
        assert s == embed_on_legs(q_symmetrizer(h3, 2), 2, 3)

    def test_cache_returns_same_object(self, h2):
        assert q_symmetrizer(h2, 3) is q_symmetrizer(h2, 3)

    def test_rejects_nonpositive_degree(self, h2):
        with pytest.raises(ValueError):
            q_symmetrizer(h2, 0)


class TestConstructionTower:
    @pytest.mark.parametrize("n", [2, 3])
    def test_requests_return_the_certified_tower(self, n):
        # construction seeds A(1)..A(p+1); requests hand back those objects
        h = standard_hecke(n, at_q(Fraction(5, 3)))
        seeded = dict(h._proj_cache)
        assert sorted(seeded) == [("A", m) for m in range(1, h.p + 2)]
        for m in range(1, h.p + 2):
            assert q_antisymmetrizer(h, m) is seeded[("A", m)]
        assert q_antisymmetrizer(h, h.p + 1).is_zero()

    def test_seeded_tower_matches_a_rebuild(self, h2):
        for m, a_m in antisymmetrizer_tower(h2.r, h2.domain, h2.p + 1):
            assert h2._proj_cache[("A", m)] == a_m


class TestSymbolicAgainstSampled:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_evaluated_tower_equals_sampled_tower(self, h2, rng, m):
        # oracle: the symbolic operator, evaluated entrywise at q0, is the
        # operator the same recursion builds over the rationals at q0
        sym_s = q_symmetrizer(h2, m)
        sym_a = q_antisymmetrizer(h2, m)
        for _ in range(3):
            q0 = random_q(rng)
            h = standard_hecke(2, at_q(q0))
            for sym, sampled in ((sym_s, q_symmetrizer(h, m)),
                                 (sym_a, q_antisymmetrizer(h, m))):
                evaluated = [[eval_at(x, q0) for x in row]
                             for row in sym.mat.rows]
                assert evaluated == sampled.mat.rows
