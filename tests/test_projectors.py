from fractions import Fraction
from math import comb

import pytest

from qorbits import projectors
from qorbits.casimir import closed_form_p2
from qorbits.hecke import (HeckeError, standard_hecke, standard_r,
                           validate_hecke_symmetry)
from qorbits.scalars import SYMBOLIC, at_q, eval_at, random_q
from qorbits.tensor import LegOperator, Mat, embed_on_legs, row_reduce
from qorbits.projectors import q_antisymmetrizer, q_symmetrizer


def unnormalized(x_prev, m, r, domain, kind):
    """Reference oracle, the coset factorization (Dipper-James; Jimbo):
    x_m = x_{m-1}|_{1..m-1} (I + sum_{j<m} (cR)_{m-1} (cR)_{m-2} .. (cR)_{m-j})
    with c = q for S and -1/q for A, so x_m = sum_w c**l(w) R_w."""
    cr = LegOperator(r.n, 2, r.scale(domain.q if kind == "S"
                                      else -domain.q_pow(-1)))
    y = x = embed_on_legs(LegOperator(r.n, m - 1, x_prev), 1, m)
    for j in range(1, m):
        y = y * embed_on_legs(cr, m - j, m)
        x = x + y
    return x


def two_sided_step(prev, m, r, domain, kind):
    """Reference oracle, independent of the coset factorization: the
    two-sided recursion
    S(m) = (1/m_q) S(m-1)|_{2..m} (q**(1-m) I + (m-1)_q R_12) S(m-1)|_{2..m},
    and its mirror under q -> -1/q for A(m)."""
    outer = embed_on_legs(LegOperator(r.n, m - 1, prev), 2, m)
    r12 = embed_on_legs(r, 1, m)
    ident = Mat.identity(r.n ** m, domain.zero, domain.one)
    if kind == "S":
        middle = ident.scale(domain.q_pow(1 - m)) + r12.scale(domain.q_int(m - 1))
    else:
        middle = ident.scale(domain.q_pow(m - 1)) - r12.scale(domain.q_int(m - 1))
    return (outer * middle * outer).scale(domain.one / domain.q_int(m))


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
        assert len(row_reduce(s3)[0]) == 4

    def test_antisymmetrizer_collapse(self, h2):
        assert len(row_reduce(q_antisymmetrizer(h2, 2))[0]) == 1
        assert q_antisymmetrizer(h2, 3).is_zero()
        assert q_antisymmetrizer(h2, 4).is_zero()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rank_sequence_n3(self, h3, m):
        s = q_symmetrizer(h3, m)
        a = q_antisymmetrizer(h3, m)
        assert s.trace() == h3.domain.lift(comb(3 + m - 1, m))
        assert a.trace() == h3.domain.lift(comb(3, m))

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
                s_k = embed_on_legs(q_symmetrizer(h2, k), 1, m)
                assert s_m * s_k == s_m
                assert s_k * s_m == s_m

    def test_embedded_at_offset(self, h3):
        # S(2) on legs 2, 3 of three is an idempotent that absorbs R_2 only
        s = embed_on_legs(q_symmetrizer(h3, 2), 2, 3)
        assert s * s == s
        assert h3.r_on(2, 3) * s == s.scale(h3.q) == s * h3.r_on(2, 3)
        assert not h3.r_on(1, 3) * s == s.scale(h3.q)

    def test_cache_returns_same_object(self, h2):
        assert q_symmetrizer(h2, 3) is q_symmetrizer(h2, 3)

    def test_rejects_nonpositive_degree(self, h2):
        with pytest.raises(ValueError):
            q_symmetrizer(h2, 0)


class TestConstructionTower:
    @pytest.mark.parametrize("n", [2, 3])
    def test_requests_return_the_certified_tower(self, n):
        # construction seeds the levels of A(1)..A(p+1); requests expand
        # those level objects, and a repeat request returns the same object
        h = standard_hecke(n, at_q(Fraction(5, 3)))
        seeded = dict(h._memo)
        assert sorted(seeded) == [("A", m) for m in range(1, h.p + 2)]
        for m in range(1, h.p + 2):
            assert q_antisymmetrizer(h, m) is q_antisymmetrizer(h, m)
            assert h._memo[("A", m)] is seeded[("A", m)]
        assert q_antisymmetrizer(h, h.p + 1).is_zero()
        assert seeded[("A", h.p + 1)][1].ncols == 0

    def test_seeded_tower_matches_a_rebuild(self, h2):
        rebuilt = {}
        for m in range(1, h2.p + 2):
            assert h2._memo[("A", m)] == projectors._level(
                rebuilt, h2.r, h2.domain, "A", m)

    def test_empty_level_ends_the_chart(self, monkeypatch):
        # A(5) at n = 4 lies past the collapse: its chart is 1024 x 0 and
        # 0 x 1024, with nothing embedded, and A(3) at n = 2 builds no chart
        # of A(2)
        h4 = standard_hecke(4, at_q(Fraction(2, 15)))
        q_antisymmetrizer(h4, 4)
        calls = []
        real = Mat.embed

        def counting(mat, left, right):
            calls.append((left, right))
            return real(mat, left, right)
        monkeypatch.setattr(Mat, "embed", counting)
        a5 = q_antisymmetrizer(h4, 5)
        assert not calls
        assert (a5.nrows, a5.ncols) == (1024, 1024) and a5.is_zero()
        h2 = standard_hecke(2, at_q(Fraction(2, 15)))
        assert q_antisymmetrizer(h2, 3).is_zero()
        assert ("A", 2, "chart") not in h2._memo

    def test_embedded_projectors_are_not_kept(self):
        # an embedded projector is a copy of its level: the memo keeps
        # levels (kind, m), charts and modules, never (kind, m, start, total)
        h = standard_hecke(2)
        closed_form_p2(h, 2, 2)
        assert ("S", 3) in h._memo
        assert not [key for key in h._memo if len(key) == 4]


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
                             for row in sym.rows]
                assert evaluated == sampled.rows


class TestAgreementWithCosetSum:
    @pytest.mark.parametrize("n, q0, tops", [
        (3, Fraction(3, 5), {"S": 5, "A": 4}),
        (2, None, {"S": 6, "A": 3}),
        (3, Fraction(-77, 101), {"S": 4, "A": 4}),
        (4, Fraction(2, 15), {"A": 5}),
    ])
    def test_nested_levels_expand_to_the_coset_sum(self, n, q0, tops):
        h = standard_hecke(n, SYMBOLIC if q0 is None else at_q(q0))
        dom = h.domain
        build = {"S": q_symmetrizer, "A": q_antisymmetrizer}
        for kind, top in tops.items():
            x = h.identity(1)
            for m in range(2, top + 1):
                x = unnormalized(x, m, h.r, dom, kind)
                gamma = _gamma(dom, m, kind)
                assert build[kind](h, m) == x.scale(dom.one / gamma), (kind, m)
        if n == 4:
            assert q_antisymmetrizer(h, 5).is_zero()


class TestAgreementWithTwoSidedRecursion:
    @pytest.mark.parametrize("n, q0, kinds, top", [
        (2, None, "SA", 6),
        (3, None, "SA", 4),
        (4, Fraction(2, 15), "A", 5),
        (3, Fraction(-77, 101), "SA", 5),
    ])
    def test_coset_tower_equals_the_oracle(self, n, q0, kinds, top):
        h = standard_hecke(n, SYMBOLIC if q0 is None else at_q(q0))
        build = {"S": q_symmetrizer, "A": q_antisymmetrizer}
        for kind in kinds:
            ref = h.identity(1)
            assert build[kind](h, 1) == ref
            for m in range(2, top + 1):
                ref = two_sided_step(ref, m, h.r, h.domain, kind)
                assert build[kind](h, m) == ref, (kind, m)


def _gamma(domain, m, kind):
    """Oracle: gamma_m = q**(+-m(m-1)/2) [m]_q!, so that x_m x_m = gamma_m x_m
    (plus for S, minus for A)."""
    sign = 1 if kind == "S" else -1
    return domain.q_pow(sign * m * (m - 1) // 2) * domain.q_factorial(m)


class TestNormalization:
    def test_wrong_gamma_fails_construction(self, monkeypatch):
        # the per-level scale gamma_{m-1}/gamma_m is certified by
        # idempotency, not trusted
        real = projectors._level_factor
        monkeypatch.setattr(projectors, "_level_factor",
                            lambda dom, m, kind: real(dom, m, kind) * dom.q)
        dom = at_q(Fraction(3, 5))
        with pytest.raises(HeckeError,
                           match="antisymmetrizer at height 2 is not idempotent"):
            standard_hecke(3, dom)
        report = validate_hecke_symmetry(standard_r(3, dom), dom)
        assert not report.even
        assert "not idempotent" in report.details["rank_error"]

    @pytest.mark.parametrize("kind", ["S", "A"])
    def test_unnormalized_tower(self, h2, kind):
        # x_m = sum_w c**l(w) R_w: x_m x_m = gamma_m x_m, R_i x_m = x_m R_i
        # = c x_m, and x_m / gamma_m is the projector
        dom = h2.domain
        c = dom.q if kind == "S" else -dom.q_pow(-1)
        build = {"S": q_symmetrizer, "A": q_antisymmetrizer}[kind]
        x = h2.identity(1)
        for m in range(2, 6):
            x = unnormalized(x, m, h2.r, dom, kind)
            gamma = _gamma(dom, m, kind)
            assert x * x == x.scale(gamma)
            for i in range(1, m):
                r_i = h2.r_on(i, m)
                assert r_i * x == x.scale(c) == x * r_i
            assert x.scale(dom.one / gamma) == build(h2, m)

    @pytest.mark.parametrize("kind", ["S", "A"])
    def test_level_factor_is_the_gamma_ratio(self, h2, kind):
        dom = h2.domain
        for m in range(2, 8):
            assert (projectors._level_factor(dom, m, kind)
                    == _gamma(dom, m - 1, kind) / _gamma(dom, m, kind))


class TestOneScalePerLevel:
    """Each level is built in the chart of the one below and scaled once,
    on its own d_{m-1} n dimensions: no operator on m legs is scaled."""

    @pytest.mark.parametrize("n, q0, kind, m", [
        (2, None, "S", 3), (2, None, "S", 5), (2, None, "A", 4),
        (3, Fraction(3, 5), "S", 3), (3, Fraction(3, 5), "A", 5),
    ])
    def test_one_full_size_scale(self, scale_sizes, n, q0, kind, m):
        h = standard_hecke(n, SYMBOLIC if q0 is None else at_q(q0))
        rank = {"S": lambda j: comb(n + j - 1, j), "A": lambda j: comb(n, j)}
        _, sizes = scale_sizes(
            lambda: projectors._level({}, h.r, h.domain, kind, m))
        assert sizes == [rank[kind](k - 1) * n for k in range(2, m + 1)]
        build = {"S": q_symmetrizer, "A": q_antisymmetrizer}[kind]
        assert build(h, m) == two_sided_step(build(h, m - 1), m, h.r,
                                             h.domain, kind)

    def test_certifier_builds_on_level_dimensions(self, largest_built):
        # the certifier's largest operators: the Yang-Baxter check on three
        # legs and (I_{d_{m-2}} (x) R)(b_{m-1} (x) I) on d_{m-2} n**2
        # dimensions, far below A(5) on 4**5
        n, dom = 4, at_q(Fraction(2, 15))
        assert validate_hecke_symmetry(standard_r(n, dom), dom).rank == n
        bound = max([n ** 3] + [comb(n, m - 2) * n ** 2
                                for m in range(2, n + 2)])
        assert n ** 3 <= largest_built[0] <= bound


class TestBeyondTwoSidedBudget:
    def test_symbolic_s7_trace(self, h2):
        assert q_symmetrizer(h2, 7).trace() == h2.domain.lift(8)

    def test_sampled_s8_trace_and_absorption(self, h2_sampled):
        h = h2_sampled
        s = q_symmetrizer(h, 8)
        assert s.trace() == 9
        for i in range(1, 8):
            assert h.r_on(i, 8) * s == s.scale(h.q)
