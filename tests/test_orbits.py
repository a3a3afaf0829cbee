from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qorbits.scalars import SYMBOLIC, at_q, eval_at, random_rationals
from qorbits import orbits
from qorbits.tensor import Mat, row_reduce
from qorbits.casimir import left_casimir_matrix, split_casimir_matrix
from qorbits.hecke import standard_hecke
from qorbits.identities import RootData, compositions, omega_roots_p2
from qorbits.orbits import (OrbitError, chain_multiplicities,
                            classical_dim_ratios, classical_eigenvalues,
                            classical_higher_eigenvalue,
                            classical_higher_eigenvalue_s2, conjecture_scan,
                            frobenius_dim, higher_newton_classical,
                            higher_newton_quantum_p2, is_m_admissible,
                            multiplicities, quantum_dim_ratios,
                            rep_eigenvalues, signature_dual,
                            spectral_idempotents, string_decompose)
from conftest import from_rows


def pairwise_frobenius_dim(lam):
    """Oracle: the classical Weyl product, one Fraction factor per pair."""
    out = Fraction(1)
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            out *= Fraction(lam[i] - lam[j] - (i + 1) + (j + 1), j - i)
    return out


class TestSpectralIdempotents:
    def test_diagonal(self):
        dom = at_q(Fraction(2))
        mat = from_rows([[Fraction(3), Fraction(0)], [Fraction(0), Fraction(7)]])
        e1, e2 = spectral_idempotents(mat, [Fraction(3), Fraction(7)], dom)
        assert e1 == from_rows([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]])
        assert e2 == from_rows([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]])

    def test_repeated_roots_rejected(self):
        dom = at_q(Fraction(2))
        mat = from_rows([[Fraction(3), Fraction(0)], [Fraction(0), Fraction(3)]])
        with pytest.raises(OrbitError, match="repeated"):
            spectral_idempotents(mat, [Fraction(3), Fraction(3)], dom)

    def test_ch_failure_rejected(self):
        dom = at_q(Fraction(2))
        mat = from_rows([[Fraction(3), Fraction(0)], [Fraction(0), Fraction(7)]])
        with pytest.raises(OrbitError, match="identity"):
            spectral_idempotents(mat, [Fraction(3), Fraction(5)], dom)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_each_idempotent_is_scaled_once(self, monkeypatch, p):
        # one Mat.scale per idempotent: no scaled identity per factor and no
        # scale after every factor of the product
        dom = at_q(Fraction(2, 3))
        roots = [Fraction(2 * i + 1) for i in range(p)]
        mat = Mat.from_entries(p, p, dom.zero, [(i, i, r) for i, r in enumerate(roots)])
        calls = []
        real = Mat.scale

        def counting(self, s):
            calls.append(s)
            return real(self, s)
        monkeypatch.setattr(Mat, "scale", counting)
        es = spectral_idempotents(mat, roots, dom)
        assert len(calls) <= p
        assert es == [Mat.from_entries(p, p, dom.zero, [(i, i, dom.one)])
                      for i in range(p)]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_basic_idempotent_ranks(self, h2, k):
        # ranks of the two basic idempotents are the two-row dimensions
        dom = h2.domain
        cm = split_casimir_matrix(h2, k, 1, "rea")
        roots = [dom.one, dom.q_pow(-2 * k - 2)]
        es = spectral_idempotents(cm.op, roots, dom)
        ranks = sorted(int(e.trace().as_rational()) for e in es)
        assert ranks == sorted([k + 2, k])

    @pytest.mark.parametrize("km", [(2, 2), (3, 2), (3, 3)])
    def test_completeness_and_reconstruction(self, h2, km):
        k, m = km
        dom = h2.domain
        cm = split_casimir_matrix(h2, k, m, "rea")
        rd = RootData(mu=[dom.one, dom.q_pow(-2 * k - 2)], hbar=Fraction(0),
                      domain=dom)
        roots = [v for _, v in omega_roots_p2(rd, m)]
        es = spectral_idempotents(cm.op, roots, dom)
        ident = Mat.identity(cm.dim, dom.zero, dom.one)
        total = Mat.zeros(cm.dim, cm.dim, dom.zero)
        recon = Mat.zeros(cm.dim, cm.dim, dom.zero)
        for e, r in zip(es, roots):
            assert e * e == e
            total = total + e
            recon = recon + e.scale(r)
        for a, e_a in enumerate(es):
            for b, e_b in enumerate(es):
                if a != b:
                    assert (e_a * e_b).is_zero()
        assert total == ident
        assert recon == cm.op


class TestEigenvalueFormulas:
    def test_classical_example(self):
        assert classical_eigenvalues((1, 0)) == [0, 2]

    def test_mrea_zero_signature(self):
        dom = SYMBOLIC
        got = rep_eigenvalues((0, 0, 0), 3, "mrea_q", dom)
        for i, v in enumerate(got, start=1):
            assert v == dom.q_int(i - 1) * dom.q_pow(-(i - 1))

    def test_shift_between_conventions(self):
        dom = SYMBOLIC
        lam = (4, 2, 0)
        rea = rep_eigenvalues(lam, 3, "rea_q", dom)
        mrea = rep_eigenvalues(lam, 3, "mrea_q", dom)
        shift = dom.one / dom.zeta
        for a, b in zip(rea, mrea):
            assert b == a + shift

    def test_classical_is_q_to_one_limit(self):
        lam = (5, 3, 1)
        mrea = rep_eigenvalues(lam, 3, "mrea_q", SYMBOLIC)
        classical = classical_eigenvalues(lam)
        for a, b in zip(mrea, classical):
            assert eval_at(a, 1) == b

    def test_malformed_signature(self):
        with pytest.raises(OrbitError):
            rep_eigenvalues((1, 2), 2, "mrea_q", SYMBOLIC)


class TestMultiplicities:
    def test_classical_top_component(self):
        # k = (m, 0): single pair factor (mu1 - mu2 - m hbar)/(mu1 - mu2)
        spec = RootData(mu=[Fraction(5), Fraction(1)], hbar=Fraction(1),
                        domain=at_q(Fraction(2)))
        d = multiplicities(spec, 3, "classical")
        assert d[(3, 0)] == Fraction(5 - 1 - 3, 5 - 1)

    def test_quantum_pair_factor(self, h2):
        dom = h2.domain
        mu = [dom.q_pow(3), dom.q_pow(-5)]
        spec = RootData(mu=mu, hbar=Fraction(1), domain=dom)
        d = multiplicities(spec, 2, "quantum")
        k1, k2 = 2, 0
        expect = ((dom.q_pow(k1 - k2) * mu[0] - dom.q_pow(k2 - k1) * mu[1]
                   - dom.q_int(k1 - k2)) / (mu[0] - mu[1]))
        assert d[(2, 0)] == expect

    def test_non_generic_rejected(self):
        spec = RootData(mu=[Fraction(1), Fraction(1)], hbar=Fraction(0),
                        domain=at_q(Fraction(2)))
        with pytest.raises(OrbitError):
            multiplicities(spec, 1, "classical")

    def test_unknown_mode_rejected_before_genericity(self):
        # mu = (0, 1) at hbar = 1 is not 2-generic classically; the mode is
        # checked first, so "bogus" is named, not the genericity
        spec = RootData(mu=[0, 1], hbar=1, domain=at_q(Fraction(2, 3)))
        with pytest.raises(OrbitError, match="unknown mode 'bogus'"):
            multiplicities(spec, 2, "bogus")

    def test_quantum_equal_parts_at_zero_mass(self):
        dom = at_q(Fraction(5, 3))
        spec = RootData(mu=[Fraction(2), Fraction(7)], hbar=Fraction(0),
                        domain=dom)
        d = multiplicities(spec, 4, "quantum")
        assert d[(2, 2)] == dom.one

    @pytest.mark.parametrize("p,m", [(2, 4), (3, 3), (4, 2), (4, 5)])
    def test_quantum_against_dimension_ratio(self, p, m):
        # zero-mass eigenvalues attached to a wide signature reproduce
        # q-dimension ratios, for every composition
        dom = SYMBOLIC
        lam = tuple(range(m * (p - 1), -1, -m))[:p]
        mu = rep_eigenvalues(lam, p, "rea_q", dom)
        spec = RootData(mu=mu, hbar=Fraction(0), domain=dom)
        d = multiplicities(spec, m, "quantum")
        assert d == quantum_dim_ratios(lam, m, p, dom)

    def test_dimension_ratios_take_the_base_dimension_once(self, monkeypatch):
        # qdim(lam*) does not depend on k: one call for it, one per k
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)
        real = orbits.q_dimension
        monkeypatch.setattr(orbits, "q_dimension", counting)
        ratios = quantum_dim_ratios((6, 3, 0), 3, 3, at_q(Fraction(2, 7)))
        assert len(ratios) == len(compositions(3, 3)) == 10
        assert len(calls) == len(ratios) + 1

    @pytest.mark.parametrize("n,m", [(2, 4), (3, 3), (4, 4)])
    def test_classical_against_frobenius_ratio(self, n, m):
        # super-increasing gaps keep all degree-m eigenvalues distinct
        gaps = [m + 5 ** (i + 2) for i in range(n - 1)]
        lam = tuple(sum(gaps[i:]) for i in range(n - 1)) + (0,)
        assert is_m_admissible(lam, m)
        mu = classical_eigenvalues(list(lam))
        spec = RootData(mu=mu, hbar=Fraction(1), domain=at_q(Fraction(2)))
        d = multiplicities(spec, m, "classical")
        assert d == classical_dim_ratios(lam, m, n)

    def test_classical_sum_rule(self):
        # all multiplicities over weight m sum to the symmetric power dim
        lam = (155, 30, 0)
        mu = classical_eigenvalues(list(lam))
        spec = RootData(mu=mu, hbar=Fraction(1), domain=at_q(Fraction(2)))
        for m in (1, 2, 3):
            assert is_m_admissible(lam, m)
            d = multiplicities(spec, m, "classical")
            total = sum(d.values(), Fraction(0))
            assert total == frobenius_dim([m, 0, 0])


class TestHigherNewton:
    def test_classical_reduction_at_degree_one(self):
        # m = 1 is the plain resolution: Tr L**s = sum mu_j**s prod ratios
        lam = (4, 1)
        rep = higher_newton_classical(lam, 1, 3)
        mu = classical_eigenvalues(list(lam))
        for s, (ok, val) in rep.items():
            assert ok
            direct = Fraction(0)
            for j in range(2):
                w = Fraction(1)
                for i in range(2):
                    if i != j:
                        w *= Fraction(mu[j] - mu[i] - 1, mu[j] - mu[i])
                direct += mu[j] ** s * w
            assert val == direct

    @pytest.mark.parametrize("lam", [(5, 2), (7, 3), (9, 1)])
    def test_classical_two_routes(self, lam):
        for m in (1, 2, 3):
            rep = higher_newton_classical(lam, m, 3)
            assert all(ok for ok, _ in rep.values())

    def test_classical_eigenvalues_once_per_composition(self, monkeypatch):
        # neither route's eigenvalue depends on s, so each is computed once
        # per composition of m, not once per s
        names = ("classical_higher_eigenvalue", "classical_higher_eigenvalue_s2")
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counting(*args, name=name, real=getattr(orbits, name)):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(orbits, name, counting)
        higher_newton_classical((5, 2), 3, 4)
        assert calls == dict.fromkeys(names, len(compositions(3, 2)))

    def test_admissibility_gate(self):
        assert is_m_admissible((5, 2), 3)
        assert not is_m_admissible((5, 4), 3)
        assert not is_m_admissible((2, 5), 1)

    @pytest.mark.parametrize("k,m", [(2, 1), (2, 2), (3, 2)])
    def test_quantum_matrix_vs_formula(self, h2, k, m):
        for algebra in ("rea", "mrea"):
            rep = higher_newton_quantum_p2(h2, k, m, 3, algebra)
            assert all(ok for ok, _ in rep.values())

    def test_bad_input_raises_orbit_error(self, h2, h3):
        # (0, 1) is no signature: its eigenvalues mu = (1, 1) coincide
        with pytest.raises(OrbitError, match="not 1-generic"):
            higher_newton_classical((0, 1), 2, 2)
        with pytest.raises(OrbitError, match="unknown algebra"):
            higher_newton_quantum_p2(h2, 2, 2, 2, "xrea")
        with pytest.raises(OrbitError, match="rank 2"):
            higher_newton_quantum_p2(h3, 2, 2, 2)

    def test_s2_route_consistency(self, rng):
        # the quadratic-Casimir route equals the direct formula
        for lam in [(6, 2, 0), (7, 4, 1), (5, 0)]:
            p = len(lam)
            mu = classical_eigenvalues(list(lam))
            for m in (1, 2, 3):
                for kvec in compositions(m, p):
                    direct = classical_higher_eigenvalue(kvec, mu, Fraction(1))
                    via_s2 = classical_higher_eigenvalue_s2(list(lam), kvec, m)
                    assert direct == via_s2


class TestConjectureScan:
    def test_p2_is_a_theorem(self, h2):
        for (k, m) in [(2, 2), (3, 2)]:
            rep = conjecture_scan(h2, k, m)
            assert rep.consistent and rep.product_zero
            assert rep.eigen_dim_total == rep.dim

    def test_p3_sampled(self):
        dom = at_q(Fraction(4, 7))
        h3 = standard_hecke(3, dom)
        rep = conjecture_scan(h3, 2, 2)
        assert rep.consistent
        assert rep.dim == 36

    def test_repeated_root_values_are_merged(self):
        # six compositions of 2 into three parts, five distinct root values
        h3 = standard_hecke(3, at_q(Fraction(4, 7)))
        rep = conjecture_scan(h3, 2, 2)
        groups = [x.compositions for x in rep.multiplicities]
        assert len(groups) == 5
        assert sorted(kv for g in groups for kv in g) == sorted(compositions(2, 3))
        assert ((1, 1, 0), (0, 2, 0)) in groups
        assert sum(x.n for x in rep.multiplicities) == rep.eigen_dim_total == 36

    @pytest.mark.parametrize("k,m", [(2, 2), (3, 2), (3, 3)])
    def test_rank2_multiplicities_match_two_row_dims(self, h2, k, m):
        rep = conjecture_scan(h2, k, m)
        got = {x.compositions: x.n for x in rep.multiplicities}
        assert got == {((s, m - s),): max((k + s) - (m - s) + 1, 0)
                       for s in range(m, -1, -1)}

    @pytest.mark.parametrize("p,k,m", [(3, 2, 2), (3, 3, 2), (2, 2, 2),
                                       (2, 3, 2), (2, 3, 3), (2, 4, 3)])
    def test_multiplicities_match_elimination(self, h2, p, k, m):
        # the chain's back-substitution agrees with the kernel dimension of
        # M - r by Gauss-Jordan elimination, value by value (rank 2 over
        # symbolic q, rank 3 at a sampled q)
        h = h2 if p == 2 else standard_hecke(3, at_q(Fraction(4, 7)))
        rep = conjecture_scan(h, k, m)
        cm = left_casimir_matrix(h, k, m)
        dom = h.domain
        ident = Mat.identity(cm.dim, dom.zero, dom.one)
        assert rep.consistent
        for x in rep.multiplicities:
            kernel = cm.dim - len(row_reduce(cm.op - ident.scale(x.value))[0])
            assert x.n == kernel, x

    def test_wrong_root_set_is_inconsistent(self, monkeypatch):
        # shifting one conjectured value breaks both certificates and the
        # witness lists the solved multiplicities
        real = orbits.conjecture_roots

        def shifted(rd, m):
            roots = real(rd, m)
            kvec, v = roots[-1]
            return roots[:-1] + [(kvec, v + 1)]
        monkeypatch.setattr(orbits, "conjecture_roots", shifted)
        rep = conjecture_scan(standard_hecke(3, at_q(Fraction(4, 7))), 2, 2)
        assert not rep.product_zero and not rep.consistent
        assert "multiplicities" in rep.witness

    def test_one_product_per_value(self, h2_sampled, monkeypatch):
        # with the Casimir matrix memoized, the scan makes exactly one
        # matrix product per Pieri-live root value after the first, whose
        # factor M - r_1 is the chain's P_1: the chain stops at the zero
        # product over the min(k, m) + 1 live values (all 3 values at rank
        # 2, 3 of 5 at rank 3)
        h3 = standard_hecke(3, at_q(Fraction(4, 7)))
        for h, k, m, counts in [(h2_sampled, 3, 2, [6, 4, 2]),
                                (h3, 2, 2, [27, 0, 8, 0, 1])]:
            left_casimir_matrix(h, k, m)
            calls = []
            real = Mat.__mul__

            def counting(a, b):
                calls.append((a.nrows, b.ncols))
                return real(a, b)
            with monkeypatch.context() as patch:
                patch.setattr(Mat, "__mul__", counting)
                rep = conjecture_scan(h, k, m)
            assert rep.consistent
            assert [x.n for x in rep.multiplicities] == counts
            assert len(calls) == min(k, m)
            assert set(calls) == {(rep.dim, rep.dim)}

    @pytest.mark.parametrize("patch", ["never_live", "dead_first"])
    @pytest.mark.parametrize("p,q0,k,m", [
        (2, None, 1, 2), (2, None, 2, 3), (2, None, 2, 4),
        (2, Fraction(3, 5), 1, 3), (2, Fraction(3, 5), 2, 3),
        (3, None, 1, 2), (3, None, 2, 2), (3, Fraction(4, 7), 1, 1),
        (3, Fraction(4, 7), 2, 2), (3, Fraction(4, 7), 2, 3),
        (4, None, 1, 1), (4, Fraction(3, 5), 1, 2), (4, Fraction(3, 5), 2, 2)])
    def test_report_does_not_rest_on_the_pieri_order(self, monkeypatch, patch,
                                                     p, q0, k, m):
        # the Pieri predicate only orders the chain: a predicate that admits
        # nothing (the chain in composition order) or only a dead composition
        # (a value of multiplicity 0 first) gives the same report
        h = standard_hecke(p, SYMBOLIC if q0 is None else at_q(q0))
        real = orbits._pieri_live
        expected = conjecture_scan(h, k, m)
        dead = next(kv for kv in compositions(m, p) if not real(kv, k, m))
        if patch == "never_live":
            monkeypatch.setattr(orbits, "_pieri_live", lambda kv, k, m: False)
        else:
            monkeypatch.setattr(orbits, "_pieri_live",
                                lambda kv, k, m: kv == dead)
        assert expected.consistent
        assert conjecture_scan(h, k, m) == expected


class TestTraceMultiplicities:
    """Back-substitution in the traces of the root-product chain."""

    def test_diagonal(self):
        dom = at_q(Fraction(2))
        mat = from_rows([[Fraction(v) if i == j else Fraction(0) for j in range(4)]
                   for i, v in enumerate((3, 5, 3, 3))])
        counts, ok, support = chain_multiplicities(
            mat, [Fraction(5), Fraction(3)], dom)
        assert counts == [1, 3] and ok and support == 0

    def test_values_after_the_zero_product_have_multiplicity_zero(
            self, monkeypatch):
        # (M - 5)(M - 3) = 0 after one product, so 7 gets multiplicity 0
        # and M - 7 is never multiplied in
        dom = at_q(Fraction(2))
        mat = from_rows([[Fraction(v) if i == j else Fraction(0) for j in range(4)]
                   for i, v in enumerate((3, 5, 3, 3))])
        calls = []
        real = Mat.__mul__

        def counting(a, b):
            calls.append(1)
            return real(a, b)
        monkeypatch.setattr(Mat, "__mul__", counting)
        counts, ok, support = chain_multiplicities(
            mat, [Fraction(5), Fraction(3), Fraction(7)], dom)
        assert counts == [1, 3, 0] and ok and support == 0
        assert len(calls) == 1

    def test_repeated_value_raises(self):
        dom = at_q(Fraction(2))
        mat = Mat.identity(3, dom.zero, dom.one)
        with pytest.raises(ValueError, match="distinct"):
            chain_multiplicities(mat, [Fraction(1), Fraction(2), Fraction(1)],
                                 dom)

    def test_root_product_catches_a_missing_value(self):
        # spectrum {1, 1, 2} against the values {1, 3}: the square system
        # solves to n = 5/2, 1/2 and the root product (M - 1)(M - 3) is not
        # zero, so the chain's certificate fails
        dom = at_q(Fraction(2))
        mat = from_rows([[Fraction(v) if i == j else Fraction(0) for j in range(3)]
                   for i, v in enumerate((1, 1, 2))])
        counts, ok, support = chain_multiplicities(
            mat, [Fraction(1), Fraction(3)], dom)
        assert counts == [Fraction(5, 2), Fraction(1, 2)]
        assert not ok and support == 1


class TestStrings:
    def _dom(self):
        return at_q(Fraction(3, 2))

    def _succ(self, dom, v, hbar=Fraction(1)):
        return dom.q_pow(-2) * v + dom.q_pow(-1) * dom.lift(hbar)

    def test_chain_of_two(self):
        dom = self._dom()
        a = dom.lift(Fraction(5))
        spec = RootData(mu=[a, self._succ(dom, a)], hbar=Fraction(1),
                        domain=dom)
        sd = string_decompose(spec)
        assert sd.strings == [(a, 2)]
        assert sd.minimal_roots == [a]

    def test_generic_set_is_singletons(self, rng):
        dom = self._dom()
        mu = random_rationals(rng, 4)
        spec = RootData(mu=mu, hbar=Fraction(1), domain=dom)
        sd = string_decompose(spec)
        assert sorted(l for _, l in sd.strings) == [1, 1, 1, 1]
        assert len(sd.minimal_roots) == 4

    def test_mixed_example(self):
        dom = self._dom()
        a = dom.lift(Fraction(5))
        b = dom.lift(Fraction(100))
        spec = RootData(mu=[a, self._succ(dom, a), b], hbar=Fraction(1),
                        domain=dom)
        sd = string_decompose(spec)
        as_set = {(v, l) for v, l in sd.strings}
        assert as_set == {(a, 2), (b, 1)}
        assert set(sd.minimal_roots) == {a, b}

    def test_order_independence(self):
        dom = self._dom()
        a = dom.lift(Fraction(5))
        b = dom.lift(Fraction(100))
        mus = [a, self._succ(dom, a), b]
        base = {(v, l) for v, l in string_decompose(
            RootData(mu=mus, hbar=Fraction(1), domain=dom)).strings}
        import itertools
        for perm in itertools.permutations(mus):
            got = {(v, l) for v, l in string_decompose(
                RootData(mu=list(perm), hbar=Fraction(1),
                         domain=dom)).strings}
            assert got == base

    def test_append_extends_exactly_one_string(self, rng):
        dom = self._dom()
        for _ in range(10):
            mu = random_rationals(rng, 3)
            spec = RootData(mu=[dom.lift(v) for v in mu],
                            hbar=Fraction(1), domain=dom)
            before = string_decompose(spec)
            tails = set(mu)
            # append the successor of one existing string tail
            target = dom.lift(mu[0])
            for _ in range(5):
                nxt = self._succ(dom, target)
                if nxt not in [dom.lift(v) for v in mu]:
                    break
                target = nxt
            extended = RootData(mu=[dom.lift(v) for v in mu] + [nxt],
                                hbar=Fraction(1), domain=dom)
            after = string_decompose(extended)
            lens_before = sorted(l for _, l in before.strings)
            lens_after = sorted(l for _, l in after.strings)
            assert sum(lens_after) == sum(lens_before) + 1
            assert len(lens_after) == len(lens_before)

    def test_non_generic_rejected(self):
        dom = self._dom()
        spec = RootData(mu=[Fraction(1), Fraction(1)], hbar=Fraction(0),
                        domain=dom)
        with pytest.raises(OrbitError):
            string_decompose(spec)

    def test_fixed_point_is_a_string_of_length_one(self):
        # nu = hbar/zeta is its own successor: -6/5 at q = 2/3, hbar = 1
        dom = at_q(Fraction(2, 3))
        fixed = Fraction(-6, 5)
        rd = RootData(mu=[Fraction(2), fixed, Fraction(6)], hbar=Fraction(1),
                      domain=dom)
        assert rd.successor(fixed) == fixed == dom.one / dom.zeta
        sd = string_decompose(rd)
        assert sd.strings == [(Fraction(2), 2), (fixed, 1)]
        alone = RootData(mu=[fixed], hbar=Fraction(1), domain=dom)
        assert string_decompose(alone).strings == [(fixed, 1)]


class TestRepeatedValues:
    """Each distinctness check keeps its own error type and message."""

    def test_multiplicities(self):
        rd = RootData(mu=[Fraction(1), Fraction(4), Fraction(1)],
                      hbar=Fraction(1), domain=at_q(Fraction(2)))
        for mode in ("classical", "quantum"):
            with pytest.raises(OrbitError) as err:
                multiplicities(rd, 2, mode)
            assert str(err.value) == "orbit is not 2-generic"

    def test_string_decompose(self):
        rd = RootData(mu=[Fraction(3), Fraction(4), Fraction(4)],
                      hbar=Fraction(1), domain=SYMBOLIC)
        with pytest.raises(OrbitError) as err:
            string_decompose(rd)
        assert str(err.value) == "orbit is not 1-generic"

    def test_spectral_idempotents(self):
        dom = at_q(Fraction(2))
        mat = Mat.identity(2, dom.zero, dom.one)
        with pytest.raises(OrbitError) as err:
            spectral_idempotents(mat, [Fraction(3), 1, Fraction(2), 1], dom)
        assert str(err.value) == "repeated roots at positions 1, 3"

    def test_higher_newton_classical(self):
        # (2, 3) is no signature: its eigenvalues mu = (3, 3) coincide
        with pytest.raises(OrbitError) as err:
            higher_newton_classical((2, 3), 1, 2)
        assert str(err.value) == "orbit is not 1-generic"


class TestSignatureHelpers:
    def test_dual(self):
        assert signature_dual((3, 1, 0)) == (0, -1, -3)

    def test_frobenius_examples(self):
        assert frobenius_dim([1, 0]) == 2
        assert frobenius_dim([2, 0]) == 3
        assert frobenius_dim([1, 1, 0]) == 3
        assert frobenius_dim([0, 0, 0]) == 1

    @given(st.lists(st.integers(-8, 8), max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_frobenius_matches_the_pairwise_product(self, lam):
        # any integer label: negative differences and zero factors included
        assert frobenius_dim(lam) == pairwise_frobenius_dim(lam)

    def test_frobenius_zero_factor(self):
        assert frobenius_dim([0, 1]) == pairwise_frobenius_dim([0, 1]) == 0
        assert frobenius_dim([-2, 4, 5]) == pairwise_frobenius_dim([-2, 4, 5]) == 0
