import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from qorbits import identities
from qorbits.scalars import (SYMBOLIC, QScalar, at_q, eval_at, random_q,
                             random_rationals)
from qorbits.tensor import Mat
from qorbits.hecke import standard_hecke
from qorbits.casimir import basic_roots, split_casimir_matrix
from qorbits.reps import (fundamental_left, sym_power_left,
                          sym_power_right_rea_p2, with_mass)
from qorbits.identities import (CentralValues, IdentityError, RootData,
                                central_elements_in_rep, ch_verify,
                                ch_verify_coefficients, compositions,
                                conjecture_roots, elementary_symmetric_all,
                                multiplicity, newton_check,
                                omega_roots_p2, parametric_central_values,
                                repeated_pair, root_products, xi_symmetric)
from conftest import from_rows


def pairwise_multiplicity(kvec, mu, hbar, domain):
    """Oracle: the quantum multiplicity multiplied and divided pair by pair."""
    acc = domain.one
    for i in range(len(mu)):
        for j in range(i + 1, len(mu)):
            diff = kvec[i] - kvec[j]
            num = (domain.q_pow(diff) * mu[i] - domain.q_pow(-diff) * mu[j]
                   - hbar * domain.q_int(diff))
            acc = acc * num / (mu[i] - mu[j])
    return acc


def per_k_newton(rd, k):
    """Oracle: trace_R(L**k) with every weight d_i rebuilt for this k."""
    dom = rd.domain
    total = dom.zero
    for kvec in compositions(1, rd.p):
        d_i = pairwise_multiplicity(kvec, rd.mu, dom.zero, dom)
        total = total + rd.mu[kvec.index(1)] ** k * d_i
    return dom.q_pow(-rd.p) * total


def distinct_fractions(size):
    return st.lists(st.fractions(max_denominator=50).filter(bool),
                    min_size=size, max_size=size, unique=True)


sample_points = st.fractions(max_denominator=128).filter(
    lambda q: q not in (0, 1, -1))


class TestRootData:
    def test_symbolic_record_lifts_fractions(self):
        rd = RootData(mu=[Fraction(1, 2), Fraction(-3)], hbar=Fraction(2),
                      domain=SYMBOLIC)
        assert rd.p == len(rd.mu) == 2
        assert all(isinstance(v, QScalar) for v in rd.mu + (rd.hbar,))
        assert rd.mu == (SYMBOLIC.lift(Fraction(1, 2)), SYMBOLIC.lift(-3))

    def test_sampled_record_evaluates_qscalars(self):
        dom = at_q(Fraction(2, 3))
        rd = RootData(mu=[SYMBOLIC.q_pow(2), SYMBOLIC.q_int(3),
                          SYMBOLIC.one], hbar=SYMBOLIC.q_pow(-1), domain=dom)
        assert rd.p == len(rd.mu) == 3
        assert all(type(v) is Fraction for v in rd.mu + (rd.hbar,))
        assert rd.mu == (Fraction(4, 9), dom.q_int(3), Fraction(1))
        assert rd.hbar == Fraction(3, 2)

    def test_record_is_frozen(self):
        rd = RootData(mu=[Fraction(1)], hbar=Fraction(0), domain=SYMBOLIC)
        with pytest.raises(AttributeError):
            rd.hbar = Fraction(1)

    def test_repeated_pair_is_the_first_in_order(self):
        assert repeated_pair([5, 7, 7, 5]) == (0, 3)
        assert repeated_pair([5, 7, 9, 7]) == (1, 3)
        assert repeated_pair([5, 7, 9]) is None
        assert repeated_pair([]) is None

    def test_genericity(self):
        dom = at_q(Fraction(2))
        rd = RootData(mu=[Fraction(0), Fraction(1)], hbar=Fraction(1),
                      domain=dom)
        assert rd.is_1_generic()
        # classically k = (2, 0) and (0, 2) give 0 and 2, k = (1, 1) gives
        # 0 + 1 + hbar = 2: not 2-generic; the quantum roots stay apart
        assert not rd.is_m_generic(2, "classical")
        assert rd.is_m_generic(2, "quantum")
        flat = RootData(mu=[Fraction(1), Fraction(1)], hbar=Fraction(0),
                        domain=dom)
        assert not flat.is_1_generic() and not flat.is_m_generic(1)

    def test_unknown_mode_rejected(self):
        # any mode but the two families is an error, not the classical one
        rd = RootData(mu=[Fraction(1), Fraction(1)], hbar=Fraction(0),
                      domain=at_q(Fraction(2)))
        with pytest.raises(IdentityError, match="unknown mode 'bogus'"):
            rd.is_m_generic(2, "bogus")


class TestCentralElements:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_basic_values(self, h2, k):
        dom = h2.domain
        rep = sym_power_right_rea_p2(h2, k)
        cv = central_elements_in_rep(h2, rep, 2)
        assert cv.sigma[1] == dom.one + dom.q_pow(-2 * k - 2)
        assert cv.sigma[2] == dom.q_pow(-2 * k - 2)
        assert cv.s[1] == cv.sigma[1]

    def test_centrality_is_certified(self, h2):
        # add one to entry (0, 1) of block (0, 0); the module shared through
        # h2's memo keeps its blocks
        shared = sym_power_right_rea_p2(h2, 2)
        dim = shared.blocks.nrows
        rep = replace(shared, blocks=shared.blocks + Mat.from_entries(
            dim, dim, h2.domain.zero, [(0, 1, h2.domain.one)]))
        with pytest.raises(IdentityError, match="centrality"):
            central_elements_in_rep(h2, rep, 2)

    def test_up_to_bound(self, h2):
        rep = sym_power_right_rea_p2(h2, 1)
        with pytest.raises(IdentityError):
            central_elements_in_rep(h2, rep, 3)


class TestNewton:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_rows_in_representations(self, h2, k):
        rep = sym_power_right_rea_p2(h2, k)
        cv = central_elements_in_rep(h2, rep, 2)
        assert all(newton_check(cv, 2, h2.domain).values())

    def test_rows_with_three_aux_legs(self):
        # rank 3: sigma_3 contracts three auxiliary legs; REA-shifted
        # fundamental and S^2 left modules, certified scalar in all six
        # central values, with every Newton row exact
        h = standard_hecke(3, at_q(Fraction(3, 5)))
        for rep in (fundamental_left(h), sym_power_left(h, 2)):
            rea = with_mass(rep, 0, h)
            cv = central_elements_in_rep(h, rea, 3)
            assert len(cv.sigma) == len(cv.s) == 4
            assert all(cv.sigma[1:]) and all(cv.s[1:])
            rows = newton_check(cv, 3, h.domain)
            assert rows == {1: True, 2: True, 3: True}, rep.label

    def test_row_two_shape(self, h2):
        # -s2 + s1 sigma1 = 2_q q**-1 sigma2, checked on explicit values
        dom = h2.domain
        rep = sym_power_right_rea_p2(h2, 2)
        cv = central_elements_in_rep(h2, rep, 2)
        lhs = -cv.s[2] + cv.s[1] * cv.sigma[1]
        rhs = dom.q_int(2) * dom.q_pow(-1) * cv.sigma[2]
        assert lhs == rhs

    def test_perturbed_sigma_fails(self, h2):
        rep = sym_power_right_rea_p2(h2, 2)
        cv = central_elements_in_rep(h2, rep, 2)
        bad = CentralValues(sigma=[cv.sigma[0], cv.sigma[1],
                                   cv.sigma[2] + h2.domain.one],
                            s=cv.s, provenance="perturbed")
        rows = newton_check(bad, 2, h2.domain)
        assert rows[1] and not rows[2]

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_parametric_resolution(self, p, rng):
        # exact random (mu, q) samples; zero residual in every row
        for _ in range(3):
            dom = at_q(random_q(rng))
            mu = random_rationals(rng, p)
            rd = RootData(mu=mu, hbar=Fraction(0), domain=dom)
            cv = parametric_central_values(rd, p)
            assert all(newton_check(cv, p, dom).values())

    def test_vandermonde_ratio_p2(self):
        dom = at_q(Fraction(3, 2))
        mu = [Fraction(5), Fraction(-2)]
        rd = RootData(mu=mu, hbar=Fraction(0), domain=dom)
        got = parametric_central_values(rd, 1).s[1]
        d1 = (dom.q * mu[0] - mu[1] / dom.q) / (mu[0] - mu[1])
        d2 = (dom.q * mu[1] - mu[0] / dom.q) / (mu[1] - mu[0])
        assert got == dom.q_pow(-1) * (mu[0] * d1 + mu[1] * d2)

    def test_classical_limit_of_weights(self, rng):
        # at q -> 1 every Vandermonde ratio becomes 1: the power sums
        mu = random_rationals(rng, 3)
        rd = RootData(mu=mu, hbar=Fraction(0), domain=SYMBOLIC)
        cv = parametric_central_values(rd, 3)
        for k in (1, 2, 3):
            sym = cv.s[k] * SYMBOLIC.q_pow(2)
            assert eval_at(sym, 1) == sum(v ** k for v in mu)

    def test_repeated_mu_rejected(self):
        rd = RootData(mu=[Fraction(1), Fraction(1)], hbar=Fraction(0),
                      domain=at_q(Fraction(2)))
        with pytest.raises(IdentityError, match="positions 0, 1"):
            parametric_central_values(rd, 2)
        rd = RootData(mu=[Fraction(1), Fraction(2), Fraction(3), Fraction(2)],
                      hbar=Fraction(0), domain=SYMBOLIC)
        for p in (1, 4):
            with pytest.raises(IdentityError) as err:
                parametric_central_values(rd, p)
            assert str(err.value) == "repeated eigenvalue at positions 1, 3"

    @given(st.integers(2, 4).flatmap(distinct_fractions), sample_points)
    @settings(max_examples=40, deadline=None)
    def test_parametric_values_match_the_per_k_loop(self, mu, q0):
        dom = at_q(q0)
        rd = RootData(mu=mu, hbar=Fraction(0), domain=dom)
        p = len(mu)
        cv = parametric_central_values(rd, p + 1)
        assert cv.s == [dom.one] + [dom.q * per_k_newton(rd, k)
                                    for k in range(1, p + 2)]
        assert cv.sigma == [sum((prod(c, start=Fraction(1))
                                 for c in combinations(mu, k)), Fraction(0))
                            for k in range(p + 2)]

    def test_parametric_values_match_the_per_k_loop_at_fixed_seeds(self):
        for seed in range(3):
            rng = random.Random(seed)
            mu = random_rationals(rng, 3)
            for dom in (SYMBOLIC, at_q(random_q(rng))):
                rd = RootData(mu=mu, hbar=Fraction(0), domain=dom)
                cv = parametric_central_values(rd, 3)
                assert cv.s[1:] == [dom.q_pow(1) * per_k_newton(rd, k)
                                    for k in (1, 2, 3)]

    def test_sigma_past_the_rank_is_zero(self):
        dom = at_q(Fraction(3, 7))
        rd = RootData(mu=[Fraction(2), Fraction(5)], hbar=Fraction(0), domain=dom)
        cv = parametric_central_values(rd, 3)
        assert cv.sigma == [1, 7, 10, 0]
        assert cv.s[3] == dom.q * per_k_newton(rd, 3)

    def test_newton_weights_are_built_once(self, monkeypatch):
        # p multiplicities for all p power sums, not p per power sum
        calls = []
        real = identities.multiplicity

        def counting(*args):
            calls.append(args[0])
            return real(*args)
        monkeypatch.setattr(identities, "multiplicity", counting)
        for p in (2, 3, 4):
            calls.clear()
            rd = RootData(mu=random_rationals(random.Random(p), p),
                          hbar=Fraction(0), domain=at_q(Fraction(3, 5)))
            parametric_central_values(rd, p)
            assert len(calls) == p


class TestMultiplicityProduct:
    @given(st.integers(2, 4).flatmap(lambda p: st.tuples(
               distinct_fractions(p),
               st.lists(st.integers(-4, 4), min_size=p, max_size=p))),
           st.fractions(max_denominator=20), sample_points)
    @settings(max_examples=80, deadline=None)
    def test_matches_the_pairwise_loop(self, mu_kvec, hbar, q0):
        # kvec entries of either sign give negative differences both ways
        mu, kvec = mu_kvec
        dom = at_q(q0)
        assert (multiplicity(kvec, mu, hbar, dom)
                == pairwise_multiplicity(kvec, mu, hbar, dom))

    def test_matches_the_pairwise_loop_at_fixed_seeds(self):
        for seed in range(3):
            rng = random.Random(seed)
            p = rng.randint(2, 4)
            kvec = [rng.randint(-3, 3) for _ in range(p)]
            for dom in (SYMBOLIC, at_q(random_q(rng))):
                rd = RootData(mu=random_rationals(rng, p),
                              hbar=Fraction(rng.randint(-3, 3)), domain=dom)
                assert (multiplicity(kvec, rd.mu, rd.hbar, dom)
                        == pairwise_multiplicity(kvec, rd.mu, rd.hbar, dom))

    def test_zero_factor(self):
        # mu_2 = q**2 mu_1 cancels the (1, 0) numerator q mu_1 - mu_2 / q
        for dom in (SYMBOLIC, at_q(Fraction(2, 3))):
            mu = [dom.one, dom.q_pow(2), dom.lift(5)]
            assert multiplicity((1, 0, 0), mu, dom.zero, dom) == dom.zero
            assert pairwise_multiplicity((1, 0, 0), mu, dom.zero, dom) == dom.zero


def esp_without(values, skip):
    """[e_0, ..., e_n] of the values with the listed positions deleted, padded
    with zeros to the length of the full vector (as newton.esp_props reads it)."""
    kept = [v for i, v in enumerate(values) if i not in skip]
    return elementary_symmetric_all(kept) + [Fraction(0)] * (len(values) - len(kept))


class TestElementarySymmetric:
    @given(st.lists(st.fractions(max_denominator=30), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_all_is_every_e_k(self, t):
        assert elementary_symmetric_all(t) == [
            sum((prod(c, start=Fraction(1)) for c in combinations(t, k)),
                Fraction(0)) for k in range(len(t) + 1)]

    @pytest.mark.parametrize("skip", [[], [2], [4, 0]])
    def test_without_deletes_the_positions(self, rng, skip):
        t = random_rationals(rng, 5)
        kept = list(t)
        for i in sorted(skip, reverse=True):
            del kept[i]
        for k in range(len(t) + 1):
            expect = sum((prod(c, start=Fraction(1))
                          for c in combinations(kept, k)), Fraction(0))
            assert esp_without(t, skip)[k] == expect

    def test_deletion_recurrence(self, rng):
        t = random_rationals(rng, 6)
        for k in range(1, 7):
            for i in range(6):
                without_i = esp_without(t, [i])
                assert (elementary_symmetric_all(t)[k]
                        == without_i[k] + t[i] * without_i[k - 1])

    def test_difference_identity(self, rng):
        t = random_rationals(rng, 5)
        for k in range(1, 6):
            for i in range(5):
                for j in range(5):
                    if i == j:
                        continue
                    lhs = esp_without(t, [i])[k] - esp_without(t, [j])[k]
                    rhs = (t[j] - t[i]) * esp_without(t, [i, j])[k - 1]
                    assert lhs == rhs

    def test_weighted_sum(self, rng):
        t = random_rationals(rng, 5)
        for k in range(1, 6):
            total = sum((t[i] * esp_without(t, [i])[k - 1]
                         for i in range(5)), Fraction(0))
            assert Fraction(k) * elementary_symmetric_all(t)[k] == total

    def test_hatted_vandermonde_determinant(self, rng):
        # the deleted-variable matrix has the reversed Vandermonde determinant
        for n in (2, 3, 4, 5):
            t = random_rationals(rng, n)
            rows = [[esp_without(t, [i])[k] for i in range(n)]
                    for k in range(n)]
            det = _det(rows)
            expect = Fraction(1)
            for i in range(n):
                for j in range(i + 1, n):
                    expect *= (t[i] - t[j])
            assert det == expect


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    out = Fraction(0)
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            sign = -1 if j % 2 else 1
            out += sign * rows[0][j] * _det(minor)
    return out


def power_form(mat, sigmas, domain):
    """Oracle: sum_k (-M)**(p-k) sigma_k from the list of powers
    (-M)**0..(-M)**p, each scaled by its sigma; (ok, support)."""
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


class TestChVerify:
    def test_diagonal(self):
        dom = at_q(Fraction(2))
        mat = from_rows([[Fraction(3), Fraction(0)], [Fraction(0), Fraction(7)]])
        ok, support = ch_verify(mat, [Fraction(3), Fraction(7)], dom)
        assert ok and support == 0

    def test_failure_reports_support(self):
        dom = at_q(Fraction(2))
        mat = from_rows([[Fraction(3), Fraction(1)], [Fraction(0), Fraction(7)]])
        ok, support = ch_verify(mat, [Fraction(3), Fraction(5)], dom)
        assert not ok and support > 0

    def test_repeated_roots_allowed(self):
        dom = at_q(Fraction(2))
        mat = from_rows([[Fraction(3), Fraction(1)], [Fraction(0), Fraction(3)]])
        ok, _ = ch_verify(mat, [Fraction(3), Fraction(3)], dom)
        assert ok

    def test_root_products_are_the_partial_products(self):
        # P_0 = I, P_1 = M - 3, P_2 = (M - 3)(M - 5), one per root
        dom = at_q(Fraction(2))
        mat = from_rows([[Fraction(3), Fraction(1)], [Fraction(0), Fraction(7)]])
        ident = Mat.identity(2, dom.zero, dom.one)
        chain = list(root_products(mat, [Fraction(3), Fraction(5)], dom))
        first = mat - ident.scale(Fraction(3))
        assert chain == [ident, first,
                         first * (mat - ident.scale(Fraction(5)))]

    def test_chain_stops_at_the_first_zero_product(self, monkeypatch):
        # (M - 1)(M - 2) = 0 for M = diag(1, 2): the chain ends there, with
        # one product, and the factor M - 5 is never multiplied in
        dom = at_q(Fraction(2))
        mat = from_rows([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]])
        calls = []
        real = Mat.__mul__

        def counting(a, b):
            calls.append(1)
            return real(a, b)
        monkeypatch.setattr(Mat, "__mul__", counting)
        assert ch_verify(mat, [Fraction(1), Fraction(2), Fraction(5)],
                         dom) == (True, 0)
        assert len(calls) == 1

    def test_coefficient_form(self):
        dom = at_q(Fraction(2))
        mat = from_rows([[Fraction(3), Fraction(0)], [Fraction(0), Fraction(7)]])
        sigmas = [Fraction(1), Fraction(10), Fraction(21)]
        ok, _ = ch_verify_coefficients(mat, sigmas, dom)
        assert ok

    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_horner_equals_the_power_form_on_casimir_matrices(self, seed):
        # sigma_k = e_k of the basic roots makes the sum (-1)**p prod (M - r)
        dom = SYMBOLIC if seed is None else at_q(random_q(random.Random(seed)))
        h = standard_hecke(2, dom)
        for k in (1, 2, 3):
            for algebra in ("rea", "mrea"):
                mat = split_casimir_matrix(h, k, 1, algebra).op
                sigmas = elementary_symmetric_all(
                    basic_roots(dom, k, algebra).mu, dom.zero, dom.one)
                bumped = [sigmas[0], sigmas[1] + dom.one, sigmas[2]]
                scaled = [sigmas[0], sigmas[1], sigmas[2] * dom.q]
                for sig, ok in ((sigmas, True), (bumped, False),
                                (scaled, False)):
                    got = ch_verify_coefficients(mat, sig, dom)
                    assert got == power_form(mat, sig, dom), (k, algebra)
                    assert got[0] is ok

    def test_horner_equals_the_power_form_on_seeded_matrices(self):
        rng = random.Random(5)
        dom = at_q(Fraction(2, 3))
        for _ in range(30):
            n, p = rng.randint(1, 4), rng.randint(0, 4)
            mat = from_rows([[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                             for _ in range(n)])
            sigmas = [Fraction(1)] + [Fraction(rng.randint(-5, 5))
                                      for _ in range(p)]
            assert (ch_verify_coefficients(mat, sigmas, dom)
                    == power_form(mat, sigmas, dom))


class TestConjectureRoots:
    def test_count(self):
        rd = RootData(mu=[Fraction(i + 1) for i in range(3)],
                      hbar=Fraction(1), domain=at_q(Fraction(2)))
        assert len(conjecture_roots(rd, 2)) == 6 == comb(2 + 3 - 1, 2)
        assert len(compositions(5, 4)) == comb(5 + 4 - 1, 5)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_rank2_closed_form_agreement(self, m):
        # the general formula specializes to the two-term closed form
        dom = SYMBOLIC
        mu = [dom.q_int(3), dom.q_pow(-4)]
        rd = RootData(mu=mu, hbar=Fraction(2), domain=dom)
        general = dict(conjecture_roots(rd, m))
        for (kvec, val) in omega_roots_p2(rd, m):
            assert general[kvec] == val

    def test_classical_limit(self, rng):
        # q -> 1 gives sum k_i mu_i + hbar sum_{i<j} k_i k_j
        p, m = 3, 3
        mu = random_rationals(rng, p)
        hbar = Fraction(3, 2)
        rd = RootData(mu=mu, hbar=hbar, domain=SYMBOLIC)
        for kvec, val in conjecture_roots(rd, m):
            classical = sum(k * v for k, v in zip(kvec, mu))
            classical += hbar * sum(kvec[i] * kvec[j]
                                    for i in range(p) for j in range(i + 1, p))
            assert eval_at(val, 1) == classical

    def test_xi_is_symmetric(self):
        dom = SYMBOLIC
        import itertools
        for p in (2, 3, 4):
            for m in range(0, 6):
                for kvec in compositions(m, p):
                    base = xi_symmetric(kvec, m, dom)
                    for perm in itertools.permutations(kvec):
                        assert xi_symmetric(list(perm), m, dom) == base
