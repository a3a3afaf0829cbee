from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from qorbits import casimir
from qorbits.hecke import HeckeSymmetry, standard_hecke
from qorbits.scalars import SYMBOLIC, at_q, eval_at, random_q
from qorbits.tensor import Mat, embed_on_legs, row_reduce, weighted_partial_trace
from qorbits.casimir import (CasimirError, basic_roots, closed_form_p2,
                             generator_trace_identity, left_casimir_matrix,
                             module_trace, q_dimension, split_casimir_matrix,
                             trace_weights)
from qorbits.projectors import q_symmetrizer
from qorbits.reps import (Compression, RepresentationError,
                          sym_chart, sym_power_left, sym_power_right_rea_p2)
from qorbits.identities import (IdentityError, RootData, ch_verify,
                                omega_roots_p2)
from qorbits.orbits import frobenius_dim


def pairwise_q_dimension(lam, p, domain):
    """Oracle: the Weyl product multiplied and divided one pair at a time."""
    lam = list(lam) + [0] * (p - len(lam))
    out = domain.one
    for i in range(p):
        for j in range(i + 1, p):
            out = out * domain.q_int(lam[i] - lam[j] - (i + 1) + (j + 1))
            out = out / domain.q_int(j - i)
    return out


class TestQDimension:
    @given(st.integers(1, 4).flatmap(lambda p: st.tuples(
               st.just(p), st.lists(st.integers(-6, 6), max_size=p))),
           st.fractions(max_denominator=128).filter(lambda q: q not in (0, 1, -1)))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_pairwise_product(self, p_lam, q0):
        # any integer label, so negative differences and zero factors occur
        p, lam = p_lam
        dom = at_q(q0)
        assert q_dimension(lam, p, dom) == pairwise_q_dimension(lam, p, dom)

    def test_matches_the_pairwise_product_at_fixed_seeds(self):
        for seed in range(4):
            rng = random.Random(seed)
            p = rng.randint(1, 4)
            lam = [rng.randint(-6, 6) for _ in range(p)]
            for dom in (SYMBOLIC, at_q(random_q(rng))):
                assert (q_dimension(lam, p, dom)
                        == pairwise_q_dimension(lam, p, dom))

    def test_zero_factor(self):
        # lam_1 - lam_2 + 1 = 0: the shifted label (0, 1) has q-dimension 0
        for dom in (SYMBOLIC, at_q(Fraction(2, 3))):
            assert q_dimension([0, 1], 2, dom) == dom.zero
            assert q_dimension([3, 0, 1], 3, dom) == dom.zero
            assert pairwise_q_dimension([3, 0, 1], 3, dom) == dom.zero

    def test_fundamental(self):
        for p in (2, 3, 4):
            assert q_dimension([1], p, SYMBOLIC) == SYMBOLIC.q_int(p)

    def test_symmetric_row_rank2(self):
        for m in range(0, 6):
            assert q_dimension([m], 2, SYMBOLIC) == SYMBOLIC.q_int(m + 1)

    def test_wedge_columns_are_q_binomials(self):
        for p in (2, 3, 4):
            for k in range(0, p + 1):
                assert q_dimension([1] * k, p, SYMBOLIC) == SYMBOLIC.q_binomial(p, k)

    def test_classical_limit_is_frobenius(self, rng):
        for _ in range(12):
            p = rng.randint(2, 4)
            lam = sorted((rng.randint(0, 6) for _ in range(p)), reverse=True)
            sym = q_dimension(lam, p, SYMBOLIC)
            assert eval_at(sym, 1) == frobenius_dim(lam)

    def test_too_many_parts(self):
        with pytest.raises(CasimirError):
            q_dimension([2, 1, 1], 2, SYMBOLIC)

    def test_shift_invariance(self):
        assert q_dimension([4, 1], 2, SYMBOLIC) == q_dimension([7, 4], 2, SYMBOLIC)

    def test_two_row_sum_rule(self):
        # multiplicativity/additivity across the two-row decomposition:
        # dim V_(k) dim V_(m) = sum_s dim V_(k+s, m-s) for k >= m, rank 2
        dom = SYMBOLIC
        for k, m in [(2, 1), (3, 2), (4, 3), (5, 2)]:
            lhs = q_dimension([k], 2, dom) * q_dimension([m], 2, dom)
            rhs = dom.zero
            for s in range(0, m + 1):
                rhs = rhs + q_dimension([k + s, m - s], 2, dom)
            assert lhs == rhs


class TestTraceWeights:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_calibration(self, h2, m):
        # W_m = q**(2(m-1)) compress(C**(x)m), and q**2 trace W_m = [m+1]_q
        w = trace_weights(h2, m)
        dom = h2.domain
        cw = h2.c
        for _ in range(m - 1):
            cw = cw.kron(h2.c)
        assert w == sym_chart(h2, m).compress(cw).scale(dom.q_pow(2 * (m - 1)))
        total = w.trace() * dom.q_pow(2)
        assert total == q_dimension([m], 2, dom)

    @pytest.mark.parametrize("m", [1, 2])
    def test_calibration_n3(self, h3, m):
        w = trace_weights(h3, m)
        total = w.trace() * h3.domain.q_pow(3)
        assert total == q_dimension([m], 3, h3.domain)

    def test_single_leg_reduces_to_weighted_trace(self, h2):
        dom = h2.domain
        w = trace_weights(h2, 1)
        assert w == h2.c
        # trace_R(identity) = trace C = p_q / q**p
        ident = Mat.identity(3 * 2, dom.zero, dom.one)
        got = module_trace(ident, 3, 2, w)
        assert got == dom.q_int(2) * dom.q_pow(-2)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_generator_trace_identity(self, h2, m):
        assert generator_trace_identity(h2, m)

    def test_generator_trace_identity_n3(self, h3):
        assert generator_trace_identity(h3, 2)

    def test_generator_trace_that_is_not_scalar_raises(self, h2, monkeypatch):
        # one off-diagonal entry added to block (0, 0) leaves C[0][0] times it
        # in the contraction: a witness, not a plain False
        real = casimir.sym_power_left

        def perturbed(h, m):
            rep = real(h, m)
            dim = rep.blocks.nrows
            return replace(rep, blocks=rep.blocks + Mat.from_entries(
                dim, dim, h.domain.zero, [(0, 1, h.domain.one)]))
        monkeypatch.setattr(casimir, "sym_power_left", perturbed)
        with pytest.raises(IdentityError, match="^centrality violation: the "
                           "generator trace at m=2 is not scalar$"):
            generator_trace_identity(h2, 2)


class TestSplitCasimir:
    def test_basic_spectrum(self, h2):
        dom = h2.domain
        for k in (1, 2, 3):
            cm = split_casimir_matrix(h2, k, 1, "rea")
            ok, _ = ch_verify(cm.op, [dom.one, dom.q_pow(-2 * k - 2)], dom)
            assert ok

    @pytest.mark.parametrize("algebra", ["rea", "mrea"])
    def test_basic_roots(self, h2, h2_sampled, algebra):
        for h in (h2, h2_sampled):
            dom = h.domain
            for k in (1, 2, 3):
                op = split_casimir_matrix(h, k, 1, algebra).op
                rd = basic_roots(dom, k, algebra)
                assert rd.hbar == (0 if algebra == "rea" else 1)
                assert ch_verify(op, rd.mu, dom)[0]
                # a root shifted by one fails, so the check is not vacuous
                for i in range(2):
                    moved = list(rd.mu)
                    moved[i] = moved[i] + dom.one
                    assert not ch_verify(op, moved, dom)[0]

    def test_basic_roots_unknown_algebra(self):
        with pytest.raises(CasimirError):
            basic_roots(SYMBOLIC, 1, "xrea")

    def test_dimension_product(self, h2):
        cm = split_casimir_matrix(h2, 2, 1, "rea")
        assert cm.dim == 6 and cm.dk == 3 and cm.dm == 2

    @pytest.mark.parametrize("km", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_closed_form_equality(self, h2, km):
        k, m = km
        assert split_casimir_matrix(h2, k, m, "rea").op == closed_form_p2(h2, k, m).op

    def test_closed_form_precondition(self, h2):
        with pytest.raises(CasimirError):
            closed_form_p2(h2, 1, 2)

    def test_requires_rank_two(self, h3):
        with pytest.raises(CasimirError):
            split_casimir_matrix(h3, 1, 1)

    def test_mrea_is_unit_shift_of_rea(self, h2):
        dom = h2.domain
        for (k, m) in [(1, 1), (2, 2)]:
            rea = split_casimir_matrix(h2, k, m, "rea")
            mrea = split_casimir_matrix(h2, k, m, "mrea")
            shift = dom.q_pow(1 - m) * dom.q_int(m) / dom.zeta
            ident = Mat.identity(rea.dim, dom.zero, dom.one)
            assert mrea.op == rea.op + ident.scale(shift)

    def test_weighted_trace_of_basic_power(self, h2):
        # trace_R of L(k,1)**1 against the eigenvalue resolution: the weights
        # are the Vandermonde ratios at {1, q**(-2k-2)}
        dom = h2.domain
        for k in (1, 2, 3):
            cm = split_casimir_matrix(h2, k, 1, "rea")
            w = trace_weights(h2, 1)
            lhs = module_trace(cm.op, cm.dk, cm.dm, w)
            mu = [dom.one, dom.q_pow(-2 * k - 2)]
            rhs = dom.zero
            for i in (0, 1):
                d_i = dom.one
                for j in (0, 1):
                    if j != i:
                        d_i = (d_i * (dom.q * mu[i] - dom.q_pow(-1) * mu[j])
                               / (mu[i] - mu[j]))
                rhs = rhs + mu[i] * d_i
            assert lhs == rhs * dom.q_pow(-2)

    def test_eigenspace_ranks_match_two_row_dims(self, h2):
        # eigenspace of omega_hat_s inside V_(k) (x) V_(m) has the classical
        # dimension of the two-row component (k+s, m-s)
        dom = h2.domain
        k, m = 2, 2
        cm = split_casimir_matrix(h2, k, m, "rea")
        mu = [dom.one, dom.q_pow(-2 * k - 2)]
        rd = RootData(mu=mu, hbar=Fraction(0), domain=dom)
        ident = Mat.identity(cm.dim, dom.zero, dom.one)
        for (s, _), root in zip([(s, m - s) for s in range(m, -1, -1)],
                                [v for _, v in omega_roots_p2(rd, m)]):
            kernel_dim = cm.dim - len(row_reduce(cm.op - ident.scale(root))[0])
            expect = (k + s) - (m - s) + 1
            assert kernel_dim == expect

    def test_left_casimir_matches_right_spectrum_p2(self, h2):
        # the left-left route must see a subset of the same root set, at the
        # left-module eigenvalue normalization
        from qorbits.orbits import conjecture_scan
        rep = conjecture_scan(h2, 2, 2)
        assert rep.consistent


def _block(rep, i, j):
    """The d x d block rho_ij sliced out of rep.blocks."""
    d = rep.d
    return Mat.from_entries(d, d, rep.domain.zero,
                            ((r - i * d, c - j * d, v)
                             for r, c, v in rep.blocks.entries()
                             if r // d == i and c // d == j))


def _pairing_oracle(h, first, second, transpose):
    """q**(2p) sum_{(i, j, c) in C} sum_a c rho_ia (x) rho'_aj, one kron per
    term, with the second module's blocks transposed when transpose is set."""
    dim = first.d * second.d
    acc = Mat.zeros(dim, dim, h.domain.zero)
    for i, j, c in h.c.entries():
        for a in range(h.n):
            right = _block(second, a, j)
            if transpose:
                right = right.transpose()
            acc = acc + _block(first, i, a).kron(right).scale(c)
    return acc.scale(h.domain.q_pow(2 * h.p))


def _traced_product_oracle(h, first, second, transpose):
    """The product-then-trace route: q**(2p) times the C-weighted trace over
    the auxiliary leg of (F (x) I)(sum_aj E_aj (x) I (x) B_aj) on
    V (x) V_first (x) V_second."""
    d1, d2 = first.d, second.d
    product = (first.blocks.embed(1, d2)
               * second.blocks.embed_blocks(d2, d1, transpose))
    return weighted_partial_trace(product, {1}, h.c.transpose(),
                                  (h.n, d1 * d2)).scale(
        h.domain.q_pow(2 * h.p))


class TestPairingFormula:
    """The split Casimir as the C-weighted trace of a product of generator
    matrices equals the sum of block krons it stands for."""

    @pytest.mark.parametrize("algebra", ["rea", "mrea"])
    @pytest.mark.parametrize("km", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2),
                                    (3, 3)])
    def test_split_casimir_rank2(self, h2, km, algebra):
        k, m = km
        dom = h2.domain
        expect = _pairing_oracle(h2, sym_power_right_rea_p2(h2, k),
                                 sym_power_left(h2, m), False)
        if algebra == "mrea":
            shift = dom.q_pow(1 - m) * dom.q_int(m) / dom.zeta
            expect = expect + Mat.identity(expect.nrows, dom.zero, shift)
        assert split_casimir_matrix(h2, k, m, algebra).op.rows == expect.rows

    @pytest.mark.parametrize("km", [(2, 2), (3, 2)])
    def test_left_casimir_rank3(self, km):
        k, m = km
        h = standard_hecke(3, at_q(Fraction(3, 5)))
        expect = _pairing_oracle(h, sym_power_left(h, k), sym_power_left(h, m),
                                 True)
        assert left_casimir_matrix(h, k, m).op.rows == expect.rows

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("q0", [None, Fraction(3, 5)])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_fused_pairing_against_the_traced_product(self, n, q0,
                                                      transpose):
        # the fused pairing equals the product-then-trace route and the
        # sum of block krons, on left modules of ranks 2-5 and, at rank 2,
        # on the right module the split Casimir pairs
        h = standard_hecke(n, SYMBOLIC if q0 is None else at_q(q0))
        pairs = [(sym_power_left(h, k), sym_power_left(h, m))
                 for k, m in ((2, 1), (1, 2), (2, 2))]
        if n == 2:
            pairs += [(sym_power_right_rea_p2(h, 3), sym_power_left(h, 2))]
        for first, second in pairs:
            got = casimir._casimir_pairing(h, first, second, transpose)
            assert got == _traced_product_oracle(h, first, second, transpose)
            assert got == _pairing_oracle(h, first, second, transpose)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_weight_orientation(self, transpose):
        # a stand-in symmetry with the modules of a standard one and a
        # non-symmetric C pins which index of C the pairing contracts
        h = standard_hecke(3, at_q(Fraction(3, 5)))
        dom = h.domain
        c = Mat.from_entries(3, 3, dom.zero, (
            (0, 0, Fraction(2)), (0, 1, Fraction(1, 3)), (1, 2, Fraction(-5)),
            (2, 0, Fraction(7, 4)), (2, 2, Fraction(1))))
        stand_in = SimpleNamespace(c=c, n=h.n, p=h.p, domain=dom)
        first, second = sym_power_left(h, 2), sym_power_left(h, 1)
        assert (casimir._casimir_pairing(stand_in, first, second, transpose)
                == _pairing_oracle(stand_in, first, second, transpose))


class TestPairingMemo:
    """One pairing per (k, m, transpose) and exact (R, q), shared by every
    symmetry of that content and by both algebras."""

    @pytest.fixture()
    def pairings(self, monkeypatch):
        calls = []
        real = casimir._casimir_pairing

        def counting(h, first, second, transpose):
            calls.append((first.d, second.d, transpose))
            return real(h, first, second, transpose)
        monkeypatch.setattr(casimir, "_casimir_pairing", counting)
        return calls

    def test_algebras_and_symmetries_share_one_pairing(self, pairings):
        k, m = 3, 2
        dom = at_q(Fraction(3, 5))
        h = standard_hecke(2, dom)
        rea = split_casimir_matrix(h, k, m, "rea")
        mrea = split_casimir_matrix(h, k, m, "mrea")
        again = split_casimir_matrix(standard_hecke(2, at_q(Fraction(3, 5))),
                                     k, m, "rea")
        assert pairings == [(4, 3, False)]
        assert again.op is rea.op
        shift = dom.q_pow(1 - m) * dom.q_int(m) / dom.zeta
        assert mrea.op == rea.op + Mat.identity(rea.dim, dom.zero, shift)

    def test_left_pairing_is_kept_apart(self, pairings):
        h = standard_hecke(2, at_q(Fraction(3, 5)))
        split = split_casimir_matrix(h, 2, 2, "rea")
        left = left_casimir_matrix(h, 2, 2)
        assert left_casimir_matrix(h, 2, 2).op is left.op
        assert pairings == [(3, 3, False), (3, 3, True)]
        assert left.op is not split.op

    def test_unknown_algebra_forms_no_pairing(self, pairings):
        with pytest.raises(CasimirError, match="unknown algebra"):
            split_casimir_matrix(standard_hecke(2, at_q(Fraction(3, 5))), 1, 1,
                                 "rea2")
        assert pairings == []

    def test_shared_values_are_frozen(self):
        h = standard_hecke(2, at_q(Fraction(3, 5)))
        cm = split_casimir_matrix(h, 2, 1)
        with pytest.raises(FrozenInstanceError):
            cm.op = cm.op.scale(h.domain.lift(2))
        # the trace weight is a Mat, which no operation writes into: the
        # memo hands out one value and module_trace leaves it as it was
        w = trace_weights(h, 2)
        before = w.scale(h.domain.one)
        module_trace(Mat.identity(2 * w.nrows, h.domain.zero, h.domain.one),
                     2, w.nrows, w)
        assert trace_weights(h, 2) is w and w == before


class TestQuantumTraceEntry:
    def test_block_contraction_matches_trace_weights(self, h2):
        # contracting the generator index of a module's generator matrix
        # against C gives tr_R L, which is central: a scalar multiple of
        # the identity on the module
        from qorbits.reps import sym_power_right_rea_p2
        dom = h2.domain
        rep = sym_power_right_rea_p2(h2, 2)
        traced = weighted_partial_trace(rep.generator_matrix(), {1},
                                        h2.c.transpose(), (2, rep.d))
        ident = Mat.identity(rep.d, dom.zero, dom.one)
        value = traced.rows[0][0]
        assert value and traced == ident.scale(value)

    def test_full_scalar_on_identity(self, h2):
        # tr_R(I_n) with the module factor traced as well:
        # (tr C) * tr(W_m), one leg at a time or through module_trace
        dom = h2.domain
        w = trace_weights(h2, 2)
        dm = w.nrows
        ident = Mat.identity(2 * dm, dom.zero, dom.one)
        gen = weighted_partial_trace(ident, {1}, h2.c, (2, dm))
        full = weighted_partial_trace(gen, {1}, w, (dm,))
        expect = h2.c.trace() * w.trace()
        assert full.nrows == 1 and full.rows[0][0] == expect
        assert h2.c.trace() * module_trace(ident, 2, dm, w) == expect


def _one_compression(h, k, m):
    """Oracle: the closed form as one compression of the scaled sum,
    compress(c1 S(k) S(m) + c2 S(m) S(k+1) S(m)) q**(1-m)."""
    dom = h.domain
    total = k + m
    sk = embed_on_legs(q_symmetrizer(h, k), 1, total)
    sm = embed_on_legs(q_symmetrizer(h, m), k + 1, total)
    sk1 = embed_on_legs(q_symmetrizer(h, k + 1), 1, total)
    c1 = dom.q_int(m) / dom.q_pow(2 * k + 2)
    c2 = dom.zeta * dom.q_int(m) * dom.q_int(k + 1) / dom.q_pow(k + 1)
    a, b = sym_chart(h, k), sym_chart(h, m)
    chart = Compression(a.basis.kron(b.basis),
                        a.left_inverse.kron(b.left_inverse))
    big = (sk * sm).scale(c1) + (sm * sk1 * sm).scale(c2)
    return chart.compress(big).scale(dom.q_pow(1 - m))


class TestClosedFormCompression:
    """The closed form compresses each product before it scales it."""

    KM = [(k, m) for k in range(1, 4) for m in range(1, k + 1)]

    @pytest.mark.parametrize("seed", [None, 1, 2, "dvl3"])
    def test_equals_one_compression(self, h2, dvl3, seed):
        # dvl3 at 2/3: a rank-2 symmetry on n = 3 whose V_(m) are not the
        # standard ones
        if seed == "dvl3":
            dom = at_q(Fraction(2, 3))
            h = HeckeSymmetry(dvl3(dom), dom)
            assert (h.n, h.p) == (3, 2)
        else:
            h = h2 if seed is None else standard_hecke(
                2, at_q(random_q(random.Random(seed))))
        for k, m in self.KM:
            assert closed_form_p2(h, k, m).op == _one_compression(h, k, m), (k, m)

    @pytest.mark.parametrize("k, m, rows", [(3, 3, 32), (3, 2, 16)])
    def test_builds_nothing_on_k_plus_m_legs(self, largest_built, k, m, rows):
        # the largest operator is p_4 (x) I on V_(3) (x) V**m, d_3 2**m
        # rows, not 2**(3 + m); neither S(4) nor its chart on 4 legs is
        # built, and d_3 comes off level 3, not off the chart of V_(3) on
        # 3 legs (which at m = 3 is the chart of V_(m))
        h = standard_hecke(2)
        closed_form_p2(h, k, m)
        assert 0 < largest_built[0] <= rows
        absent = {("S", 4, "chart"), ("S", 4, "projector")}
        if m < k:
            absent.add(("S", k, "chart"))
        assert not absent & set(h._memo)

    def test_round_trip_is_checked(self, monkeypatch):
        # with S(m) taken for the identity, p_{k+1} (x) I leaves
        # V_(k) (x) V_(m), and the compression says so
        h = standard_hecke(2, at_q(Fraction(2, 3)))
        monkeypatch.setattr(casimir, "q_symmetrizer",
                            lambda h, m: h.identity(m))
        with pytest.raises(RepresentationError, match="preserve the image"):
            closed_form_p2(h, 2, 2)

    @pytest.mark.parametrize("km", KM)
    def test_scales_only_compressed_operators(self, scale_sizes, km):
        # the projectors and charts are memoized by the first call
        k, m = km
        h = standard_hecke(2)
        cm = closed_form_p2(h, k, m)
        again, sizes = scale_sizes(lambda: closed_form_p2(h, k, m))
        assert again.op == cm.op
        assert sizes and max(sizes) <= cm.dim
