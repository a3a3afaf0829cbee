from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest

from qorbits import casimir, reps
from qorbits.hecke import standard_hecke
from qorbits.scalars import SYMBOLIC, at_q
from qorbits.tensor import Mat
from qorbits.projectors import q_antisymmetrizer, q_symmetrizer
from qorbits.reps import (Compression, Representation, RepresentationError,
                          corollary_phi_blocks, fundamental_left,
                          rescaled, right_fundamental_blocks,
                          sym_chart, sym_power_left, sym_power_right_p2,
                          sym_power_right_rea_p2, tensor_power_left,
                          verify_defining_relations, with_mass)


def _bumped(rep, i, j):
    """rep with one added to entry (0, 0) of block (i, j); the blocks are
    never written into, so the module shared through the memo stays as it is."""
    dim, d = rep.blocks.nrows, rep.d
    return replace(rep, blocks=rep.blocks + Mat.from_entries(
        dim, dim, rep.domain.zero, [(i * d, j * d, rep.domain.one)]))


def _block(blocks, d, i, j):
    """The d x d block (i, j) of a block matrix sum_ij E_ij (x) B_ij."""
    return Mat.from_entries(d, d, blocks.zero,
                            ((r - i * d, c - j * d, v)
                             for r, c, v in blocks.entries()
                             if r // d == i and c // d == j))


def sandwiched(h, m, x):
    """Reference oracle, the full-leg route: q**(1-m) m_q (I (x) S(m)) x
    (I (x) S(m)) for x on V (x) V**m, compressed to V (x) V_(m) by the chart
    I (x) B_m, I (x) L_m of the image of I (x) S(m)."""
    dom, n = h.domain, h.n
    chart = sym_chart(h, m)
    s = q_symmetrizer(h, m).embed(n, 1)
    on_blocks = Compression(chart.basis.embed(n, 1),
                            chart.left_inverse.embed(n, 1))
    return on_blocks.compress((s * x * s).scale(dom.q_pow(1 - m)
                                                * dom.q_int(m)))


def four_product_relations(rep, h):
    """Reference oracle, the four-product form: the block positions at which
    R L1 R L1 - L1 R L1 R - hbar (R L1 - L1 R) is nonzero."""
    n, d = rep.n, rep.d
    l1 = rep.generator_matrix(2)
    rbig = h.r.embed(1, d)
    rl, lr = rbig * l1, l1 * rbig
    e = rl * rl - lr * lr - (rl - lr).scale(rep.domain.lift(rep.hbar))
    bad = sorted({(r // d, c // d) for r, c, _ in e.entries()})
    return [((a // n, a % n), (b // n, b % n)) for a, b in bad]


class TestFundamental:
    def test_action_matches_weight_entries(self, h2):
        rep = fundamental_left(h2)
        assert rep.d == h2.n
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for s in range(2):
                        expect = h2.b.rows[j][k] if s == i else h2.domain.zero
                        assert rep.blocks[i * 2 + s, j * 2 + k] == expect

    def test_relations_hold(self, h2):
        rep = fundamental_left(h2)
        assert verify_defining_relations(rep, h2) == []

    def test_perturbed_blocks_fail(self, h2):
        rep = _bumped(fundamental_left(h2), 0, 1)
        assert verify_defining_relations(rep, h2) != []
        assert verify_defining_relations(fundamental_left(h2), h2) == []

    @pytest.mark.parametrize("q0", [None, Fraction(3, 5)])
    @pytest.mark.parametrize("hbar", [0, 1])
    def test_commutator_form_matches_four_products(self, q0, hbar):
        # the one-commutator check returns the four-product oracle's exact
        # block list on valid modules ([]) and on each with one block
        # entry perturbed
        h = standard_hecke(2, SYMBOLIC if q0 is None else at_q(q0))
        for rep in (fundamental_left(h), sym_power_left(h, 2),
                    sym_power_right_p2(h, 2)):
            if rep.hbar != hbar:
                rep = with_mass(rep, hbar, h)
            assert verify_defining_relations(rep, h) == []
            assert four_product_relations(rep, h) == []
            for i, j in ((0, 0), (0, 1), (1, 0)):
                bad = _bumped(rep, i, j)
                expect = four_product_relations(bad, h)
                assert expect
                assert verify_defining_relations(bad, h) == expect

    def test_zero_rep_solves_massless_relations(self, h2):
        rep = Representation("left", Fraction(0), 2, 3,
                             Mat.zeros(6, 6, h2.domain.zero), "zero", h2.domain)
        assert verify_defining_relations(rep, h2) == []


class TestTensorPower:
    def test_degree_one_equals_fundamental(self, h2):
        t1 = tensor_power_left(h2, 1)
        f = fundamental_left(h2)
        assert t1.blocks == f.blocks

    def test_degree_two_chain_formula(self, h2):
        # one inverse-braiding sandwich around the single-leg block
        t2 = tensor_power_left(h2, 2)
        f = fundamental_left(h2)
        ident = Mat.identity(2, h2.domain.zero, h2.domain.one)
        rinv = ident.kron(h2.r_inv)
        single = f.blocks.kron(ident)
        assert t2.blocks == single + rinv * single * rinv

    @pytest.mark.parametrize("m", [2, 3])
    def test_relations(self, h2, m):
        rep = tensor_power_left(h2, m)
        assert verify_defining_relations(rep, h2) == []

    @pytest.mark.parametrize("m", [2, 3])
    def test_symmetric_subspace_invariant(self, h2, m):
        x = tensor_power_left(h2, m).blocks
        ident = Mat.identity(2, h2.domain.zero, h2.domain.one)
        s = ident.kron(q_symmetrizer(h2, m))
        assert s * x * s == x * s


class TestSymPower:
    def test_dimension(self, h2):
        assert sym_power_left(h2, 2).d == 3

    # the tensor power intertwines with the symmetric power through I (x) B_m,
    # which with L_m B_m = I says that it compresses to it
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_equals_compressed_tensor_power_n2(self, h2, m):
        basis = sym_chart(h2, m).basis.embed(2, 1)
        sym = sym_power_left(h2, m)
        assert tensor_power_left(h2, m).blocks * basis == basis * sym.blocks

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_equals_compressed_tensor_power_n3(self, h3, m):
        basis = sym_chart(h3, m).basis.embed(3, 1)
        sym = sym_power_left(h3, m)
        assert tensor_power_left(h3, m).blocks * basis == basis * sym.blocks

    def test_relations_n3(self, h3):
        for m in (2, 3):
            rep = sym_power_left(h3, m)
            assert verify_defining_relations(rep, h3) == []


class TestNestedAgainstFullLegs:
    """Modules and trace weights built on the nested levels equal, entry by
    entry, the full-leg sandwich and the compression of C**(x)m."""

    CASES = [(3, Fraction(3, 5), 5), (4, Fraction(2, 7), 4),
             (3, Fraction(-77, 101), 4), (2, None, 5), (2, Fraction(2, 3), 5),
             (3, None, 3)]

    @staticmethod
    def _hecke(n, q0):
        return standard_hecke(n, SYMBOLIC if q0 is None else at_q(q0))

    @pytest.mark.parametrize("n, q0, top", CASES)
    def test_left_modules_and_weights(self, n, q0, top):
        h = self._hecke(n, q0)
        dom, cw = h.domain, h.c
        for m in range(1, top + 1):
            x = fundamental_left(h).blocks.embed(1, n ** (m - 1))
            assert sym_power_left(h, m).blocks == sandwiched(h, m, x), m
            weight = sym_chart(h, m).compress(cw)
            assert (casimir.trace_weights(h, m)
                    == weight.scale(dom.q_pow(h.p * (m - 1)))), m
            cw = cw.kron(h.c)

    @pytest.mark.parametrize("q0", [None, Fraction(2, 3)])
    def test_right_modules(self, q0):
        h = self._hecke(2, q0)
        for m in range(1, 6):
            x = right_fundamental_blocks(h).embed_blocks(2, 2 ** (m - 1))
            assert sym_power_right_p2(h, m).blocks == sandwiched(h, m, x), m

    def test_left_module_builds_nothing_on_full_legs(self, largest_built):
        # the largest operator is the relation check on V (x) V (x) V_(5),
        # n**2 d_5 = 189 at rank 3; the sandwich acts on 3**6 = 729
        h = standard_hecke(3, at_q(Fraction(3, 5)))
        assert sym_power_left(h, 5).d == 21
        assert 0 < largest_built[0] <= 189
        assert ("S", 5, "chart") not in h._memo


class TestCharts:
    """The left inverse L read off the projector's reduction: L B = I."""

    @pytest.mark.parametrize("q", [None, Fraction(3, 5)],
                             ids=["symbolic", "q3/5"])
    @pytest.mark.parametrize("n, m_max", [(2, 4), (3, 2)])
    def test_left_inverse_of_sym_chart(self, n, m_max, q):
        h = standard_hecke(n) if q is None else standard_hecke(n, at_q(q))
        dom = h.domain
        for m in range(1, m_max + 1):
            chart = sym_chart(h, m)
            assert (chart.left_inverse * chart.basis
                    == Mat.identity(chart.dim, dom.zero, dom.one))
            assert chart.basis * chart.left_inverse == q_symmetrizer(h, m)

    def test_left_inverse_of_product_chart(self, h2, h2_sampled):
        for h in (h2, h2_sampled):
            dom = h.domain
            a, b = sym_chart(h, 3), sym_chart(h, 2)
            chart = Compression(a.basis.kron(b.basis),
                                a.left_inverse.kron(b.left_inverse))
            assert chart.dim == 12
            assert (chart.left_inverse * chart.basis
                    == Mat.identity(12, dom.zero, dom.one))

    def test_compress_rejects_an_operator_leaving_the_image(self, h2, h2_sampled):
        # x1 x1 spans a line of S(2)'s image; sending it to x1 x2 alone leaves
        # the image, whose other vectors mix x1 x2 with x2 x1
        for h in (h2, h2_sampled):
            dom = h.domain
            off = Mat.from_entries(4, 4, dom.zero, [(1, 0, dom.one)])
            with pytest.raises(RepresentationError, match="preserve the image"):
                sym_chart(h, 2).compress(off)


class TestRightModules:
    def test_single_leg_action_matrix(self, h2):
        dom = h2.domain
        rep = sym_power_right_p2(h2, 1)
        a2 = q_antisymmetrizer(h2, 2)
        coeff = dom.q_int(2) * dom.q_pow(-2)
        for i in range(2):
            for j in range(2):
                for s in range(2):
                    for k in range(2):
                        expect = coeff * a2.rows[s * 2 + j][k * 2 + i]
                        assert rep.blocks[i * 2 + s, j * 2 + k] == expect

    def test_rank_requirement(self, h3):
        with pytest.raises(RepresentationError, match="symmetry rank 2"):
            sym_power_right_p2(h3, 2)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_right_relations(self, h2, m):
        rep = sym_power_right_p2(h2, m)
        assert rep.side == "right"
        assert verify_defining_relations(rep, h2) == []

    def test_right_blocks_need_opposite_order(self, h2):
        # reading the right blocks as a left representation must fail:
        # the engine's order reversal is doing real work
        rep = sym_power_right_p2(h2, 2)
        fake = Representation("left", Fraction(1), rep.n, rep.d, rep.blocks,
                              "wrong side", rep.domain)
        assert verify_defining_relations(fake, h2) != []
        # and no shift hands it back as a module
        for shift in (lambda: with_mass(fake, 0, h2),
                      lambda: with_mass(fake, 1, h2),
                      lambda: rescaled(fake, 2, h2)):
            with pytest.raises(RepresentationError, match="wrong side"):
                shift()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_spectral_normalization_is_rea(self, h2, m):
        rep = sym_power_right_rea_p2(h2, m)
        assert rep.hbar == 0
        assert verify_defining_relations(rep, h2) == []


class TestShifts:
    def test_round_trip(self, h2):
        f = fundamental_left(h2)
        back = with_mass(with_mass(f, 0, h2), 1, h2)
        assert back.blocks == f.blocks

    def test_mass_to_mass_round_trip(self, h2):
        f = fundamental_left(h2)
        other = with_mass(f, Fraction(2, 3), h2)
        assert other.hbar == Fraction(2, 3)
        assert other.blocks[0, 0] != f.blocks[0, 0]
        back = with_mass(other, 1, h2)
        assert back.hbar == 1
        assert back.blocks == f.blocks

    def test_z_shift_identity(self, h2):
        f = fundamental_left(h2)
        same = rescaled(f, 1, h2)
        assert same.blocks == f.blocks

    def test_z_shift_group_action(self, h2):
        f = fundamental_left(h2)
        two_steps = rescaled(rescaled(f, Fraction(3, 2), h2), Fraction(4, 3), h2)
        direct = rescaled(f, 2, h2)
        assert two_steps.blocks == direct.blocks

    def test_z_zero_rejected(self, h2):
        with pytest.raises(RepresentationError):
            rescaled(fundamental_left(h2), 0, h2)

    def test_rescaling_keeps_the_mass(self, h2):
        for rep in (fundamental_left(h2), sym_power_right_rea_p2(h2, 2),
                    with_mass(fundamental_left(h2), Fraction(2, 3), h2)):
            assert rescaled(rep, Fraction(3, 2), h2).hbar == rep.hbar

    def test_shifted_rea_satisfies_massless_relations(self, h2):
        rea = with_mass(sym_power_right_p2(h2, 2), 0, h2)
        assert rea.hbar == 0
        assert verify_defining_relations(rea, h2) == []


class TestPrintedClosedFormFinding:
    """The printed single-leg closed form for the shifted right action is a
    cross-check, not the authority.  This test pins exactly how it deviates."""

    def _assemble(self, h, m):
        # sum_ij E_ij (x) I (x) B_ij with each single-leg block on leg m,
        # sandwiched by I (x) S(m) and compressed
        dom, n = h.domain, h.n
        single = corollary_phi_blocks(h, m)
        ident_rest = Mat.identity(n ** (m - 1), dom.zero, dom.one)
        x = Mat.zeros(n ** (m + 1), n ** (m + 1), dom.zero)
        for i in range(n):
            for j in range(n):
                unit = Mat.from_entries(n, n, dom.zero, [(i, j, dom.one)])
                x = x + unit.kron(ident_rest.kron(_block(single, n, i, j)))
        blocks = sandwiched(h, m, x)
        return Representation("right", Fraction(0), n, blocks.nrows // n,
                              blocks, f"printed closed form m={m}", dom)

    def test_degree_one_agrees_up_to_scale(self, h2):
        lit = self._assemble(h2, 1)
        auth = sym_power_right_rea_p2(h2, 1)
        assert lit.blocks == auth.blocks
        assert verify_defining_relations(lit, h2) == []

    @pytest.mark.parametrize("m", [2, 3])
    def test_higher_degrees_deviate_by_unit_summand(self, h2, m):
        lit = self._assemble(h2, m)
        # not a massless representation ...
        assert verify_defining_relations(lit, h2) != []
        # ... but satisfies the relations with mass zeta ((q**(1-m) m_q)**2 - 1),
        # which identifies the deviation as a unit-matrix summand bookkeeping slip
        dom = h2.domain
        c = dom.q_pow(1 - m) * dom.q_int(m)
        mass = dom.zeta * (c * c - dom.one)
        assert verify_defining_relations(replace(lit, hbar=mass), h2) == []
        auth = sym_power_right_rea_p2(h2, m)
        # off-diagonal generators agree; the diagonal ones differ by exactly
        # (c**2 - 1) times the identity
        assert (lit.blocks - auth.blocks
                == Mat.identity(2 * lit.d, dom.zero, c * c - dom.one))


class TestMemo:
    REQUESTS = [(fundamental_left,), (tensor_power_left, 2),
                (sym_power_left, 2), (sym_power_right_p2, 2),
                (sym_power_right_rea_p2, 2), (sym_power_left, 3)]

    def test_modules_are_built_and_verified_once(self, monkeypatch):
        h = standard_hecke(2, at_q(Fraction(5, 3)))
        verified = []
        real = reps.verify_defining_relations

        def counting(rep, hh):
            verified.append(rep.label)
            return real(rep, hh)
        monkeypatch.setattr(reps, "verify_defining_relations", counting)
        first = [build(h, *args) for build, *args in self.REQUESTS]
        second = [build(h, *args) for build, *args in self.REQUESTS]
        assert all(a is b for a, b in zip(first, second))
        assert sorted(verified) == sorted(rep.label for rep in first)

    def test_charts_and_weights_are_memoized(self):
        h = standard_hecke(2, at_q(Fraction(5, 3)))
        assert sym_chart(h, 2) is sym_chart(h, 2)
        assert casimir.trace_weights(h, 2) is casimir.trace_weights(h, 2)
        # modules and weights are built on the levels: no chart on full legs
        sym_power_left(h, 3)
        casimir.trace_weights(h, 3)
        assert ("S", 3, "chart") not in h._memo and ("chart", 3) not in h._memo

    def test_shared_module_is_frozen(self):
        h = standard_hecke(2, at_q(Fraction(5, 3)))
        rep = sym_power_left(h, 2)
        with pytest.raises(FrozenInstanceError):
            rep.blocks = rep.blocks.scale(h.domain.lift(2))
        with pytest.raises(FrozenInstanceError):
            rep.hbar = Fraction(0)
        assert sym_power_left(standard_hecke(2, at_q(Fraction(5, 3))), 2) is rep

    def test_failed_build_is_not_memoized(self):
        h = standard_hecke(3, at_q(Fraction(5, 3)))
        for _ in range(2):
            with pytest.raises(RepresentationError, match="rank 2"):
                sym_power_right_p2(h, 1)
        assert not any(key[0] == "sym_power_right_p2" for key in h._memo)
