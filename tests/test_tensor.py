import random
from fractions import Fraction

import pytest

from qorbits.scalars import SYMBOLIC, at_q
from qorbits.tensor import (LegOperator, LegError, Mat, embed_on_legs,
                            inverse, pivot_columns, weighted_partial_trace)


def random_legop(rng, n, m, dom):
    mat = Mat([[dom.lift(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                for _ in range(n ** m)] for _ in range(n ** m)])
    return LegOperator(n, m, mat)


class TestFlipAndEmbedding:
    def test_flip_squares_to_identity(self):
        for n in (2, 3):
            p = LegOperator.flip(n, SYMBOLIC)
            assert p * p == LegOperator.identity(n, 2, SYMBOLIC)

    def test_identity_embeds_to_identity(self):
        ident = LegOperator.identity(2, 1, SYMBOLIC)
        assert embed_on_legs(ident, 2, 3) == LegOperator.identity(2, 3, SYMBOLIC)

    def test_r12_is_r_tensor_identity(self, h2):
        r12 = embed_on_legs(h2.r, 1, 3)
        expect = Mat(h2.r.mat.rows).kron(
            Mat.identity(2, h2.domain.zero, h2.domain.one))
        assert r12.mat == expect

    def test_embedding_is_homomorphism(self, rng):
        dom = at_q(Fraction(5, 3))
        a = random_legop(rng, 2, 2, dom)
        b = random_legop(rng, 2, 2, dom)
        lhs = embed_on_legs(a, 2, 4) * embed_on_legs(b, 2, 4)
        rhs = embed_on_legs(a * b, 2, 4)
        assert lhs == rhs

    def test_leg_range_violation(self):
        ident = LegOperator.identity(2, 2, SYMBOLIC)
        with pytest.raises(LegError):
            embed_on_legs(ident, 3, 3)
        with pytest.raises(LegError):
            embed_on_legs(ident, 0, 4)


class TestPartialTrace:
    def test_flip_traces_to_identity(self):
        dom = SYMBOLIC
        p = LegOperator.flip(2, dom)
        w = Mat.identity(2, dom.zero, dom.one)
        assert weighted_partial_trace(p, {2}, w) == LegOperator.identity(2, 1, dom)

    def test_full_trace_of_identity(self):
        dom = SYMBOLIC
        ident = LegOperator.identity(2, 3, dom)
        w = Mat.identity(2, dom.zero, dom.one)
        out = weighted_partial_trace(ident, {1, 2, 3}, w)
        assert out.m == 0 and out.mat.rows[0][0] == dom.lift(8)

    def test_single_leg_weight_is_weighted_trace(self, h2):
        dom = h2.domain
        ident = LegOperator.identity(2, 1, dom)
        out = weighted_partial_trace(ident, {1}, h2.c)
        assert out.mat.rows[0][0] == h2.c.trace()

    def test_disjoint_trace_order_commutes(self, rng):
        dom = at_q(Fraction(2, 7))
        op = random_legop(rng, 2, 3, dom)
        w = Mat.identity(2, dom.zero, dom.one)
        one_then_three = weighted_partial_trace(
            weighted_partial_trace(op, {1}, w), {2}, w)  # old leg 3
        both = weighted_partial_trace(op, {1, 3}, w)
        assert one_then_three == both

    def test_unequal_factors(self, rng):
        # A (x) B on a 2-dim and a 3-dim factor: tracing either factor
        # against a weight W leaves the other one times tr(W X)
        dom = at_q(Fraction(2, 7))
        a = random_legop(rng, 2, 1, dom).mat
        b = random_legop(rng, 3, 1, dom).mat
        wa = random_legop(rng, 2, 1, dom).mat
        wb = random_legop(rng, 3, 1, dom).mat
        op = a.kron(b)
        assert weighted_partial_trace(op, {2}, wb, (2, 3)) == a.scale((wb * b).trace())
        assert weighted_partial_trace(op, {1}, wa, (2, 3)) == b.scale((wa * a).trace())
        full = weighted_partial_trace(weighted_partial_trace(op, {1}, wa, (2, 3)),
                                      {1}, wb, (3,))
        assert full.rows == [[(wa * a).trace() * (wb * b).trace()]]
        with pytest.raises(LegError):
            weighted_partial_trace(op, {1}, wb, (2, 3))

    def test_out_of_range_leg(self):
        dom = SYMBOLIC
        op = LegOperator.identity(2, 2, dom)
        w = Mat.identity(2, dom.zero, dom.one)
        with pytest.raises(LegError):
            weighted_partial_trace(op, {3}, w)


class TestExactLinearAlgebra:
    def test_rank_of_identity(self):
        for m in (1, 2, 3):
            ident = LegOperator.identity(2, m, SYMBOLIC)
            assert len(pivot_columns(ident.mat)) == 2 ** m

    def test_rank_fraction_matrix(self):
        mat = Mat([[Fraction(1), Fraction(2), Fraction(3)],
                   [Fraction(2), Fraction(4), Fraction(6)],
                   [Fraction(0), Fraction(1), Fraction(1)]])
        assert len(pivot_columns(mat)) == 2

    def test_rank_symbolic(self, h2):
        # the Hecke operator is invertible: full rank symbolically
        assert len(pivot_columns(h2.r.mat)) == 4

    def test_inverse_roundtrip(self, rng):
        dom = at_q(Fraction(3, 2))
        while True:
            op = random_legop(rng, 2, 2, dom)
            try:
                inv = inverse(op.mat)
                break
            except ValueError:
                continue
        assert op.mat * inv == Mat.identity(4, dom.zero, dom.one)

    def test_singular_inverse_raises(self):
        mat = Mat([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
        with pytest.raises(ValueError):
            inverse(mat)

    def test_pivot_columns_deterministic(self):
        mat = Mat([[Fraction(0), Fraction(1), Fraction(2)],
                   [Fraction(0), Fraction(2), Fraction(4)]])
        assert pivot_columns(mat) == [1]

    def test_shape_mismatch(self):
        a = Mat.identity(2, Fraction(0), Fraction(1))
        b = Mat.identity(3, Fraction(0), Fraction(1))
        with pytest.raises(ValueError):
            a * b
