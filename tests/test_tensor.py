import random
from fractions import Fraction
from itertools import count, product
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from qorbits import scalars, tensor
from qorbits.hecke import standard_hecke, standard_r
from qorbits.projectors import q_antisymmetrizer, q_symmetrizer
from qorbits.scalars import (Q, Q_ZERO, SYMBOLIC, QScalar, at_q,
                             pack_operands, pack_value, q_int, unpack_value)
from qorbits.tensor import (LegOperator, LegError, Mat, block_pairing,
                            embed_on_legs, inverse, row_reduce,
                            weighted_partial_trace)
from conftest import flip, from_rows, leg_identity


def random_legop(rng, n, m, dom):
    mat = from_rows([[dom.lift(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                for _ in range(n ** m)] for _ in range(n ** m)])
    return LegOperator(n, m, mat)


class TestFlipAndEmbedding:
    def test_flip_squares_to_identity(self):
        for n in (2, 3):
            p = flip(n, SYMBOLIC)
            assert p * p == leg_identity(n, 2, SYMBOLIC)

    def test_identity_embeds_to_identity(self):
        ident = leg_identity(2, 1, SYMBOLIC)
        assert embed_on_legs(ident, 2, 3) == leg_identity(2, 3, SYMBOLIC)

    def test_r12_is_r_tensor_identity(self, h2):
        r12 = embed_on_legs(h2.r, 1, 3)
        expect = from_rows(h2.r.rows).kron(
            Mat.identity(2, h2.domain.zero, h2.domain.one))
        assert r12 == expect

    def test_embedding_is_homomorphism(self, rng):
        dom = at_q(Fraction(5, 3))
        a = random_legop(rng, 2, 2, dom)
        b = random_legop(rng, 2, 2, dom)
        lhs = embed_on_legs(a, 2, 4) * embed_on_legs(b, 2, 4)
        rhs = embed_on_legs(LegOperator(2, 2, a * b), 2, 4)
        assert lhs == rhs

    def test_leg_operator_is_a_tagged_mat(self, h2):
        dom = h2.domain
        s = q_symmetrizer(h2, 2)
        assert isinstance(s, Mat) and (s.n, s.m) == (2, 2) and s.mat is s
        for out in (s * s, s + s, s - s, s.scale(dom.q), -s, s.embed(1, 2)):
            assert type(out) is Mat
        assert s * s == s and s.trace() == dom.lift(3)
        with pytest.raises(LegError):
            LegOperator(2, 2, Mat.identity(8, dom.zero, dom.one))
        with pytest.raises(LegError):
            LegOperator(2, 1, Mat.zeros(2, 3, dom.zero))

    def test_mat_constructors_are_refused_on_leg_operators(self):
        # LegOperator.identity(2, 1, dom) was the leg-operator signature;
        # Mat's constructors build untagged Mats, so each is refused at once
        # and the error names the tagging call
        dom = at_q(2)
        for name, args in (("identity", (2, 1, dom)),
                           ("zeros", (4, 4, dom.zero)),
                           ("from_entries", (2, 2, dom.zero, []))):
            with pytest.raises(TypeError,
                               match=fr"LegOperator\(n, m, Mat\.{name}"):
                getattr(LegOperator, name)(*args)
        assert type(Mat.zeros(4, 4, dom.zero)) is Mat

    def test_leg_range_violation(self):
        ident = leg_identity(2, 2, SYMBOLIC)
        with pytest.raises(LegError):
            embed_on_legs(ident, 3, 3)
        with pytest.raises(LegError):
            embed_on_legs(ident, 0, 4)


class TestPartialTrace:
    def test_flip_traces_to_identity(self):
        dom = SYMBOLIC
        p = flip(2, dom)
        w = Mat.identity(2, dom.zero, dom.one)
        assert (weighted_partial_trace(p, {2}, w, (2, 2))
                == leg_identity(2, 1, dom))

    def test_full_trace_of_identity(self):
        dom = SYMBOLIC
        ident = leg_identity(2, 3, dom)
        w = Mat.identity(2, dom.zero, dom.one)
        out = weighted_partial_trace(ident, {1, 2, 3}, w, (2, 2, 2))
        assert out.rows == [[dom.lift(8)]]

    def test_single_leg_weight_is_weighted_trace(self, h2):
        dom = h2.domain
        ident = leg_identity(2, 1, dom)
        out = weighted_partial_trace(ident, {1}, h2.c, (2,))
        assert out.rows == [[h2.c.trace()]]

    def test_disjoint_trace_order_commutes(self, rng):
        dom = at_q(Fraction(2, 7))
        op = random_legop(rng, 2, 3, dom)
        w = Mat.identity(2, dom.zero, dom.one)
        one_then_three = weighted_partial_trace(
            weighted_partial_trace(op, {1}, w, (2, 2, 2)), {2}, w, (2, 2))  # old leg 3
        both = weighted_partial_trace(op, {1, 3}, w, (2, 2, 2))
        assert one_then_three == both

    def test_unequal_factors(self, rng):
        # A (x) B on a 2-dim and a 3-dim factor: tracing either factor
        # against a weight W leaves the other one times tr(W X)
        dom = at_q(Fraction(2, 7))
        a = random_legop(rng, 2, 1, dom)
        b = random_legop(rng, 3, 1, dom)
        wa = random_legop(rng, 2, 1, dom)
        wb = random_legop(rng, 3, 1, dom)
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
        op = leg_identity(2, 2, dom)
        w = Mat.identity(2, dom.zero, dom.one)
        with pytest.raises(LegError):
            weighted_partial_trace(op, {3}, w, (2, 2))


class TestExactLinearAlgebra:
    def test_rank_of_identity(self):
        for m in (1, 2, 3):
            ident = leg_identity(2, m, SYMBOLIC)
            assert len(row_reduce(ident)[0]) == 2 ** m

    def test_rank_fraction_matrix(self):
        mat = from_rows([[Fraction(1), Fraction(2), Fraction(3)],
                   [Fraction(2), Fraction(4), Fraction(6)],
                   [Fraction(0), Fraction(1), Fraction(1)]])
        assert len(row_reduce(mat)[0]) == 2

    def test_rank_symbolic(self, h2):
        # the Hecke operator is invertible: full rank symbolically
        assert len(row_reduce(h2.r)[0]) == 4

    def test_inverse_roundtrip(self, rng):
        dom = at_q(Fraction(3, 2))
        while True:
            op = random_legop(rng, 2, 2, dom)
            try:
                inv = inverse(op)
                break
            except ValueError:
                continue
        assert op * inv == Mat.identity(4, dom.zero, dom.one)

    def test_singular_inverse_raises(self):
        mat = from_rows([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
        with pytest.raises(ValueError):
            inverse(mat)

    def test_singular_with_a_zero_first_column_raises(self):
        # [A | I] reduces with the pivots [1, 2], as many as A has columns:
        # only the check that they are A's own columns refuses A
        f = Fraction
        augmented = from_rows([[f(0), f(1), f(1), f(0)], [f(0), f(2), f(0), f(1)]])
        assert row_reduce(augmented)[0] == [1, 2]
        with pytest.raises(ValueError, match="singular"):
            inverse(from_rows([[f(0), f(1)], [f(0), f(2)]]))

    def test_pivot_columns_deterministic(self):
        mat = from_rows([[Fraction(0), Fraction(1), Fraction(2)],
                   [Fraction(0), Fraction(2), Fraction(4)]])
        assert row_reduce(mat)[0] == [1]

    def test_shape_mismatch(self):
        a = Mat.identity(2, Fraction(0), Fraction(1))
        b = Mat.identity(3, Fraction(0), Fraction(1))
        with pytest.raises(ValueError):
            a * b


# ---------------------------------------------------------------------------
# sparse storage against a dense reference computed here
# ---------------------------------------------------------------------------

# denominators beyond 2 make sums and products take an lcm and reduce by a
# content other than 1; in symbolic mode the pool also holds coefficients
# near 2**70 and a power q**-40 (wide and long packings), denominators that
# share the factors q**2 + 1 and q + 1, and rational contents 1/3 and -3/2
FRACTION_POOL = [Fraction(v, d) for v in range(-3, 4)
                 for d in (1, 2, 3, 7, 15, 101) if v]
QSCALAR_POOL = [Q, Q ** -2, q_int(2),
                QScalar.from_rational(Fraction(-3, 2)),
                Q - 1, q_int(3) / (Q + 1),
                (2 ** 70 - 1) * Q ** -1 - (2 ** 70 - 3) * Q ** 2, Q ** -40,
                q_int(2) ** -2, 1 / (q_int(2) * (Q + 1)),
                QScalar.from_rational(Fraction(1, 3))]
DOMAINS = {"fraction": (Fraction(0), FRACTION_POOL),
           "qscalar": (Q_ZERO, QSCALAR_POOL)}


def dense(draw, zero, pool, nr, nc):
    """Dense rows with about half the entries zero."""
    return [[draw(st.sampled_from(pool)) if draw(st.booleans()) else zero
             for _ in range(nc)] for _ in range(nr)]


@st.composite
def domain_case(draw):
    zero, pool = DOMAINS[draw(st.sampled_from(sorted(DOMAINS)))]
    return zero, pool, lambda nr, nc: dense(draw, zero, pool, nr, nc)


@st.composite
def repeating_operands(draw):
    """(repeat, a, b, c, s): symbolic dense rows a (nr x nk), b (nk x nc),
    c (nr x nk) and a scalar s.  With repeat, the nonzero entries come from a
    pool of 2-4 values, so equal numerators are common; without, they are all
    distinct, the k-th a value of QSCALAR_POOL plus 10 * k (no two pool
    values differ by a nonzero multiple of 10).  About half are zero."""
    nr, nk, nc = (draw(st.integers(1, 4)) for _ in range(3))
    repeat = draw(st.booleans())
    pool = QSCALAR_POOL
    if repeat:
        pool = draw(st.lists(st.sampled_from(QSCALAR_POOL), min_size=2,
                             max_size=4, unique=True))
    shift = count()

    def entry():
        if not draw(st.booleans()):
            return Q_ZERO
        x = draw(st.sampled_from(pool))
        return x if repeat else x + 10 * next(shift)
    a, b, c = ([[entry() for _ in range(cols)] for _ in range(rows)]
               for rows, cols in ((nr, nk), (nk, nc), (nr, nk)))
    return repeat, a, b, c, draw(st.sampled_from(pool))


def qpoly_gcd(a, b):
    """Monic gcd over Q of two polynomials (Fraction coefficient lists indexed
    by degree, no trailing zeros), by Euclid: an oracle independent of the
    integer remainder sequences of the library."""
    while b:
        r = list(a)
        while len(r) >= len(b):
            f = r[-1] / b[-1]
            shift = len(r) - len(b)
            for i, y in enumerate(b):
                r[shift + i] -= f * y
            while r and not r[-1]:
                r.pop()
        a, b = b, [x / r[-1] for x in r] if r else r
    return [x / a[-1] for x in a]


def assert_canonical_scalar(x):
    """The stored form q**s * n/d of a QScalar: n and d with nonzero constant
    and leading terms, coprime in Q[q], of joint content 1 and with
    d(0) > 0; zero is ((), (1,), 0)."""
    n, d, s = x._n, x._d, x._s
    if not n:
        assert (d, s) == ((1,), 0)
        return
    assert n[0] and n[-1] and d[-1] and d[0] > 0
    assert gcd(*n, *d) == 1
    assert len(qpoly_gcd([Fraction(c) for c in n], [Fraction(c) for c in d])) == 1


def assert_canonical(mat):
    """No stored zero, keys in ascending column order and in range, and the
    reduced form, so that equal matrices have equal ``den`` and ``data``.

    Evaluated mode: int numerators over an int den > 0 with gcd 1.  Symbolic
    mode: integer Laurent numerators (canonical QScalars with d = 1) over an
    integer polynomial den (d = 1 and s = 0) with positive constant term,
    with gcd 1 in Z[q]: no common integer content and no common factor in
    Q[q].  The zero matrix has den 1 in both."""
    assert len(mat.data) == mat.nrows
    for row in mat.data:
        keys = list(row)
        assert keys == sorted(keys)
        assert all(0 <= c < mat.ncols for c in keys)
        assert all(row.values())
    nums = [v for row in mat.data for v in row.values()]
    if not isinstance(mat.zero, QScalar):
        assert isinstance(mat.den, int) and mat.den > 0
        assert all(isinstance(v, int) for v in nums)
        assert gcd(mat.den, *nums) == 1
        return
    den = mat.den
    assert isinstance(den, QScalar) and tuple(den.den) == (1,)
    assert den.num[0] > 0
    if mat.is_zero():
        assert den == 1
    coeffs = [list(den.num)]
    for v in (den, *nums):
        assert_canonical_scalar(v)
        assert v._d == (1,)
    for v in nums:
        shift = len(v.den) - 1
        assert tuple(v.den) == (0,) * shift + (1,)
        assert all(c.denominator == 1 for c in v.num)
        coeffs.append(list(v.num))
    assert gcd(*(int(c) for cs in coeffs for c in cs)) == 1
    g = coeffs[0]
    for cs in coeffs[1:]:
        g = qpoly_gcd(g, cs)
    assert len(g) == 1


def ref_mul(a, b, zero):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), zero)
             for j in range(len(b[0]))] for i in range(len(a))]


def ref_kron(a, b):
    return [[a[i][j] * b[k][l] for j in range(len(a[0])) for l in range(len(b[0]))]
            for i in range(len(a)) for k in range(len(b))]


def ref_embed(op, n, m0, start, total, zero):
    left, right = start - 1, total - start - m0 + 1
    nm, nr = n ** m0, n ** right
    out = []
    for l, i, r in product(range(n ** left), range(nm), range(nr)):
        out.append([op[i][j] if (l, r) == (l2, r2) else zero
                    for l2, j, r2 in product(range(n ** left), range(nm),
                                             range(nr))])
    return out


def ref_partial_trace(x, legs, w, dims, zero):
    """sum over traced (out b, in a) of prod_t W[a_t][b_t] X[(k, b)][(k', a)]."""
    def code(digits):
        out = 0
        for d, dt in zip(digits, dims):
            out = out * dt + d
        return out
    kept = [t for t in range(len(dims)) if t + 1 not in legs]
    traced = [t for t in range(len(dims)) if t + 1 in legs]

    def full(kd, td):
        digits = [0] * len(dims)
        for t, d in zip(kept, kd):
            digits[t] = d
        for t, d in zip(traced, td):
            digits[t] = d
        return code(digits)
    kspace = list(product(*[range(dims[t]) for t in kept]))
    tspace = list(product(*[range(dims[t]) for t in traced]))
    out = []
    for ko in kspace:
        row = []
        for ki in kspace:
            acc = zero
            for b in tspace:
                for a in tspace:
                    weight = zero + 1
                    for at, bt in zip(a, b):
                        weight = weight * w[at][bt]
                    acc = acc + weight * x[full(ko, b)][full(ki, a)]
            row.append(acc)
        out.append(row)
    return out


class TestSparseAgainstDense:
    @settings(max_examples=60, deadline=None)
    @given(domain_case(), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
    def test_product_sum_difference(self, case, nr, nk, nc):
        zero, _, draw = case
        a, b, c = draw(nr, nk), draw(nk, nc), draw(nr, nk)
        ma, mb, mc = from_rows(a, zero), from_rows(b, zero), from_rows(c, zero)
        for got, want in ((ma * mb, ref_mul(a, b, zero)),
                          (ma + mc, [[x + y for x, y in zip(ra, rc)]
                                     for ra, rc in zip(a, c)]),
                          (ma - mc, [[x - y for x, y in zip(ra, rc)]
                                     for ra, rc in zip(a, c)]),
                          (-ma, [[-x for x in ra] for ra in a])):
            assert_canonical(got)
            assert got.rows == want
            assert got.support() == sum(1 for row in want for x in row if x)
            assert got.is_zero() == (got.support() == 0)
            assert got.zero == zero

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(DOMAINS)), st.integers(0, 3),
           st.integers(0, 3), st.integers(0, 3),
           st.sampled_from(["dense", "zero", "one term"]),
           st.sampled_from(["dense", "zero", "one term"]), st.data())
    def test_product_of_empty_and_one_term_rows(self, domain, nr, nk, nc,
                                                kind_a, kind_b, data):
        # shapes with no rows or a 0 inner dimension, all-zero operands and
        # rows with exactly one nonzero
        zero, pool = DOMAINS[domain]

        def operand(kind, rows, cols):
            if kind == "dense":
                return dense(data.draw, zero, pool, rows, cols)
            out = [[zero] * cols for _ in range(rows)]
            if kind == "one term" and cols:
                for row in out:
                    row[data.draw(st.integers(0, cols - 1))] = data.draw(
                        st.sampled_from(pool))
            return out

        def mat(rows, nrows, ncols):
            return Mat.from_entries(nrows, ncols, zero, (
                (i, j, v) for i, row in enumerate(rows)
                for j, v in enumerate(row)))
        a, b = operand(kind_a, nr, nk), operand(kind_b, nk, nc)
        got = mat(a, nr, nk) * mat(b, nk, nc)
        assert_canonical(got)
        assert (got.nrows, got.ncols) == (nr, nc)
        assert got.rows == [[sum((a[i][k] * b[k][j] for k in range(nk)), zero)
                             for j in range(nc)] for i in range(nr)]

    @settings(max_examples=60, deadline=None)
    @given(domain_case(), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3), st.booleans())
    def test_block_pairing(self, case, n, d1, d2, transpose):
        # sum_ja F_ja (x) G_aj is the partial trace over the generator leg
        # of (f (x) I)(sum_aj E_aj (x) I (x) G_aj)
        zero, _, draw = case
        f = from_rows(draw(n * d1, n * d1), zero)
        g = from_rows(draw(n * d2, n * d2), zero)
        got = block_pairing(f, g, n, transpose)
        assert_canonical(got)
        expect = weighted_partial_trace(
            f.embed(1, d2) * g.embed_blocks(d2, d1, transpose), {1},
            Mat.identity(n, zero, zero + 1), (n, d1 * d2))
        assert got == expect

    @settings(max_examples=60, deadline=None)
    @given(domain_case(), st.integers(1, 4), st.integers(1, 4))
    def test_cancellation(self, case, nr, nc):
        zero, _, draw = case
        ma = from_rows(draw(nr, nc), zero)
        for diff in (ma - ma, ma + (-ma), ma.scale(zero), ma * Mat.zeros(nc, 2, zero)):
            assert_canonical(diff)
            assert diff.is_zero() and diff.support() == 0
            assert diff == Mat.zeros(diff.nrows, diff.ncols, zero)

    @settings(max_examples=60, deadline=None)
    @given(domain_case(), st.integers(1, 4), st.integers(1, 4))
    def test_route_independence(self, case, nr, nc):
        # the reduced form is canonical: equal matrices reached by different
        # routes compare equal structurally
        zero, _, draw = case
        ma = from_rows(draw(nr, nc), zero)
        third = zero + Fraction(1, 3)
        for got in (ma.scale(3).scale(Fraction(1, 3)), (ma + ma) - ma,
                    ma * Mat.identity(nc, zero, third).scale(3),
                    (ma * Mat.identity(nc, zero, third)).scale(3)):
            assert_canonical(got)
            assert got == ma
        assert Mat.identity(nc, zero, third).scale(3) == Mat.identity(nc, zero, zero + 1)

    @settings(max_examples=60, deadline=None)
    @given(domain_case(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3), st.data())
    def test_scale_kron_transpose_trace(self, case, nr, nc, nr2, nc2, data):
        zero, pool, draw = case
        a, b = draw(nr, nc), draw(nr2, nc2)
        s = data.draw(st.sampled_from(pool))
        left, right = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        ma, mb = from_rows(a, zero), from_rows(b, zero)

        def ident(k):
            return [[zero + 1 if i == j else zero for j in range(k)]
                    for i in range(k)]
        for got, want in ((ma.scale(s), [[s * x for x in ra] for ra in a]),
                          (ma.kron(mb), ref_kron(a, b)),
                          (ma.embed(left, right),
                           ref_kron(ref_kron(ident(left), a), ident(right))),
                          (ma.transpose(), [list(col) for col in zip(*a)])):
            assert_canonical(got)
            assert got.rows == want
        assert ma.embed(left, right).den == ma.den
        sq = draw(nr, nr)
        assert from_rows(sq, zero).trace() == sum((sq[i][i] for i in range(nr)), zero)

    @settings(max_examples=40, deadline=None)
    @given(domain_case(), st.integers(1, 2), st.integers(1, 3), st.data())
    def test_embed_on_legs(self, case, m0, total, data):
        zero, _, draw = case
        n = 2
        total = max(total, m0)
        start = data.draw(st.integers(1, total - m0 + 1))
        op = draw(n ** m0, n ** m0)
        got = embed_on_legs(LegOperator(n, m0, from_rows(op, zero)), start, total)
        assert_canonical(got)
        assert got.rows == ref_embed(op, n, m0, start, total, zero)

    @settings(max_examples=40, deadline=None)
    @given(domain_case(), st.integers(1, 2), st.lists(st.booleans(), min_size=1,
                                                      max_size=3), st.data())
    def test_weighted_partial_trace(self, case, w, traced_flags, data):
        zero, _, draw = case
        # traced legs have the weight's dimension, kept legs may differ
        dims = [w if t else data.draw(st.integers(1, 3)) for t in traced_flags]
        legs = {i + 1 for i, t in enumerate(traced_flags) if t}
        dim = 1
        for d in dims:
            dim *= d
        x, weight = draw(dim, dim), draw(w, w)
        got = weighted_partial_trace(from_rows(x, zero), legs, from_rows(weight, zero), dims)
        if not legs:
            assert got.rows == x
            return
        assert_canonical(got)
        assert got.rows == ref_partial_trace(x, legs, weight, dims, zero)

    def test_from_entries_keeps_the_invariants(self):
        built = Mat.from_entries(2, 4, Fraction(0), [(0, 2, Fraction(5)), (1, 1, Fraction(0)),
                                                     (0, 0, Fraction(3)), (0, 3, Fraction(1))])
        assert_canonical(built)
        assert built.rows == [[3, 0, 5, 1], [0, 0, 0, 0]]
        assert list(built.entries()) == [(0, 0, 3), (0, 2, 5), (0, 3, 1)]
        view = built.rows
        view[1][1] = Fraction(9)          # the dense view is a copy
        assert built[1, 1] == 0
        with pytest.raises(IndexError):
            Mat.from_entries(2, 4, Fraction(0), [(0, 4, Fraction(1))])
        picked = built.take_rows([1, 0])
        assert picked.rows == [[0, 0, 0, 0], [3, 0, 5, 1]]
        assert picked.data[1] == built.data[0]
        assert picked.data[1] is not built.data[0]   # rows are copied, not shared
        assert Mat.identity(3, Fraction(0), Fraction(0)) == Mat.zeros(3, 3, Fraction(0))

    def test_canonical_form_over_the_lcm(self):
        # entries over 3 and 7 share the denominator 21; taking the 5/7 away
        # again reduces back to 3
        third = [(0, 0, Fraction(1, 3)), (1, 1, Fraction(2, 3))]
        seventh = Mat.from_entries(2, 2, Fraction(0), [(0, 1, Fraction(5, 7))])
        mat = Mat.from_entries(2, 2, Fraction(0), third + [(0, 1, Fraction(5, 7))])
        assert_canonical(mat)
        assert mat.den == 21 and mat.rows == [[Fraction(1, 3), Fraction(5, 7)],
                                              [0, Fraction(2, 3)]]
        back = mat - seventh
        assert_canonical(back)
        assert back.den == 3 and back == Mat.from_entries(2, 2, Fraction(0), third)
        mat = Mat.from_entries(2, 2, Fraction(0), [(0, 0, Fraction(2)),
                                                   (1, 1, Fraction(-4))])
        assert_canonical(mat)
        assert mat.den == 1 and mat.rows == [[2, 0], [0, -4]]
        assert all(type(x) is Fraction for row in mat.rows for x in row)
        assert type(mat[0, 0]) is Fraction and type(mat.trace()) is Fraction

    def test_trace_of_empty_matrix_is_zero(self):
        for zero in (Fraction(0), Q_ZERO):
            assert Mat.zeros(0, 0, zero).trace() == zero
            assert from_rows([], zero).trace() == zero
            assert Mat.zeros(3, 3, zero).trace() == zero


# ---------------------------------------------------------------------------
# the integer product kernel against the dict accumulator it replaced
# ---------------------------------------------------------------------------

def old_product(adata, bdata) -> list:
    """tensor._product as it was before the sparse accumulator: a dict per
    row of several terms, its keys sorted at the end."""
    out = []
    for arow in adata:
        if len(arow) > 1:
            acc = {}
            for k, a in arow.items():
                for j, b in bdata[k].items():
                    x = acc.get(j)
                    acc[j] = a * b if x is None else x + a * b
            out.append({j: acc[j] for j in sorted(acc) if acc[j]})
        elif arow:
            for k, a in arow.items():
                out.append({j: a * b for j, b in bdata[k].items()})
        else:
            out.append({})
    return out


def ordered_rows(rows) -> list:
    """Rows as lists of (column, value), so that key order is compared."""
    return [list(row.items()) for row in rows]


# small ints as at sampled q; wide signed ints as the Kronecker-packed
# numerators of symbolic q
KERNEL_NUMERATORS = {"int": st.integers(-6, 6).filter(bool),
                     "packed": st.integers(-2 ** 90, 2 ** 90).filter(bool)}


@st.composite
def kernel_operands(draw):
    """(a, b, ncols): numerator rows a (nr x nk) and b (nk x ncols), b with
    rows k1 != k2 equal, so that a row a*e_k1 - a*e_k2 cancels in every
    column it touches; a's rows are multi-term rows (of which consecutive
    ones share columns through b), such cancelling rows each followed by a
    row on the same columns, one-term rows and empty rows."""
    value = KERNEL_NUMERATORS[draw(st.sampled_from(sorted(KERNEL_NUMERATORS)))]
    nk, ncols = draw(st.integers(2, 8)), draw(st.integers(1, 40))

    def sparse(width, most):
        cols = draw(st.sets(st.integers(0, width - 1), max_size=most))
        return {c: draw(value) for c in sorted(cols)}
    b = [sparse(ncols, 12) for _ in range(nk)]
    k1, k2 = sorted(draw(st.sets(st.integers(0, nk - 1), min_size=2,
                                 max_size=2)))
    b[k2] = dict(b[k1])
    a = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("several", "cancelling", "one term",
                                     "empty")))
        if kind == "several":
            a.append(sparse(nk, nk))
        elif kind == "cancelling":
            x = draw(value)
            a += [{k1: x, k2: -x}, {k1: draw(value), k2: draw(value)}]
        elif kind == "one term":
            a.append({draw(st.integers(0, nk - 1)): draw(value)})
        else:
            a.append({})
    return a, b, ncols


class TestProductKernel:
    @settings(max_examples=200, deadline=None)
    @given(kernel_operands())
    def test_rows_and_key_order_match_the_dict_kernel(self, case):
        a, b, ncols = case
        assert ordered_rows(tensor._product(a, b, ncols)) == ordered_rows(
            old_product(a, b))

    def test_a_cancelled_row_leaves_no_slot_behind(self):
        # row 0 cancels in columns 1 and 3; row 1 touches them again and
        # must see no value of row 0
        b = [{1: 5, 3: -2}, {1: 5, 3: -2}]
        a = [{0: 7, 1: -7}, {0: 1, 1: 2}, {1: 1}, {}]
        got = tensor._product(a, b, 4)
        assert ordered_rows(got) == ordered_rows(old_product(a, b)) == [
            [], [(1, 15), (3, -6)], [(1, 5), (3, -2)], []]


# ---------------------------------------------------------------------------
# elimination against the dense Gauss-Jordan it replaced
# ---------------------------------------------------------------------------

def dense_row_reduce(mat):
    """Gauss-Jordan over the field on a dense copy of the entries, with one
    field operation per entry: the oracle for the fraction-free row_reduce."""
    zero = mat.zero
    one = zero + 1
    rows = mat.rows
    nr = len(rows)
    pivots = []
    for c in range(mat.ncols):
        r = len(pivots)
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = one / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nr):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots, Mat.from_entries(
        len(pivots), mat.ncols, zero,
        ((i, j, v) for i, row in enumerate(rows[:len(pivots)])
         for j, v in enumerate(row) if v))


@st.composite
def elimination_case(draw):
    """(zero, dense rows) for row_reduce: pool entries in about half of the
    positions (over den != 1, with negative and non-unit pivots; Laurent and
    rational-function entries over symbolic q), made rank-deficient by
    repeated or scaled rows, zero rows and zero columns, and on request
    widened to [A | I]."""
    zero, pool = DOMAINS[draw(st.sampled_from(sorted(DOMAINS)))]
    nr, nc = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = dense(draw, zero, pool, nr, nc)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("scaled row", "zero row", "zero column")))
        i = draw(st.integers(0, nr - 1))
        if kind == "scaled row":
            s = draw(st.sampled_from(pool))
            rows[i] = [s * x for x in rows[draw(st.integers(0, nr - 1))]]
        elif kind == "zero row":
            rows[i] = [zero] * nc
        else:
            for row in rows:
                row[draw(st.integers(0, nc - 1))] = zero
    if draw(st.booleans()):
        one = zero + 1
        rows = [row + [one if j == i else zero for j in range(nr)]
                for i, row in enumerate(rows)]
    return zero, rows


# the per-domain bodies that tensor._numerators and tensor._primitive had
# before both ran on tensor._split, _lcm and _reduce, kept as oracles

def old_numerators(rows, zero):
    if not isinstance(zero, (int, Fraction)):
        return old_laurent_rows(rows)
    den = 1
    for row in rows:
        for v in row.values():
            d = v.denominator
            if den % d:
                den = lcm(den, d)
    if den == 1:
        return [{c: v.numerator for c, v in row.items()} for row in rows], 1
    return [{c: v.numerator * (den // v.denominator) for c, v in row.items()}
            for row in rows], den


def old_laurent_rows(rows):
    split = [{c: scalars.laurent_split(v) for c, v in row.items()}
             for row in rows]
    dens = {d._n: d for row in split for _, d in row.values()}
    den = scalars.Q_ONE
    for d in dens.values():
        den = scalars.lcm_factors(den, d)[0]
    factor = {k: scalars._poly(scalars._int_div_exact(den._n, k))
              for k in dens}
    return [{c: n if factor[d._n] is scalars.Q_ONE else n * factor[d._n]
             for c, (n, d) in row.items()} for row in split], den


def old_primitive(row):
    values = row.values()
    if isinstance(next(iter(values), 0), int):      # an empty row too
        g = gcd(*values)
        return row if g == 1 else {c: v // g for c, v in row.items()}
    g = old_laurent_content(values)
    return row if g is scalars.Q_ONE else {
        c: scalars.divide_exact(v, g) for c, v in row.items()}


def old_laurent_content(nums):
    nums = iter(nums)
    return scalars.common_divisor(scalars._poly(next(nums)._n), nums)


# first entries of a numerator row: negative, +-1 and monomials +-q**s among
# them; the rest of the row is drawn from a few values, so repeats are
# common, and the whole row is scaled by a common factor on request
INT_FIRSTS = [-12, -3, -1, 1, 2, 6]
INT_NUMERATORS = [-9, -4, -2, -1, 1, 2, 3, 6, 10, 2 ** 70 - 1]
INT_FACTORS = [2, -3, 6]
LAURENT_FIRSTS = [-Q ** 0, Q ** 0, Q ** 3, -Q ** -2, -3 * Q, Q ** 2 + 1,
                  q_int(3)]
LAURENT_NUMERATORS = [Q, -Q ** -2, q_int(2), Q - 1, Q ** 2 + 1, -(Q + 1),
                      3 * Q ** 3, 6 * Q ** 0, -Q ** 0,
                      (2 ** 70 - 1) * Q ** -1 - (2 ** 70 - 3) * Q ** 2]
LAURENT_FACTORS = [Q + 1, 3 * Q ** 0, -(Q ** 2 + 1) * Q ** -1, 2 * Q ** 2,
                   q_int(2) * (Q - 1)]


@st.composite
def entry_rows(draw):
    """(zero, sparse rows of column -> nonzero entry) from a few pool values,
    so repeats are common; empty rows among them."""
    zero, pool = DOMAINS[draw(st.sampled_from(sorted(DOMAINS)))]
    pool = draw(st.lists(st.sampled_from(pool + [zero + 1, zero - 1]),
                         min_size=1, max_size=4, unique=True))
    nr, nc = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    return zero, [{c: v for c, v in enumerate(row) if v}
                  for row in dense(draw, zero, pool, nr, nc)]


@st.composite
def numerator_row(draw):
    """A sparse row of ints or of integer Laurent numerators, empty or led
    by a drawn first entry, maybe scaled by a common factor."""
    firsts, rest, factors = draw(st.sampled_from((
        (INT_FIRSTS, INT_NUMERATORS, INT_FACTORS),
        (LAURENT_FIRSTS, LAURENT_NUMERATORS, LAURENT_FACTORS))))
    size = draw(st.integers(0, 5))
    if not size:
        return {}
    rest = draw(st.lists(st.sampled_from(rest), min_size=1, max_size=3,
                         unique=True))
    values = [draw(st.sampled_from(firsts))] + [
        draw(st.sampled_from(rest)) for _ in range(size - 1)]
    if draw(st.booleans()):
        f = draw(st.sampled_from(factors))
        values = [f * v for v in values]
    cols = sorted(draw(st.sets(st.integers(0, 9), min_size=size,
                               max_size=size)))
    return dict(zip(cols, values))


def placed_blocks(blocks, d, rest, transpose):
    """sum_ij E_ij (x) I_rest (x) B_ij entry by entry through from_entries,
    the route block placement took before Mat.embed_blocks."""
    out = []
    for r, c, v in blocks.entries():
        (i, s), (j, k) = divmod(r, d), divmod(c, d)
        if transpose:
            s, k = k, s
        for t in range(rest):
            out.append(((i * rest + t) * d + s, (j * rest + t) * d + k, v))
    dim = blocks.nrows * rest
    return Mat.from_entries(dim, dim, blocks.zero, out)


class TestNumeratorRoutesAgainstEntries:
    @settings(max_examples=120, deadline=None)
    @given(elimination_case())
    def test_row_reduce(self, case):
        zero, rows = case
        mat = from_rows(rows, zero)
        pivots, reduced = row_reduce(mat)
        assert_canonical(reduced)
        assert (pivots, reduced) == dense_row_reduce(mat)

    @settings(max_examples=150, deadline=None)
    @given(entry_rows(), numerator_row())
    def test_numerators_and_primitive_match_the_domain_bodies(self, case, row):
        # the generic common denominator and row content give the data, key
        # order included, and den of the per-domain bodies they replaced
        zero, rows = case
        data, den = tensor._numerators(rows, zero)
        want_data, want_den = old_numerators(rows, zero)
        assert den == want_den and type(den) is type(want_den)
        assert [list(r.items()) for r in data] == [
            list(r.items()) for r in want_data]
        got = tensor._primitive(row)
        assert list(got.items()) == list(old_primitive(row).items())

    @pytest.mark.parametrize("domain", sorted(DOMAINS))
    def test_inverse_round_trip(self, domain):
        # a 4 x 4 matrix over a den other than 1, with rational-function
        # entries over symbolic q
        zero, pool = DOMAINS[domain]
        rng = random.Random(29)
        one = zero + 1
        while True:
            mat = from_rows([[rng.choice(pool) if rng.random() < 0.6 else zero
                        for _ in range(4)] for _ in range(4)], zero)
            if mat.den != 1 and len(row_reduce(mat)[0]) == 4:
                break
        inv = inverse(mat)
        assert_canonical(inv)
        assert mat * inv == inv * mat == Mat.identity(4, zero, one)

    @settings(max_examples=40, deadline=None)
    @given(domain_case(), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3), st.booleans())
    def test_embed_blocks(self, case, n, d, rest, transpose):
        zero, _, draw = case
        blocks = from_rows(draw(n * d, n * d), zero)
        got = blocks.embed_blocks(d, rest, transpose)
        assert_canonical(got)
        assert got == placed_blocks(blocks, d, rest, transpose)


class TestSymbolicLayout:
    def test_symmetrizer_over_one_polynomial(self, h2):
        # row 1 of S(2) is (0, q**2, q, 0) / (q**2 + 1): integer Laurent
        # numerators over the polynomial part of gamma_2 = q [2]_q
        s2 = q_symmetrizer(h2, 2)
        assert_canonical(s2)
        assert s2.den == Q ** 2 + 1
        assert s2.data[1] == {1: Q ** 2, 2: Q}
        assert s2[1, 2] == Q / (Q ** 2 + 1)

    def test_sums_agree_with_qscalar_arithmetic(self):
        # numerators are added as integer Laurent polynomials, over the lcm
        # of the two denominators; the scalar sum is the oracle
        for x, y in product(QSCALAR_POOL, repeat=2):
            a = from_rows([[x, y, Q_ZERO]], Q_ZERO)
            b = from_rows([[y, -y, x]], Q_ZERO)
            for got, want in ((a + b, [x + y, Q_ZERO, x]),
                              (a - b, [x - y, 2 * y, -x])):
                assert_canonical(got)
                assert got.rows == [want]

    def test_product_coefficient_at_the_digit_bound(self):
        # H = max_i sum_k |a_ik|_1 * max_kj |b_kj|_inf = 1025 * 1023
        # = 2**20 - 1, and the q**2 coefficient of the product is H itself:
        # 21 bits are the least with 2**(bits - 1) > H
        a = from_rows([[1000 * Q ** -2, 25 * Q ** 3], [Q, Q_ZERO]])
        b = from_rows([[1023 * Q ** 4 - 17 * Q ** -1], [1023 * Q ** -1 + 5 * Q ** 2]])
        h = 2 ** 20 - 1
        want = h * Q ** 2 - 17000 * Q ** -3 + 125 * Q ** 5
        _, _, bits, low = pack_operands(a.data, b.data)
        assert (bits, low) == (21, -3)
        got = a * b
        assert_canonical(got)
        assert got.rows == ref_mul(a.rows, b.rows, Q_ZERO)
        assert got[0, 0] == want
        # one bit less reads the digit H as H - 2**20 and carries 1 into q**3;
        # a and b are packed from their least powers q**-2 and q**-1
        value = sum(pack_value(a.data[0][k], 20, -2)
                    * pack_value(b.data[k][0], 20, -1) for k in (0, 1))
        short = unpack_value(value, 20, low)
        assert short == want - 2 ** 20 * Q ** 2 + Q ** 3

    def test_block_pairing_coefficient_above_a_products_bound(self):
        # every block is c q with 2c = 2**20 - 2: a product's bound
        # |row|_1 * max|g| = 2c asks for 21 bits, but each coefficient of
        # the pairing sums n = 2 rows of f, here 4c = 2**21 - 4 at q
        c = 2 ** 19 - 1
        f = from_rows([[c * Q] * 2] * 2)
        g = from_rows([[Q ** 0] * 2] * 2)
        assert pack_operands(f.data, g.data)[2] == 21
        assert pack_operands(f.data, g.data, (2).bit_length())[2] == 23
        got = block_pairing(f, g, 2, False)
        assert_canonical(got)
        assert got[0, 0] == 4 * c * Q

    @settings(max_examples=60, deadline=None)
    @given(repeating_operands())
    def test_repeated_and_distinct_numerators(self, case):
        # a product packs, decodes and divides each distinct numerator once,
        # and equal entries share the result; dense QScalar arithmetic is the
        # oracle, whether the entries repeat or not
        repeat, a, b, c, s = case
        if not repeat:
            nonzero = [v for m in (a, b, c) for row in m for v in row if v]
            assert len(set(nonzero)) == len(nonzero)
        ma, mb, mc = from_rows(a, Q_ZERO), from_rows(b, Q_ZERO), from_rows(c, Q_ZERO)
        for got, want in ((ma * mb, ref_mul(a, b, Q_ZERO)),
                          (ma + mc, [[x + y for x, y in zip(ra, rc)]
                                     for ra, rc in zip(a, c)]),
                          (ma - mc, [[x - y for x, y in zip(ra, rc)]
                                     for ra, rc in zip(a, c)]),
                          (ma.scale(s), [[s * x for x in ra] for ra in a])):
            assert_canonical(got)
            assert got.rows == want

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 12), st.integers(-6, 6), st.integers(0, 3),
           st.data())
    def test_value_digits_round_trip(self, bits, least, gap, data):
        # every coefficient in [-2**(bits - 1), 2**(bits - 1)) is one
        # balanced digit; the zero digits of the gap below the least power
        # are skipped in the decode
        half = 2 ** (bits - 1)
        coeffs = data.draw(st.lists(st.integers(-half, half - 1), min_size=1,
                                    max_size=6).filter(any))
        v = sum((c * Q ** (least + i) for i, c in enumerate(coeffs)), Q_ZERO)
        packed = pack_value(v, bits, least - gap)
        assert unpack_value(packed, bits, least - gap) == v

    def test_packing_width_is_the_coefficient_bound(self, h2):
        # the width of a product's packing is the least B >= 2 with
        # 2**(B - 1) > H, H = max_i sum_k |a_ik|_1 * max_kj |b_kj|_inf,
        # computed here entry by entry on seeded operands and tower products
        def least_power(v):
            # v.num holds q**s for s > 0, v.den is q**-s for s < 0
            return (next(i for i, c in enumerate(v.num) if c)
                    - len(v.den) + 1)

        def width(a, b):
            top = max((sum(abs(c) for v in row.values() for c in v.num)
                       for row in a.data), default=0)
            big = max((abs(c) for row in b.data for v in row.values()
                       for c in v.num), default=0)
            return max(2, int(top * big).bit_length() + 1)
        rng = random.Random(35)
        pairs = []
        for _ in range(40):
            nr, nk, nc = (rng.randint(1, 4) for _ in range(3))
            a, b = ([[rng.choice(QSCALAR_POOL) if rng.random() < 0.5
                      else Q_ZERO for _ in range(cols)] for _ in range(rows)]
                    for rows, cols in ((nr, nk), (nk, nc)))
            pairs.append((from_rows(a, Q_ZERO), from_rows(b, Q_ZERO)))
        s3, s4 = q_symmetrizer(h2, 3), q_symmetrizer(h2, 4)
        pairs += [(s3, s3), (s4, s4), (embed_on_legs(h2.r, 2, 3), s3)]
        for a, b in pairs:
            packed_a, packed_b, bits, low = pack_operands(a.data, b.data)
            assert bits == width(a, b)
            assert pack_operands(a.data, b.data, 3)[2] == bits + 3
            # each numerator is packed from its operand's least power of q
            lows = []
            for rows, packed in ((a.data, packed_a), (b.data, packed_b)):
                least = min((least_power(v) for row in rows
                             for v in row.values()), default=0)
                lows.append(least)
                assert packed == [{c: pack_value(v, bits, least)
                                   for c, v in row.items()} for row in rows]
            assert low == sum(lows)
            if not (a.is_zero() or b.is_zero()):
                assert a * b == from_rows(ref_mul(a.rows, b.rows, Q_ZERO),
                                          Q_ZERO)

    def test_square_of_s6_transforms_each_distinct_value_once(
            self, h2, monkeypatch):
        # S(6) has 924 nonzeros but 48 distinct numerators: squaring it
        # decodes (scalars.unpack_value) and divides by the content
        # (scalars.divide_exact) each distinct value once, and the
        # denominator once more; one call per nonzero would make 925
        s6 = q_symmetrizer(h2, 6)
        distinct = {v for row in s6.data for v in row.values()}
        assert (s6.support(), len(distinct)) == (924, 48)
        calls = {"unpack_value": 0, "divide_exact": 0}

        def counting(name):
            real = getattr(scalars, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper
        with monkeypatch.context() as patch:
            for name in calls:
                patch.setattr(scalars, name, counting(name))
            square = s6 * s6
        assert square == s6
        assert 0 < calls["unpack_value"] <= len(distinct) + 1
        assert 0 < calls["divide_exact"] <= len(distinct) + 1


def test_sampled_antisymmetrizer_against_dense_oracle():
    """A(3) of standard_r(3) at q = -77/101 equals the coset tower
    A(m) = x_m / gamma_m, x_m = x_{m-1} (I + sum_{j<m} c**j R_{m-1}..R_{m-j}),
    c = -1/q, rebuilt here on dense Fraction rows."""
    q0 = Fraction(-77, 101)
    dom = at_q(q0)
    n, zero = 3, Fraction(0)
    r = standard_r(n, dom).rows
    c = -1 / q0

    def q_int_at(m):
        return (q0 ** m - q0 ** -m) / (q0 - 1 / q0)

    def add(a, b):
        return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    x = [[Fraction(1) if i == j else zero for j in range(n)] for i in range(n)]
    for m in (2, 3):
        x = ref_embed(x, n, m - 1, 1, m, zero)
        y, total = x, x
        for j in range(1, m):
            y = ref_mul(y, ref_embed(r, n, 2, m - j, m, zero), zero)
            total = add(total, [[c ** j * v for v in row] for row in y])
        x = total
    gamma = q0 ** -3 * q_int_at(2) * q_int_at(3)
    want = [[v / gamma for v in row] for row in x]
    got = q_antisymmetrizer(standard_hecke(n, dom), 3)
    assert_canonical(got)
    assert got.den > 1 and got.rows == want
