import random
from fractions import Fraction

import pytest
from hypothesis import Phase, assume, find, given, settings, strategies as st

from qorbits import scalars
from qorbits.scalars import (Q, QScalar, Q_ONE, Q_ZERO, QEvalError,
                             ScalarParseError, at_q, eval_at, format_scalar,
                             parse_scalar, q_int,
                             random_q, SYMBOLIC)
from test_tensor import assert_canonical_scalar


def brute_q_pow_sum(exps):
    """Independent oracle: a Laurent sum of q powers built term by term."""
    out = Q_ZERO
    for e, c in exps:
        out = out + QScalar.q_power(e) * Fraction(c)
    return out


class TestQInt:
    def test_zero(self):
        assert q_int(0) == Q_ZERO

    def test_two(self):
        assert q_int(2) == Q + Q ** -1

    def test_minus_three(self):
        assert q_int(-3) == -(Q ** 2 + Q_ONE + Q ** -2)

    def test_defining_product(self):
        # m_q (q - 1/q) = q**m - q**-m, exactly, for a spread of m
        zeta = Q - Q ** -1
        for m in range(-6, 7):
            assert q_int(m) * zeta == Q ** m - Q ** -m

    def test_antisymmetry(self):
        for m in range(0, 8):
            assert q_int(-m) == -q_int(m)

    def test_nonzero_at_rational_points(self, rng):
        # away from 0 and +-1 no q-integer vanishes
        for _ in range(30):
            q0 = random_q(rng)
            m = rng.randint(1, 9)
            assert eval_at(q_int(m), q0) != 0


class TestQBinomial:
    def test_empty_product(self):
        assert SYMBOLIC.q_binomial(3, 0) == Q_ONE

    def test_choose_one(self):
        assert SYMBOLIC.q_binomial(3, 1) == q_int(3)

    def test_four_choose_two(self):
        # oracle: expand (4_q 3_q) / 2_q by exact division and compare
        oracle = q_int(4) * q_int(3) / (q_int(2) * q_int(1))
        got = SYMBOLIC.q_binomial(4, 2)
        assert got == oracle
        assert got.is_laurent()
        assert got == brute_q_pow_sum([(4, 1), (2, 1), (0, 2), (-2, 1), (-4, 1)])

    def test_out_of_range(self):
        assert SYMBOLIC.q_binomial(3, -1) == Q_ZERO
        assert SYMBOLIC.q_binomial(3, 4) == Q_ZERO

    def test_symmetry(self):
        for p in range(0, 7):
            for k in range(0, p + 1):
                assert SYMBOLIC.q_binomial(p, k) == SYMBOLIC.q_binomial(p, p - k)

    def test_always_laurent(self):
        for p in range(0, 7):
            for k in range(0, p + 1):
                assert SYMBOLIC.q_binomial(p, k).is_laurent()


class TestEvalAt:
    def test_direct_substitution(self):
        assert eval_at(Q + Q ** -1, 2) == Fraction(5, 2)

    def test_three_q_at_two(self):
        # oracle: (2**3 - 2**-3) / (2 - 2**-1) by plain rational arithmetic
        expect = (Fraction(8) - Fraction(1, 8)) / (Fraction(2) - Fraction(1, 2))
        assert eval_at(q_int(3), 2) == expect == Fraction(21, 4)

    def test_zero(self):
        assert eval_at(Q_ZERO, Fraction(7, 3)) == 0

    def test_rejects_q_zero(self):
        with pytest.raises(QEvalError):
            eval_at(Q, 0)

    def test_vanishing_denominator_named(self):
        # canonical form scales the denominator's lowest coefficient to one,
        # so q - 2 is stored (and reported) as -1/2*q + 1
        s = Q_ONE / (Q - 2)
        with pytest.raises(QEvalError) as err:
            eval_at(s, 2)
        msg = str(err.value)
        assert "-1/2*q + 1" in msg and "q = 2" in msg

    def test_field_homomorphism(self, rng):
        for _ in range(20):
            q0 = random_q(rng)
            x = q_int(rng.randint(1, 6)) + QScalar.q_power(rng.randint(-3, 3))
            y = q_int(rng.randint(1, 6)) * Fraction(rng.randint(1, 9))
            assert eval_at(x * y, q0) == eval_at(x, q0) * eval_at(y, q0)
            assert eval_at(x + y, q0) == eval_at(x, q0) + eval_at(y, q0)


coeffs = st.fractions(min_value=-10, max_value=10, max_denominator=12)
laurents = st.lists(st.tuples(st.integers(-5, 5), coeffs), max_size=5).map(
    lambda pairs: brute_q_pow_sum(pairs))


nonzero_laurents = laurents.filter(lambda x: not x.is_zero())
# quotients of Laurent polynomials: the general rational functions, with
# denominators that are not monomials
rational_functions = st.tuples(laurents, nonzero_laurents).map(
    lambda pair: pair[0] / pair[1])
nonzero_coeffs = coeffs.filter(bool)
# integer Laurent polynomials, which + - * / combine with no gcd;
# rational_functions seldom draws two of them
integer_laurents = st.lists(st.tuples(st.integers(-5, 5), st.integers(-10, 10)),
                            max_size=5).map(brute_q_pow_sum)
# monomials c*q**k, which every operation handles on its general path
monomials = st.builds(lambda c, k: c * QScalar.q_power(k),
                      st.integers(-9, 9).filter(bool), st.integers(-5, 5))
operands = st.one_of(rational_functions, integer_laurents, monomials)
# a test on operands draws a general rational function a third of the time,
# so it takes three times the examples per operand to keep the gcd paths'
# coverage


class TestRationalFunctions:
    @given(operands, operands,
           st.fractions(min_value=-20, max_value=20, max_denominator=20))
    @settings(max_examples=360, deadline=None)
    def test_field_homomorphism(self, x, y, q0):
        try:
            ex, ey = eval_at(x, q0), eval_at(y, q0)
        except QEvalError:
            assume(False)
        results = [x + y, x - y, x * y] + ([x / y] if y else [])
        for z in results:
            assert_canonical_scalar(z)
        assert eval_at(results[0], q0) == ex + ey
        assert eval_at(results[1], q0) == ex - ey
        assert eval_at(results[2], q0) == ex * ey
        if ey:
            assert eval_at(results[3], q0) == ex / ey

    @given(operands, operands)
    @settings(max_examples=180, deadline=None)
    def test_division_roundtrip(self, x, y):
        assume(not y.is_zero())
        quotient, product = x / y, x * y
        for z in (quotient, product, quotient * y, product / y):
            assert_canonical_scalar(z)
        assert quotient * y == x
        assert product / y == x

    @given(operands, nonzero_coeffs)
    @settings(max_examples=180, deadline=None)
    def test_canonical_uniqueness(self, x, c):
        scaled = QScalar(tuple(c * a for a in x.num), tuple(c * a for a in x.den))
        assert_canonical_scalar(scaled)
        assert scaled.num == x.num and scaled.den == x.den
        assert scaled == x and hash(scaled) == hash(x)

    def test_strategy_reaches_general_denominators(self):
        x = find(rational_functions, lambda x: not x.is_laurent(),
                 settings=settings(database=None, phases=[Phase.generate]))
        assert len(x.den) > 1 and sum(1 for c in x.den if c) > 1


class TestCanonicalForm:
    @given(laurents)
    @settings(max_examples=60, deadline=None)
    def test_self_subtraction(self, x):
        assert x - x == Q_ZERO

    @given(laurents, laurents)
    @settings(max_examples=60, deadline=None)
    def test_renormalization_is_idempotent(self, x, y):
        z = x * y
        again = QScalar(z.num, z.den)
        assert again == z and again.num == z.num and again.den == z.den

    @given(laurents, laurents)
    @settings(max_examples=40, deadline=None)
    def test_division_roundtrip(self, x, y):
        if y.is_zero():
            return
        assert (x / y) * y == x

    def test_equal_values_equal_forms(self):
        a = (Q ** 2 - Q ** -2) / (Q - Q ** -1)
        assert a == q_int(2)
        assert a.num == q_int(2).num and a.den == q_int(2).den

    def test_integer_laurent_results_are_trimmed(self, rng, monkeypatch):
        # results of the gcd-free branch whose ends need trimming
        def no_gcd(*args):
            raise AssertionError("gcd taken")
        p1, m1, m2, p2, p3, p5 = Q, Q ** -1, Q ** -2, Q ** 2, Q ** 3, Q ** 5
        with monkeypatch.context() as patch:
            patch.setattr(scalars, "_pgcd", no_gcd)
            cases = [((p1 + m1) - m1, Q, lambda q: q),
                     (m2 * p2, Q_ONE, lambda q: 1),
                     (p1 - p1, Q_ZERO, lambda q: 0),
                     (p3 / p5, m2, lambda q: q ** -2)]
        assert cases[0][0].den == (1,)
        for got, want, value in cases:
            assert got == want
            # the constructor's general canonicalization agrees
            assert QScalar(tuple(got.num), tuple(got.den)) == got
            for _ in range(5):
                q0 = random_q(rng)
                assert eval_at(got, q0) == value(q0)

    def test_denominator_normalization(self):
        # lowest-degree denominator coefficient is one after any arithmetic
        x = Q_ONE / (Q * 2 + 2)
        low = next(c for c in x.den if c)
        assert low == 1

    def test_pow_matches_repeated_product(self):
        s = q_int(3) / (Q_ONE + Q ** 2)
        acc = Q_ONE
        for _ in range(5):
            acc = acc * s
        assert s ** 5 == acc
        assert s ** 0 == Q_ONE
        assert s ** -2 == Q_ONE / (s * s)
        assert Q_ZERO ** 0 == Q_ONE and Q_ZERO ** 3 == Q_ZERO
        with pytest.raises(ZeroDivisionError):
            Q_ZERO ** -1


class TestGrammar:
    def test_documented_example(self):
        s = parse_scalar("q^-1 + 2 - 3/2*q^3")
        assert s == brute_q_pow_sum([(-1, 1), (0, 2), (3, Fraction(-3, 2))])

    def test_plain_one(self):
        assert parse_scalar("1") == Q_ONE

    def test_whitespace_insignificant(self):
        assert parse_scalar(" q ^ 2+1 ") == parse_scalar("q^2 + 1")

    def test_format_canonical_descending(self):
        assert format_scalar(q_int(3)) == "q^2 + 1 + q^-2"
        assert format_scalar(Q_ZERO) == "0"
        assert format_scalar(-q_int(2)) == "-q - q^-1"

    @given(laurents)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, x):
        assert parse_scalar(format_scalar(x)) == x

    def test_rejects_garbage(self):
        for bad in ("", "q^", "1 + + 2", "x", "2**q"):
            with pytest.raises(ScalarParseError):
                parse_scalar(bad)

    def test_non_laurent_has_no_text_form(self):
        with pytest.raises(ValueError):
            format_scalar(Q_ONE / (Q + 1))


class TestDomain:
    def test_symbolic_and_sampled_agree(self, rng):
        for _ in range(10):
            q0 = random_q(rng)
            dom = at_q(q0)
            m = rng.randint(-5, 5)
            assert dom.q_int(m) == eval_at(q_int(m), q0)
            assert dom.q_binomial(5, 2) == eval_at(SYMBOLIC.q_binomial(5, 2), q0)

    def test_sampled_q_int_from_integer_powers(self):
        # the evaluated [m] is built from powers of q0's numerator and
        # denominator; it must equal the symbolic q-integer evaluated there
        for q0 in (Fraction(2, 15), Fraction(-77, 101), Fraction(3, 5),
                   Fraction(-128, 127)):
            dom = at_q(q0)
            for m in range(-6, 7):
                got = dom.q_int(m)
                assert isinstance(got, Fraction)
                assert got == eval_at(q_int(m), q0)

    def test_sampled_q_numbers_match_the_closed_form(self):
        # each table entry against (a**2m - b**2m) / ((ab)**(m-1) (a**2 - b**2))
        # over Fractions and against the symbolic value evaluated at q0
        for q0 in (Fraction(2, 15), Fraction(-77, 101), Fraction(-3, 2)):
            dom = at_q(q0)
            a, b = Fraction(q0.numerator), Fraction(q0.denominator)
            for m in range(-10, 11):
                closed = (a ** (2 * m) - b ** (2 * m)) / (
                    (a * b) ** (m - 1) * (a * a - b * b))
                assert dom.q_int(m) == closed == eval_at(q_int(m), q0)
                assert dom.q_pow(m) == q0 ** m == eval_at(QScalar.q_power(m), q0)

    def test_sampled_q_numbers_are_built_once(self):
        dom = at_q(Fraction(5, 7))
        for m in range(-10, 11):
            assert dom.q_int(m) is dom.q_int(m)
            assert dom.q_pow(m) is dom.q_pow(m)

    @given(st.lists(st.fractions(), max_size=4),
           st.lists(st.fractions().filter(bool), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_ratio_is_the_quotient_of_products(self, nums, dens):
        dom = at_q(Fraction(3, 5))
        expect = Fraction(1)
        for x in nums:
            expect *= x
        for x in dens:
            expect /= x
        assert dom.ratio(nums, dens) == expect
        sym = SYMBOLIC.ratio([SYMBOLIC.lift(x) for x in nums],
                             [SYMBOLIC.lift(x) for x in dens])
        assert sym == SYMBOLIC.lift(expect)

    def test_ratio_rejects_a_zero_denominator(self):
        for dom in (at_q(Fraction(3, 5)), SYMBOLIC):
            with pytest.raises(ZeroDivisionError):
                dom.ratio([dom.one], [dom.q_int(2), dom.zero])

    def test_rejects_degenerate_points(self):
        for bad in (0, 1, -1):
            with pytest.raises(ValueError):
                at_q(bad)

    def test_lift(self):
        dom = at_q(Fraction(2, 3))
        assert dom.lift(q_int(2)) == Fraction(2, 3) + Fraction(3, 2)
        assert SYMBOLIC.lift(Fraction(1, 2)) == QScalar.from_rational(Fraction(1, 2))
