import random
from fractions import Fraction

import pytest
from hypothesis import assume, find, given, settings, strategies as st

from qorbits.scalars import (Q, QScalar, Q_ONE, Q_ZERO, QEvalError,
                             ScalarParseError, at_q, eval_at, format_scalar,
                             parse_scalar, q_binomial, q_int,
                             random_q, SYMBOLIC)


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
        assert q_binomial(3, 0) == Q_ONE

    def test_choose_one(self):
        assert q_binomial(3, 1) == q_int(3)

    def test_four_choose_two(self):
        # oracle: expand (4_q 3_q) / 2_q by exact division and compare
        oracle = q_int(4) * q_int(3) / (q_int(2) * q_int(1))
        got = q_binomial(4, 2)
        assert got == oracle
        assert got.is_laurent()
        assert got == brute_q_pow_sum([(4, 1), (2, 1), (0, 2), (-2, 1), (-4, 1)])

    def test_out_of_range(self):
        assert q_binomial(3, -1) == Q_ZERO
        assert q_binomial(3, 4) == Q_ZERO

    def test_symmetry(self):
        for p in range(0, 7):
            for k in range(0, p + 1):
                assert q_binomial(p, k) == q_binomial(p, p - k)

    def test_always_laurent(self):
        for p in range(0, 7):
            for k in range(0, p + 1):
                assert q_binomial(p, k).is_laurent()


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


class TestRationalFunctions:
    @given(rational_functions, rational_functions,
           st.fractions(min_value=-20, max_value=20, max_denominator=20))
    @settings(max_examples=60, deadline=None)
    def test_field_homomorphism(self, x, y, q0):
        try:
            ex, ey = eval_at(x, q0), eval_at(y, q0)
        except QEvalError:
            assume(False)
        assert eval_at(x + y, q0) == ex + ey
        assert eval_at(x - y, q0) == ex - ey
        assert eval_at(x * y, q0) == ex * ey
        if ey:
            assert eval_at(x / y, q0) == ex / ey

    @given(rational_functions, rational_functions)
    @settings(max_examples=60, deadline=None)
    def test_division_roundtrip(self, x, y):
        assume(not y.is_zero())
        assert (x / y) * y == x
        assert (x * y) / y == x

    @given(rational_functions, nonzero_coeffs)
    @settings(max_examples=60, deadline=None)
    def test_canonical_uniqueness(self, x, c):
        scaled = QScalar(tuple(c * a for a in x.num), tuple(c * a for a in x.den))
        assert scaled.num == x.num and scaled.den == x.den
        assert scaled == x and hash(scaled) == hash(x)

    def test_strategy_reaches_general_denominators(self):
        x = find(rational_functions, lambda x: not x.is_laurent(),
                 settings=settings(database=None))
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
            assert dom.q_binomial(5, 2) == eval_at(q_binomial(5, 2), q0)

    def test_rejects_degenerate_points(self):
        for bad in (0, 1, -1):
            with pytest.raises(ValueError):
                at_q(bad)

    def test_lift(self):
        dom = at_q(Fraction(2, 3))
        assert dom.lift(q_int(2)) == Fraction(2, 3) + Fraction(3, 2)
        assert SYMBOLIC.lift(Fraction(1, 2)) == QScalar.from_rational(Fraction(1, 2))
