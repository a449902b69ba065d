"""Exact field arithmetic in Q(u)."""

from __future__ import annotations

import cmath
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from ncgeo import scalars
from ncgeo.scalars import (
    HALF,
    LAMBDA,
    MAX_PARSE_BITS,
    MAX_PARSE_DEGREE,
    MAX_PARSE_EXPONENT,
    MU,
    ONE,
    ZERO,
    PoleError,
    Scalar,
    format_scalar,
    lambda_pow,
    mu_pow,
    parse_scalar,
)
from ncgeo.solver import kernel_dimension


def _poly(*coeffs: int) -> Scalar:
    """Plain polynomial in u with the given ascending coefficients."""
    return Scalar(0, tuple(coeffs), (1,))


small_scalars = st.builds(
    Scalar,
    st.integers(min_value=-3, max_value=3),
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4).map(tuple),
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4)
    .map(tuple)
    .filter(lambda t: any(t)),
)


class TestCanonicalForm:
    def test_zero_normal_form(self):
        assert Scalar(5, (0, 0), (3,)) == ZERO
        assert not ZERO
        assert ZERO.is_zero()

    def test_common_factor_cancels(self):
        # (u^2 - 1)/(u - 1) = u + 1
        assert Scalar(0, (-1, 0, 1), (-1, 1)) == _poly(1, 1)

    def test_content_reduced(self):
        assert Scalar(0, (2, 2), (4,)) == Scalar(0, (1, 1), (2,))

    def test_den_sign_is_positive(self):
        x = Scalar(0, (1,), (-2,))
        assert x.d[-1] > 0
        assert x == -HALF

    def test_powers_of_u_live_in_shift(self):
        x = Scalar(0, (0, 0, 3), (0, 1))
        assert (x.s, x.n, x.d) == (1, (3,), (1,))

    def test_equality_is_structural(self):
        a = (ONE - LAMBDA) * (ONE + LAMBDA)
        b = ONE - lambda_pow(2)
        assert a == b and hash(a) == hash(b)

    def test_integer_values_hash_like_ints(self):
        # ONE == 1, so the two must be interchangeable as dict and set keys
        assert {1: "x"}.get(ONE) == "x"
        assert {ONE: "x"}.get(1) == "x"
        assert len({ZERO, 0, Scalar.from_int(-3), -3, (MU * MU.inv()), 1}) == 3
        for k in (-7, -1, 0, 1, 2, 10**20):
            assert hash(Scalar.from_int(k)) == hash(k)
        assert hash(HALF + HALF) == hash(1)

    def test_unit_denominator_takes_no_gcd(self, monkeypatch):
        # the alpha1 coefficients 1 - lambda^m and lambda^n - 1 are sums over
        # the unit denominator; a gcd with 1 is 1, and the window-8 kernel
        # made 544 of them
        calls = 0
        pgcd = scalars._pgcd

        def counting(a, b):
            nonlocal calls
            calls += 1
            return pgcd(a, b)

        monkeypatch.setattr(scalars, "_pgcd", counting)
        assert Scalar(3, (0, 2, 4), (1,)) == Scalar(4, (2, 4), (1,))
        assert kernel_dimension("alpha1", 8).nullity == 1
        assert calls == 0


def general_sum(x: Scalar, y: Scalar, sign: int) -> Scalar:
    """x + sign * y by the general route: align the shifts, cross-multiply
    the denominators and take the canonical form."""
    s = min(x.s, y.s)
    a = (0,) * (x.s - s) + x.n
    b = (0,) * (y.s - s) + (y.n if sign == 1 else scalars._pneg(y.n))
    return Scalar(s, scalars._padd(scalars._pmul(a, y.d), scalars._pmul(b, x.d)), scalars._pmul(x.d, y.d))


def is_canonical(x: Scalar) -> bool:
    if not x.n:
        return (x.s, x.d) == (0, (1,))
    return all(t[0] != 0 and t[-1] != 0 for t in (x.n, x.d)) and x.d[-1] > 0


class TestLaurentAddition:
    """Sums over the denominator 1 take their own route (_laurent_add); the
    general route through the canonical form is the oracle."""

    @staticmethod
    def pairs():
        rng = random.Random(12)

        def poly(size):
            return (rng.choice((1, -1, 2, -3)),) + tuple(rng.randint(-2, 2) for _ in range(size))

        def laurent():
            return Scalar(rng.randint(-4, 4), poly(rng.randint(0, 3)), (1,))

        def fraction():
            return Scalar(rng.randint(-4, 4), poly(rng.randint(0, 2)), poly(rng.randint(1, 2)))

        out = []
        for _ in range(120):
            x, y = laurent(), laurent()
            out.append((x, y))
            # cancel the lowest, then the highest, term of x
            low = Scalar(x.s, (-x.n[0],), (1,))
            high = Scalar(x.s + len(x.n) - 1, (-x.n[-1],), (1,))
            out += [(x, low + y.shift(x.s - y.s + 1)), (x, high), (x, -x)]
        for _ in range(40):
            out += [(fraction(), fraction()), (laurent(), fraction()), (fraction(), laurent())]
        out += [(x, ZERO) for x, _ in out[:20]] + [(ZERO, y) for _, y in out[:20]]
        out += [(ZERO, ZERO), (HALF, -HALF), (ONE, MU.inv())]
        return out

    def test_sums_and_differences_match_the_general_route(self):
        pairs = self.pairs()
        assert len(pairs) >= 300
        assert sum(bool(x.n and y.n) and x.d == y.d == (1,) for x, y in pairs) >= 300
        cancelled = 0
        for x, y in pairs:
            for got, want in ((x + y, general_sum(x, y, 1)), (x - y, general_sum(x, y, -1))):
                assert type(got) is Scalar and is_canonical(got)
                assert (got.s, got.n, got.d) == (want.s, want.n, want.d), (x, y)
                cancelled += bool(x.n and y.n) and not got.n
        assert cancelled >= 120

    def test_cancellation_at_either_end(self):
        x = Scalar(-2, (3, 1, -5), (1,))
        low, high = Scalar(-2, (-3,), (1,)), Scalar(0, (5,), (1,))
        assert ((x + low).s, (x + low).n) == (-1, (1, -5))
        assert ((x + high).s, (x + high).n) == (-2, (3, 1))
        assert x - x is ZERO and x + (-x) is ZERO

    def test_int_operands(self):
        rng = random.Random(13)
        for _ in range(40):
            x = Scalar(rng.randint(-3, 3), (rng.choice((1, -2)), rng.randint(-2, 2)), (1,))
            k = rng.randint(-3, 3)
            kk = Scalar.from_int(k)
            for got, want in (
                (x + k, general_sum(x, kk, 1)),
                (k + x, general_sum(kk, x, 1)),
                (x - k, general_sum(x, kk, -1)),
                (k - x, general_sum(kk, x, -1)),
            ):
                assert (got.s, got.n, got.d) == (want.s, want.n, want.d)

    def test_float_operand_is_a_type_error(self):
        for x in (ONE, HALF, ZERO):
            for op in (lambda: x + 1.5, lambda: 1.5 + x, lambda: x - 1.5, lambda: 1.5 - x):
                with pytest.raises(TypeError):
                    op()


class TestCanonicalCompares:
    """_pnegates and _cancels decide negation and cancellation on canonical
    forms without building anything; the arithmetic is the oracle."""

    def test_against_the_arithmetic(self):
        rng = random.Random(17)

        def poly(size):
            return (rng.choice((1, -1, 2, -3)),) + tuple(rng.randint(-2, 2) for _ in range(size))

        def value():
            den = (1,) if rng.random() < 0.5 else poly(rng.randint(1, 2))
            return Scalar(rng.randint(-3, 3), poly(rng.randint(0, 3)), den)

        cancelled = negated = 0
        for _ in range(600):
            x = value()
            j, k, s, t = rng.randint(-3, 3), rng.randint(-3, 3), rng.choice((1, -1)), rng.choice((1, -1))
            # the cancelling y, its negation, a power of u off, over another
            # denominator, or unrelated
            y = rng.choice((x.shift(j - k, -s * t), x.shift(j - k, s * t),
                            x.shift(j - k + rng.choice((-1, 1)), -s * t), value()))
            if rng.random() < 0.2:
                y = Scalar(y.s, y.n, (1,) if y.d != (1,) else (1, 0, 1))
            want = not (x.shift(j, s) + y.shift(k, t))
            assert scalars._cancels(x, j, s, y, k, t) == want
            assert scalars._pnegates(x.n, y.n) == (x.n == scalars._pneg(y.n))
            cancelled += want
            negated += x.n == scalars._pneg(y.n)
        assert cancelled > 100 and negated > 200


class TestArithmetic:
    def test_mu_inverse_plus_mu(self):
        # 1/u + u = (1 + u^2)/u
        assert MU.inv() + MU == Scalar(-1, (1, 0, 1), (1,))

    def test_lambda_is_mu_squared(self):
        assert MU * MU == LAMBDA
        assert lambda_pow(3) == LAMBDA ** 3
        assert lambda_pow(-2) == LAMBDA.inv() ** 2

    def test_difference_of_squares(self):
        assert (ONE - LAMBDA) * (ONE + LAMBDA) == ONE - lambda_pow(2)

    def test_int_coercion(self):
        assert ONE + 1 == Scalar.from_int(2)
        assert 2 * HALF == ONE
        assert 1 - LAMBDA == ONE - LAMBDA
        assert (ONE + ONE).inv() == HALF

    def test_division(self):
        x = (ONE - LAMBDA) / (ONE - MU)
        assert x * (ONE - MU) == ONE - LAMBDA
        assert x == ONE + MU  # (1 - u^2)/(1 - u)

    def test_zero_division_raises(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inv()
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    @given(small_scalars, small_scalars, small_scalars)
    @settings(max_examples=80, deadline=None)
    def test_field_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO

    @given(small_scalars)
    @settings(max_examples=60, deadline=None)
    def test_inverse_roundtrip(self, a):
        if a:
            assert a * a.inv() == ONE
            assert a.inv().inv() == a


class TestStar:
    def test_star_fixes_rationals(self):
        assert HALF.star() == HALF
        assert ONE.star() == ONE

    def test_star_inverts_mu(self):
        assert MU.star() == MU.inv()
        assert LAMBDA.star() == lambda_pow(-1)

    def test_star_of_one_plus_mu(self):
        # (1 + u) -> 1 + 1/u = (1 + u)/u
        assert (ONE + MU).star() == Scalar(-1, (1, 1), (1,))

    @given(small_scalars, small_scalars)
    @settings(max_examples=60, deadline=None)
    def test_star_is_field_automorphism(self, a, b):
        assert (a + b).star() == a.star() + b.star()
        assert (a * b).star() == a.star() * b.star()

    @given(small_scalars)
    @settings(max_examples=60, deadline=None)
    def test_star_is_involutive(self, a):
        assert a.star().star() == a


class TestNumericChannel:
    THETA = (math.sqrt(5) - 1) / 2

    def test_mu_evaluates_to_unit_circle(self):
        z = MU.eval_numeric(self.THETA)
        assert abs(abs(z) - 1) < 1e-12
        assert cmath.isclose(z, cmath.exp(1j * math.pi * self.THETA))

    def test_lambda_evaluates_to_twist(self):
        z = LAMBDA.eval_numeric(self.THETA)
        assert cmath.isclose(z, cmath.exp(2j * math.pi * self.THETA))

    def test_pole_detection(self):
        x = ONE / (ONE - LAMBDA)
        with pytest.raises(PoleError):
            x.eval_numeric(0.0)

    @given(small_scalars, small_scalars)
    @settings(max_examples=40, deadline=None)
    def test_evaluation_is_homomorphism(self, a, b):
        try:
            va = a.eval_numeric(self.THETA)
            vb = b.eval_numeric(self.THETA)
            vs = (a + b).eval_numeric(self.THETA)
            vp = (a * b).eval_numeric(self.THETA)
        except PoleError:
            return
        scale = max(1.0, abs(va) + abs(vb), abs(va) * abs(vb))
        assert abs(vs - (va + vb)) <= 1e-9 * scale
        assert abs(vp - va * vb) <= 1e-9 * scale


class TestTextForm:
    def test_reference_rendering(self):
        x = (ONE - LAMBDA) / MU
        assert format_scalar(x) == "(1 - u^2)/u"
        assert parse_scalar("(1 - u^2)/u") == x

    def test_simple_forms(self):
        assert format_scalar(ZERO) == "0"
        assert format_scalar(ONE) == "1"
        assert format_scalar(-HALF) == "-1/2"
        assert format_scalar(MU) == "u"
        assert format_scalar(lambda_pow(-1)) == "1/u^2"
        assert format_scalar(-MU * HALF) == "-u/2"
        assert format_scalar(Scalar(0, (1,), (1, 2))) == "1/(1 + 2u)"
        assert format_scalar(Scalar(-1, (1,), (2,))) == "1/(2u)"

    def test_parse_variants(self):
        assert parse_scalar("u^-2") == lambda_pow(-1)
        assert parse_scalar("3u^2 + 1") == Scalar(0, (1, 0, 3), (1,))
        assert parse_scalar("3*u^2+1") == Scalar(0, (1, 0, 3), (1,))
        assert parse_scalar("-(u)/(2)") == -MU * HALF
        assert parse_scalar(" 1 - u ^ 2 ") == ONE - LAMBDA

    def test_parse_rejects_junk(self):
        for bad in ("", "u +", "1 $ 2", "(1", "u^u"):
            with pytest.raises(ValueError):
                parse_scalar(bad)

    def test_parse_rejects_non_ascii_digits_and_spaces(self):
        # int() reads Arabic-Indic and fullwidth digits, so the tokenizer
        # must not pass them on: "\u0663u" would read as 3u
        for text, char in (
            ("\u0663u", "\u0663"), ("\uff13u", "\uff13"), ("u^\uff12", "\uff12"),
            ("1 + \u0662", "\u0662"), ("3\u3000", "\u3000"),
        ):
            with pytest.raises(ValueError) as exc:
                parse_scalar(text)
            assert str(exc.value) == f"bad character in scalar text: {char!r}"

    @given(small_scalars)
    @settings(max_examples=120, deadline=None)
    def test_round_trip_is_exact(self, a):
        text = format_scalar(a)
        assert parse_scalar(text) == a
        assert format_scalar(parse_scalar(text)) == text


class TestMonomials:
    def test_mu_pow(self):
        assert mu_pow(0) == ONE
        assert mu_pow(2) == LAMBDA
        assert mu_pow(-1) == MU.inv()

    def test_shift_is_a_signed_monomial_product(self, monkeypatch):
        rng = random.Random(11)

        def poly(size):
            return tuple(rng.randint(-4, 4) for _ in range(size)) + (rng.choice((1, -1, 3)),)

        xs = [ZERO, ONE, HALF, -MU, Scalar(0, (1, 1), (3, 0, 1))]
        xs += [Scalar(rng.randint(-5, 5), poly(rng.randint(0, 3)), poly(rng.randint(0, 3)))
               for _ in range(30)]
        assert sum(x.d != (1,) for x in xs) >= 15
        expected = {
            (k, sign): [sign * mu_pow(k) * x for x in xs]
            for k in (-7, -2, -1, 0, 1, 4) for sign in (1, -1)
        }

        def refuse(*args):
            raise AssertionError("a shift took a product or a canonical form")

        monkeypatch.setattr(scalars, "_pmul", refuse)
        monkeypatch.setattr(scalars, "_canonical", refuse)
        for (k, sign), want in expected.items():
            got = [x.shift(k, sign) for x in xs]
            assert [(y.s, y.n, y.d) for y in got] == [(y.s, y.n, y.d) for y in want]
        assert ZERO.shift(3, -1) is ZERO

    def test_mul_shift_is_product_then_shift(self):
        # the product routine with the phase folded in: monomials and
        # binomials take the unit-denominator path, rational operands the
        # gcd path; both must give the constructor's canonical form
        rng = random.Random(17)
        xs = [ZERO, ONE, -ONE, MU, -LAMBDA, Scalar(-3, (-2,), (1,)), HALF, -HALF * MU]
        xs += [_poly(1, 1), Scalar(2, (-1, 0, 3), (1,)), Scalar(-1, (-2, 1), (1,))]
        xs += [ONE / (ONE - LAMBDA), Scalar(1, (1, 1), (3, 0, 1)), Scalar(0, (-1,), (1, 1))]
        xs += [Scalar(rng.randint(-4, 4), (rng.choice((1, -1, 2, -3)), rng.randint(-2, 2)), (1,))
               for _ in range(12)]
        assert sum(x.d != (1,) for x in xs) >= 5
        assert sum(len(x.n) > 1 and x.d == (1,) for x in xs) >= 10
        assert sum(bool(x.n) and x.n[-1] < 0 for x in xs) >= 5
        for x in xs:
            for y in xs:
                for k in (-5, -1, 0, 2, 7):
                    got, want = x._mul_shift(y, k), (x * y).shift(k)
                    plain = Scalar(x.s + y.s + k, scalars._pmul(x.n, y.n), scalars._pmul(x.d, y.d))
                    assert type(got) is Scalar and is_canonical(got)
                    assert (got.s, got.n, got.d) == (want.s, want.n, want.d), (x, y, k)
                    assert (got.s, got.n, got.d) == (plain.s, plain.n, plain.d), (x, y, k)

    def test_scalar_equality_takes_no_coercion(self, monkeypatch):
        def refuse(x):
            raise AssertionError("a Scalar operand went through _coerce")

        pairs = [(x, y) for x in (ZERO, ONE, HALF, MU) for y in (ZERO, ONE, HALF, MU)]
        monkeypatch.setattr(scalars, "_coerce", refuse)
        assert [x == y for x, y in pairs] == [x is y for x, y in pairs]
        monkeypatch.undo()
        assert ONE == 1 and ZERO == 0 and HALF != 1 and Scalar.from_int(-3) == -3
        assert ONE.__eq__(1.0) is NotImplemented and ONE.__eq__("1") is NotImplemented

    def test_from_int_refuses_a_non_int(self):
        for k in (2.5, 2.0, "2", None, HALF):
            with pytest.raises(TypeError, match="from_int needs an int"):
                Scalar.from_int(k)
        assert Scalar.from_int(0) is ZERO and Scalar.from_int(-3) == -3

    def test_shift_sign_is_one_or_minus_one(self):
        for sign in (0, 2, -3):
            with pytest.raises(ValueError, match="sign must be 1 or -1"):
                HALF.shift(1, sign)

    @given(st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_lambda_pow_is_homomorphism(self, i, j):
        assert lambda_pow(i) * lambda_pow(j) == lambda_pow(i + j)
        assert lambda_pow(i).star() == lambda_pow(-i)


class TestParseLimits:
    def test_hostile_power_fails_fast(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"degree limit {MAX_PARSE_DEGREE}"):
            parse_scalar("(1+u)^100000")
        assert time.perf_counter() - start < 1.0

    def test_each_limit_is_named(self):
        with pytest.raises(ValueError, match=str(MAX_PARSE_EXPONENT)):
            parse_scalar(f"u^{MAX_PARSE_EXPONENT + 1}")
        with pytest.raises(ValueError, match=f"{MAX_PARSE_BITS} bits"):
            parse_scalar("(2^200)^2")
        with pytest.raises(ValueError, match=f"degree limit {MAX_PARSE_DEGREE}"):
            parse_scalar(f"1 + u^{MAX_PARSE_DEGREE + 1}")

    def test_values_at_the_limits_parse(self):
        assert parse_scalar(f"u^{MAX_PARSE_EXPONENT}") == mu_pow(MAX_PARSE_EXPONENT)
        assert parse_scalar(f"u^-{MAX_PARSE_EXPONENT}") == mu_pow(-MAX_PARSE_EXPONENT)
        x = parse_scalar(f"1/(1 - u)^{MAX_PARSE_DEGREE}")
        assert len(x.d) - 1 == MAX_PARSE_DEGREE

    def test_division_by_zero_is_value_error(self):
        for text in ("1/0", "0^-1", "(1-u)/(u-u)"):
            with pytest.raises(ValueError, match="division by zero"):
                parse_scalar(text)

    def test_high_phases_round_trip(self):
        # h1 witnesses at window 16 carry phases up to a few hundred powers of u
        for k in (128, 256, 511, -512, 4096):
            x = -(lambda_pow(k) * HALF)
            assert parse_scalar(format_scalar(x)) == x


class TestSympyOracle:
    """Field operations against sympy's rational-function normal form."""

    @staticmethod
    def parts(u, x: Scalar):
        """x = u**s * num / den, with num and den as sympy polynomials in u."""
        num = sum(c * u**k for k, c in enumerate(x.n))
        den = sum(c * u**k for k, c in enumerate(x.d))
        return u**x.s, num, den

    @given(small_scalars, small_scalars)
    @settings(max_examples=40, deadline=None)
    def test_field_operations_match_cancel(self, a, b):
        sympy = pytest.importorskip("sympy")
        u = sympy.Symbol("u")
        sa, sb = (shift * num / den for shift, num, den in (self.parts(u, a), self.parts(u, b)))
        results = [(a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb)]
        if b:
            results += [(a / b, sa / sb), (b.inv(), 1 / sb)]
        for got, want in results:
            shift, num, den = self.parts(u, got)
            assert sympy.cancel(shift * num / den - want) == 0
            # canonical form: numerator and denominator share no factor
            assert sympy.degree(sympy.gcd(num, den), u) <= 0
