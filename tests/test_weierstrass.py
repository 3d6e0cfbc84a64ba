"""Exact Weierstrass arithmetic: discriminants against sympy's subresultant
resultant and, for g = 1, the b-invariant formula; the transformation law,
the characteristic system, valuations."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from mpmath import mpc

from thetaheights.elliptic import b_invariants, c_invariants
from thetaheights.errors import DomainError, ResourceError, SingularModelError
from thetaheights.theta_engine import ThetaCharacteristic
from thetaheights.weierstrass import (
    ModelChange,
    WeierstrassEquation,
    apply_model_change,
    char_system,
    discriminant,
    TRIAL_DIVISION_BOUND,
    _iroot,
    finite_valuations,
    parse_curve_spec,
    split_places,
)

HALF = Fraction(1, 2)


# --- oracles: sympy's subresultant resultant; the b-invariant polynomial ------


def curve_disc_oracle(E):
    """2^{4g} (-1)^{d(d-1)/2} Res(f, f') / lc(f) with f = P + Q^2/4, by
    sympy.resultant (subresultant PRS, not a Sylvester determinant)."""
    x = sympy.Symbol("x")
    f = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
            for i, c in enumerate(E.rhs_quartic_free()))
    d = 2 * E.g + 1
    res = sympy.resultant(f, sympy.diff(f, x), x) * (-1) ** (d * (d - 1) // 2)
    res = sympy.Rational(res)
    return 2 ** (4 * E.g) * Fraction(int(res.p), int(res.q))


def b_invariant_disc(E):
    """Delta = -b2^2 b8 - 8 b4^3 - 27 b6^2 + 9 b2 b4 b6 (genus 1)."""
    b2, b4, b6, b8 = b_invariants(E)
    return -b2 ** 2 * b8 - 8 * b4 ** 3 - 27 * b6 ** 2 + 9 * b2 * b4 * b6


def test_disc_examples_against_oracle():
    E1 = WeierstrassEquation.make(1, [0, 0, 0, 1], [1])      # y^2 + y = x^3
    assert discriminant(E1) == curve_disc_oracle(E1) == b_invariant_disc(E1) == -27
    E2 = WeierstrassEquation.make(2, [0, 0, 0, 0, 0, 1], [1])  # y^2 + y = x^5
    assert discriminant(E2) == curve_disc_oracle(E2) == 3125
    E3 = WeierstrassEquation.make(1, [1, 0, 0, 1], [])        # y^2 = x^3 + 1
    assert discriminant(E3) == curve_disc_oracle(E3) == b_invariant_disc(E3) == -432


def test_disc_random_against_oracle():
    rng = random.Random(17)
    found = {1: 0, 2: 0, 3: 0}
    while min(found.values()) < 8:
        g = rng.choice([1, 2, 3])
        P = [Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3]))
             for _ in range(2 * g + 1)] + [Fraction(1)]
        Q = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(0, g + 1))]
        try:
            E = WeierstrassEquation.make(g, P, Q)
        except SingularModelError:
            continue
        found[g] += 1
        d = discriminant(E)
        assert d == curve_disc_oracle(E)
        if g == 1:
            c4, c6 = c_invariants(E)
            assert d == b_invariant_disc(E)
            assert 1728 * d == c4 ** 3 - c6 ** 2


def test_transformation_law_examples():
    E = WeierstrassEquation.make(1, [16, 0, 0, 1], [])
    E2 = apply_model_change(E, ModelChange.make(2))
    assert discriminant(E) == Fraction(2) ** 12 * discriminant(E2)
    Eg2 = WeierstrassEquation.make(2, [0, 0, 0, 0, 0, 1], [1])
    Eg2b = apply_model_change(Eg2, ModelChange.make(3))
    assert discriminant(Eg2) == Fraction(3) ** 40 * discriminant(Eg2b)
    # identity change
    E3 = apply_model_change(E, ModelChange.make(1))
    assert (E3.P, E3.Q) == (E.P, E.Q)


def test_transformation_law_random_exact():
    rng = random.Random(23)
    done = 0
    while done < 100:
        g = rng.choice([1, 2])
        P = [Fraction(rng.randint(-4, 4)) for _ in range(2 * g + 1)] + [Fraction(1)]
        Q = [Fraction(rng.randint(-2, 2)) for _ in range(g + 1)]
        try:
            E = WeierstrassEquation.make(g, P, Q)
        except SingularModelError:
            continue
        u = Fraction(rng.choice([1, -1, 2, 3, -2]), rng.choice([1, 1, 1, 2]))
        s = Fraction(rng.randint(-2, 2))
        t = [Fraction(rng.randint(-2, 2)) for _ in range(g + 1)]
        E2 = apply_model_change(E, ModelChange.make(u, s, t))
        assert discriminant(E) == u ** (4 * g * (2 * g + 1)) * discriminant(E2)
        done += 1


def test_model_change_round_trip():
    E = WeierstrassEquation.make(1, [0, 0, 0, 1], [1])
    c = ModelChange.make(Fraction(2, 3), Fraction(1, 2), [Fraction(1, 4), Fraction(2)])
    E2 = apply_model_change(E, c)
    # inverse change: x = u^2 x' + s  <=>  x' = (1/u^2) x - s/u^2
    u, s, t = c.u, c.s, list(c.t)
    # y = u^3 y' + t0 + t1 x'  =>  y' = (y - t(x'))/u^3 with x' = (x-s)/u^2
    t1 = t[1] if len(t) > 1 else Fraction(0)
    inv = ModelChange.make(1 / u, -s / u ** 2,
                           [(-t[0] + t1 * s / u ** 2) / u ** 3, -t1 / u ** 5])
    E3 = apply_model_change(E2, inv)
    assert (E3.P, E3.Q) == (E.P, E.Q)


def test_malformed_change_rejected():
    E = WeierstrassEquation.make(1, [0, 0, 0, 1], [1])
    with pytest.raises(DomainError):
        ModelChange.make(0)
    with pytest.raises(DomainError):
        apply_model_change(E, ModelChange.make(1, 0, [0, 0, 1]))  # deg t > g


# --- characteristic system ----------------------------------------------------


def test_char_system_g1_matches_even_jacobi_nulls():
    got = set(char_system(1))
    expect = {
        ThetaCharacteristic.make([HALF], [0]),    # theta_2
        ThetaCharacteristic.make([0], [0]),       # theta_3
        ThetaCharacteristic.make([0], [HALF]),    # theta_4
    }
    assert got == expect
    assert all(m.parity() == 0 for m in got)


def test_char_system_g2_distinct_even():
    chars = char_system(2)
    assert len(chars) == 10
    assert len(set(chars)) == 10
    assert all(m.parity() == 0 for m in chars)


def test_char_system_g2_is_the_even_set(ctx):
    # exact set equality: phi and J10 are products over the same 10 even
    # nulls, which is why faltings_jacobian evaluates one table of nulls
    from thetaheights.theta_engine import theta_nulls_halfint

    nulls = theta_nulls_halfint([[mpc(0, "1.1"), 0], [0, mpc(0, "1.3")]], ctx)
    even = {m for m in nulls if m.parity() == 0}
    assert set(char_system(2)) == even


def test_char_system_enumeration_order_stable():
    import itertools

    from thetaheights.weierstrass import _char_sum, branch_point_characteristics

    g = 2
    ms = branch_point_characteristics(g)
    U = set(range(1, 2 * g + 2, 2))
    reversed_order = []
    for T in reversed(list(itertools.combinations(range(1, 2 * g + 2), g + 1))):
        Ssym = set(T) ^ U
        if Ssym:
            reversed_order.append(_char_sum([ms[i - 1] for i in sorted(Ssym)]))
        else:
            reversed_order.append(
                ThetaCharacteristic.make([Fraction(0)] * g, [Fraction(0)] * g))
    assert set(reversed_order) == set(char_system(g))


def test_binomial_identities():
    for g in (1, 2, 3):
        l = math.comb(2 * g + 1, g + 1)
        n = math.comb(2 * g, g + 1)
        assert Fraction(n) == Fraction(g) * l / (2 * g + 1)


def test_char_system_genus_range():
    with pytest.raises(DomainError):
        char_system(0)
    with pytest.raises(DomainError):
        char_system(4)


# --- valuations ----------------------------------------------------------------


def test_finite_valuations_examples():
    assert finite_valuations(-27) == [(3, 3)]
    assert finite_valuations(3125) == [(5, 5)]
    assert finite_valuations(-432) == [(2, 4), (3, 3)]


def test_finite_valuations_sum_identity():
    import mpmath

    for n in (-27, 3125, -432, 720720):
        s = sum(e * mpmath.log(p) for p, e in finite_valuations(n))
        assert abs(s - mpmath.log(abs(n))) < mpmath.mpf(10) ** -20


def test_finite_valuations_rational_and_errors():
    assert finite_valuations(Fraction(9, 4)) == [(2, -2), (3, 2)]
    with pytest.raises(DomainError):
        finite_valuations(0)
    with pytest.raises(ResourceError):
        finite_valuations(10 ** 100 + 7)


def test_iroot_is_the_integer_root():
    rng = random.Random(37)
    for _ in range(200):
        n, k = rng.randrange(1, 10 ** rng.randint(1, 90)), rng.randint(2, 13)
        r = _iroot(n, k)
        assert r ** k <= n < (r + 1) ** k
    assert _iroot(0, 12) == 0 and _iroot(3 ** 120, 12) == 3 ** 10


def test_split_places_without_factoring():
    p, q = 1000003, 1000033                  # primes above the trial bound
    assert p > TRIAL_DIVISION_BOUND and sympy.isprime(p) and sympy.isprime(q)
    assert split_places(-27) == [(3, 3, True)]
    assert split_places(16 * 5077) == [(2, 4, True), (5077, 1, True)]
    assert split_places(7 * p ** 6) == [(7, 1, True), (p, 6, True)]
    # a composite cofactor stays one block; a power of it is found exactly
    assert split_places(-12 * (p * q) ** 3) == [(2, 2, True), (3, 1, True), (p * q, 3, False)]
    assert split_places(p ** 2 * q ** 3) == [(p ** 2 * q ** 3, 1, False)]
    rng = random.Random(39)
    for _ in range(50):
        n = rng.randrange(1, 10 ** 40)
        places = split_places(n)
        assert math.prod(d ** e for d, e, _ in places) == n
        assert all(math.gcd(a, b) == 1 for i, (a, _, _) in enumerate(places)
                   for b, _, _ in places[i + 1:])
        assert all(prime == sympy.isprime(d) for d, _, prime in places)
    with pytest.raises(DomainError):
        split_places(0)


def test_integrality_for_integral_even_free_models():
    rng = random.Random(31)
    done = 0
    while done < 10:
        g = rng.choice([1, 2])
        P = [Fraction(rng.randint(-6, 6)) for _ in range(2 * g + 1)] + [Fraction(1)]
        try:
            E = WeierstrassEquation.make(g, P, [])
        except SingularModelError:
            continue
        d = discriminant(E)
        assert d.denominator == 1
        assert d % 2 ** (4 * g) == 0 or d.numerator % 2 ** (4 * g) == 0
        done += 1


# --- parsing --------------------------------------------------------------------


def test_parse_curve_spec_rational_strings():
    E = parse_curve_spec('{"genus": 1, "P": ["1/4", "0", "0", "1"], "Q": []}')
    assert E.P[0] == Fraction(1, 4)
    assert discriminant(E) == 2 ** 4 * Fraction(-27, 16)


def test_parse_curve_spec_errors():
    with pytest.raises(DomainError):
        parse_curve_spec("{not json")
    with pytest.raises(DomainError):
        parse_curve_spec('{"genus": 1, "P": ["0", "0", "0", "2"]}')  # not monic
    with pytest.raises(SingularModelError):
        parse_curve_spec('{"genus": 1, "P": ["0", "0", "0", "1"]}')  # y^2 = x^3
