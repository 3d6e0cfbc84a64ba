"""Elliptic curves over Q: minimal models, AGM periods, the differential
height, and the Chowla-Selberg closed form."""

import math
import random
import time
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from thetaheights import cli, elliptic, local_heights, weierstrass
from thetaheights.errors import DomainError
from thetaheights.precision import PrecisionContext
from thetaheights.local_heights import _integralize, canonical_height_q
from thetaheights.elliptic import (
    a_invariants,
    c_invariants,
    chowla_selberg,
    curve_from_a_invariants,
    faltings_elliptic,
    finite_places,
    kronecker_symbol,
    minimal_model_q,
    model_change_q,
    periods_agm,
    point_add,
    point_mul,
    point_on_curve,
    quadratic_character,
)
from thetaheights.weierstrass import (
    ModelChange,
    WeierstrassEquation,
    apply_model_change,
    discriminant,
)

E_CM27 = WeierstrassEquation.make(1, [0, 0, 0, 1], [1])        # y^2 + y = x^3
E_X316 = WeierstrassEquation.make(1, [16, 0, 0, 1], [])       # y^2 = x^3 + 16
E_LEMN = WeierstrassEquation.make(1, [0, -1, 0, 1], [])       # y^2 = x^3 - x
E_37A = WeierstrassEquation.make(1, [0, -1, 0, 1], [1])       # y^2 + y = x^3 - x
E_5077A = WeierstrassEquation.make(1, [6, -7, 0, 1], [1])     # y^2 + y = x^3 - 7x + 6

# frozen from two independent evaluation routes (Chowla-Selberg and the
# stable differential-height formula), which agree to 5e-51
STABLE_CM27 = "0.1701860477013349138621742162273235319151751264821"
STABLE_CM4 = "0.18077055021786331059976832877741832773343729068763"


# --- minimal models -----------------------------------------------------------


def test_minimal_model_chain_example():
    Emin, dmin = minimal_model_q(E_X316)
    assert dmin == -27
    assert c_invariants(Emin) == c_invariants(E_CM27)


def test_minimal_model_already_minimal():
    Emin, dmin = minimal_model_q(E_CM27)
    assert dmin == -27
    assert (Emin.P, Emin.Q) == (E_CM27.P, E_CM27.Q)


def small_u_search_oracle(E, u_max=4, box=6):
    """Exhaustive small-(u, r, s, t) integral-model search (oracle)."""
    best = abs(discriminant(E))
    a1, a2, a3, a4, a6 = a_invariants(E)
    for u in range(1, u_max + 1):
        for r in range(-box, box + 1):
            for s in range(-box, box + 1):
                for t in range(-2 * box, 2 * box + 1):
                    # standard (u, r, s, t) change of the long model
                    b1 = Fraction(a1 + 2 * s, u)
                    b2 = Fraction(a2 - s * a1 + 3 * r - s * s, u ** 2)
                    b3 = Fraction(a3 + r * a1 + 2 * t, u ** 3)
                    b4 = Fraction(a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1
                                  + 3 * r * r - 2 * s * t, u ** 4)
                    b6 = Fraction(a6 + r * a4 + r * r * a2 + r ** 3 - t * a3
                                  - t * t - r * t * a1, u ** 6)
                    if all(x.denominator == 1 for x in (b1, b2, b3, b4, b6)):
                        best = min(best, abs(discriminant(E)) / u ** 12)
    return best


def test_minimal_model_exhaustive_small_u_oracle():
    _, dmin = minimal_model_q(E_X316)
    assert abs(dmin) == small_u_search_oracle(E_X316) == 27


def test_minimal_divides_integral_discriminant():
    rng = random.Random(41)
    done = 0
    while done < 15:
        a = [rng.randint(-3, 3) for _ in range(4)] + [rng.randint(-6, 6)]
        try:
            E = curve_from_a_invariants(*a)
        except Exception:
            continue
        _, dmin = minimal_model_q(E)
        d = discriminant(E)
        assert d.denominator == 1
        assert int(d) % dmin == 0
        done += 1


def test_minimal_model_recovers_after_scaling():
    rng = random.Random(43)
    curves = [E_CM27, E_37A, E_LEMN]
    for E in curves:
        c4m, c6m = c_invariants(E)
        for _ in range(5):
            u = Fraction(rng.choice([2, 3, 5, 6]), rng.choice([1, 7]))
            s = Fraction(rng.randint(-3, 3))
            t = [Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2))]
            E2 = apply_model_change(E, ModelChange.make(u, s, t))
            Em, _ = minimal_model_q(E2)
            assert c_invariants(Em) == (c4m, c6m)


def test_model_change_recovers_the_change():
    rng = random.Random(45)
    for E in (E_CM27, E_37A, E_LEMN, E_5077A):
        for _ in range(4):
            u = Fraction(rng.choice([-6, -1, 2, 3, 5]), rng.choice([1, 2, 7]))
            c = ModelChange.make(u, rng.randint(-3, 3), [rng.randint(-3, 3), rng.randint(-2, 2)])
            E2 = apply_model_change(E, c)
            got = model_change_q(E, E2)
            assert got.u == abs(u) and apply_model_change(E, got) == E2
    with pytest.raises(DomainError):
        model_change_q(E_37A, E_5077A)
    with pytest.raises(DomainError):
        model_change_q(E_LEMN, curve_from_a_invariants(0, 0, 0, -4, 0))   # a twist


# --- periods ------------------------------------------------------------------


def test_periods_cm_corner_point(ctx):
    per = periods_agm(E_CM27, ctx)
    rho = mpc(mpf(1) / 2, mp.sqrt(3) / 2)
    assert abs(per.tau.scalar() - rho) < mpf(2) ** -100


def test_periods_fixed_point_i(ctx):
    per = periods_agm(E_LEMN, ctx)
    assert abs(per.tau.scalar() - mpc(0, 1)) < mpf(2) ** -100


def test_periods_reduced_imag_lower_bound(ctx):
    rng = random.Random(47)
    done = 0
    while done < 10:
        a4, a6 = rng.randint(-8, 8), rng.randint(-8, 8)
        try:
            E = curve_from_a_invariants(0, 0, 0, a4, a6)
            per = periods_agm(E, ctx)
        except Exception:
            continue
        assert per.tau.scalar().imag >= mp.sqrt(3) / 2 - mpf(2) ** -100
        assert abs(per.covolume - abs((mp.conj(per.omega1) * per.omega2).imag)) \
            < mpf(2) ** -100 * per.covolume
        done += 1


def eisenstein_e4_e6(tau, ctx):
    """E4, E6 by their q-expansions (oracle for the lattice invariants)."""
    with ctx.workprec():
        q = mp.expjpi(2 * tau)
        e4 = mpf(1)
        e6 = mpf(1)
        n = 1
        while abs(q) ** n > mpf(2) ** -(ctx.bits + 10):
            qn = q ** n
            s3 = sum(d ** 3 for d in range(1, n + 1) if n % d == 0)
            s5 = sum(d ** 5 for d in range(1, n + 1) if n % d == 0)
            e4 += 240 * s3 * qn
            e6 -= 504 * s5 * qn
            n += 1
        return e4, e6


def test_periods_lattice_invariants_roundtrip(ctx):
    for E in (E_37A, E_LEMN, curve_from_a_invariants(1, 0, 0, -1, 1)):
        per = periods_agm(E, ctx)
        t = per.tau.scalar()
        e4, e6 = eisenstein_e4_e6(t, ctx)
        c4, c6 = c_invariants(E)
        w1 = per.omega1
        got_c4 = (2 * mp.pi / w1) ** 4 * e4
        got_c6 = (2 * mp.pi / w1) ** 6 * e6
        assert abs(got_c4 - mpf(c4.numerator) / c4.denominator) < mpf(10) ** -28 * max(1, abs(c4))
        assert abs(got_c6 - mpf(c6.numerator) / c6.denominator) < mpf(10) ** -28 * max(1, abs(c6))


# --- differential height --------------------------------------------------------


def test_faltings_literal_value_and_breakdown_identity(ctx):
    h, bd = faltings_elliptic(E_CM27, ctx)
    # literal Thm-formula route vs per-place alpha sum: two formulas, one number
    assert abs(h - bd.total) < mpf(2) ** -(ctx.bits - 10)
    expected = mpf(STABLE_CM27) + mp.log(27) / 12
    assert abs(h - expected) < mpf(10) ** -30


def test_faltings_stable_cm_value(ctx):
    h, bd = faltings_elliptic(E_CM27, ctx, stable=True)
    assert abs(h - mpf(STABLE_CM27)) < mpf(10) ** -30
    assert any("semistable" in w for w in bd.warnings)


def test_faltings_model_independent(ctx):
    h1, _ = faltings_elliptic(E_X316, ctx)
    h2, _ = faltings_elliptic(E_CM27, ctx)
    assert abs(h1 - h2) < mpf(2) ** -(ctx.bits - 10)


def test_faltings_positive(ctx):
    for E in (E_CM27, E_37A, E_LEMN, curve_from_a_invariants(0, 0, 0, -2, 5)):
        h, _ = faltings_elliptic(E, ctx)
        assert h > 0
        hs, _ = faltings_elliptic(E, ctx, stable=True)
        assert hs > 0


E_LARGE = curve_from_a_invariants(0, 0, 0, 987654321987654321987654321,
                                  123456789012345678901234567890123456789)


@pytest.mark.parametrize("bits", [64, 128])
@pytest.mark.parametrize("stable", [False, True])
def test_faltings_large_curve_sums_to_thm_expression(bits, stable):
    # |Delta_min| has 83 digits: trial division leaves a 76-digit composite
    # block d, which is never factored
    c = PrecisionContext(bits=bits)
    h, bd = faltings_elliptic(E_LARGE, c, stable=stable)
    assert abs(h - bd.total) <= c.eps()
    _, dmin = minimal_model_q(E_LARGE)
    assert len(str(abs(dmin))) == 83
    places, semistable, _ = finite_places(*minimal_model_q(E_LARGE))
    assert not semistable
    assert math.prod(d ** e for d, e, _, _ in places) == abs(dmin)
    blocks = [d for d, _, prime, _ in places if not prime]
    assert len(blocks) == 1 and len(str(blocks[0])) == 76
    labels = {pl.label() for pl, _ in bd.entries}
    assert f"d={blocks[0]}" in labels


def test_faltings_semistable_has_no_warning(ctx):
    h, bd = faltings_elliptic(E_37A, ctx)
    assert not any("semistable" in w for w in bd.warnings)
    hs, _ = faltings_elliptic(E_37A, ctx, stable=True)
    assert abs(h - hs) < mpf(2) ** -(ctx.bits - 10)


def test_stable_exponents():
    # (d, e, prime, d-part of den j): the stable exponent at a place is read
    # from den j = |Delta_min| / gcd(Delta_min, c4^3), semistability from
    # gcd(c4, Delta_min) = 1
    def places(E):
        return finite_places(*minimal_model_q(E))

    assert places(E_CM27) == ([(3, 3, True, 1)], False, 1)       # j = 0
    assert places(E_37A) == ([(37, 1, True, 37)], True, 37)
    assert places(E_LEMN) == ([(2, 6, True, 1)], False, 1)       # Delta = 64, j = 1728


def _count_calls(monkeypatch, module, name, log):
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        log.append((name, args[0]))
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _factorint_allowed(E, P):
    """What the elliptic heights may factor for (E, P): gcd(c4, c6) of an
    integral rescaling of E (the minimal model's own, or canonical_height_q's
    integralized model), the lcm of the c-invariant denominators, and on
    the minimal model the scale u from the integralized model and g, the gcd
    of the two partial derivatives at P; with them the part of den x(P)
    prime to u, which must never be factored."""
    c4, c6 = c_invariants(E)
    m = math.lcm(c4.denominator, c6.denominator)
    allowed = {m}
    for k in (m * 2 ** i * 3 ** j for i in range(4) for j in range(4)):
        if (c4 * k ** 4).denominator == (c6 * k ** 6).denominator == 1:
            allowed.add(math.gcd(int(c4 * k ** 4), int(c6 * k ** 6)))
    E_int, (x, y) = _integralize(E, P)
    allowed.add(math.gcd(*(int(c) for c in c_invariants(E_int))))
    Emin, _ = minimal_model_q(E)
    c = model_change_q(E_int, Emin)
    x, y = (x - c.s) / c.u ** 2, (y - c.t[0] - c.t[1] * (x - c.s) / c.u ** 2) / c.u ** 3
    a1, a2, a3, a4, _ = a_invariants(Emin)
    g = math.gcd((3 * x * x + 2 * a2 * x + a4 - a1 * y).numerator,
                 (2 * y + a1 * x + a3).numerator)
    d, u = x.denominator, int(c.u)
    while (k := math.gcd(d, u)) > 1:
        d //= k
    return allowed | {u, g}, d


@pytest.mark.parametrize("E, P", [
    (E_5077A, (-2, 3)),
    (E_37A, (Fraction(1, 4), Fraction(-5, 8))),                      # [5](0, 0)
    (curve_from_a_invariants(0, 0, 0, Fraction(-7, 16), Fraction(1, 64)),
     (0, Fraction(1, 8))),                                           # a non-integral model
    (WeierstrassEquation.make(1, [17 * 6 ** 6, 0, 0, 1], []), (2 * 36, 5 * 216)),  # u = 6
    (E_37A, point_mul(E_37A, 70, (Fraction(0), Fraction(0)))),       # 109-digit den x
])
def test_factorint_never_sees_a_discriminant(E, P, monkeypatch, ctx):
    # faltings_elliptic and canonical_height_q factor only gcd(c4, c6), model
    # denominators, u and g: never Delta, Delta_min or a multiple of either,
    # and never den x(P) or its part d prime to u
    P = (Fraction(P[0]), Fraction(P[1]))
    assert point_on_curve(E, P)
    allowed, d = _factorint_allowed(E, P)
    _, dmin = minimal_model_q(E)
    discs = [dmin, discriminant(E).numerator, discriminant(_integralize(E, P)[0]).numerator]
    log = []
    for module, name in [(weierstrass, "_factorint"), (elliptic, "_factorint"),
                         (local_heights, "_factorint"), (weierstrass, "finite_valuations")]:
        _count_calls(monkeypatch, module, name, log)
    finite_log = []
    _count_calls(monkeypatch, local_heights, "_factorint", finite_log)
    faltings_elliptic(E, ctx)
    canonical_height_q(E, P, ctx)
    assert log and all(name == "_factorint" for name, _ in log)
    for _, n in log:
        assert n in allowed, n
        assert all(n % d for d in discs if abs(d) > 1), n
    # the finite local heights factor u and g, and no prime of d divides either
    if d > 1:
        assert all(n % d for _, n in finite_log), d


def test_curve_data_computed_once(monkeypatch, tmp_path, ctx):
    # the minimal model and the period lattice are each computed once per
    # curve, in the library and the CLI, and no discriminant is factored
    log = []
    for module, name in [(elliptic, "minimal_model_q"), (elliptic, "periods_agm"),
                         (weierstrass, "_factorint"), (elliptic, "_factorint")]:
        _count_calls(monkeypatch, module, name, log)
    dmin = 5077
    faltings_elliptic(E_5077A, ctx)
    assert [n for n, _ in log].count("minimal_model_q") == 1
    assert not any(name == "_factorint" and n % dmin == 0 for name, n in log)
    log.clear()
    curve = '{"genus":1,"P":["6","-7","0","1"],"Q":["1"]}'
    assert cli.run(["elliptic", "decompose", "--curve", curve,
                    "--out", str(tmp_path / "d.json")]) == 0
    names = [n for n, _ in log]
    assert names.count("minimal_model_q") == 1
    assert names.count("periods_agm") == 1
    assert not any(name == "_factorint" and n % dmin == 0 for name, n in log)


# --- Chowla-Selberg ---------------------------------------------------------------


def test_quadratic_characters():
    assert quadratic_character(3) == (1, -1)
    assert quadratic_character(4) == (1, 0, -1)
    # multiplicativity spot-check for D = 7
    eps = quadratic_character(7)
    for a in range(1, 7):
        for b in range(1, 7):
            assert eps[(a * b) % 7 - 1] == eps[a - 1] * eps[b - 1]
    assert kronecker_symbol(-4, 2) == 0


def test_chowla_selberg_d3(ctx):
    cs = chowla_selberg(3, 6, 1, quadratic_character(3), ctx)
    assert abs(cs - mpf(STABLE_CM27)) < mpf(10) ** -30


def test_chowla_selberg_d3_matches_stable_silverman(ctx):
    cs = chowla_selberg(3, 6, 1, quadratic_character(3), ctx)
    h, _ = faltings_elliptic(E_CM27, ctx, stable=True)
    assert abs(cs - h) < mpf(10) ** -30


def test_chowla_selberg_d4_golden_dual_precision():
    from thetaheights.precision import PrecisionContext

    vals = []
    for bits in (128, 192):
        c = PrecisionContext(bits=bits)
        vals.append(chowla_selberg(4, 4, 1, quadratic_character(4), c))
    assert abs(vals[0] - vals[1]) < mpf(2) ** -120
    assert abs(vals[0] - mpf(STABLE_CM4)) < mpf(10) ** -30


def test_chowla_selberg_d4_matches_stable_lemniscatic(ctx):
    # both computed, neither asserted a priori: Delta_min = 64 drops out in
    # the stable reading and the remaining archimedean part is the D = 4 value
    cs = chowla_selberg(4, 4, 1, quadratic_character(4), ctx)
    h, _ = faltings_elliptic(E_LEMN, ctx, stable=True)
    assert abs(cs - h) < mpf(10) ** -30


def test_chowla_selberg_validation(ctx):
    with pytest.raises(DomainError):
        chowla_selberg(3, 6, 1, (1, 1), ctx)        # not odd
    with pytest.raises(DomainError):
        chowla_selberg(3, 6, 1, (1,), ctx)          # wrong length
    with pytest.raises(DomainError):
        chowla_selberg(3, 6, 1, (2, -2), ctx)       # values outside {-1,0,1}
    with pytest.raises(DomainError):
        chowla_selberg(-3, 6, 1, (1, -1), ctx)


# --- point arithmetic helpers ------------------------------------------------------


def test_point_arithmetic_basics():
    P = (Fraction(0), Fraction(0))
    assert point_on_curve(E_37A, P)
    Q = point_add(E_37A, P, P)
    assert point_on_curve(E_37A, Q)
    assert Q == (Fraction(1), Fraction(0))
    # [3]P of the order-3 point on y^2 + y = x^3
    T = (Fraction(0), Fraction(0))
    T2 = point_add(E_CM27, T, T)
    assert point_add(E_CM27, T2, T) is None


def test_runtime_of_faltings_under_two_seconds(ctx):
    t0 = time.perf_counter()
    faltings_elliptic(E_CM27, ctx)
    assert time.perf_counter() - t0 < 2.0
