"""Local decompositions: mu/beta/alpha identities, canonical heights against
the naive-limit oracle, and the Autissier integral."""

import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from autissier_quadrature import autissier_quadrature, theta_norm_grid
from thetaheights.elliptic import curve_from_a_invariants, point_add, point_neg
from thetaheights.errors import DomainError, OrbitCollisionError
from thetaheights.local_heights import (
    _kummer_double,
    _kummer_line,
    _kummer_read_back,
    alpha_arch,
    alpha_finite,
    autissier_integral,
    beta_arch,
    canonical_height_q,
    mu_arch_closed,
    mu_arch_series,
    mu_arch_terms,
    mu_tail_bound,
    prop_envelope,
    reduce_point_mod_lattice,
)
from thetaheights.siegel import random_reduced_tau
from thetaheights.theta_engine import (
    _fixed,
    _from_fixed,
    jacobi_thetas,
    modular_discriminant,
    theta_norm,
)
from thetaheights.precision import PrecisionContext
from thetaheights.weierstrass import WeierstrassEquation

E_37A = WeierstrassEquation.make(1, [0, -1, 0, 1], [1])
E_CM27 = WeierstrassEquation.make(1, [0, 0, 0, 1], [1])


# --- mu ------------------------------------------------------------------------


def test_mu_series_matches_closed_form(ctx):
    rng = random.Random(5)
    for _ in range(10):
        tau = random_reduced_tau(1, rng, ctx)
        z = mpc(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        n = 30
        s = mu_arch_series(z, tau, n, ctx)
        c = mu_arch_closed(z, tau, ctx)
        assert abs(s - c) <= mu_tail_bound(tau, n, ctx)


def test_kummer_step_matches_direct_thetas(ctx):
    # one step on the Kummer line (t3^2 : t4^2) against the Jacobi thetas
    # summed directly at 2w; the walk's unit-norm point fixes the scale
    rng = random.Random(11)
    prec = ctx.working_bits + 16
    for _ in range(8):
        tau = random_reduced_tau(1, rng, ctx)
        t = tau.scalar()
        w = reduce_point_mod_lattice(mpc(rng.random(), 0) + rng.random() * t, tau, ctx)
        nulls = jacobi_thetas(0, tau, ctx)[1:]
        squares = [v * v for v in jacobi_thetas(w, tau, ctx)]
        direct = [v * v for v in jacobi_thetas(2 * w, tau, ctx)[2:]]
        with mp.workprec(prec):
            size = mp.fsum(abs(v) for v in squares)
            A, _, X, Y = (_fixed(v / size, prec) for v in squares)
            stepped = _kummer_double(X, Y, A, _kummer_line(nulls, prec), prec)
            for a, b in zip(stepped, direct):
                a = _from_fixed(*a, prec) * size ** 4
                assert abs(a - b) <= mpf(2) ** -(ctx.bits - 8) * max(1, abs(b))


def test_jacobi_quadrics_read_back_the_theta_squares(ctx):
    # t1^2 and t2^2 read back from the Kummer point (t3^2 : t4^2) by the two
    # Jacobi quadrics match the direct thetas
    rng = random.Random(12)
    tol = mpf(2) ** -(ctx.bits - 8)
    prec = ctx.working_bits + 16
    for _ in range(8):
        tau = random_reduced_tau(1, rng, ctx)
        t = tau.scalar()
        w = reduce_point_mod_lattice(mpc(rng.random(), 0) + rng.random() * t, tau, ctx)
        nulls = jacobi_thetas(0, tau, ctx)[1:]
        x = jacobi_thetas(w, tau, ctx)
        scale = max(abs(v) for v in x) ** 2
        with mp.workprec(prec):
            X, Y = (_fixed(v * v, prec) for v in x[2:])
            back = _kummer_read_back(X, Y, _kummer_line(nulls, prec), prec)
            for a, v in zip(back, x[:2]):
                assert abs(_from_fixed(*a, prec) - v * v) <= tol * scale


def _mu_cases(rng, ctx, count):
    cases = []
    for _ in range(count):
        tau = random_reduced_tau(1, rng, ctx)
        t = tau.scalar()
        cases.append((rng.random() + rng.random() * t, tau))
    tau = random_reduced_tau(1, rng, ctx)
    t = tau.scalar()
    # the 2-torsion points: 2z is a lattice point, so t1 = 0 on the orbit
    cases += [(z, tau) for z in (mpc(0), mpc("0.5"), t / 2, (1 + t) / 2)]
    # high in the fundamental domain, where the quartics are least stable
    cases.append((mpc("0.37", "2.1"), mpc("0.3", "6")))
    return cases


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_mu_series_matches_closed_form_across_precisions(bits):
    ctx = PrecisionContext(bits=bits)
    n = (bits + 24) // 2
    for z, tau in _mu_cases(random.Random(bits), ctx, 10):
        s = mu_arch_series(z, tau, n, ctx)
        c = mu_arch_closed(z, tau, ctx)
        assert abs(s - c) <= ctx.tol() + mu_tail_bound(tau, n, ctx)


@pytest.mark.parametrize("bits", [128, 256])
def test_mu_series_default_terms_meet_precision(bits):
    # with no n_terms the series sets its own count and meets 2^-bits
    ctx = PrecisionContext(bits=bits)
    n = (bits + 24) // 2
    rng = random.Random(bits + 3)
    cases = [(mpc("0.23", "0.31"), mpc("0.1", "1.1"))]
    cases += [(mpc(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
               random_reduced_tau(1, rng, ctx)) for _ in range(3)]
    for z, tau in cases:
        s = mu_arch_series(z, tau, ctx=ctx)
        c = mu_arch_closed(z, tau, ctx)
        assert abs(s - c) <= ctx.eps() + mu_tail_bound(tau, n, ctx)


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_mu_series_accurate_at_large_imag_tau(bits):
    # the walk loses about pi Im tau / log 2 bits to the Kummer coordinate;
    # the series must still meet 2^-bits against the same terms at bits + 64.
    # -1/(x + 9i), near the cusp 0, is as badly conditioned as Im tau = 9.
    ctx = PrecisionContext(bits=bits)
    n = (bits + 24) // 2
    rng = random.Random(bits + 1)
    for tau in (mpc(rng.uniform(-0.5, 0.5), 10), mpc(rng.uniform(-0.5, 0.5), 20),
                -1 / mpc(rng.uniform(-0.5, 0.5), 9)):
        for _ in range(3):
            z = mpc(rng.random(), 0) + rng.random() * tau
            s = mu_arch_series(z, tau, n, ctx)
            ref = mu_arch_series(z, tau, n, ctx.higher(64))
            assert abs(s - ref) <= ctx.eps()


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_mu_series_one_log_matches_sum_of_term_logs(bits):
    # the series takes one logarithm of a product; summing 4^-n-1 log E_n
    # over the terms at bits + 64 must give the same value within 2^-bits
    ctx = PrecisionContext(bits=bits)
    rng = random.Random(bits + 5)
    for im in (0.9, 30):
        tau = mpc(rng.uniform(-0.5, 0.5), im)
        z = mpc(rng.random(), 0) + rng.random() * tau
        for n in (0, 1, (bits + 24) // 2):
            s = mu_arch_series(z, tau, n, ctx)
            terms = mu_arch_terms(z, tau, n, ctx.higher(64))
            with mp.workprec(bits + 64):
                ref = mp.fsum(mp.log(E) / mpf(4) ** (k + 1) for k, E in enumerate(terms))
                assert abs(s - ref) <= ctx.eps()


def test_mu_terms_constant_on_two_torsion(ctx):
    # (0 : t2 : t3 : t4) is a fixed point of the duplication quartics
    tau = mpc("0.15", "1.1")
    for z in (0, mpc("0.5"), tau / 2, (1 + tau) / 2):
        terms = mu_arch_terms(z, tau, 20, ctx)
        assert all(abs(E - terms[0]) <= ctx.tol() * terms[0] for E in terms)


def test_mu_series_refuses_small_imag_tau(ctx):
    # theta sums below the Im tau = 0.1 conditioning floor are refused
    with pytest.raises(DomainError):
        mu_arch_series(mpc("0.2", "0.01"), mpc("0.3", "0.05"), 20, ctx)


def test_mu_homogeneity_degree_four_over_four(ctx):
    # scaling all four theta coordinates by 7 leaves the quotient unchanged
    tau = mpc("0.2", "1.4")
    w = mpc("0.31", "0.17")
    ths_w = jacobi_thetas(w, tau, ctx)
    ths_2w = jacobi_thetas(2 * w, tau, ctx)
    _, t2, t3, t4 = jacobi_thetas(0, tau, ctx)

    def quotient(scale):
        num = mp.sqrt(mp.fsum(abs(scale ** 4 * t2 * t3 * t4 * x) ** 2 for x in ths_2w))
        den = mp.fsum(abs(scale * x) ** 2 for x in ths_w) ** 2
        return num / den

    assert abs(quotient(mpf(1)) - quotient(mpf(7))) < mpf(2) ** -100 * quotient(mpf(1))


def test_mu_terms_within_uniform_envelope(ctx):
    rng = random.Random(8)
    for _ in range(5):
        tau = random_reduced_tau(1, rng, ctx)
        lower, upper = prop_envelope(tau, ctx)
        z = mpc(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        # the envelope bounds the classical quotient, twice the normalized one
        for E in mu_arch_terms(z, tau, 12, ctx):
            assert lower * (1 - mpf(2) ** -30) <= 2 * E <= upper * (1 + mpf(2) ** -30)


def test_mu_even_in_z(ctx):
    tau = mpc("0.1", "1.2")
    for z in (mpc("0.23", "0.11"), mpc("-0.4", "0.31")):
        assert abs(mu_arch_closed(z, tau, ctx) - mu_arch_closed(-z, tau, ctx)) \
            < mpf(2) ** -(ctx.bits - 10)


def test_mu_closed_at_origin_both_normalizations(ctx):
    tau = mpc("0.15", "1.25")
    _, t2, t3, t4 = jacobi_thetas(0, tau, ctx)
    norm0 = mp.sqrt(abs(t2) ** 2 + abs(t3) ** 2 + abs(t4) ** 2)
    # classical duplication forms (G_1 = 2 t1 t2 t3 t4): the paper's display;
    # the normalized forms differ by the constant -(1/3) log 2
    paper = mp.log(abs(t2 * t3 * t4)) / 3 - mp.log(norm0)
    assert abs(mu_arch_closed(0, tau, ctx) + mp.log(2) / 3 - paper) < mpf(2) ** -100


def test_duplication_quotient_lattice_invariant(ctx):
    # the first term of the orbit at z = w / 2 is the quotient E(w)
    tau = mpc("0.2", "1.3")
    w = mpc("0.4", "0.25")
    e1 = mu_arch_terms(w / 2, tau, 1, ctx)[0]
    e2 = mu_arch_terms((w + 3 + 2 * tau) / 2, tau, 1, ctx)[0]
    assert abs(e1 - e2) < mpf(2) ** -100 * e1


# --- beta ----------------------------------------------------------------------


def test_beta_equals_minus_log_B(ctx):
    # B(z)^2 = sqrt(2 Im tau) e^{-8 pi Im(z)^2 / Im tau} sum |theta|^2 with the
    # per-term Gaussian bookkeeping of the torsion shifts made explicit
    tau = mpc("0.1", "1.3")
    z = mpc("0.21", "0.13")
    y = tau.imag
    t3z = lambda w: jacobi_thetas(w, tau, ctx)[2]
    total = mpf(0)
    for j in range(2):
        for k in range(2):
            e = (mpf(j) + mpf(k) * tau) / 2
            w = 2 * z + e
            total += mp.exp(-2 * mp.pi * w.imag ** 2 / y) * abs(t3z(w)) ** 2
    B = (mp.sqrt(2 * y) * total) ** mpf("0.5")
    assert abs(beta_arch(z, tau, 2, ctx) - (-mp.log(B))) < mpf(2) ** -100


def test_beta_invariance_under_half_lattice(ctx):
    tau = mpc("0.2", "1.1")
    z = mpc("0.17", "0.23")
    b0 = beta_arch(z, tau, 2, ctx)
    for e in (mpf(1) / 2, tau / 2, (1 + tau) / 2):
        assert abs(beta_arch(z + e, tau, 2, ctx) - b0) < mpf(2) ** -100


def test_beta_invariance_under_lattice(ctx):
    tau = mpc("0.2", "1.1")
    z = mpc("0.17", "0.23")
    for r in (2, 4):
        b0 = beta_arch(z, tau, r, ctx)
        assert abs(beta_arch(z + 1, tau, r, ctx) - b0) < mpf(2) ** -100
        assert abs(beta_arch(z + tau, tau, r, ctx) - b0) < mpf(2) ** -100


def test_beta_rejects_other_r(ctx):
    with pytest.raises(DomainError):
        beta_arch(0, mpc(0, 1), 3, ctx)


@pytest.mark.parametrize("bits", [128, 256])
def test_beta_r2_matches_four_shift_theta_norm_sum(bits):
    # beta at r = 2 reads N(2z) from one jacobi_thetas call; the oracle sums
    # ||theta||^2 over the four half-period shifts of 2z
    ctx = PrecisionContext(bits=bits)
    rng = random.Random(bits + 2)
    for _ in range(10):
        tau = random_reduced_tau(1, rng, ctx)
        t = tau.scalar()
        z = mpc(rng.uniform(-1, 1), 0) + rng.uniform(-1, 1) * t
        with ctx.workprec():
            tot = mp.fsum(theta_norm(2 * z + (mpf(j) + mpf(k) * t) / 2, tau, ctx) ** 2
                          for j in range(2) for k in range(2))
            oracle = -mp.log(mp.sqrt(2) * tot) / 2
        assert abs(beta_arch(z, tau, 2, ctx) - oracle) <= ctx.tol()


# --- alpha ----------------------------------------------------------------------


def test_alpha_independent_of_z_spec_points(ctx):
    tau = mpc("0.2", "1.4")
    a = alpha_arch(tau, ctx)
    for z in (mpc("0.1", "0.2"), mpc("0.37", "0.05"), mpc("0.5", 0)):
        mu = mu_arch_series(z, tau, (ctx.bits + 24) // 2, ctx)
        be = beta_arch(z, tau, 2, ctx)
        assert abs(2 * (be - mu) - a) < mpf(10) ** -10


def test_alpha_growth_along_imaginary_axis(ctx):
    a5 = alpha_arch(mpc(0, 5), ctx)
    a10 = alpha_arch(mpc(0, 10), ctx)
    assert a5 < a10
    assert mp.isfinite(a5) and mp.isfinite(a10)


def test_alpha_at_i_composition(ctx):
    a = alpha_arch(mpc(0, 1), ctx)
    d = modular_discriminant(mpc(0, 1), ctx)
    assert abs(a - (-(mp.log(abs(d) * 2 ** 6)) / 12)) < mpf(2) ** -100


def test_alpha_sl2_invariance(ctx):
    # evaluated at an unreduced tau, alpha agrees with the reduced value
    a1 = alpha_arch(mpc("7.3", "0.4"), ctx)
    from thetaheights.siegel import reduce_g1

    red = reduce_g1(mpc("7.3", "0.4"), ctx).reduced
    a2 = alpha_arch(red, ctx)
    assert abs(a1 - a2) < mpf(2) ** -(ctx.bits - 10)


def test_alpha_finite_examples(ctx):
    assert abs(alpha_finite(-27, 3, ctx) - 3 * mp.log(3) / 12) < mpf(2) ** -120
    assert alpha_finite(-27, 5, ctx) == 0
    with pytest.raises(DomainError):
        alpha_finite(-27, 4, ctx)
    # an integral Fraction or float is the integer it equals
    assert alpha_finite(Fraction(-54, 2), 3, ctx) == alpha_finite(-27.0, 3, ctx) \
        == alpha_finite(-27, 3, ctx)


@pytest.mark.parametrize("delta_min", [Fraction(27, 2), 27.9, "27/2", mpf("27.5")])
def test_alpha_finite_refuses_nonintegral_delta(delta_min, ctx):
    # a non-integral Delta_min used to be truncated: 27/2 gave 0, 27.9 read as 27
    with pytest.raises(DomainError):
        alpha_finite(delta_min, 3, ctx)


def test_alpha_sum_identity_cm_curve(ctx):
    from thetaheights.elliptic import faltings_elliptic, minimal_model_q, periods_agm

    Emin, dmin = minimal_model_q(E_CM27)
    per = periods_agm(Emin, ctx)
    total = alpha_arch(per.tau, ctx) + alpha_finite(dmin, 3, ctx)
    h, _ = faltings_elliptic(E_CM27, ctx)
    assert abs(total - h) < mpf(10) ** -10


def test_finite_alpha_sum_loose_envelope(ctx):
    # Thm 1.3(3) shape with g = 1, d = 1, dropping the coordinate-norm sums
    for dmin in (-27, 64, 37, -161051):
        s = mp.fsum(alpha_finite(dmin, p, ctx)
                    for p in (2, 3, 5, 7, 11, 37))
        assert -mp.log(2) / 3 <= s <= 16 * mp.log(4) + mp.log(2) / 3


# --- canonical heights ------------------------------------------------------------


def naive_height_limit_oracle(E, P, n=8):
    """h_x([2^n] P) / 4^n with exact rational doubling (independent oracle)."""
    Q = P
    for _ in range(n):
        Q = point_add(E, Q, Q)
        if Q is None:
            raise OrbitCollisionError("orbit reached the identity")
    x = Fraction(Q[0])
    return mp.log(max(abs(x.numerator), x.denominator)) / mpf(4) ** n


CURVE_POINTS = [
    (E_37A, (Fraction(0), Fraction(0))),
    (WeierstrassEquation.make(1, [-2, 0, 0, 1], []), (Fraction(3), Fraction(5))),
    (WeierstrassEquation.make(1, [17, 0, 0, 1], []), (Fraction(2), Fraction(5))),
    (WeierstrassEquation.make(1, [17, 0, 0, 1], []), (Fraction(-2), Fraction(3))),
    (WeierstrassEquation.make(1, [0, 0, 1, 1], [1]), (Fraction(0), Fraction(0))),
]


def test_canonical_height_torsion_point(ctx):
    h, _ = canonical_height_q(E_CM27, (Fraction(0), Fraction(0)), ctx)
    assert abs(h) < mpf(10) ** -10


def test_canonical_height_against_naive_limit_oracle(ctx):
    for E, P in CURVE_POINTS:
        h, _ = canonical_height_q(E, P, ctx)
        oracle = naive_height_limit_oracle(E, P, 8)
        assert abs(h - oracle) < mpf(10) ** -5
        assert h > 0


def test_canonical_height_doubling_relation(ctx):
    for E, P in CURVE_POINTS:
        h1, _ = canonical_height_q(E, P, ctx)
        h2, _ = canonical_height_q(E, point_add(E, P, P), ctx)
        assert abs(h2 - 4 * h1) < mpf(10) ** -8


def test_canonical_height_parallelogram_law(ctx):
    E = WeierstrassEquation.make(1, [17, 0, 0, 1], [])
    P = (Fraction(2), Fraction(5))
    Q = (Fraction(-2), Fraction(3))
    hP, _ = canonical_height_q(E, P, ctx)
    hQ, _ = canonical_height_q(E, Q, ctx)
    hPQ, _ = canonical_height_q(E, point_add(E, P, Q), ctx)
    hPmQ, _ = canonical_height_q(E, point_add(E, P, point_neg(E, Q)), ctx)
    assert abs(hPQ + hPmQ - 2 * hP - 2 * hQ) < mpf(10) ** -6


def test_canonical_height_conversions(ctx):
    h, bd = canonical_height_q(E_37A, (Fraction(0), Fraction(0)), ctx)
    assert abs(bd.extras["divisor_O"] - h / 2) == 0
    assert abs(bd.extras["theta16"] - 8 * h) == 0
    # the classical normalized value of the 37a generator
    assert abs(h - mpf("0.0511114082399688402358203")) < mpf(10) ** -20


def test_canonical_height_orbit_collision(ctx):
    E = WeierstrassEquation.make(1, [0, -1, 0, 1], [])  # y^2 = x^3 - x
    with pytest.raises(OrbitCollisionError):
        canonical_height_q(E, (Fraction(0), Fraction(0)), ctx)
    with pytest.raises(OrbitCollisionError):
        canonical_height_q(E, None, ctx)


@pytest.mark.parametrize("a, order", [
    ((1, -2, -2, 0, 0), 4),
    ((Fraction(-1, 2), -3, -3, 0, 0), 8),    # a non-integral model
])
def test_canonical_height_orbit_collision_kubert(a, order, ctx):
    # Kubert curves on which P = (0, 0) has order 4 and 8: [order/2]P is
    # 2-torsion, so the duplication orbit reaches O
    E = curve_from_a_invariants(*a)
    P = (Fraction(0), Fraction(0))
    Q = P
    for _ in range(order - 2):
        Q = point_add(E, Q, P)
    assert Q is not None and point_add(E, Q, P) is None
    with pytest.raises(OrbitCollisionError):
        canonical_height_q(E, P, ctx)


def test_canonical_height_rejects_point_off_curve(ctx):
    # the residue check keeps on-curve data, such as (2, 2), from passing silently
    a6, a4, a2, _ = E_37A.P
    a3, a1 = E_37A.Q
    for x, y in [
        (Fraction(2), Fraction(3)),        # 9 + 3 = 12, but 8 - 2 = 6
        (Fraction(1, 4), Fraction(1, 8)),  # non-integral: scaled before the check
    ]:
        residue = y * y + a1 * x * y + a3 * y - (x ** 3 + a2 * x * x + a4 * x + a6)
        assert residue != 0, f"({x}, {y}) lies on 37a"
        with pytest.raises(DomainError, match="not on the curve"):
            canonical_height_q(E_37A, (x, y), ctx)


def test_canonical_height_breakdown_supported_on_bad_primes(ctx):
    # denominators and bad primes only; spot-check a scaled point
    E = WeierstrassEquation.make(1, [-2, 0, 0, 1], [])
    h, bd = canonical_height_q(E, (Fraction(3), Fraction(5)), ctx)
    primes = {pl.p for pl, _ in bd.entries if pl.kind == "finite"}
    from thetaheights.weierstrass import discriminant, finite_valuations

    bad = {p for p, _ in finite_valuations(discriminant(E))}
    assert primes <= bad
    assert abs(bd.total - h) == 0


def test_canonical_height_model_invariance(ctx):
    from thetaheights.weierstrass import ModelChange, apply_model_change

    E = WeierstrassEquation.make(1, [17, 0, 0, 1], [])
    P = (Fraction(2), Fraction(5))
    c = ModelChange.make(Fraction(1, 2), 1, [Fraction(3)])
    E2 = apply_model_change(E, c)
    # transported point: x = u^2 x' + s, y = u^3 y' + t(x')
    u, s = c.u, c.s
    x2 = (Fraction(2) - s) / u ** 2
    y2 = (Fraction(5) - (c.t[0])) / u ** 3
    assert (x2, y2) == (Fraction(4), Fraction(16))
    h1, _ = canonical_height_q(E, P, ctx)
    h2, _ = canonical_height_q(E2, (x2, y2), ctx)
    assert abs(h1 - h2) < mpf(10) ** -20


# --- Autissier's integral -----------------------------------------------------------


def test_theta_norm_grid_matches_jtheta():
    # the grid is one matrix product over the two axes; check every node
    # against the classical series theta_3(pi z, e^{pi i tau}) of mpmath
    n = 6
    for tau_c in (1j, complex(0.5, 0.87), complex(-0.31, 0.93), complex(0.2, 4.5)):
        grid = theta_norm_grid(tau_c, n)
        y = tau_c.imag
        with mp.workprec(80):
            q = mp.expjpi(mpc(tau_c))
            for i in range(n):
                for j in range(n):
                    z = mpc((i + 0.5) / n) + mpc((j + 0.5) / n) * mpc(tau_c)
                    want = (mpf(y) ** 0.25 * mp.exp(-mp.pi * z.imag ** 2 / y)
                            * abs(mp.jtheta(3, mp.pi * z, q)))
                    assert abs(grid[i, j] - want) <= 1e-13 * max(1.0, float(want))


def test_autissier_positive_at_sample_points(ctx):
    # alpha / 2 from the eta product against the quadrature of the theta norm
    for tau in (mpc(0, 1), mpc(mpf(1) / 2, mp.sqrt(3) / 2), mpc("0.3", "1.7")):
        res = autissier_integral(tau, ctx=ctx)
        quad = autissier_quadrature(complex(tau), 256)
        assert quad.value >= -1e-6
        assert res.value >= 0
        assert abs(res.value - quad.value) <= quad.grid_delta


def test_autissier_scaling_invariance():
    r1 = autissier_quadrature(1j, 128, section_scale=1.0)
    r2 = autissier_quadrature(1j, 128, section_scale=7.3)
    assert abs(r1.value - r2.value) < 1e-9


def test_autissier_grid_doubling_delta():
    r = autissier_quadrature(1j, 512)
    assert r.grid_delta < 1e-3


def test_autissier_divisor_node_perturbation():
    res = autissier_quadrature(1j, 65)
    assert res.perturbed_nodes == 1
    assert res.warnings
    assert math.isfinite(res.value)


def test_reduce_point_mod_lattice(ctx):
    tau = mpc("0.3", "1.4")
    z = mpc("5.2", "3.1")
    zr = reduce_point_mod_lattice(z, tau, ctx)
    k = (z - zr).imag / tau.imag
    m = (z - zr - k * tau).real
    assert abs(k - mp.nint(k)) < mpf(2) ** -100
    assert abs(m - mp.nint(m)) < mpf(2) ** -100
    assert abs(zr.real) <= 0.75 and abs(zr.imag) <= 0.75 * tau.imag
