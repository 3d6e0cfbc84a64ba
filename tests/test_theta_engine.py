"""Theta engine: series values against independent oracles, conventions,
invariances, and the error-bound contract."""

import itertools
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from thetaheights.errors import DomainError, ResourceError
from thetaheights.hyper_faltings import quintic_cm_period_matrix
from thetaheights.precision import PrecisionContext
from thetaheights.siegel import random_reduced_tau
from thetaheights.theta_engine import (
    SiegelMatrix,
    ThetaCharacteristic,
    _halfint_table,
    as_siegel,
    j10,
    jacobi_thetas,
    modular_discriminant,
    phi_product,
    theta_char,
    theta_norm,
    theta_nulls_halfint,
)

HALF = Fraction(1, 2)


def char(a, b):
    return ThetaCharacteristic.make(a if isinstance(a, (list, tuple)) else [a],
                                    b if isinstance(b, (list, tuple)) else [b])


# --- oracle: direct partial sum with an explicit tail bound -----------------


def brute_theta_g1(a, b, z, tau, N=60):
    """Partial sum over |n| <= N plus a crude tail majorant."""
    s = mpc(0)
    for n in range(-N, N + 1):
        u = n + mpf(a.numerator) / a.denominator
        s += mp.expjpi(u * u * tau + 2 * u * (z + mpf(b.numerator) / b.denominator))
    y = tau.imag
    t = abs(mpc(z).imag)
    # |term| <= exp(-pi y (|n|-1)^2 + 2 pi t (|n|+1)); geometric beyond N
    worst = mp.exp(-mp.pi * y * (N - 1) ** 2 + 2 * mp.pi * t * (N + 1))
    tail = 4 * N * worst
    return s, tail


def test_theta_value_against_partial_sum_oracle(ctx):
    val = theta_char(char(0, 0), 0, mpc(0, 1), ctx)
    oracle, tail = brute_theta_g1(Fraction(0), Fraction(0), mpc(0), mpc(0, 1))
    assert tail < mpf(10) ** -30
    assert abs(val - oracle) < tail + mpf(2) ** -126
    # classical value sum exp(-pi n^2) = 1.0864348...
    assert abs(val - mpf("1.086434811213308014575316121")) < mpf(10) ** -25


def test_theta_odd_characteristic_vanishes_at_origin(ctx):
    for tau in (mpc(0, 1), mpc("0.3", "1.7"), mpc("-0.2", "0.9")):
        v = theta_char(char(HALF, HALF), 0, tau, ctx)
        assert abs(v) < mpf(2) ** -(ctx.bits - 8)


def test_theta_integer_shift_periodicity(ctx):
    z = mpc("0.37", "0.21")
    tau = mpc(0, 2)
    v1 = theta_char(char(0, 0), z, tau, ctx)
    v2 = theta_char(char(0, 0), z + 1, tau, ctx)
    assert abs(v1 - v2) < mpf(2) ** -(ctx.bits - 8)


# --- the Jacobi dictionary, asserted against the classical q-series ---------


def classical_jacobi_series(z, tau, N=60):
    """theta_1..theta_4 by their displayed q-series, nome q = e^{i pi tau}."""
    q = mp.expjpi(tau)
    t1 = t2 = t3 = t4 = mpc(0)
    for n in range(-N, N + 1):
        qs = q ** ((n + mpf(1) / 2) ** 2)
        e_odd = mp.expjpi((2 * n + 1) * z)
        t1 += mpc(0, -1) * (-1) ** n * qs * e_odd
        t2 += qs * e_odd
        qn = q ** (n * n)
        e_even = mp.expjpi(2 * n * z)
        t3 += qn * e_even
        t4 += (-1) ** n * qn * e_even
    return t1, t2, t3, t4


def test_jacobi_dictionary_matches_classical_series(ctx):
    z = mpc("0.3", "0.2")
    tau = mpc("0.1", "1.3")
    ours = jacobi_thetas(z, tau, ctx)
    ref = classical_jacobi_series(z, tau)
    for a, b in zip(ours, ref):
        assert abs(a - b) < mpf(10) ** -30


def test_jacobi_thetas_keep_working_precision_at_low_global_precision(ctx):
    # the result must not depend on the caller's mpmath precision (z and tau
    # are exact at 53 bits, so only the library's own rounding is tested)
    z, tau = mpc(0.375, 0.25), mpc(0.125, 1.25)
    with mp.workprec(53):
        ours = jacobi_thetas(z, tau, ctx)
    for a, b in zip(ours, classical_jacobi_series(z, tau)):
        assert abs(a - b) < mpf(10) ** -30


def test_jacobi_thetas_round_z_at_working_precision(ctx):
    # a non-dyadic z and tau carrying 360 bits, evaluated under a 53-bit
    # global precision, must not be rounded to 53 bits on the way in
    z, tau = mpc("0.3", "0.2"), mpc("0.1", "1.3")
    with mp.workprec(53):
        ours = jacobi_thetas(z, tau, ctx)
    for a, b in zip(ours, classical_jacobi_series(z, tau)):
        assert abs(a - b) < mpf(10) ** -30


@pytest.mark.parametrize("bits", [128, 512])
def test_jacobi_thetas_match_mpmath_jtheta(bits):
    # mpmath.jtheta(n, w, q) sums the classical series in w = pi z with nome
    # q = e^{i pi tau}; q^{1/4} is the principal root, e^{i pi tau/4} for |Re tau| < 1
    c = PrecisionContext(bits=bits)
    rng = random.Random(bits)
    for _ in range(10):
        tau = random_reduced_tau(1, rng, c).scalar()
        z = rng.uniform(-0.5, 0.5) + rng.uniform(-0.5, 0.5) * tau
        ours = jacobi_thetas(z, tau, c)
        with mp.workprec(bits + 64):
            q = mp.expjpi(tau)
            ref = [mp.jtheta(n, mp.pi * z, q) for n in (1, 2, 3, 4)]
            for a, b in zip(ours, ref):
                assert abs(a - b) < c.eps()


@pytest.mark.parametrize("bits", [64, 128])
def test_jacobi_thetas_keep_absolute_error_for_large_values(bits):
    # far from the real torus |theta| reaches 2^35; the promised error is
    # absolute, so the result must keep bits + guard bits below 1, not only
    # bits + guard significant bits.  tau and z are dyadic: the library rounds
    # its inputs to bits + guard, which alone would move theta by 2^-(bits + 5)
    c = PrecisionContext(bits=bits)
    tau, z = mpc(-0.25, 0.15625), mpc(-0.6875, 1.0625)
    ours = jacobi_thetas(z, tau, c)
    with mp.workprec(bits + 64):
        q = mp.expjpi(tau)
        ref = [mp.jtheta(n, mp.pi * z, q) for n in (1, 2, 3, 4)]
    assert abs(ref[2]) > 2 ** 30
    for a, b in zip(ours, ref):
        assert abs(a - b) < c.eps()
    assert abs(theta_char(char(0, 0), z, tau, c) - ref[2]) < c.eps()


def test_theta1_vanishes_at_origin(ctx):
    for tau in (mpc(0, 1), mpc("0.25", "1.1")):
        t1, _, _, _ = jacobi_thetas(0, tau, ctx)
        assert abs(t1) < mpf(2) ** -(ctx.bits - 8)


def test_jacobi_identity_at_spec_point(ctx):
    _, t2, t3, t4 = jacobi_thetas(0, mpc("0.1", "1.3"), ctx)
    assert abs(t2 ** 4 + t4 ** 4 - t3 ** 4) < mpf(2) ** -(ctx.bits - 8)


def test_jacobi_identity_50_random_tau(ctx):
    rng = random.Random(7)
    for _ in range(50):
        tau = mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 3.0))
        _, t2, t3, t4 = jacobi_thetas(0, tau, ctx)
        assert abs(t2 ** 4 + t4 ** 4 - t3 ** 4) < mpf(2) ** -(ctx.bits - 8)


def test_theta3_equals_principal_theta_char(ctx):
    v1 = jacobi_thetas(0, mpc(0, 1), ctx)[2]
    v2 = theta_char(char(0, 0), 0, mpc(0, 1), ctx)
    assert v1 == v2


# --- normalized norm --------------------------------------------------------


def test_theta_norm_collapses_at_i(ctx):
    n = theta_norm(0, mpc(0, 1), ctx)
    v = abs(theta_char(char(0, 0), 0, mpc(0, 1), ctx))
    assert abs(n - v) < mpf(2) ** -(ctx.bits - 8)


def test_theta_norm_quasi_periodicity_spec_point(ctx):
    z = mpc("0.2", "0.3")
    tau = mpc("0.1", "1.1")
    n1 = theta_norm(z, tau, ctx)
    n2 = theta_norm(z + tau, tau, ctx)
    assert abs(n1 - n2) < mpf(2) ** -(ctx.bits - 8)


def test_theta_norm_lattice_invariance_random(ctx):
    rng = random.Random(3)
    for _ in range(10):
        tau = random_reduced_tau(1, rng, ctx)
        t = tau.scalar()
        z = mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
        n0 = theta_norm(z, tau, ctx)
        assert abs(n0 - theta_norm(z + 1, tau, ctx)) < mpf(2) ** -(ctx.bits - 8)
        assert abs(n0 - theta_norm(z + t, tau, ctx)) < mpf(2) ** -(ctx.bits - 8)


def test_theta_norm_g2_diagonal_factorizes(ctx):
    t1, t2 = mpc("0.1", "1.2"), mpc("-0.2", "1.5")
    z1, z2 = mpc("0.3", "0.1"), mpc("0.1", "-0.2")
    tau = [[t1, 0], [0, t2]]
    lhs = theta_norm([z1, z2], tau, ctx)
    rhs = theta_norm(z1, t1, ctx) * theta_norm(z2, t2, ctx)
    assert abs(lhs - rhs) < mpf(2) ** -(ctx.bits - 10)


# --- modular discriminant ---------------------------------------------------


def test_delta_translation_invariance(ctx):
    tau = mpc("0.3", "1.2")
    d1 = modular_discriminant(tau, ctx)
    d2 = modular_discriminant(tau + 1, ctx)
    assert abs(d1 - d2) < mpf(2) ** -(ctx.bits - 8) * abs(d1)
    assert abs(d1) > 0


def delta_q_product(tau, bits):
    """Delta(tau) = q prod_{n>=1} (1 - q^n)^24 by the q-product (independent
    oracle), at bits + 64 with the tail of its log below 2^-(bits+40)."""
    with mp.workprec(bits + 64):
        q = mp.expjpi(2 * tau)
        aq = abs(q)
        # the log of prod_{n>M} (1 - q^n)^24 is below 24 |q|^{M+1} / (1-|q|)^2
        target = mpf(2) ** (-(bits + 40))
        prod, qn, M = mpc(1), q, 0
        while 24 * aq ** (M + 1) / (1 - aq) ** 2 > target:
            prod *= 1 - qn
            qn *= q
            M += 1
        return q * prod ** 24


def test_delta_vs_eta_product_oracle():
    # the pentagonal series of the library against the eta product, at
    # tau = i, rho, Im tau = 0.11 next to the 0.1 floor (|q| about 0.5) and Im tau = 30
    for bits in (64, 256, 512):
        ctx = PrecisionContext(bits=bits)
        with mp.workprec(bits + 64):
            taus = (mpc(0, 1), mp.expjpi(mpf(1) / 3), mpc("0.3", "0.11"), mpc("0.2", "30"))
        for tau in taus:
            tau = as_siegel(tau, g=1, ctx=ctx).scalar()
            d = modular_discriminant(tau, ctx)
            ref = delta_q_product(tau, bits)
            with mp.workprec(bits + 64):
                assert abs(d - ref) <= ctx.eps() * abs(ref)


def test_phi_product_equals_256_delta_g1(ctx):
    rng = random.Random(11)
    for _ in range(3):
        tau = random_reduced_tau(1, rng, ctx)
        r = phi_product(tau, ctx) / modular_discriminant(tau, ctx)
        assert abs(r - 256) < mpf(2) ** -(ctx.bits - 12)


def test_phi_factor_counts():
    from thetaheights.weierstrass import char_system

    assert len(char_system(1)) == 3
    assert len(char_system(2)) == 10
    assert len(char_system(3)) == 35


def test_phi_g2_equals_j10_fourth(ctx96):
    tau = [[mpc(0, "1.2"), mpc("0.3", "0.2")], [mpc("0.3", "0.2"), mpc("0.1", "1.4")]]
    p = phi_product(tau, ctx96)
    j = j10(tau, ctx96)
    assert abs(p / j ** 4 - 1) < mpf(2) ** -(ctx96.bits - 12)


# --- the half-integral table against single-characteristic sums --------------


def _halfint_chars(g):
    halves = (Fraction(0), HALF)
    return [ThetaCharacteristic.make(a, b)
            for a in itertools.product(halves, repeat=g)
            for b in itertools.product(halves, repeat=g)]


def test_g2_table_matches_theta_char_with_wider_box(ctx):
    # theta_char walks n + a with step 1 into one bin, over a box widened by 2;
    # the table walks k/2 with step 1/2 into 16 bins
    rng = random.Random(41)
    for _ in range(5):
        tau = random_reduced_tau(2, rng, ctx)
        z = [mpc(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3)) for _ in range(2)]
        table = _halfint_table(z, tau, ctx)
        assert set(table) == set(_halfint_chars(2))
        for m, v in table.items():
            assert abs(v - theta_char(m, z, tau, ctx, radius_margin=2)) < ctx.eps()


def test_odd_nulls_vanish_in_the_table(ctx):
    rng = random.Random(43)
    for _ in range(5):
        nulls = theta_nulls_halfint(random_reduced_tau(2, rng, ctx), ctx)
        odd = [v for m, v in nulls.items() if m.parity() == 1]
        assert len(odd) == 6
        assert all(abs(v) <= ctx.tol() for v in odd)


def test_g2_nulls_match_theta_char_with_wider_box(ctx):
    # z = 0 folds the walk onto half the rows; theta_char walks n + a with
    # step 1 into one bin (it folds only at the zero characteristic)
    rng = random.Random(47)
    taus = [random_reduced_tau(2, rng, ctx) for _ in range(5)] + [quintic_cm_period_matrix(ctx)]
    for tau in taus:
        nulls = theta_nulls_halfint(tau, ctx)
        assert set(nulls) == set(_halfint_chars(2))
        for m, v in nulls.items():
            assert abs(v - theta_char(m, [0, 0], tau, ctx, radius_margin=2)) < ctx.eps()


def test_diagonal_tau_nulls_are_products_of_jtheta_nulls(ctx):
    # theta[a; b](0, diag(t1, t2)) = theta[a1; b1](0, t1) theta[a2; b2](0, t2):
    # rows with tau_12 = 0, against mpmath's Jacobi series with nome e^{i pi t}
    t1, t2 = mpc("0.2", "1.05"), mpc("-0.35", "1.4")
    nulls = theta_nulls_halfint([[t1, 0], [0, t2]], ctx)
    def g1_nulls(t):
        # theta[a; b](0, t) for a, b in {0, 1/2}; theta[1/2; 1/2](0, t) = 0
        q = mp.expjpi(t)
        return {(0, 0): mp.jtheta(3, 0, q), (0, HALF): mp.jtheta(4, 0, q),
                (HALF, 0): mp.jtheta(2, 0, q), (HALF, HALF): mpc(0)}

    with mp.workprec(ctx.bits + 64):
        n1, n2 = g1_nulls(t1), g1_nulls(t2)
        for m, v in nulls.items():
            assert abs(v - n1[m.a[0], m.b[0]] * n2[m.a[1], m.b[1]]) < ctx.eps()


def test_g3_table_matches_theta_char():
    ctx64 = PrecisionContext(bits=64)
    tau = [[mpc(0, "1.1"), mpc("0.1", "0.2"), mpc(0, "0.1")],
           [mpc("0.1", "0.2"), mpc(0, "1.3"), mpc("0.1", "0.15")],
           [mpc(0, "0.1"), mpc("0.1", "0.15"), mpc(0, "1.5")]]
    nulls = theta_nulls_halfint(tau, ctx64)
    assert len(nulls) == 64
    assert all(abs(v) <= ctx64.tol() for m, v in nulls.items() if m.parity() == 1)
    even = [m for m in nulls if m.parity() == 0]
    assert len(even) == 36
    for m in even:
        assert abs(nulls[m] - theta_char(m, [0, 0, 0], tau, ctx64)) < ctx64.eps()


# --- J10 ---------------------------------------------------------------------


def test_j10_even_characteristic_count(ctx):
    tau = [[mpc(0, "1.1"), 0], [0, mpc(0, "1.3")]]
    nulls = theta_nulls_halfint(tau, ctx)
    even = [m for m in nulls if m.parity() == 0]
    assert len(even) == 10 == 2 ** (2 - 1) * (2 ** 2 + 1)
    assert len(nulls) == 16


def test_j10_vanishes_on_diagonal_tau(ctx):
    tau = [[mpc("0", "1.1"), 0], [0, mpc("0.2", "1.3")]]
    assert abs(j10(tau, ctx)) < mpf(2) ** -(ctx.bits - 16)


def test_j10_identity_matrix_snapshot_dual_precision():
    # i*I_2 is a product point, so the golden value is the vanishing itself
    for bits in (128, 256):
        c = PrecisionContext(bits=bits)
        v = j10([[mpc(0, 1), 0], [0, mpc(0, 1)]], c)
        assert abs(v) < mpf(2) ** -(bits - 16)


# frozen after 128/256-bit agreement (constructed lazily: module-level mpc
# literals would round at the import-time precision)
GOLDEN_J10_NONDIAG = ("-0.000244691535568144396773653129489600418193962968",
                      "-0.00141585245502628317478371910254371462359988551")


def test_j10_nondiagonal_golden_dual_precision():
    tau = [[mpc(0, "1.2"), mpc("0.3", "0.2")], [mpc("0.3", "0.2"), mpc("0.1", "1.4")]]
    v1 = j10(tau, PrecisionContext(bits=128))
    v2 = j10(tau, PrecisionContext(bits=256))
    golden = mpc(*GOLDEN_J10_NONDIAG)
    assert abs(v1 - v2) < mpf(2) ** -112
    assert abs(v1 - golden) < mpf(10) ** -36


def test_j10_rejects_wrong_genus(ctx):
    with pytest.raises(DomainError):
        j10(mpc(0, 1), ctx)


# --- error-bound contract and refusals --------------------------------------


def test_tail_bound_soundness_radius_doubling(ctx):
    rng = random.Random(5)
    for _ in range(5):
        tau = random_reduced_tau(1, rng, ctx)
        z = mpc(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        v1 = theta_char(char(0, 0), z, tau, ctx)
        v2 = theta_char(char(0, 0), z, tau, ctx, radius_margin=40)
        assert abs(v1 - v2) < ctx.eps()


def test_poorly_conditioned_tau_refused(ctx):
    with pytest.raises(DomainError, match="redull|reduce"):
        theta_char(char(0, 0), 0, mpc(0, "0.05"), ctx)


def test_truncation_radius_resource_cap():
    tiny = PrecisionContext(bits=4096, max_radius=10)
    with pytest.raises(ResourceError):
        theta_char(char(0, 0), 0, mpc(0, "0.2"), tiny)


def test_siegel_matrix_validation(ctx):
    with pytest.raises(DomainError):
        SiegelMatrix.from_rows([[mpc(0, 1), mpc(1, 0)], [mpc(0, 0), mpc(0, 1)]], ctx)
    with pytest.raises(DomainError):
        SiegelMatrix.from_scalar(mpc(0, -1), ctx)
    with pytest.raises(DomainError):
        as_siegel([[mpc(0, 2), mpc(0, "1.9")], [mpc(0, "1.9"), mpc(0, 2)]], g=1, ctx=ctx)


@pytest.mark.parametrize("tau", [mpc("nan", 1), mpc(0, "inf"), mpc("-inf", 1)])
def test_non_finite_tau_is_refused(tau, ctx):
    # NaN used to pass the pivot check and fail later with a ValueError
    with pytest.raises(DomainError, match="finite"):
        SiegelMatrix.from_scalar(tau, ctx)
    with pytest.raises(DomainError, match="finite"):
        SiegelMatrix.from_rows([[mpc(0, 1), 0], [0, tau]], ctx)


def test_non_finite_z_is_refused(ctx):
    with pytest.raises(DomainError, match="finite"):
        theta_char(char(0, 0), mpc("nan", 0), mpc(0, 1), ctx)


def test_min_imag_eigenvalue_matches_numpy_eigvalsh(ctx):
    import numpy as np

    def numpy_least(tau):
        Y = [[float(tau[i, j].imag) for j in range(tau.g)] for i in range(tau.g)]
        return float(np.linalg.eigvalsh(np.array(Y))[0])

    rng = random.Random(17)
    taus = [random_reduced_tau(2, rng, ctx) for _ in range(200)]
    for _ in range(50):
        # Im tau = A A^T + I / 5 is symmetric positive definite
        A = [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(3)]
        rows = [[mpc(rng.uniform(-0.5, 0.5) if i <= j else 0,
                     sum(A[i][k] * A[j][k] for k in range(3)) + (0.2 if i == j else 0))
                 for j in range(3)] for i in range(3)]
        for i in range(3):
            for j in range(i):
                rows[i][j] = rows[j][i]
        taus.append(SiegelMatrix.from_rows(rows, ctx))
    for tau in taus:
        want = numpy_least(tau)
        assert abs(tau.min_imag_eigenvalue() - want) <= 1e-12 * want
    for t in (mpc(0, 1), mpc("0.3", "1.7"), mpc("-0.41", "0.93")):
        assert SiegelMatrix.from_scalar(t, ctx).min_imag_eigenvalue() == float(t.imag)


def test_characteristic_parity():
    assert char(HALF, HALF).parity() == 1
    assert char(HALF, 0).parity() == 0
    assert char(0, HALF).parity() == 0
    # 4 a.b stays integral here, so parity is still defined
    assert char(Fraction(1, 4), 0).parity() == 0
    with pytest.raises(DomainError):
        char(Fraction(1, 4), Fraction(1, 4)).parity()
