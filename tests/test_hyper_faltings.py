"""Hyperelliptic Jacobian heights: the eta-section norm, Lockhart's
invariant, the assembled height formula and the quintic CM cross-check."""

import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from quintic_cross_validation import BomemoCrossValidation, bomemo_cross_validation
from thetaheights.errors import DomainError
from thetaheights.hyper_faltings import (
    FinitePlaceInput,
    bomemo_closed_form,
    eta_norm_arch,
    faltings_jacobian,
    lockhart_invariant,
    quintic_cm_period_matrix,
)
from thetaheights.precision import PrecisionContext
from thetaheights.siegel import apply_symplectic, check_reduced, random_reduced_tau
from thetaheights.theta_engine import j10, modular_discriminant, phi_product
from thetaheights.weierstrass import ModelChange, WeierstrassEquation, apply_model_change

E_CM27 = WeierstrassEquation.make(1, [0, 0, 0, 1], [1])


# --- eta-section norm ---------------------------------------------------------


def test_eta_norm_g1_closed_form(ctx):
    rng = random.Random(19)
    for _ in range(5):
        tau = random_reduced_tau(1, rng, ctx)
        t = tau.scalar()
        got = eta_norm_arch(1, tau, ctx)
        want = mp.log(2 ** 6 * abs(modular_discriminant(tau, ctx)) * t.imag ** 6)
        assert abs(got - want) < mpf(10) ** -10


def test_eta_norm_g2_phi_vs_j10_route(ctx96):
    rng = random.Random(21)
    tau = random_reduced_tau(2, rng, ctx96)
    phi = phi_product(tau, ctx96)
    j = j10(tau, ctx96)
    assert abs(abs(phi) ** (mpf(1) / 40) - abs(j) ** (mpf(1) / 10)) \
        < mpf(2) ** -(ctx96.bits - 16) * abs(j) ** (mpf(1) / 10)


def _unimodular_gamma(U):
    """[[U^T, 0], [0, U^{-1}]] in Sp(4, Z): tau -> U^T tau U."""
    (a, b), (c, d) = U
    det = a * d - b * c
    inv = ((det * d, -det * b), (-det * c, det * a))
    return ((a, c, 0, 0), (b, d, 0, 0),
            (0, 0) + inv[0], (0, 0) + inv[1])


def _translation_gamma(B):
    """[[I, B], [0, I]] in Sp(4, Z): tau -> tau + B, B symmetric integral."""
    return ((1, 0, B[0][0], B[0][1]), (0, 1, B[1][0], B[1][1]),
            (0, 0, 1, 0), (0, 0, 0, 1))


def test_eta_norm_g2_symplectic_invariance(ctx96):
    # |phi|^{1/40} det(Im tau)^{1/2} = (|J10| det(Im tau)^5)^{1/10} is Sp(4, Z)-invariant
    unimodular = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 0)),
                  ((1, -1), (0, 1)), ((1, 0), (-1, 1)), ((-1, 0), (0, 1)), ((2, 1), (1, 1))]
    rng = random.Random(31)
    checked = 0
    while checked < 6:
        tau = random_reduced_tau(2, rng, ctx96)
        if checked % 2 == 0:
            b = rng.randint(-2, 2)
            gamma = _translation_gamma(((rng.randint(-2, 2), b), (b, rng.randint(-2, 2))))
        else:
            gamma = _unimodular_gamma(rng.choice(unimodular))
        moved = apply_symplectic(gamma, tau, ctx96)
        if moved.min_imag_eigenvalue() < 0.3:
            continue
        h0 = eta_norm_arch(2, tau, ctx96)
        h1 = eta_norm_arch(2, moved, ctx96)
        assert abs(h0 - h1) < mpf(2) ** -(ctx96.bits - 16)
        checked += 1


def test_eta_norm_finite_for_large_imag(ctx):
    v = eta_norm_arch(1, mpc(0, 12), ctx)
    assert mp.isfinite(v)


def test_arch_factor_phi_vs_j10_twenty_random_tau():
    # dual-route agreement of the g=2 archimedean factor on 20 reduced tau
    from thetaheights.precision import PrecisionContext

    ctx64 = PrecisionContext(bits=64)
    rng = random.Random(29)
    for _ in range(20):
        tau = random_reduced_tau(2, rng, ctx64)
        phi = phi_product(tau, ctx64)
        j = j10(tau, ctx64)
        a_phi = -mp.log(2) / 5 + mp.log(abs(phi)) / 40 + mp.log(tau.det_imag()) / 2
        a_j = -mp.log(2) / 5 + mp.log(abs(j)) / 10 + mp.log(tau.det_imag()) / 2
        assert abs(a_phi - a_j) < mpf(10) ** -10


def test_phi_product_g3_evaluates(ctx):
    from thetaheights.precision import PrecisionContext

    ctx64 = PrecisionContext(bits=64)
    tau = [[mpc(0, "1.1"), mpc("0.1", "0.2"), mpc(0, "0.1")],
           [mpc("0.1", "0.2"), mpc(0, "1.3"), mpc("0.1", "0.15")],
           [mpc(0, "0.1"), mpc("0.1", "0.15"), mpc(0, "1.5")]]
    v = phi_product(tau, ctx64)
    assert mp.isfinite(abs(v)) and abs(v) > 0


# --- Lockhart's invariant -------------------------------------------------------


def _rescaled_lhs(u, ctx):
    # |Delta| V^6 on the u-rescaled model
    return lockhart_invariant(apply_model_change(E_CM27, ModelChange.make(u)), ctx).lhs


def test_lockhart_identity_cm_curve(ctx):
    rep = lockhart_invariant(E_CM27, ctx)
    assert rep.rel_err < mpf(10) ** -8
    assert abs(_rescaled_lhs(Fraction(3), ctx) - rep.lhs) / abs(rep.lhs) < mpf(10) ** -8


def test_lockhart_invariance_over_u_values(ctx):
    base = lockhart_invariant(E_CM27, ctx).lhs
    for u in (Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(1, 3)):
        assert abs(_rescaled_lhs(u, ctx) - base) / abs(base) < mpf(10) ** -8


def test_exponent_bookkeeping_exact():
    import math

    for g in (1, 2, 3):
        l = math.comb(2 * g + 1, g + 1)
        n = math.comb(2 * g, g + 1)
        assert Fraction(4) + Fraction(2, g) == Fraction(8 * g + 4, 2 * g)
        assert Fraction(g, n) == Fraction(8 * g + 4, 4 * l)
        assert Fraction(2 * l * g, n) == Fraction(8 * g + 4, 2)


# --- assembled heights ------------------------------------------------------------


def test_faltings_jacobian_g1_reduces_to_silverman(ctx):
    from thetaheights.elliptic import (curve_from_a_invariants, faltings_elliptic,
                                       minimal_model_q, periods_agm)
    from thetaheights.weierstrass import finite_valuations

    curves = [
        E_CM27,
        WeierstrassEquation.make(1, [0, -1, 0, 1], [1]),
        WeierstrassEquation.make(1, [0, -1, 0, 1], []),
        curve_from_a_invariants(0, 0, 0, -2, 5),
        curve_from_a_invariants(1, 0, 0, -1, 1),
    ]
    for E in curves:
        Emin, dmin = minimal_model_q(E)
        per = periods_agm(Emin, ctx)
        finite = [FinitePlaceInput(p=p, ord_delta_min=e, e=0)
                  for p, e in finite_valuations(dmin)]
        h1, _ = faltings_jacobian(1, finite, [per.tau], ctx)
        h2, _ = faltings_elliptic(E, ctx)
        assert abs(h1 - h2) < mpf(10) ** -10


def test_faltings_jacobian_g2_pure_archimedean_dual_path(ctx):
    # off-diagonal: a diagonal tau is a product of elliptic curves and is refused
    tau = [[mpc(0, 1), mpc(0, "0.25")], [mpc(0, "0.25"), mpc(0, "1.1")]]
    h, bd = faltings_jacobian(2, [], [tau], ctx)
    assert len(bd.entries) == 1
    assert mp.isfinite(h)  # the phi- and J10-routes agree internally


def test_faltings_jacobian_rejects_negative_f(ctx):
    with pytest.raises(DomainError, match="f_p"):
        faltings_jacobian(2, [FinitePlaceInput(p=5, ord_delta_min=1, e=1)],
                          [quintic_cm_period_matrix(ctx)], ctx)


def test_finite_place_input_f_values():
    assert FinitePlaceInput(p=5, ord_delta_min=5, e=0).f_value(2) == Fraction(1, 2)
    assert FinitePlaceInput(p=3, ord_delta_min=3, e=0).f_value(1) == Fraction(1, 4)
    with pytest.raises(DomainError):
        FinitePlaceInput(p=4, ord_delta_min=1, e=0).f_value(2)
    with pytest.raises(DomainError):
        FinitePlaceInput(p=5, ord_delta_min=-1, e=0).f_value(2)


# --- the genus-2 flagship ----------------------------------------------------------


def test_bomemo_closed_form_value(ctx):
    v = bomemo_closed_form(ctx)
    assert abs(v - mpf("0.38537")) < mpf(10) ** -5
    assert v > 0


def test_quintic_cm_matrix_is_siegel_and_near_reduced(ctx):
    tau = quintic_cm_period_matrix(ctx)
    assert tau.g == 2
    # symmetric with positive definite imaginary part by construction;
    # the S3 finite test set also passes for this representative
    checks = check_reduced(tau, 2, ctx)
    assert all(c.passed for c in checks)


def test_quintic_pipeline_archimedean_matches_closed_form(ctx):
    cv = bomemo_cross_validation(ctx)
    assert isinstance(cv, BomemoCrossValidation)
    assert cv.arch_matches_closed_form
    assert abs(cv.arch_only_total - cv.closed_form) < mpf(10) ** -9


def test_quintic_pipeline_gap_attributed_to_e5(ctx):
    cv = bomemo_cross_validation(ctx)
    # the spec inputs (Delta_min = 5^5, e_5 = 0 => f_5 = 1/2) over-count by
    # exactly f_5 log 5: the report must attribute the gap to the e_5 input
    assert not cv.matched
    assert cv.gap_is_finite_term
    assert abs(abs(cv.gap) - mp.log(5) / 2) < mpf(10) ** -9
    assert "e_5" in cv.report


def test_quintic_cm_representative_stable_across_precisions():
    # Re tau_12 = -1/2 exactly; the representative must not flip with bits
    ref = quintic_cm_period_matrix(PrecisionContext(bits=256))
    for bits in (128, 160, 192, 224, 256):
        ctx = PrecisionContext(bits=bits)
        tau = quintic_cm_period_matrix(ctx)
        for i in range(2):
            for j in range(2):
                assert abs(tau[i, j] - ref[i, j]) < ctx.tol()
        assert abs(tau[0, 1].real + mpf(1) / 2) < ctx.tol()
        h, _ = faltings_jacobian(2, [], [tau], ctx)
        assert abs(h - bomemo_closed_form(ctx)) < mpf(10) ** -40


def test_vanishing_even_null_is_refused(ctx):
    # a diagonal tau (E_i x E_i, E_i x E_1.1i) lies on the reducible locus:
    # theta[1/2 1/2; 1/2 1/2](0) = theta_1(0, tau_11) theta_1(0, tau_22) = 0
    for t22 in (mpc(0, 1), mpc(0, "1.1")):
        tau = [[mpc(0, 1), 0], [0, t22]]
        with pytest.raises(DomainError, match="reducible"):
            phi_product(tau, ctx)
        with pytest.raises(DomainError, match="reducible"):
            faltings_jacobian(2, [], [tau], ctx)


@pytest.mark.parametrize("e", [60, 90, 110])
def test_log_phi_certified_near_reducible_locus(ctx, e):
    # tau_12 = i 2^-e puts the null theta[1/2 1/2; 1/2 1/2](0) near 2^-e, above
    # the refusal threshold 2^-(bits-8): its absolute error alone would leave
    # log|phi| off by about 2^-(bits+guard-e), so the nulls must be evaluated again
    eps = mpf(2) ** -e
    tau = [[mpc(0, 1), mpc(0, eps)], [mpc(0, eps), mpc(0, "1.1")]]
    h, _ = faltings_jacobian(2, [], [tau], ctx)
    ref, _ = faltings_jacobian(2, [], [tau], ctx.higher(64))
    assert abs(h - ref) < ctx.eps()
