"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS/FAIL line (visible with pytest -s, or on failure).
Criterion 1 checks the CM curve y^2 + y = x^3 against the closed form
2 log(2 pi) - (1/2) log 3 - 3 log Gamma(1/3) = 0.17018604770133... to 1e-30;
the published decimal 0.16993 is 2.56e-4 off that closed form and is only
reported next to the computed value.
"""

import random
import time
from fractions import Fraction

from mpmath import mp, mpc, mpf

from autissier_quadrature import autissier_quadrature
from quintic_cross_validation import bomemo_cross_validation
from thetaheights.elliptic import (
    chowla_selberg,
    curve_from_a_invariants,
    faltings_elliptic,
    minimal_model_q,
    periods_agm,
    point_add,
    point_neg,
    quadratic_character,
)
from thetaheights.hyper_faltings import (
    bomemo_closed_form,
    lockhart_invariant,
)
from thetaheights.local_heights import (
    alpha_arch,
    alpha_finite,
    autissier_integral,
    beta_arch,
    canonical_height_q,
    mu_arch_series,
)
from thetaheights.precision import PrecisionContext
from thetaheights.siegel import matrix_lemma_check, random_reduced_tau, theta_null_bounds
from thetaheights.theta_engine import j10, modular_discriminant, phi_product
from thetaheights.weierstrass import (ModelChange, WeierstrassEquation, apply_model_change,
                                      finite_valuations)

CTX = PrecisionContext(bits=128)
CTX96 = PrecisionContext(bits=96)

E_CM27 = WeierstrassEquation.make(1, [0, 0, 0, 1], [1])        # y^2 + y = x^3

CURVES = [
    E_CM27,
    WeierstrassEquation.make(1, [0, -1, 0, 1], [1]),           # y^2 + y = x^3 - x
    WeierstrassEquation.make(1, [0, -1, 0, 1], []),            # y^2 = x^3 - x
    curve_from_a_invariants(0, 0, 0, 0, 16),                   # y^2 = x^3 + 16
    curve_from_a_invariants(1, 0, 0, -1, 1),
]


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")


PUBLISHED_CM27 = mpf("0.16993")


def test_c01_elliptic_cm_value():
    """The paper's CM example y^2 + y = x^3, checked against its closed form.

    The semistable height is the docstring formula of faltings_elliptic at
    tau = rho = exp(2 pi i / 3), where |Delta_min| = 1 up to the additive
    place 3.  With |eta(rho)| = 3^{1/8} Gamma(1/3)^{3/2} / (2 pi) it reduces to

        h_stable = 2 log(2 pi) - (1/2) log 3 - 3 log Gamma(1/3)
                 = 0.17018604770133491386...

    The plain over-Q height uses |Delta_min| = 27, so it exceeds the stable
    one by (1/12) log 27 = (1/4) log 3.  The published decimal 0.16993 lies
    2.56e-4 below the closed form; no change of normalization moves a value by
    that little (such a change adds half the log of a rational times a power
    of pi), so it is taken to be a misprint and is only reported here.
    """
    t0 = time.perf_counter()
    h_plain, _ = faltings_elliptic(E_CM27, CTX)
    runtime = time.perf_counter() - t0
    h_stable, _ = faltings_elliptic(E_CM27, CTX, stable=True)
    with CTX.workprec():
        target = 2 * mp.log(2 * mp.pi) - mp.log(3) / 2 - 3 * mp.loggamma(mpf(1) / 3)
        stable_err = abs(h_stable - target)
        plain_err = abs(h_plain - h_stable - mp.log(3) / 4)
        gap = target - PUBLISHED_CM27
    tol = mpf("1e-30")
    ok = bool(stable_err < tol and plain_err < tol and runtime < 2.0)
    report(1, ok, f"elliptic faltings on y^2+y=x^3 vs closed form {mp.nstr(target, 20)} "
                  f"(stable {mp.nstr(h_stable, 20)}, |delta| = {mp.nstr(stable_err, 3)}; "
                  f"plain - stable - log(3)/4 = {mp.nstr(plain_err, 3)}; "
                  f"published {mp.nstr(PUBLISHED_CM27, 5)}, off by {mp.nstr(gap, 3)}; "
                  f"runtime {runtime:.2f}s)")
    assert ok, (
        f"stable = {mp.nstr(h_stable, 25)} and plain = {mp.nstr(h_plain, 25)} must match "
        f"2 log(2 pi) - (1/2) log 3 - 3 log Gamma(1/3) = {mp.nstr(target, 25)} and that "
        f"plus (1/4) log 3 to 1e-30, within 2 s (took {runtime:.2f}s); "
        "see the note on the acceptance suite in the README.")


def test_c02_cross_formula_agreement():
    cs = chowla_selberg(3, 6, 1, quadratic_character(3), CTX)
    h, _ = faltings_elliptic(E_CM27, CTX, stable=True)
    delta = abs(cs - h)
    ok = bool(delta < mpf("1e-5"))
    report(2, ok, f"Chowla-Selberg(D=3) vs Silverman formula: |delta| = {mp.nstr(delta, 3)}")
    assert ok


def test_c03_genus2_closed_form():
    v = bomemo_closed_form(CTX)
    delta = abs(v - mpf("0.38537"))
    ok = bool(delta < mpf("1e-5"))
    report(3, ok, f"bomemo closed form {mp.nstr(v, 10)} vs 0.38537: |delta| = {mp.nstr(delta, 3)}")
    assert ok


def test_c04_genus2_pipeline():
    cv = bomemo_cross_validation(CTX)
    matched = cv.matched
    attributed = (not matched) and cv.gap_is_finite_term and cv.arch_matches_closed_form \
        and "e_5" in cv.report
    ok = bool(matched or attributed)
    report(4, ok, ("pipeline matches closed form" if matched else
                   f"pipeline off by f_5 log 5 = {mp.nstr(cv.finite_term, 8)}; "
                   "failure reported against the e_5 = 0 assumption "
                   f"(archimedean part alone matches to {mp.nstr(abs(cv.arch_only_total - cv.closed_form), 3)})"))
    # the criterion's own contract: match within 1e-3, or the failure is
    # reported against the e_5 = 0 input assumption
    assert ok, cv.report


def test_c05_alpha_constancy():
    rng = random.Random(55)
    worst_spread = mpf(0)
    worst_alpha = mpf(0)
    n_terms = (CTX.bits + 24) // 2
    with mp.workprec(220):
        for _ in range(10):
            tau = random_reduced_tau(1, rng, CTX)
            a = alpha_arch(tau, CTX)
            vals = []
            for _ in range(20):
                z = mpc(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
                mu = mu_arch_series(z, tau, n_terms, CTX)
                be = beta_arch(z, tau, 2, CTX)
                vals.append(2 * (be - mu))
            worst_spread = max(worst_spread, max(vals) - min(vals))
            worst_alpha = max(worst_alpha, max(abs(v - a) for v in vals))
    ok = bool(worst_spread < mpf("1e-9") and worst_alpha < mpf("1e-10"))
    report(5, ok, f"2(beta-mu) over 20 z x 10 tau: spread {mp.nstr(worst_spread, 3)}, "
                  f"|vs alpha| {mp.nstr(worst_alpha, 3)}")
    assert ok


def test_c06_sum_identity():
    worst = mpf(0)
    with mp.workprec(220):
        for E in CURVES:
            Emin, dmin = minimal_model_q(E)
            per = periods_agm(Emin, CTX)
            total = alpha_arch(per.tau, CTX) + mp.fsum(
                alpha_finite(dmin, p, CTX) for p, _ in finite_valuations(dmin))
            h, _ = faltings_elliptic(E, CTX)
            worst = max(worst, abs(total - h))
    ok = bool(worst < mpf("1e-10"))
    report(6, ok, f"sum_v alpha_v vs faltings_elliptic over 5 curves: worst {mp.nstr(worst, 3)}")
    assert ok


def test_c07_phi_identities():
    rng = random.Random(77)
    worst1 = mpf(0)
    with mp.workprec(220):
        for _ in range(10):
            tau = random_reduced_tau(1, rng, CTX)
            r = phi_product(tau, CTX) / modular_discriminant(tau, CTX) / 256 - 1
            worst1 = max(worst1, abs(r))
        worst2 = mpf(0)
        for _ in range(10):
            tau = random_reduced_tau(2, rng, CTX96)
            r = phi_product(tau, CTX96) / j10(tau, CTX96) ** 4 - 1
            worst2 = max(worst2, abs(r))
    ok = bool(worst1 < mpf("1e-12") and worst2 < mpf("1e-10"))
    report(7, ok, f"phi = 2^8 Delta (g=1): rel {mp.nstr(worst1, 3)}; "
                  f"phi = J10^4 (g=2): rel {mp.nstr(worst2, 3)}")
    assert ok


def test_c08_canonical_height_oracle():
    pairs = [
        (WeierstrassEquation.make(1, [0, -1, 0, 1], [1]), (Fraction(0), Fraction(0))),
        (WeierstrassEquation.make(1, [-2, 0, 0, 1], []), (Fraction(3), Fraction(5))),
        (WeierstrassEquation.make(1, [17, 0, 0, 1], []), (Fraction(2), Fraction(5))),
        (WeierstrassEquation.make(1, [17, 0, 0, 1], []), (Fraction(-2), Fraction(3))),
        (WeierstrassEquation.make(1, [0, 0, 1, 1], [1]), (Fraction(0), Fraction(0))),
    ]
    worst_oracle = mpf(0)
    worst_double = mpf(0)
    with mp.workprec(220):
        for E, P in pairs:
            h, _ = canonical_height_q(E, P, CTX)
            Q = P
            for _ in range(8):
                Q = point_add(E, Q, Q)
            x = Fraction(Q[0])
            naive = mp.log(max(abs(x.numerator), x.denominator)) / mpf(4) ** 8
            worst_oracle = max(worst_oracle, abs(h - naive))
            h2, _ = canonical_height_q(E, point_add(E, P, P), CTX)
            worst_double = max(worst_double, abs(h2 - 4 * h))
        # parallelogram law on a pair of independent points
        E = pairs[2][0]
        P, Q = pairs[2][1], pairs[3][1]
        hP, _ = canonical_height_q(E, P, CTX)
        hQ, _ = canonical_height_q(E, Q, CTX)
        hS, _ = canonical_height_q(E, point_add(E, P, Q), CTX)
        hD, _ = canonical_height_q(E, point_add(E, P, point_neg(E, Q)), CTX)
        par = abs(hS + hD - 2 * hP - 2 * hQ)
    ok = bool(worst_oracle < mpf("1e-5") and worst_double < mpf("1e-8") and par < mpf("1e-6"))
    report(8, ok, f"naive-limit oracle {mp.nstr(worst_oracle, 3)}, doubling "
                  f"{mp.nstr(worst_double, 3)}, parallelogram {mp.nstr(par, 3)}")
    assert ok


def test_c09_lockhart_invariance():
    rng = random.Random(9)
    worst_change = mpf(0)
    us = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(3),
          Fraction(-3), Fraction(1, 2), Fraction(1, 3)]
    us += [Fraction(rng.choice([1, -1]) * rng.randint(1, 3), rng.randint(1, 3))
           for _ in range(12)]
    with mp.workprec(220):
        base = lockhart_invariant(E_CM27, CTX)
        worst_rel = base.rel_err
        for u in us:
            rep = lockhart_invariant(apply_model_change(E_CM27, ModelChange.make(u)), CTX)
            worst_change = max(worst_change, abs(base.lhs - rep.lhs) / abs(base.lhs))
            worst_rel = max(worst_rel, rep.rel_err)
    ok = bool(worst_change < mpf("1e-8") and worst_rel < mpf("1e-8"))
    report(9, ok, f"|Delta| V^6 over 20 model changes: rel change {mp.nstr(worst_change, 3)}; "
                  f"vs 2^4 pi^12 |phi| (Im tau)^6: rel {mp.nstr(worst_rel, 3)}")
    assert ok


def test_c10_appendix_inequalities():
    rng = random.Random(10)
    violations = 0
    for i in range(100):
        g = 1 if i < 50 else 2
        tau = random_reduced_tau(g, rng, CTX96)
        rep = theta_null_bounds(tau, CTX96)
        ml = matrix_lemma_check(tau, rep.null_ratio_height, 1, CTX96)
        if not (rep.max_ok and rep.min_ok and ml.holds):
            violations += 1
    ok = violations == 0
    report(10, ok, f"theta-null bounds and matrix lemma on 100 reduced tau (g=1,2): "
                   f"{violations} violations")
    assert ok


def test_c11_autissier_positivity():
    # the library's I = alpha / 2 (eta product) against the quadrature of the
    # theta norm over the torus at grid 512, within its doubling delta
    rng = random.Random(11)
    taus = [mpc(0, 1), mpc(mpf(1) / 2, mp.sqrt(3) / 2)]
    taus += [random_reduced_tau(1, rng, CTX).scalar() for _ in range(8)]
    min_val = mpf("inf")
    min_lib = mpf("inf")
    worst_delta = mpf(0)
    worst_gap = mpf(0)
    for tau in taus:
        quad = autissier_quadrature(complex(tau), 512)
        lib = autissier_integral(tau, ctx=CTX).value
        min_val = min(min_val, mpf(quad.value))
        min_lib = min(min_lib, lib)
        worst_delta = max(worst_delta, mpf(quad.grid_delta))
        worst_gap = max(worst_gap, abs(lib - quad.value) / quad.grid_delta)
    r1 = autissier_quadrature(1j, 128, section_scale=1.0)
    r2 = autissier_quadrature(1j, 128, section_scale=5.5)
    scale_dev = abs(mpf(r1.value) - mpf(r2.value))
    ok = bool(min_val >= mpf("-1e-6") and worst_delta < mpf("1e-3")
              and scale_dev < mpf("1e-9") and min_lib >= 0 and worst_gap <= 1)
    report(11, ok, f"I(tau) >= -1e-6 on 10 tau at grid 512 (min {mp.nstr(min_val, 6)}), "
                   f"doubling delta {mp.nstr(worst_delta, 3)}, scale dev {mp.nstr(scale_dev, 3)}; "
                   f"alpha/2 >= 0 (min {mp.nstr(min_lib, 6)}), "
                   f"|alpha/2 - quadrature| <= {mp.nstr(worst_gap, 3)} x doubling delta")
    assert ok
