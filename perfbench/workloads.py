"""Seeded workloads for the thetaheights benchmark.

A workload is an endless deck of blocks; block ``j`` depends only on
``(workload, seed, j)``, so a run that stops early sees a prefix of the same
deck whatever the speed of the program.  A block is a list of operations the
closed loop times one after another and never splits.  Where a run holds
about one block, the block stratifies the input property that sets the cost,
so that runs on different seeds do comparable work.

Every library call inside an operation goes through a module attribute
(``elliptic.faltings_elliptic``), so the tracer's wrappers see it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from mpmath import mp, mpc, mpf

from thetaheights import elliptic, hyper_faltings, local_heights, siegel, theta_engine, weierstrass
from thetaheights.errors import DomainError, ThetaHeightsError
from thetaheights.precision import PrecisionContext

BITS = {"ec_batch": 128, "arch_decomp": 256, "jacobian_g2": 128}

# position of the input the library must refuse in each block
REFUSAL_SLOT = 3
EC_STRATA = 12
ARCH_MAX_IM_TAU = 1.2
JAC_TAUS = 8


@dataclass
class Op:
    """One timed operation.

    ``call(ctx)`` returns named numeric components (mpf/mpc are scored for
    accuracy; other values are only read by the oracle).  ``oracle(out, ctx)``
    returns a failure message or None; it runs untimed and uses different
    mathematics from the call.  ``refuse`` names the exception the call must
    raise instead of returning.  ``props`` holds input properties whose share
    of the run is reported.
    """

    kind: str
    call: Callable
    oracle: Callable | None = None
    refuse: type | None = None
    recompute: bool = True
    props: dict = field(default_factory=dict)


def _entries(prefix: str, breakdown) -> dict:
    return {f"{prefix}[{place.label()}].{k}": v
            for place, comps in breakdown.entries for k, v in comps.items()}


# --- ec_batch ---------------------------------------------------------------


def _curve_through_point(rng: random.Random, a4: int):
    """A nonsingular curve with a4 given and an integral point of infinite
    duplication orbit: 2y + a1 x + a3 != 0 and six doublings avoid O."""
    while True:
        a1, a3 = rng.randint(0, 1), rng.randint(0, 1)
        a2 = rng.randint(-1, 1)
        x0, y0 = rng.randint(-3, 3), rng.randint(1, 12)
        a6 = y0 * y0 + a1 * x0 * y0 + a3 * y0 - x0 ** 3 - a2 * x0 * x0 - a4 * x0
        E = elliptic.curve_from_a_invariants(a1, a2, a3, a4, a6)
        if weierstrass.discriminant(E) == 0 or 2 * y0 + a1 * x0 + a3 == 0:
            continue
        P = (x0, y0)
        if not elliptic.point_on_curve(E, P):
            continue
        Q = P
        for _ in range(6):
            Q = elliptic.point_add(E, Q, Q)
            if Q is None:
                break
        else:
            return E, P


def _ec_answer(E, P, check_double: bool) -> Op:
    def call(ctx):
        h, fb = elliptic.faltings_elliptic(E, ctx)
        hh, hb = local_heights.canonical_height_q(E, P, ctx)
        out = {"h": h, "alpha_sum": fb.total, "hhat": hh}
        out.update(_entries("alpha", fb))
        out.update(_entries("lambda", hb))
        return out

    def oracle(out, ctx):
        with mp.workprec(ctx.working_bits + 64):
            if abs(out["alpha_sum"] - out["h"]) > ctx.tol():
                return "per-place alpha sum differs from the Thm 1.1 expression"
            if check_double:
                h2, _ = local_heights.canonical_height_q(E, elliptic.point_add(E, P, P), ctx)
                if abs(h2 - 4 * out["hhat"]) > 4 * ctx.tol():
                    return "hhat(2P) != 4 hhat(P)"
        return None

    delta = weierstrass.discriminant(E)
    return Op("ec", call, oracle, props={"abs_delta_gt_1e20": abs(delta) > 10 ** 20})


def _ec_refusal(E, P) -> Op:
    # at most two y lie on E over each x, so one of three shifts is off E
    off = next(Q for Q in ((P[0], P[1] + k) for k in (1, 2, 3))
               if not elliptic.point_on_curve(E, Q))

    def call(ctx):
        return {"hhat": local_heights.canonical_height_q(E, off, ctx)[0]}

    return Op("ec:off-curve", call, refuse=ThetaHeightsError)


def ec_batch(seed: int):
    """faltings_elliptic then canonical_height_q per curve, a4 log-uniform in
    [10, 1e12].  Cost grows with log|Delta|, so each block draws one a4 from
    each of EC_STRATA equal slices of the log range; the refusal takes its
    own slot and the 2P oracle runs on one mid-range curve per block."""
    j = 0
    while True:
        rng = random.Random(f"ec_batch/{seed}/{j}")
        block = []
        for k in range(EC_STRATA):
            a4 = int(10 ** (1 + 11 * (k + rng.random()) / EC_STRATA))
            E, P = _curve_through_point(rng, a4)
            block.append(_ec_answer(E, P, check_double=k == EC_STRATA // 2))
        rng.shuffle(block)
        E, P = _curve_through_point(rng, int(10 ** (1 + 11 * rng.random())))
        block.insert(REFUSAL_SLOT, _ec_refusal(E, P))
        yield block
        j += 1


# --- arch_decomp ------------------------------------------------------------


def _alpha_op(tau) -> Op:
    return Op("alpha_arch", lambda ctx: {"alpha": local_heights.alpha_arch(tau, ctx)})


def _autissier_op(tau) -> Op:
    def call(ctx):
        return {"I": local_heights.autissier_integral(tau, 512, ctx).value}

    def oracle(out, ctx):
        return None if out["I"] >= 0 else f"Autissier integral I(tau) = {out['I']} < 0"

    # double-precision quadrature: the value does not depend on ctx.bits
    return Op("autissier", call, oracle, recompute=False)


def _z_op(z: complex, tau) -> Op:
    def call(ctx):
        n = (ctx.bits + 24) // 2
        return {"mu": local_heights.mu_arch_series(z, tau, n, ctx),
                "beta": local_heights.beta_arch(z, tau, 2, ctx),
                "mu_closed": local_heights.mu_arch_closed(z, tau, ctx)}

    def oracle(out, ctx):
        n = (ctx.bits + 24) // 2
        alpha = local_heights.alpha_arch(tau, ctx)
        tail = local_heights.mu_tail_bound(tau, n, ctx)
        with mp.workprec(ctx.working_bits + 64):
            if abs(2 * (out["beta"] - out["mu"]) - alpha) > ctx.tol() + 2 * tail:
                return "2(beta - mu) differs from alpha beyond the series tail bound"
            if abs(out["mu"] - out["mu_closed"]) > ctx.tol() + tail:
                return "mu series differs from its closed form beyond the tail bound"
        return None

    return Op("mu_beta_z", call, oracle)


def _mu_refusal(z: complex, tau_bad: complex) -> Op:
    def call(ctx):
        n = (ctx.bits + 24) // 2
        return {"mu": local_heights.mu_arch_series(z, tau_bad, n, ctx)}

    return Op("mu:im-tau<0.1", call, refuse=DomainError)


def arch_decomp(seed: int):
    """Per reduced tau: alpha_arch, autissier_integral and four z through
    mu_arch_series / beta_arch / mu_arch_closed, plus one tau below the
    Im 0.1 conditioning floor that mu_arch_series must refuse.

    tau is drawn with Im tau <= ARCH_MAX_IM_TAU, the bottom of the fundamental
    domain where the theta series are longest: a run holds one tau, and over
    the whole domain the series length alone varies the cost by 1.8x."""
    ctx = PrecisionContext(bits=BITS["arch_decomp"])
    j = 0
    while True:
        rng = random.Random(f"arch_decomp/{seed}/{j}")
        tau = siegel.random_reduced_tau(1, rng, ctx)   # double entries: exact at any precision
        while tau.scalar().imag > ARCH_MAX_IM_TAU:
            tau = siegel.random_reduced_tau(1, rng, ctx)
        tc = complex(tau.scalar())
        zs = [rng.random() + rng.random() * tc for _ in range(4)]
        tau_bad = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.02, 0.09))
        yield [_alpha_op(tau), _autissier_op(tau), _z_op(zs[0], tau), _z_op(zs[1], tau),
               _mu_refusal(zs[2], tau_bad), _z_op(zs[2], tau), _z_op(zs[3], tau)]
        j += 1


# --- jacobian_g2 ------------------------------------------------------------

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _jacobian_call(finite, tau_of):
    def call(ctx):
        tau = tau_of(ctx)
        h, b = hyper_faltings.faltings_jacobian(2, finite, [tau], ctx)
        rep = siegel.theta_null_bounds(tau, ctx)
        lem = siegel.matrix_lemma_check(tau, rep.null_ratio_height, 1, ctx)
        out = {"h": h, "max_null": rep.max_null, "min_null": rep.min_nonzero_null,
               "null_ratio_height": rep.null_ratio_height, "lemma_lhs": lem.lhs,
               "lemma_rhs": lem.rhs, "max_ok": rep.max_ok, "min_ok": rep.min_ok}
        out.update(_entries("jac", b))
        return out

    return call


def _bounds_failure(out):
    if not (out["max_ok"] and out["min_ok"]):
        return f"theta_null_bounds: max_ok={out['max_ok']} min_ok={out['min_ok']}"
    return None


def _tau_op(tau, rng: random.Random) -> Op:
    p = rng.choice(SMALL_PRIMES)
    ord_delta = rng.randint(1, 30)
    finite = [hyper_faltings.FinitePlaceInput(p, ord_delta, rng.randint(0, ord_delta // 10))]
    return Op("jacobian_tau", _jacobian_call(finite, lambda _ctx: tau),
              lambda out, _ctx: _bounds_failure(out))


def _quintic_op() -> Op:
    def oracle(out, ctx):
        closed = hyper_faltings.bomemo_closed_form(ctx)
        with mp.workprec(ctx.working_bits + 64):
            if abs(out["h"] - closed) > mpf("1e-40"):
                return "CM quintic height differs from the Gamma-product closed form"
        return _bounds_failure(out)

    return Op("jacobian_cm_quintic", _jacobian_call([], hyper_faltings.quintic_cm_period_matrix),
              oracle)


def _reducible_refusal(ctx) -> Op:
    # E_i x E_i: an even theta null vanishes, so the height is undefined
    tau = theta_engine.SiegelMatrix.from_rows([[mpc(0, 1), 0], [0, mpc(0, 1)]], ctx)

    def call(ctx):
        return {"h": hyper_faltings.faltings_jacobian(2, [], [tau], ctx)[0]}

    return Op("jacobian:diag(i,i)", call, refuse=ThetaHeightsError)


def jacobian_g2(seed: int):
    """The built-in CM quintic period matrix first, then seeded reduced g = 2
    tau through faltings_jacobian, theta_null_bounds and matrix_lemma_check,
    with the reducible diag(i, i) in the refusal slot.

    The box sums grow as 1 / (least eigenvalue of Im tau), which varies 4x over
    random_reduced_tau(2); each block draws 8 candidates per slot, sorts them
    by that eigenvalue and keeps the middle one of each run of 8."""
    ctx = PrecisionContext(bits=BITS["jacobian_g2"])
    j = 0
    while True:
        rng = random.Random(f"jacobian_g2/{seed}/{j}")
        # double entries: exact at any precision
        pool = sorted((siegel.random_reduced_tau(2, rng, ctx) for _ in range(8 * JAC_TAUS)),
                      key=lambda t: t.min_imag_eigenvalue())
        block = [_tau_op(tau, rng) for tau in pool[4::8]]
        rng.shuffle(block)
        block.insert(REFUSAL_SLOT, _reducible_refusal(ctx))
        yield ([_quintic_op()] if j == 0 else []) + block
        j += 1


DECKS = {"ec_batch": ec_batch, "arch_decomp": arch_decomp, "jacobian_g2": jacobian_g2}
