"""Siegel reduction and the appendix inequality checks."""

import random

import pytest
from mpmath import mp, mpc, mpf

from thetaheights.errors import DomainError, PreconditionError
from thetaheights.precision import PrecisionContext
from thetaheights.siegel import (
    apply_symplectic,
    check_reduced,
    matrix_lemma_check,
    random_reduced_tau,
    reduce_g1,
    theta_null_bounds,
)
from thetaheights.theta_engine import SiegelMatrix

S = ((0, -1), (1, 0))
T = ((1, 1), (0, 1))
TI = ((1, -1), (0, 1))


def mat_mul(A, B):
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


def act(g, t):
    (a, b), (c, d) = g
    return (a * t + b) / (c * t + d)


def sl2_ball(max_len):
    """All distinct words of length <= max_len in {S, T, T^-1} (BFS orbit oracle)."""
    seen = {((1, 0), (0, 1))}
    frontier = [((1, 0), (0, 1))]
    for _ in range(max_len):
        new = []
        for g in frontier:
            for gen in (S, T, TI):
                h = mat_mul(gen, g)
                if h not in seen:
                    seen.add(h)
                    new.append(h)
        frontier = new
    return seen


def test_reduce_identity_point(ctx):
    rep = reduce_g1(mpc(0, 1), ctx)
    assert rep.gamma == ((1, 0), (0, 1))
    assert abs(rep.reduced.scalar() - mpc(0, 1)) < mpf(2) ** -100


def test_reduce_translation(ctx):
    rep = reduce_g1(mpc(5, 1), ctx)
    assert abs(rep.reduced.scalar() - mpc(0, 1)) < mpf(2) ** -100
    assert rep.gamma == ((1, -5), (0, 1))


def test_reduce_brute_force_orbit_oracle(ctx):
    tau0 = mpc("0.3", "0.1")
    rep = reduce_g1(tau0, ctx)
    best = max(act(g, tau0).imag for g in sl2_ball(12))
    assert abs(rep.reduced.scalar().imag - best) < mpf(10) ** -25
    assert abs(rep.reduced.scalar() - mpc(0, 1)) < mpf(10) ** -25


def test_reduce_corner_normalization(ctx):
    rho = mpc(mpf(1) / 2, mp.sqrt(3) / 2)
    rep = reduce_g1(rho - 1, ctx)
    assert abs(rep.reduced.scalar() - rho) < mpf(2) ** -100


def test_reduce_idempotent(ctx):
    rng = random.Random(2)
    for _ in range(20):
        tau = mpc(rng.uniform(-4, 4), rng.uniform(0.05, 3))
        red = reduce_g1(tau, ctx).reduced
        again = reduce_g1(red, ctx)
        assert again.gamma in (((1, 0), (0, 1)), ((-1, 0), (0, -1)))


def test_reduce_gamma_reproduces_reduction(ctx):
    rng = random.Random(4)
    for _ in range(50):
        tau = mpc(rng.uniform(-6, 6), rng.uniform(0.02, 4))
        rep = reduce_g1(tau, ctx)
        img = act(rep.gamma, tau)
        assert abs(img - rep.reduced.scalar()) < mpf(10) ** -25 * max(1, abs(img))


def test_imag_maximality_spot_check(ctx):
    rng = random.Random(6)
    ball = sl2_ball(8)
    for _ in range(4):
        tau = mpc(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        red = reduce_g1(tau, ctx).reduced.scalar()
        gammas = random.Random(1).sample(sorted(ball), 200)
        assert all(act(g, tau).imag <= red.imag + mpf(10) ** -25 for g in gammas)


def _random_symplectic(g, rng):
    """Random element of Sp(2g, Z) as a product of standard generators."""
    import numpy as np

    n = 2 * g
    J = np.block([[np.zeros((g, g), dtype=object), np.eye(g, dtype=object)],
                  [-np.eye(g, dtype=object), np.zeros((g, g), dtype=object)]])
    M = np.eye(n, dtype=object)
    for _ in range(6):
        kind = rng.choice(["B", "U", "S"])
        if kind == "B":
            B = np.zeros((g, g), dtype=object)
            for i in range(g):
                for j in range(i, g):
                    B[i, j] = B[j, i] = rng.randint(-2, 2)
            G = np.block([[np.eye(g, dtype=object), B],
                          [np.zeros((g, g), dtype=object), np.eye(g, dtype=object)]])
        elif kind == "U":
            U = np.eye(g, dtype=object)
            if g > 1:
                U[0, 1] = rng.randint(-2, 2)
            Uinv = np.linalg.inv(U.astype(float)).round().astype(int).astype(object)
            G = np.block([[U.T, np.zeros((g, g), dtype=object)],
                          [np.zeros((g, g), dtype=object), Uinv]])
        else:
            G = np.block([[np.zeros((g, g), dtype=object), -np.eye(g, dtype=object)],
                          [np.eye(g, dtype=object), np.zeros((g, g), dtype=object)]])
        M = M @ G
    assert (M.T @ J @ M == J).all()
    return tuple(tuple(int(x) for x in row) for row in M)


@pytest.mark.parametrize("g", [1, 2])
def test_det_imag_transformation(g, ctx):
    rng = random.Random(13 + g)
    for _ in range(5):
        tau = random_reduced_tau(g, rng, ctx)
        gamma = _random_symplectic(g, rng)
        img = apply_symplectic(gamma, tau, ctx)
        C = mp.matrix([[gamma[g + i][j] for j in range(g)] for i in range(g)])
        D = mp.matrix([[gamma[g + i][g + j] for j in range(g)] for i in range(g)])
        Tm = mp.matrix(g)
        for i in range(g):
            for j in range(g):
                Tm[i, j] = tau.entries[i][j]
        den = mp.det(C * Tm + D)
        lhs = img.det_imag()
        rhs = tau.det_imag() / abs(den) ** 2
        assert abs(lhs - rhs) < mpf(10) ** -25 * abs(rhs)


# --- positive definiteness of Im tau ------------------------------------------


def _rows(Y):
    return [[mpc("0.1", y) for y in row] for row in Y]


@pytest.mark.parametrize("Y", [
    [[-1, 0, 0], [0, 1, 0], [0, 0, 1]],      # first leading minor -1
    [[0, 0, 0], [0, 1, 0], [0, 0, 1]],       # first leading minor 0
    [[1, 2, 0], [2, 1, 0], [0, 0, 1]],       # second leading minor -3
    [[1, 1, 0], [1, 1, 0], [0, 0, 1]],       # second leading minor 0
    [[2, 1, 1], [1, 2, 1], [1, 1, "0.5"]],   # third leading minor -1/2
    [[1, 0, 1], [0, 1, 0], [1, 0, 1]],       # third leading minor 0
])
def test_from_rows_refuses_nonpositive_leading_minor(Y, ctx):
    with pytest.raises(DomainError, match="not positive definite"):
        SiegelMatrix.from_rows(_rows(Y), ctx)


def test_from_rows_accepts_positive_definite_g3(ctx):
    # leading minors 2, 3, 4
    tau = SiegelMatrix.from_rows(_rows([[2, 1, 1], [1, 2, 1], [1, 1, 2]]), ctx)
    assert tau.g == 3
    assert abs(tau.det_imag() - 4) < mpf(2) ** -100


# --- condition battery -------------------------------------------------------


@pytest.mark.parametrize("g", [1, 2, 3])
def test_check_reduced_identity_scaled(g, ctx):
    rows = [[mpc(0, 1) if i == j else mpc(0, 0) for j in range(g)] for i in range(g)]
    checks = check_reduced(rows, g, ctx)
    assert all(c.passed for c in checks)


def test_check_reduced_s2_failure_margin(ctx):
    checks = check_reduced(mpc("0.6", 2), 1, ctx)
    s2 = next(c for c in checks if c.condition_id.startswith("S2"))
    assert not s2.passed
    assert abs(abs(s2.margin) - 0.1) < 1e-12


def test_check_reduced_offdiagonal_failure(ctx):
    checks = check_reduced([[mpc(0, 2), mpc(0, "1.5")], [mpc(0, "1.5"), mpc(0, 2)]], 2, ctx)
    off = next(c for c in checks if c.condition_id.startswith("offdiag"))
    assert not off.passed


# --- appendix bounds ---------------------------------------------------------


def test_theta_null_bounds_at_i(ctx):
    rep = theta_null_bounds(mpc(0, 1), ctx)
    assert rep.max_ok and rep.min_ok
    assert rep.max_null >= 1


def test_theta_null_bounds_imaginary_sweep(ctx96):
    prev = None
    for t in range(1, 21):
        rep = theta_null_bounds(mpc(0, t), ctx96)
        assert rep.max_ok and rep.min_ok
        if prev is not None:
            assert rep.min_nonzero_null < prev
        prev = rep.min_nonzero_null


def test_theta_null_bounds_g2_identity(ctx):
    rep = theta_null_bounds([[mpc(0, 1), 0], [0, mpc(0, 1)]], ctx)
    assert rep.max_ok and rep.min_ok


def test_null_ratio_height_on_reducible_locus_is_precision_independent():
    # at diag(i, i) the even null theta[1/2 1/2; 1/2 1/2] vanishes exactly; it
    # must be left out of the nonzero minimum, not read as rounding noise
    tau = [[mpc(0, 1), 0], [0, mpc(0, 1)]]
    vals = [theta_null_bounds(tau, PrecisionContext(bits=b)).null_ratio_height
            for b in (64, 128, 256)]
    assert all(mp.isfinite(v) for v in vals)
    assert max(vals) - min(vals) < mpf(2) ** -60


def test_theta_null_bounds_requires_reduced(ctx):
    with pytest.raises(PreconditionError):
        theta_null_bounds(mpc("0.9", 2), ctx)


def test_matrix_lemma_at_i(ctx):
    rep = theta_null_bounds(mpc(0, 1), ctx)
    ml = matrix_lemma_check(mpc(0, 1), rep.null_ratio_height, 1, ctx)
    assert ml.holds
    assert abs(ml.lhs - mp.pi / 8) < mpf(10) ** -25


def test_matrix_lemma_imaginary_sweep(ctx96):
    for t in range(1, 51, 7):
        rep = theta_null_bounds(mpc(0, t), ctx96)
        ml = matrix_lemma_check(mpc(0, t), rep.null_ratio_height, 1, ctx96)
        assert ml.holds


def test_matrix_lemma_g2_margin(ctx):
    tau = [[mpc(0, 1), 0], [0, mpc(0, 1)]]
    rep = theta_null_bounds(tau, ctx)
    ml = matrix_lemma_check(tau, rep.null_ratio_height, 1, ctx)
    assert ml.holds
    assert ml.margin >= 2 * 4 * mp.log(8) - mp.pi / 4 - mpf(10) ** -20
