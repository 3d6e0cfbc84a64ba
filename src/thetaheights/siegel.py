"""Siegel fundamental-domain machinery.

g = 1 gets a full reduction algorithm (SL2(Z) with the transformation
recorded); general g gets a report-only battery of the domain conditions
S2/S3 and their consequences, plus the appendix theta-null inequalities
and the matrix-lemma check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from mpmath import mp, mpf

from .errors import DomainError, NumericError, PreconditionError
from .precision import DEFAULT_CTX, PrecisionContext
from .theta_engine import SiegelMatrix, as_siegel, theta_nulls_halfint

SQRT3_HALF = math.sqrt(3) / 2


@dataclass(frozen=True)
class ConditionResult:
    condition_id: str
    passed: bool
    margin: float  # signed slack: >= 0 iff the condition holds


@dataclass(frozen=True)
class ReductionReport:
    reduced: SiegelMatrix
    gamma: tuple  # 2g x 2g integer matrix, rows of tuples


def _sp_check(gamma: Sequence[Sequence[int]]) -> bool:
    """gamma^T J gamma == J over the integers."""
    n = len(gamma)
    g = n // 2
    J = [[0] * n for _ in range(n)]
    for i in range(g):
        J[i][g + i] = 1
        J[g + i][i] = -1
    gt = [[gamma[j][i] for j in range(n)] for i in range(n)]
    JG = [[sum(J[i][k] * gamma[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    GTJG = [[sum(gt[i][k] * JG[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return GTJG == J


def reduce_g1(tau, ctx: PrecisionContext = DEFAULT_CTX) -> ReductionReport:
    """Reduce a g=1 period point into |Re tau| <= 1/2, |tau| >= 1.

    Returns only the reduced tau and gamma in SL2(Z), checked to map tau to
    it; check_reduced runs the condition battery.  Boundary ties are
    normalized to Re >= 0, so the corner orbit lands on (1 + i sqrt 3)/2 and
    the unit-circle arc on its right half.
    """
    t0 = as_siegel(tau, g=1, ctx=ctx).scalar()
    with ctx.workprec():
        t = t0
        tol = ctx.tol()
        # accumulated [[a, b], [c, d]] acting as t -> (a t + b)/(c t + d);
        # each move left-multiplies: T^n gives (a,b) += n (c,d), S swaps rows
        a, b, c, d = 1, 0, 0, 1
        for _ in range(10000):
            n = int(mp.nint(t.real))
            if n != 0:
                t = t - n
                a, b = a - n * c, b - n * d
            if abs(t) < 1 - tol:
                t = -1 / t
                a, b, c, d = -c, -d, a, b
            else:
                break
        else:
            raise DomainError("SL2 reduction did not terminate")
        # boundary normalization: Re >= 0 on |tau| = 1 and on |Re| = 1/2
        if abs(abs(t) - 1) <= tol and t.real < -tol:
            t = -1 / t
            a, b, c, d = -c, -d, a, b
        if abs(t.real + mpf(1) / 2) <= tol:
            t = t + 1
            a, b = a + c, b + d
        gamma = ((a, b), (c, d))
        if not _sp_check(gamma):
            raise NumericError("recorded gamma is not in SL2(Z) (internal error)")
        if abs((a * t0 + b) / (c * t0 + d) - t) > tol * 16 * max(1, abs(t)):
            raise NumericError("recorded gamma does not reproduce the reduction")
        return ReductionReport(reduced=SiegelMatrix.from_scalar(t, ctx), gamma=gamma)


def apply_symplectic(gamma: Sequence[Sequence[int]], tau, ctx: PrecisionContext = DEFAULT_CTX) -> SiegelMatrix:
    """(A tau + B)(C tau + D)^{-1} for gamma = [[A, B], [C, D]] in Sp(2g, Z)."""
    tau = as_siegel(tau, ctx=ctx)
    g = tau.g
    if len(gamma) != 2 * g:
        raise DomainError("gamma size does not match tau")
    if not _sp_check(gamma):
        raise DomainError("gamma is not symplectic")
    with ctx.workprec():
        T = mp.matrix(g)
        for i in range(g):
            for j in range(g):
                T[i, j] = tau.entries[i][j]
        A = mp.matrix([[gamma[i][j] for j in range(g)] for i in range(g)])
        B = mp.matrix([[gamma[i][g + j] for j in range(g)] for i in range(g)])
        C = mp.matrix([[gamma[g + i][j] for j in range(g)] for i in range(g)])
        D = mp.matrix([[gamma[g + i][g + j] for j in range(g)] for i in range(g)])
        num = A * T + B
        den = C * T + D
        res = num * den ** -1
        rows = [[res[i, j] for j in range(g)] for i in range(g)]
        # numeric asymmetry from the inversion is far below the validator's tolerance
        return SiegelMatrix.from_rows(rows, ctx)


def _zeta_test_set(g: int, l: int):
    """Finite S3 test set: all zeta in {-1,0,1}^g plus unit vectors, with
    gcd(zeta_l, ..., zeta_g) = 1."""
    import itertools

    out = []
    vecs = set(itertools.product((-1, 0, 1), repeat=g))
    for i in range(g):
        e = [0] * g
        e[i] = 1
        vecs.add(tuple(e))
    for v in vecs:
        tail = [abs(x) for x in v[l - 1:]]
        if math.gcd(*tail) == 1 if len(tail) > 1 else (tail and tail[0] == 1):
            out.append(v)
    return out


def check_reduced(tau, g: int | None = None, ctx: PrecisionContext = DEFAULT_CTX) -> list:
    """Evaluate the reduction conditions S2, finite-set S3, and their
    consequences; report-only (necessary-but-not-sufficient for g >= 2)."""
    tau = as_siegel(tau, g=g, ctx=ctx)
    g = tau.g
    results = []
    with ctx.workprec():
        X = [[tau.entries[i][j].real for j in range(g)] for i in range(g)]
        Y = [[tau.entries[i][j].imag for j in range(g)] for i in range(g)]

        # S2: |Re tau_ij| <= 1/2
        worst = max(abs(X[i][j]) for i in range(g) for j in range(g))
        results.append(ConditionResult("S2:|Re|<=1/2", worst <= mpf(1) / 2 + ctx.tol(),
                                       float(mpf(1) / 2 - worst)))

        # S3 on the finite test set: zeta^T Y zeta >= Y_ll
        margin = mpf("inf")
        for l in range(1, g + 1):
            for zeta in _zeta_test_set(g, l):
                q = mp.fsum(zeta[i] * Y[i][j] * zeta[j] for i in range(g) for j in range(g))
                margin = min(margin, q - Y[l - 1][l - 1])
        results.append(ConditionResult("S3:zeta-test-set", margin >= -ctx.tol(), float(margin)))

        # S3: superdiagonal of Im nonnegative
        if g >= 2:
            m = min(Y[i][i + 1] for i in range(g - 1))
            results.append(ConditionResult("S3:b_{i,i+1}>=0", m >= -ctx.tol(), float(m)))

        # consequence: b_gg >= ... >= b_11 >= sqrt(3)/2
        chain = min([Y[i + 1][i + 1] - Y[i][i] for i in range(g - 1)] + [Y[0][0] - mp.sqrt(3) / 2])
        results.append(ConditionResult("chain:b_gg>=...>=b_11>=sqrt3/2",
                                       chain >= -ctx.tol(), float(chain)))

        # consequence: b_ii/2 >= |b_ij|
        if g >= 2:
            m = min(Y[i][i] / 2 - abs(Y[i][j]) for i in range(g) for j in range(g) if i != j)
            results.append(ConditionResult("offdiag:b_ii/2>=|b_ij|", m >= -ctx.tol(), float(m)))
    return results


@dataclass(frozen=True)
class ThetaNullBoundsReport:
    max_null: mpf
    min_nonzero_null: mpf
    max_lower_bound: mpf       # asserted: max_null >= 1
    min_upper_bound: mpf       # asserted: min_nonzero <= (4g)^{2g^2} e^{-pi/8 ||y'||}
    y_norm: mpf                # trace of Im(tau), the matrix-norm convention used
    max_ok: bool
    min_ok: bool
    null_ratio_height: mpf     # log(max/min nonzero): the h(A) proxy for g=1 over Q


def theta_null_bounds(tau, ctx: PrecisionContext = DEFAULT_CTX) -> ThetaNullBoundsReport:
    """Appendix inequalities on the 4^g half-integral theta nulls at z = 0.

    'Nonzero' means the even characteristics whose null exceeds ctx.tol(),
    the threshold phi_product refuses at: odd nulls vanish identically, and
    on the reducible locus (g = 2) an even null does too, so its computed
    value is rounding noise.  Requires an (approximately) reduced tau.
    """
    tau = as_siegel(tau, ctx=ctx)
    if not all(c.passed for c in check_reduced(tau, ctx=ctx)):
        raise PreconditionError("tau fails check_reduced; theta-null bounds need reduced tau")
    g = tau.g
    nulls = theta_nulls_halfint(tau, ctx)
    with ctx.workprec():
        tol = ctx.tol()
        mx = max(abs(v) for v in nulls.values())
        mn = min(abs(v) for m, v in nulls.items() if m.parity() == 0 and abs(v) > tol)
        ynorm = tau.trace_imag()
        upper = mpf(4 * g) ** (2 * g * g) * mp.exp(-mp.pi / 8 * ynorm)
        return ThetaNullBoundsReport(
            max_null=mx,
            min_nonzero_null=mn,
            max_lower_bound=mpf(1),
            min_upper_bound=upper,
            y_norm=ynorm,
            max_ok=bool(mx >= 1 - tol),
            min_ok=bool(mn <= upper * (1 + tol)),
            null_ratio_height=mp.log(mx / mn),
        )


@dataclass(frozen=True)
class MatrixLemmaReport:
    lhs: mpf      # (pi/8) ||y'||, with ||y'|| = trace Im(tau)
    rhs: mpf      # d h(A) + 2 g^2 log(4g)
    holds: bool
    margin: mpf   # rhs - lhs


def matrix_lemma_check(tau, hA, d: int = 1, ctx: PrecisionContext = DEFAULT_CTX) -> MatrixLemmaReport:
    """Check (pi/8) ||y'|| <= d h(A) + 2 g^2 log(4g) for a caller-supplied height.

    The matrix norm is the trace of Im(tau') (see module notes); hA may be the
    null-ratio proxy from theta_null_bounds.
    """
    tau = as_siegel(tau, ctx=ctx)
    if d < 1:
        raise DomainError("local degree d must be >= 1")
    g = tau.g
    with ctx.workprec():
        lhs = mp.pi / 8 * tau.trace_imag()
        rhs = d * mpf(hA) + 2 * g * g * mp.log(4 * g)
        return MatrixLemmaReport(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + ctx.tol()),
                                 margin=rhs - lhs)


def random_reduced_tau(g: int, rng, ctx: PrecisionContext = DEFAULT_CTX) -> SiegelMatrix:
    """Sample a tau passing check_reduced (g = 1 exactly reduced; g = 2 a
    diagonally dominant family inside the S2/S3 test conditions)."""
    if g == 1:
        while True:
            t = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 3.0))
            if abs(t) >= 1.0005:
                return SiegelMatrix.from_scalar(t, ctx)
    if g == 2:
        a = rng.uniform(0.9, 2.0)
        b = rng.uniform(a, 3.0)
        c = rng.uniform(0.0, a / 2 * 0.95)
        x11 = rng.uniform(-0.5, 0.5)
        x22 = rng.uniform(-0.5, 0.5)
        x12 = rng.uniform(-0.5, 0.5)
        return SiegelMatrix.from_rows(
            [[complex(x11, a), complex(x12, c)], [complex(x12, c), complex(x22, b)]], ctx)
    raise DomainError("random_reduced_tau supports g in {1, 2}")
