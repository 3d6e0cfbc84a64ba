"""Theta series with characteristics and the classical forms built from them.

Conventions. The basic series is

    theta_{a,b}(z, tau) = sum_{n in Z^g} exp(i pi (n+a)^T tau (n+a)
                                             + 2 i pi (n+a)^T (z+b)),

summed over the box ||n||_inf <= N with N chosen so the Gaussian tail is
below 2^-(bits+guard).  The Jacobi thetas use the nome q = e^{i pi tau}
(Whittaker-Watson), the modular discriminant uses q = e^{2 i pi tau}; the
two are tied together by the identity phi(tau) = 2^8 Delta(tau) exercised
in the test suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from mpmath import mp, mpc, mpf

from .errors import DomainError, NumericError, ResourceError
from .precision import DEFAULT_CTX, PrecisionContext

# Below this least eigenvalue of Im(tau) the series is badly conditioned and
# the error analysis above is not worth trusting; callers must reduce first.
MIN_IMAG_EIGENVALUE = 0.1


def _to_mpc(x) -> mpc:
    if isinstance(x, str):
        return mpc(mpf(x))
    return mpc(x)


@dataclass(frozen=True)
class SiegelMatrix:
    """A g x g complex symmetric matrix with positive definite imaginary part."""

    g: int
    entries: tuple

    @classmethod
    def from_rows(cls, rows, ctx: PrecisionContext = DEFAULT_CTX) -> "SiegelMatrix":
        with ctx.workprec():
            ent = tuple(tuple(_to_mpc(x) for x in row) for row in rows)
        g = len(ent)
        if g == 0 or any(len(row) != g for row in ent):
            raise DomainError("tau must be a square matrix")
        m = cls(g=g, entries=ent)
        m._validate(ctx)
        return m

    @classmethod
    def from_scalar(cls, tau, ctx: PrecisionContext = DEFAULT_CTX) -> "SiegelMatrix":
        return cls.from_rows([[tau]], ctx)

    def _validate(self, ctx: PrecisionContext) -> None:
        with ctx.workprec():
            scale = max(mpf(1), max(abs(x) for row in self.entries for x in row))
            tol = scale * mpf(2) ** (-24)
            for i in range(self.g):
                for j in range(i + 1, self.g):
                    if abs(self.entries[i][j] - self.entries[j][i]) > tol:
                        raise DomainError("tau is not symmetric to working precision")
            # positive definiteness of Im(tau) via leading principal minors
            for k in range(1, self.g + 1):
                sub = mp.matrix(k)
                for i in range(k):
                    for j in range(k):
                        sub[i, j] = self.entries[i][j].imag
                if mp.det(sub) <= 0:
                    raise DomainError("Im(tau) is not positive definite")

    # -- helpers ---------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def scalar(self) -> mpc:
        if self.g != 1:
            raise DomainError(f"expected g=1, got g={self.g}")
        return self.entries[0][0]

    def imag_matrix(self):
        Y = mp.matrix(self.g)
        for i in range(self.g):
            for j in range(self.g):
                Y[i, j] = self.entries[i][j].imag
        return Y

    def det_imag(self) -> mpf:
        return mp.det(self.imag_matrix())

    def trace_imag(self) -> mpf:
        return mp.fsum(self.entries[i][i].imag for i in range(self.g))

    def min_imag_eigenvalue(self) -> float:
        Yf = np.array([[float(self.entries[i][j].imag) for j in range(self.g)]
                       for i in range(self.g)])
        return float(np.linalg.eigvalsh(Yf)[0])


def as_siegel(tau, g: int | None = None, ctx: PrecisionContext = DEFAULT_CTX) -> SiegelMatrix:
    """Coerce a scalar / nested sequence / SiegelMatrix; optionally check g."""
    if isinstance(tau, SiegelMatrix):
        m = tau
    elif isinstance(tau, (list, tuple)):
        m = SiegelMatrix.from_rows(tau, ctx)
    else:
        m = SiegelMatrix.from_scalar(tau, ctx)
    if g is not None and m.g != g:
        raise DomainError(f"expected g={g}, got g={m.g}")
    return m


@dataclass(frozen=True)
class ThetaCharacteristic:
    """Characteristic (a, b): two length-g vectors of exact rationals."""

    a: tuple
    b: tuple

    @classmethod
    def make(cls, a: Sequence, b: Sequence) -> "ThetaCharacteristic":
        av = tuple(Fraction(x) for x in a)
        bv = tuple(Fraction(x) for x in b)
        if len(av) != len(bv) or not av:
            raise DomainError("characteristic vectors must have equal positive length")
        return cls(a=av, b=bv)

    @property
    def g(self) -> int:
        return len(self.a)

    def parity(self) -> int:
        """e(m) = 4 a.b mod 2 for half-integral characteristics (0 = even)."""
        e = 4 * sum(x * y for x, y in zip(self.a, self.b))
        if e.denominator != 1:
            raise DomainError("parity is defined for half-integral characteristics only")
        return int(e) % 2

    def reduced(self) -> "ThetaCharacteristic":
        """Representative with all entries in [0, 1)."""
        return ThetaCharacteristic(a=tuple(x - math.floor(x) for x in self.a),
                                   b=tuple(x - math.floor(x) for x in self.b))


def _zero_char(g: int) -> ThetaCharacteristic:
    return ThetaCharacteristic.make((0,) * g, (0,) * g)


def _z_vector(z, g: int, ctx: PrecisionContext):
    if isinstance(z, (list, tuple)):
        if len(z) != g:
            raise DomainError(f"z must have length g={g}")
        vec = [_to_mpc(x) for x in z]
    else:
        if g != 1:
            raise DomainError(f"scalar z given for g={g}")
        vec = [_to_mpc(z)]
    for x in vec:
        if not (mp.isfinite(x.real) and mp.isfinite(x.imag)):
            raise DomainError("z must be finite")
    return vec


def _truncation_radius(g: int, lam: float, t: float, a_norm: float,
                       target_log: float, ctx: PrecisionContext) -> int:
    """Smallest box radius with certified Gaussian tail below exp(target_log).

    Tail over ||n||_inf = m is bounded by shell count times
    exp(-pi lam r^2 + 2 pi t r) at the worst radius r >= m - a_norm.
    """
    r_star = t / lam

    def shell_log(m: int) -> float:
        count = (2 * m + 1) ** g - (2 * m - 1) ** g
        r_lo = max(m - a_norm, 1e-9)
        r = max(r_lo, r_star)
        return math.log(count) - math.pi * lam * r * r + 2 * math.pi * t * r

    def logaddexp(x: float, y: float) -> float:
        if x == -math.inf:
            return y
        hi, lo = max(x, y), min(x, y)
        return hi + math.log1p(math.exp(lo - hi))

    # closed-form seed, then verified shell summation
    n0 = a_norm + r_star + math.sqrt(max(-target_log, 1.0) / (math.pi * lam)) + 1
    N = max(1, int(math.ceil(n0)))
    for _ in range(200):
        if N > ctx.max_radius:
            raise ResourceError(
                f"theta truncation radius {N} exceeds cap {ctx.max_radius}; "
                "raise max_radius or reduce tau/z first")
        total = -math.inf
        m = N + 1
        ok = False
        while m <= N + 5000:
            s = shell_log(m)
            total = logaddexp(total, s)
            nxt = shell_log(m + 1)
            if nxt - s < -math.log(2):
                # successive shells at least halve: remainder <= 2 * next shell
                total = logaddexp(total, nxt + math.log(2))
                ok = True
                break
            m += 1
        if ok and total < target_log:
            return N
        N = N + max(1, N // 4)
    raise ResourceError("could not certify a theta truncation radius")


def _theta_sum(m: ThetaCharacteristic, zvec, tau: SiegelMatrix, ctx: PrecisionContext,
               radius_margin: int = 0) -> mpc:
    g = tau.g
    lam = tau.min_imag_eigenvalue()
    if lam < MIN_IMAG_EIGENVALUE:
        raise DomainError(
            f"Im(tau) has least eigenvalue {lam:.3g} < {MIN_IMAG_EIGENVALUE}; "
            "Siegel-reduce tau before evaluating theta series")
    t = math.sqrt(sum(float(z.imag) ** 2 for z in zvec))
    a_norm = math.sqrt(sum(float(x) ** 2 for x in m.a))
    target_log = -(ctx.bits + ctx.guard) * math.log(2)
    N = _truncation_radius(g, lam, t, a_norm, target_log, ctx) + radius_margin
    # the largest term can exceed 1; spend extra bits so the *absolute* error
    # of the working-precision summation still meets the target
    extra = max(0, int(math.pi * t * t / lam / math.log(2)) + 8)
    if extra > 8 * ctx.bits + 64:
        raise ResourceError("z too far from the real torus for the precision budget")
    with ctx.workprec(extra):
        a = [mpf(x.numerator) / x.denominator for x in m.a]
        b = [mpf(x.numerator) / x.denominator for x in m.b]
        zb = [zvec[i] + b[i] for i in range(g)]
        total = mpc(0)
        if g == 1:
            t11 = tau.entries[0][0]
            a0, zb0 = a[0], zb[0]
            for n in range(-N, N + 1):
                u = n + a0
                total += mp.expjpi(u * u * t11 + 2 * u * zb0)
        else:
            tau_rows = tau.entries
            for n in itertools.product(range(-N, N + 1), repeat=g):
                u = [n[i] + a[i] for i in range(g)]
                quad = mp.fsum(u[i] * tau_rows[i][j] * u[j] for i in range(g) for j in range(g))
                lin = mp.fsum(2 * u[i] * zb[i] for i in range(g))
                total += mp.expjpi(quad + lin)
        return +total


def theta_char(m: ThetaCharacteristic, z, tau, ctx: PrecisionContext = DEFAULT_CTX,
               radius_margin: int = 0) -> mpc:
    """theta_{a,b}(z, tau) with absolute error below 2^-bits.

    radius_margin widens the certified truncation box; it exists so the
    soundness of the tail bound can be exercised from the outside.
    """
    tau = as_siegel(tau, ctx=ctx)
    if m.g != tau.g:
        raise DomainError(f"characteristic has g={m.g}, tau has g={tau.g}")
    zvec = _z_vector(z, tau.g, ctx)
    return _theta_sum(m, zvec, tau, ctx, radius_margin=radius_margin)


_HALF = Fraction(1, 2)


def jacobi_thetas(z, tau, ctx: PrecisionContext = DEFAULT_CTX) -> tuple:
    """(theta_1, ..., theta_4)(z, tau) for g = 1, nome q = e^{i pi tau}.

    Dictionary (asserted in the unit tests):
    theta_1 = -theta_{1/2,1/2}, theta_2 = theta_{1/2,0},
    theta_3 = theta_{0,0},      theta_4 = theta_{0,1/2}.
    """
    tau = as_siegel(tau, g=1, ctx=ctx)
    with ctx.workprec():     # negation rounds to the current precision
        t1 = -theta_char(ThetaCharacteristic.make([_HALF], [_HALF]), z, tau, ctx)
    t2 = theta_char(ThetaCharacteristic.make([_HALF], [0]), z, tau, ctx)
    t3 = theta_char(ThetaCharacteristic.make([0], [0]), z, tau, ctx)
    t4 = theta_char(ThetaCharacteristic.make([0], [_HALF]), z, tau, ctx)
    return t1, t2, t3, t4


def theta_norm(z, tau, ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
    """||theta||(z, tau) = det(Im tau)^{1/4} e^{-pi y^T (Im tau)^{-1} y} |theta(z, tau)|.

    Principal characteristic (0, ..., 0); invariant under z -> z + m + tau n.
    """
    tau = as_siegel(tau, ctx=ctx)
    zvec = _z_vector(z, tau.g, ctx)
    val = theta_char(_zero_char(tau.g), zvec, tau, ctx)
    with ctx.workprec():
        Y = tau.imag_matrix()
        y = mp.matrix([x.imag for x in zvec])
        u = mp.lu_solve(Y, y)
        quad = mp.fsum(y[i] * u[i] for i in range(tau.g))
        return mp.det(Y) ** mpf("0.25") * mp.exp(-mp.pi * quad) * abs(val)


def modular_discriminant(tau, ctx: PrecisionContext = DEFAULT_CTX) -> mpc:
    """Delta(tau) = q prod_{n>=1} (1 - q^n)^24 with q = e^{2 i pi tau}, g = 1."""
    tau = as_siegel(tau, g=1, ctx=ctx)
    t = tau.scalar()
    if t.imag <= 0:
        raise DomainError("Im(tau) must be positive")
    if float(t.imag) < MIN_IMAG_EIGENVALUE:
        raise DomainError("Im(tau) < 0.1: Siegel-reduce tau before evaluating Delta")
    with ctx.workprec():
        q = mp.expjpi(2 * t)
        aq = abs(q)
        # tail of the log-product after M factors is < 24 |q|^{M+1} / (1-|q|)^2
        target = mpf(2) ** (-(ctx.bits + ctx.guard))
        M = 1
        while 24 * aq ** (M + 1) / (1 - aq) ** 2 > target:
            M += 1
            if M > 10 ** 6:
                raise ResourceError("Delta(tau) q-product does not truncate; reduce tau")
        prod = mpc(1)
        qn = q
        for _ in range(M):
            prod *= (1 - qn) ** 24
            qn *= q
        return +(q * prod)


def theta_nulls_halfint(tau, ctx: PrecisionContext = DEFAULT_CTX) -> dict:
    """All 4^g theta nulls theta_{a,b}(0, tau) over half-integral characteristics."""
    tau = as_siegel(tau, ctx=ctx)
    g = tau.g
    zero = [mpc(0)] * g
    out = {}
    for abits in itertools.product((Fraction(0), _HALF), repeat=g):
        for bbits in itertools.product((Fraction(0), _HALF), repeat=g):
            m = ThetaCharacteristic.make(abits, bbits)
            out[m] = theta_char(m, zero, tau, ctx)
    return out


def phi_product(tau, ctx: PrecisionContext = DEFAULT_CTX) -> mpc:
    """Product of the C(2g+1, g+1) eighth powers of theta nulls, g <= 3.

    For g = 1 this equals 2^8 Delta(tau); for g = 2 it equals J10(tau)^4.
    A null at or below ctx.tol() in absolute value makes the product vanish
    to working precision and raises DomainError (for g = 2 an even null
    vanishes exactly on the reducible locus, products of elliptic curves).
    """
    from .weierstrass import char_system

    tau = as_siegel(tau, ctx=ctx)
    chars = char_system(tau.g)
    zero = [mpc(0)] * tau.g
    with ctx.workprec():
        out = mpc(1)
        for m in chars:
            v = theta_char(m, zero, tau, ctx)
            if abs(v) <= ctx.tol():
                raise DomainError(
                    f"theta null at characteristic a={[str(x) for x in m.a]}, "
                    f"b={[str(x) for x in m.b]} vanishes to working precision "
                    f"(|theta| = {mp.nstr(abs(v), 3)}); "
                    + ("tau lies on the reducible locus" if tau.g == 2 else "phi(tau) = 0"))
            out *= v ** 8
        return +out


def j10(tau, ctx: PrecisionContext = DEFAULT_CTX) -> mpc:
    """Igusa J10: product of the squares of the 10 even theta nulls, g = 2."""
    tau = as_siegel(tau, ctx=ctx)
    if tau.g != 2:
        raise DomainError(f"J10 is defined for g=2, got g={tau.g}")
    nulls = theta_nulls_halfint(tau, ctx)
    even = [(m, v) for m, v in nulls.items() if m.parity() == 0]
    if len(even) != 10:
        raise NumericError(f"found {len(even)} even characteristics for g=2, not 10 (internal error)")
    with ctx.workprec():
        out = mpc(1)
        for _, v in even:
            out *= v * v
        return +out
