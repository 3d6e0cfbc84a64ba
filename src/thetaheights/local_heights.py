"""Local height decompositions in dimension 1.

Archimedean side: the telescoping mu-series built from the theta duplication
forms, the Arakelov beta term, and their combination
alpha = 2(beta - mu) = -(1/12) log(|Delta(tau)| (2 Im tau)^6).
The series sums the Jacobi thetas once, at 2z, and walks the orbit [2^n] P
on the Kummer line (X : Y) = (t3^2 : t4^2), the curve modulo -1, which is
P^1: the squared duplication quartics step the point, and the Jacobi
quadrics read t1^2 and t2^2 back from it.  The walk runs in fixed point at
the reduced tau, with 2 log2 rho + 8 extra bits for the distortion of the
Kummer coordinate, rho the spread of the squared theta nulls (about
e^{pi Im tau / 2} / 2; see _duplication_orbit).  After each doubling it
shifts the point by a power of two back to P bits and keeps the exponent, so
the telescoped series needs only the last point's norm: mu_arch_series takes
two logarithms for the whole series, log c and log ||T_N||.
mu_arch_closed evaluates the telescoped limit -log N(2z) + (1/3) log c from
direct theta sums; beta_arch reads the same N(2z), so 2(beta - mu_closed) =
alpha by algebra, and only the orbit series makes the decomposition a check.

The duplication forms are normalized (G_1 = t1 t2 t3 t4, c = |t2 t3 t4| / 2 =
|eta|^3) so that alpha matches the differential-height formula place by place.
The classical display, with G_1 = 2 t1 t2 t3 t4, doubles every quotient E, so
its mu exceeds this one by (1/3) log 2 and its alpha falls short by
(2/3) log 2.

Autissier's integral I = -int log||theta|| dmu + (1/2) log int ||theta||^2 dmu
is alpha / 2: Faltings' Green function has mean 0, so int log||theta|| dmu =
log||eta||, and int ||theta||^2 dmu = 2^{-1/2}, whence I = -log||eta|| - (1/4)
log 2 = alpha / 2 (Faltings, Ann. Math. 119, 1984, section 7; Autissier,
Compositio Math. 142, 2006).

Finite side: exact rationals, no series.  The canonical height of a rational
point sums local heights: at the archimedean place a real iteration of the
telescoping series, at each prime p an exact rational multiple of log p read
from Silverman's closed form on the minimal model (1988, Thm 5.2; see
_lambda_finite_all), carried to the integralized input model by the scale u
of the model change.  Only u and the gcd of the two partial derivatives at P
are factored; the rest of the denominator of x(P) is split into blocks
without factoring, and no discriminant is factored.  The residue
iteration of the duplication series, which the closed form replaced, is the
test suite's oracle for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp, mpc, mpf

from .errors import DomainError, OrbitCollisionError
from .precision import DEFAULT_CTX, PrecisionContext
from .siegel import reduce_g1
from .theta_engine import (MIN_IMAG_EIGENVALUE, SiegelMatrix, _fixed, _fmul, as_siegel,
                           jacobi_thetas, modular_discriminant, theta_norm)
from .weierstrass import WeierstrassEquation, _factorint, _isprime, split_places


# --- places and breakdowns ------------------------------------------------


@dataclass(frozen=True)
class Place:
    """An archimedean embedding, a finite prime, or a composite block of
    finite primes that is never split (elliptic.finite_places), with local
    degree d_v."""

    kind: str          # "arch" | "finite"
    p: int | None = None
    d_v: int = 1
    prime: bool = True  # False: p is the product d of a composite block

    @classmethod
    def archimedean(cls, d_v: int = 1) -> "Place":
        return cls(kind="arch", p=None, d_v=d_v)

    @classmethod
    def finite(cls, p: int, d_v: int = 1, prime: bool = True) -> "Place":
        if p < 2:
            raise DomainError("finite place needs a prime p >= 2")
        return cls(kind="finite", p=p, d_v=d_v, prime=prime)

    def label(self) -> str:
        if self.kind == "arch":
            return "inf"
        return f"p={self.p}" if self.prime else f"d={self.p}"


@dataclass(frozen=True)
class HeightBreakdown:
    """Per-place components and their degree-weighted sum (d = 1 over Q)."""

    entries: tuple      # ((Place, {component: mpf}), ...)
    total: mpf
    warnings: tuple = ()
    extras: dict = field(default_factory=dict)

    @classmethod
    def assemble(cls, entries, warnings=(), extras=None) -> "HeightBreakdown":
        total = mp.fsum(pl.d_v * mp.fsum(comp.values()) for pl, comp in entries)
        return cls(entries=tuple(entries), total=total, warnings=tuple(warnings),
                   extras=dict(extras or {}))


# --- archimedean mu / beta / alpha ----------------------------------------


def reduce_point_mod_lattice(z, tau, ctx: PrecisionContext = DEFAULT_CTX):
    """Representative of z modulo Z + tau Z near the origin (g = 1)."""
    tau = as_siegel(tau, g=1, ctx=ctx)
    with ctx.workprec():
        t = tau.scalar()
        z = mpc(z)
        z = z - mp.nint(z.imag / t.imag) * t
        z = z - mp.nint(z.real)
        return z


def _normalized_vector_norm(w, tau, ctx: PrecisionContext) -> mpf:
    """N(w) = e^{-pi Im(w)^2 / Im tau} * l2-norm of (t1..t4)(w, tau).

    Lattice-invariant companion of the plain coordinate norm; never vanishes
    (the four thetas have no common zero).
    """
    t = as_siegel(tau, g=1, ctx=ctx).scalar()
    ths = jacobi_thetas(w, t, ctx)
    with ctx.workprec():
        l2 = mp.sqrt(mp.fsum(x.real ** 2 + x.imag ** 2 for x in ths))
        return mp.exp(-mp.pi * mpc(w).imag ** 2 / t.imag) * l2


def _form_constant(nulls) -> mpf:
    """c = |t2 t3 t4| / 2 = |eta|^3 of the normalized duplication forms."""
    t2, t3, t4 = nulls
    return abs(t2 * t3 * t4) / 2


def _duplication_orbit(w, tau, n_terms: int, ctx: PrecisionContext) -> tuple:
    """(c, S, K, P): the orbit w, 2w, ..., 2^{n_terms} w from one theta evaluation at w.

    c is the form constant, P the fixed-point precision of the walk, and the
    point T reached after n_terms doublings of T(w), scaled to ||T(w)|| = 1,
    has ||T||^2 = S 2^(K - P), S a positive integer of about P bits and K an
    integer.

    E(w) = c ||T(2w)|| / ||T(w)||^4 is homogeneous of degree 4 over degree 4,
    so it can be read off any scaling of the projective point T = (t1:t2:t3:t4):
    the Gaussian factors e^{-pi Im(w)^2/Im tau} of the lattice-invariant norm
    cancel, and the orbit needs neither lattice reduction nor a further theta
    sum.  E is also SL2(Z)-invariant when w moves with tau as w / (c tau + d):
    the thetas permute, and c = |eta|^3 and N pick up matching powers of
    |c tau + d|.

    The orbit runs on the Kummer line (X : Y) = (t3^2 : t4^2), which is P^1
    (Gaudry, Fast genus 2 arithmetic based on Theta functions, J. Math.
    Cryptol. 1, 2007).  With n_i the nulls, the Jacobi quadrics, folded by
    Jacobi's identity n3^4 = n2^4 + n4^4, read the other two squares back as
    linear forms,

        t1^2 = (n3^2 Y - n4^2 X) / n2^2,   t2^2 = (n3^2 X - n4^2 Y) / n2^2,

    so ||T||^2 = |t1^2| + |t2^2| + |X| + |Y|, and the duplication quartics
    t3(2w) n3^3 = t3^4 + t1^4, t4(2w) n4^3 = t4^4 - t1^4 square to

        X' = ((X^2 + t1^4) / n3^3)^2,      Y' = ((Y^2 - t1^4) / n4^3)^2.

    Every point of P^1 is a point of the curve, so rounding cannot push the
    orbit off it.  The walk runs in fixed point, Python integers in units of
    2^-P as in theta_engine._walk (see _kummer_step).  After each doubling it
    shifts X and Y by k_n bits (right if k_n > 0), so that the largest of
    their four integers has P bits, and keeps the exact scale as
    K <- 4 K + k_n: the quartics are homogeneous of degree 4, so a scale 2^K
    on the squares before a step is 2^{4K} after it.

    Precision.  After the shift the largest of the four integers lies in
    [2^(P-1), 2^P], so a rounding of half a unit, in one of the nine products
    of a step or in the shift, errs by at most 2^-P relative to max(|X|, |Y|).
    Such a relative error d moves w by up to D d, D the largest |dw/dx| of
    the Kummer coordinate.  The doublings carry that to 2^{n-k} D d at step
    n, where log E changes by a bounded multiple of it under the weight
    4^{-n-1}: an error made at step k costs O(4^{-k} D d) of the sum, so the
    first steps dominate.  D grows like rho^2, rho = ||n||^2 / min |n_i|^2
    the spread of the squared nulls, and rho also bounds the read-back, whose
    division by n2^2 cancels leading digits.  On the fundamental domain n2 is
    a smallest null and log2 rho <= pi Im tau / (2 log 2) (rho is about
    e^{pi Im tau / 2} / 2), so the sum loses about 2 log2 rho bits, that is
    pi Im tau / log 2.  Measured with no extra bits and no guard, at 128 and
    256 bits: 2 log2 rho - 10 lost at Im tau = 20, and up to 2 log2 rho - 0.6
    near Im tau = 1, where the per-step rounding dominates.  Off the
    fundamental domain (t3^2 : t4^2) is worse conditioned (near the cusp 0
    the divisions by n4 lose over 3 log2 rho), which is why the orbit runs
    at the reduced tau.
    The nulls, the thetas at w and the walk all run at
    P = bits + guard + 2 ceil(pi Im tau / (2 log 2)) + 8, Im tau reduced.
    The caller's tau must still clear the Im tau >= 0.1 floor of the theta
    sums.
    """
    tau = as_siegel(tau, g=1, ctx=ctx)
    if tau.min_imag_eigenvalue() < MIN_IMAG_EIGENVALUE:
        # the refusal floor of every theta sum, applied to the caller's tau
        raise DomainError(f"Im(tau) < {MIN_IMAG_EIGENVALUE}: Siegel-reduce tau first")
    red = reduce_g1(tau, ctx)
    extra = 2 * math.ceil(math.pi * float(red.reduced.scalar().imag) / (2 * math.log(2))) + 8
    hi = ctx.higher(extra)
    prec = hi.working_bits
    (ga, gb), (gc, gd) = red.gamma
    with hi.workprec():
        t = tau.scalar()
        j = gc * t + gd
        tau = SiegelMatrix.from_scalar((ga * t + gb) / j, hi)
        w = mpc(w) / j
    nulls = jacobi_thetas(0, tau, hi)[1:]
    ths = jacobi_thetas(reduce_point_mod_lattice(w, tau, hi), tau, hi)
    with hi.workprec():
        form = _form_constant(nulls)
        s2, s3, s4 = (v * v for v in nulls)
        line = tuple(_fixed(v, prec) for v in (s3 / s2, s4 / s2, 1 / s3 ** 3, 1 / s4 ** 3))
        pts = [v * v for v in ths]
        size = mp.fsum(abs(v) for v in pts)
        A, _, X, Y = (_fixed(v / size, prec) for v in pts)       # t1^2, t2^2, t3^2, t4^2
    K = 0
    for _ in range(n_terms):
        X, Y, A, k = _kummer_step(X, Y, A, line, prec)
        K = 4 * K + k
    u, v = _fmul(line[0], X, prec), _fmul(line[1], Y, prec)
    B = u[0] - v[0], u[1] - v[1]                                 # t2^2
    S = sum(math.isqrt(v[0] * v[0] + v[1] * v[1]) for v in (A, B, X, Y))
    return form, S, K, prec


def _kummer_step(X, Y, A, line, prec: int) -> tuple:
    """(X', Y', A', k): the Kummer point (X : Y) = (t3^2 : t4^2) and A = t1^2
    at w stepped to 2w and scaled by 2^-k.

    Fixed point in units of 2^-prec, line = (n3^2/n2^2, n4^2/n2^2, 1/n3^6,
    1/n4^6).  The squared quartics X' = ((X^2 + A^2) / n3^3)^2 and
    Y' = ((Y^2 - A^2) / n4^3)^2, homogeneous of degree 4, are shifted by k
    bits, rounded, so that the largest of their four integers has prec bits;
    then A' = (n3^2 Y' - n4^2 X') / n2^2 on the same scale.  Nine products.
    """
    r32, r42, i3, i4 = line
    p = _fmul(A, A, prec)
    x2, y2 = _fmul(X, X, prec), _fmul(Y, Y, prec)
    u = x2[0] + p[0], x2[1] + p[1]
    v = y2[0] - p[0], y2[1] - p[1]
    (a, b), (c, d) = _fmul(i3, _fmul(u, u, prec), prec), _fmul(i4, _fmul(v, v, prec), prec)
    k = max(a.bit_length(), b.bit_length(), c.bit_length(), d.bit_length()) - prec
    if k > 0:
        h = 1 << (k - 1)
        X, Y = ((a + h) >> k, (b + h) >> k), ((c + h) >> k, (d + h) >> k)
    else:
        X, Y = (a << -k, b << -k), (c << -k, d << -k)
    u, v = _fmul(r32, Y, prec), _fmul(r42, X, prec)
    return X, Y, (u[0] - v[0], u[1] - v[1]), k


def prop_envelope(tau, ctx: PrecisionContext = DEFAULT_CTX) -> tuple:
    """Loose uniform bounds (lower, upper) for the classical quotient E.

    Shape of the uniform telescoping-series bound (genus 1, archimedean
    place, delta_v = 1): |2| e^{-log 4 - 3 log R} <= E <= |1/2| e^{log 4
    + 3 log R}.  The coordinate norm R of the full level-16 null point is
    degree-4-free here, so it is proxied by the larger of the 4-null norm
    and its inverse-coordinate norm, which captures how the nulls degenerate
    as Im(tau) grows; the constants are inherited untouched and the envelope
    is deliberately loose (see the module notes).
    """
    tau = as_siegel(tau, g=1, ctx=ctx)
    ths = jacobi_thetas(0, tau.scalar(), ctx)
    with ctx.workprec():
        norm0 = mp.sqrt(mp.fsum(abs(x) ** 2 for x in ths))
        inv = [1 / abs(x) for x in ths if abs(x) > ctx.eps()]
        norm_inv = mp.sqrt(mp.fsum(v ** 2 for v in inv))
        R = max(norm0, norm_inv)
        lower = 2 * mp.exp(-mp.log(4) - 3 * mp.log(R))
        upper = mpf(1) / 2 * mp.exp(mp.log(4) + 3 * mp.log(R))
        return lower, upper


def mu_tail_bound(tau, n_terms: int, ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
    """Bound on the mu-series tail after n_terms, from the uniform envelope."""
    lower, upper = prop_envelope(tau, ctx)
    with ctx.workprec():
        B = max(abs(mp.log(lower)), abs(mp.log(upper))) + mp.log(2)
        return mpf(4) ** (-n_terms) * B / 3


def mu_arch_series(z, tau, n_terms: int | None = None,
                   ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
    """Partial sum of mu(P) = sum 4^{-n-1} log E([2^n] P), with two logarithms.

    n_terms defaults to (bits + 24) // 2: 4^-n_terms <= 2^-(bits+23) puts
    mu_tail_bound below 1e-5 2^-bits for Im tau up to 200 at 64-256 bits.

    The terms are E_n = c ||T_{n+1}|| / ||T_n||^4 along the orbit T_n of the
    duplication quartics from ||T_0|| = 1 (see _duplication_orbit), so over
    the N terms the sum telescopes:

        sum_{n<N} 4^{-n-1} log E_n = ((1 - 4^-N) / 3) log c + 4^-N log ||T_N||
                                   = ((1 - 4^-N) / 3) log c
                                     + (1/2) 4^-N (log S + (K - P) log 2),

    with ||T_N||^2 = S 2^(K - P) from the walk.  Error: the scale K is an
    exact integer, and 4^-N (K - P) is split exactly into an integer and a
    remainder over 4^N.  Each step's rounding enters the sum as it would
    enter the quotient E_n of the rounded points.  S >= 2^(P-1) is a sum of
    four isqrt, below its value by less than 4, so (1/2) 4^-N log S errs by
    less than 2^(2-P).  The logarithms are taken at P + ceil(log2 P) bits,
    log 2 included, so that the exponent term, up to about P in size, keeps
    its absolute error near 2^-P as well.  The sum thus errs by a few 2^-P
    beyond the walk's own rounding, far below the 2^-(bits+guard) of the
    result's final rounding.
    """
    if n_terms is None:
        n_terms = (ctx.bits + 24) // 2
    with ctx.workprec():
        c, S, K, prec = _duplication_orbit(2 * mpc(z), tau, n_terms, ctx)
    quo, rem = divmod(K - prec, 4 ** n_terms)   # 4^-N (K - P) = quo + rem 4^-N, exactly
    with mp.workprec(prec + math.ceil(math.log2(prec))):
        scale = mp.ldexp(1, -2 * n_terms)
        total = ((1 - scale) / 3 * mp.log(c)
                 + (scale * mp.log(S) + (quo + mp.ldexp(rem, -2 * n_terms)) * mp.ln2) / 2)
    with ctx.workprec():
        return +total


def mu_arch_closed(z, tau, ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
    """Closed form of the mu-series: (1/3) log c - log N(2z).

    c = |t2 t3 t4| / 2 is the duplication-form constant and N the
    lattice-invariant l2-norm of the four theta coordinates.
    beta_arch reads the same N(2z), so 2(beta - mu_closed) = alpha holds by
    algebra whatever the theta sums return; only mu_arch_series, which walks
    the orbit, makes the decomposition a real check.
    """
    tau = as_siegel(tau, g=1, ctx=ctx)
    nulls = jacobi_thetas(0, tau, ctx)[1:]
    with ctx.workprec():
        c = _form_constant(nulls)
        w = reduce_point_mod_lattice(2 * mpc(z), tau, ctx)
        return mp.log(c) / 3 - mp.log(_normalized_vector_norm(w, tau, ctx))


def beta_arch(z, tau, r: int = 2, ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
    """beta(P) = -(1/2) log( 2^{1/2} sum_{e in Z_r} ||theta||^2 (r z + e, tau) ).

    The sum runs over the r^2 torsion representatives (j + k tau)/r.  At
    r = 2 the half-period shifts of theta_3 are the four Jacobi thetas at
    w = 2z, up to Gaussian factors that combine into one, so
    beta = -(1/2) log(2^{1/2} (Im tau)^{1/2} N(w)^2) from a single
    jacobi_thetas call, N as in mu_arch_closed, which reads the same N(2z):
    2(beta - mu_closed) = alpha holds by algebra.  r = 4 sums theta_norm over
    the sixteen quarter-period shifts.
    """
    if r not in (2, 4):
        raise DomainError("r must be 2 or 4")
    tau = as_siegel(tau, g=1, ctx=ctx)
    with ctx.workprec():
        t = tau.scalar()
        if r == 2:
            w = reduce_point_mod_lattice(2 * mpc(z), tau, ctx)
            return -mp.log(mp.sqrt(2 * t.imag) * _normalized_vector_norm(w, tau, ctx) ** 2) / 2
        base = 4 * reduce_point_mod_lattice(mpc(z), tau, ctx)
        tot = mp.fsum(theta_norm(base + (mpf(j) + mpf(k) * t) / 4, tau, ctx) ** 2
                      for j in range(4) for k in range(4))
        return -mp.log(mp.sqrt(2) * tot) / 2


def alpha_arch(tau, ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
    """alpha = -(1/12) log(|Delta(tau)| (2 Im tau)^6) at the archimedean place.

    SL2(Z)-invariant; evaluated on the reduced representative for
    conditioning.
    """
    tau = as_siegel(tau, g=1, ctx=ctx)
    red = reduce_g1(tau, ctx).reduced
    with ctx.workprec():
        t = red.scalar()
        return -(mp.log(abs(modular_discriminant(red, ctx))) + 6 * mp.log(2 * t.imag)) / 12


def alpha_finite(delta_min, p: int, ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
    """alpha_p = (1/12) ord_p(Delta_min) log p; zero at good-reduction primes.

    A Delta_min of non-integral value is refused, not truncated.
    """
    if not _isprime(p):
        raise DomainError(f"{p} is not prime")
    if not isinstance(delta_min, (int, float, Fraction, mpf)) or delta_min % 1:
        raise DomainError(f"Delta_min must be an integer, got {delta_min!r}")
    d = int(delta_min)
    if d == 0:
        raise DomainError("Delta_min must be nonzero")
    e = 0
    while d % p == 0:
        d //= p
        e += 1
    with ctx.workprec():
        return e * mp.log(p) / 12 if e else mpf(0)


# --- canonical heights over Q ----------------------------------------------


def _duplication_polys(E: WeierstrassEquation) -> tuple:
    from .elliptic import b_invariants

    b2, b4, b6, b8 = b_invariants(E)
    phi = (Fraction(1), Fraction(0), -b4, -2 * b6, -b8)     # x^4 first
    psi = (Fraction(4), b2, 2 * b4, b6)                     # x^3 first
    return phi, psi


def _integralize(E: WeierstrassEquation, P) -> tuple:
    """Integral model (u = 1/m) and the transported point."""
    from .elliptic import a_invariants, curve_from_a_invariants

    a = a_invariants(E)
    m = math.lcm(*(ai.denominator for ai in a))
    a_new = [ai * Fraction(m) ** i for i, ai in zip((1, 2, 3, 4, 6), a)]
    E_int = curve_from_a_invariants(*a_new)
    x, y = Fraction(P[0]), Fraction(P[1])
    return E_int, (x * m * m, y * m ** 3)


def _orbit_collision_check(E: WeierstrassEquation, P) -> None:
    """Refuse P if its duplication orbit reaches O, that is if P has 2-power
    order.  By Mazur's theorem a rational point of 2-power order has order at
    most 8, so [2]P, [4]P and [8]P decide it."""
    from .elliptic import point_add

    Q = P
    for n in range(1, 4):
        Q = point_add(E, Q, Q)
        if Q is None:
            raise OrbitCollisionError(
                f"[2^{n}]P is the identity: the duplication orbit meets the divisor "
                "(point has even torsion order)")


def _lambda_arch(E: WeierstrassEquation, x0: Fraction, ctx: PrecisionContext) -> mpf:
    phi, psi = _duplication_polys(E)
    with ctx.workprec(64):
        phiC = [mpf(c.numerator) / c.denominator for c in phi]
        psiC = [mpf(c.numerator) / c.denominator for c in psi]
        B = mp.log(4 + mp.fsum(abs(c) for c in phiC) + mp.fsum(abs(c) for c in psiC)) + 2
        n_terms = int((ctx.bits + 16 + math.log2(float(B))) // 2) + 2
        x = mpf(x0.numerator) / x0.denominator
        lam = mp.log(max(abs(x), mpf(1)))
        for n in range(n_terms):
            num = mp.polyval(phiC, x)
            den = mp.polyval(psiC, x)
            m4 = max(abs(x), mpf(1)) ** 4
            E_v = max(abs(num), abs(den)) / m4
            lam += mp.log(E_v) / mpf(4) ** (n + 1)
            if den == 0:
                raise OrbitCollisionError("orbit hit a 2-torsion point at the real place")
            x = num / den
        return lam


def _ord(q: Fraction, p: int) -> int:
    """ord_p of a rational; a huge value at 0."""
    from .elliptic import _val

    return _val(q.numerator, p) - _val(q.denominator, p)


def _lambda_finite_all(E_int: WeierstrassEquation, P_int) -> dict:
    """{p: (c_p, case, prime)} with lambda_hat_p = c_p log p on the integral
    model E_int, c_p a nonzero rational, by Silverman's closed form.

    On the minimal model, with N = ord_p Delta_min, A and B the ord_p of the
    two partial derivatives 3x^2 + 2a2 x + a4 - a1 y and psi2 = 2y + a1 x + a3
    at P, and C = ord_p psi3(P) (J. H. Silverman, Computing heights on elliptic
    curves, Math. Comp. 51, 1988, Thm 5.2; Cremona, Algorithms, section 3.4):

        case 0, A <= 0 or B <= 0 (P meets the smooth part): L = max(0, -ord x);
        case 1, ord c4 = 0 (multiplicative): M = min(B, N/2), L = M(M - N)/N;
        case 2, C >= 3B: L = -2B/3;
        case 3, otherwise: L = -C/4.

    On E_int, with Delta_int = u^12 Delta_min, c_p = L - 2 ord_p u.  L is
    nonzero only at a prime of den x, or where P meets the singular point,
    that is where p divides g, the gcd of the two partial derivatives; c_p
    differs from L only at the primes of u.  At a prime of den x the
    derivatives have no common factor, so A <= 0 or B <= 0 and p does not
    divide g: there c_p = ord_p den x unless p divides u.  So only u and g are
    factored, never a discriminant nor den x (J. H. Silverman, Computing
    canonical heights with little (or no) factorization, Math. Comp. 66,
    1997).  The part d of den x prime to u goes to weierstrass.split_places,
    and each of its blocks d_i^e, prime or not, is one place with c = e:
    sum_{p | d_i} ord_p(den x) log p = e log d_i.  prime is False on a
    composite block, whose key is d_i.
    """
    from .elliptic import a_invariants, b_invariants, c_invariants, minimal_model_q, model_change_q

    Emin, dmin = minimal_model_q(E_int)
    change = model_change_q(E_int, Emin)
    x = (P_int[0] - change.s) / change.u ** 2
    y = (P_int[1] - change.t[0] - change.t[1] * x) / change.u ** 3
    a1, a2, a3, a4, _ = a_invariants(Emin)
    b2, b4, b6, b8 = b_invariants(Emin)
    c4, _ = c_invariants(Emin)
    fx = 3 * x * x + 2 * a2 * x + a4 - a1 * y
    psi2 = 2 * y + a1 * x + a3
    g = math.gcd(fx.numerator, psi2.numerator)
    u, d = change.u.numerator, x.denominator
    while (k := math.gcd(d, u)) > 1:
        d //= k
    out = {b: (Fraction(e), 0, prime) for b, e, prime in split_places(d)}
    primes = set()
    for n in (u, g):
        if n > 1:
            primes |= set(_factorint(n))
    for p in sorted(primes):
        A, B = _ord(fx, p), _ord(psi2, p)
        if A <= 0 or B <= 0:
            L, case = Fraction(max(0, -_ord(x, p))), 0
        elif _ord(c4, p) == 0:
            N = _ord(Fraction(dmin), p)
            M = min(Fraction(B), Fraction(N, 2))
            L, case = M * (M - N) / N, 1
        else:
            C = _ord(3 * x ** 4 + b2 * x ** 3 + 3 * b4 * x * x + 3 * b6 * x + b8, p)
            L, case = (Fraction(-2 * B, 3), 2) if C >= 3 * B else (Fraction(-C, 4), 3)
        c = L - 2 * _ord(change.u, p)
        if c:
            out[p] = (c, case, True)
    return dict(sorted(out.items()))


def canonical_height_q(E: WeierstrassEquation, P, ctx: PrecisionContext = DEFAULT_CTX):
    """Neron-Tate height of a rational point, relative to the divisor 2(O).

    hhat = lim h_x([2^n] P) / 4^n, assembled place by place from local heights
    normalized by lambda([2]P) = 4 lambda(P) + v(psi(P)); hhat(2P) = 4 hhat(P).
    The conversions hhat_(O) = hhat/2 and hhat_{16 Theta} = 8 hhat are reported
    in the breakdown extras.

    Returns (hhat, HeightBreakdown).  Points whose duplication orbit meets the
    identity (even torsion order) raise OrbitCollisionError.
    """
    from .elliptic import point_on_curve

    if E.g != 1:
        raise DomainError("canonical_height_q is genus-1 only")
    if P is None:
        raise OrbitCollisionError("the identity lies on the divisor 2(O)")
    E_int, P_int = _integralize(E, P)
    if not point_on_curve(E_int, P_int):
        raise DomainError("point is not on the curve")
    _orbit_collision_check(E_int, P_int)
    with ctx.workprec():
        lam_inf = _lambda_arch(E_int, P_int[0], ctx)
        entries = [(Place.finite(p, prime=prime),
                    {"lambda_hat": c.numerator * mp.log(p) / c.denominator})
                   for p, (c, _, prime) in _lambda_finite_all(E_int, P_int).items()]
        entries.append((Place.archimedean(), {"lambda_hat": lam_inf}))
        h = mp.fsum(v for _, comp in entries for v in comp.values())
        extras = {"divisor_O": h / 2, "theta16": 8 * h,
                  "model": "integralized input model"}
        return h, HeightBreakdown.assemble(entries, extras=extras)


# --- Autissier's archimedean integral ---------------------------------------


@dataclass(frozen=True)
class AutissierResult:
    value: mpf


def autissier_integral(tau, grid_n=None, ctx: PrecisionContext = DEFAULT_CTX) -> AutissierResult:
    """I(tau) = -int log||s|| dmu + (1/2) log int ||s||^2 dmu on C/(Z + tau Z).

    I = alpha_arch(tau) / 2, certified to 2^-bits.  I is nonnegative (Jensen)
    and invariant under scaling the section.  grid_n is ignored: it keeps
    the positional slot of the former grid quadrature, which the benchmark
    workload (perfbench/workloads.py) still passes.
    """
    with ctx.workprec():
        return AutissierResult(value=alpha_arch(tau, ctx) / 2)
