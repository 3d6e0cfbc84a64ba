"""Elliptic curves over Q: exact point arithmetic, minimal models, AGM
periods, Silverman's differential-height formula and the Chowla-Selberg
closed form.

A genus-1 WeierstrassEquation y^2 + Q(x) y = P(x) is identified with the
long Weierstrass model (a1, a2, a3, a4, a6) = (Q1, P2, Q0, P1, P0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc, mpf

from .errors import DomainError, NumericError
from .precision import DEFAULT_CTX, PrecisionContext
from .siegel import reduce_g1
from .theta_engine import SiegelMatrix, jacobi_thetas, modular_discriminant
from .weierstrass import (ModelChange, WeierstrassEquation, _factorint, _iroot, discriminant,
                          split_places)

# --- invariants ---------------------------------------------------------


def a_invariants(E: WeierstrassEquation) -> tuple:
    if E.g != 1:
        raise DomainError("a-invariants are for genus 1")
    p0, p1, p2, _ = E.P
    q0, q1 = E.Q
    return (q1, p2, q0, p1, p0)


def curve_from_a_invariants(a1, a2, a3, a4, a6) -> WeierstrassEquation:
    a1, a2, a3, a4, a6 = (Fraction(x) for x in (a1, a2, a3, a4, a6))
    return WeierstrassEquation.make(1, [a6, a4, a2, Fraction(1)], [a3, a1])


def b_invariants(E: WeierstrassEquation) -> tuple:
    a1, a2, a3, a4, a6 = a_invariants(E)
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return b2, b4, b6, b8


def c_invariants(E: WeierstrassEquation) -> tuple:
    b2, b4, b6, _ = b_invariants(E)
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    return c4, c6


def j_invariant(E: WeierstrassEquation) -> Fraction:
    c4, _ = c_invariants(E)
    return c4 ** 3 / discriminant(E)


# --- exact point arithmetic ---------------------------------------------

Point = tuple | None  # (x, y) Fractions, None = identity


def point_on_curve(E: WeierstrassEquation, P: Point) -> bool:
    if P is None:
        return True
    a1, a2, a3, a4, a6 = a_invariants(E)
    x, y = Fraction(P[0]), Fraction(P[1])
    return y * y + a1 * x * y + a3 * y == x ** 3 + a2 * x * x + a4 * x + a6


def point_neg(E: WeierstrassEquation, P: Point) -> Point:
    if P is None:
        return None
    a1, _, a3, _, _ = a_invariants(E)
    x, y = P
    return (x, -y - a1 * x - a3)


def point_add(E: WeierstrassEquation, P: Point, Q: Point) -> Point:
    if P is None:
        return Q
    if Q is None:
        return P
    a1, a2, a3, a4, a6 = a_invariants(E)
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and y1 + y2 + a1 * x2 + a3 == 0:
        return None
    if P == Q:
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
    else:
        lam = (y2 - y1) / (x2 - x1)
    nu = y1 - lam * x1
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return (x3, y3)


def point_mul(E: WeierstrassEquation, n: int, P: Point) -> Point:
    if n < 0:
        return point_mul(E, -n, point_neg(E, P))
    R: Point = None
    Qp = P
    while n:
        if n & 1:
            R = point_add(E, R, Qp)
        Qp = point_add(E, Qp, Qp)
        n >>= 1
    return R


# --- minimal models (Laska-Kraus-Connell) --------------------------------


def _kraus_ok(c4: int, c6: int) -> bool:
    """Kraus conditions: (c4, c6) with integral Delta arise from an integral
    Weierstrass model."""
    # at 3: v3(c6) != 2, i.e. not (9 | c6 and 27 does not divide c6)
    ok3 = (c6 % 9 != 0) or (c6 % 27 == 0)
    # at 2: c6 = -1 mod 4, or c4 = 0 mod 16 and c6 = 0 or 8 mod 32
    ok2 = (c6 % 4 == 3) or (c4 % 16 == 0 and c6 % 32 in (0, 8))
    return ok3 and ok2


def _valid_pair(c4: int, c6: int) -> bool:
    """True iff (c4, c6) are the invariants of some integral model."""
    return (c4 ** 3 - c6 ** 2) % 1728 == 0 and _kraus_ok(c4, c6)


def _model_from_c4c6(c4: int, c6: int) -> WeierstrassEquation:
    """Integral model with the given invariants (Kraus conditions assumed)."""
    b2 = (-c6) % 12
    if b2 > 6:
        b2 -= 12
    if (b2 * b2 - c4) % 24 != 0:
        raise NumericError("c4/c6 reconstruction failed (Kraus conditions violated?)")
    b4 = (b2 * b2 - c4) // 24
    if (-b2 ** 3 + 36 * b2 * b4 - c6) % 216 != 0:
        raise NumericError("c4/c6 reconstruction failed (Kraus conditions violated?)")
    b6 = (-b2 ** 3 + 36 * b2 * b4 - c6) // 216
    a1 = b2 % 2
    a3 = b6 % 2
    a2 = (b2 - a1) // 4
    a6 = (b6 - a3) // 4
    a4 = (b4 - a1 * a3) // 2
    E = curve_from_a_invariants(a1, a2, a3, a4, a6)
    if c_invariants(E) != (c4, c6):
        raise NumericError("c4/c6 reconstruction failed (Kraus conditions violated?)")
    return E


def _val(n: int, p: int) -> int:
    if n == 0:
        return 10 ** 9
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def minimal_model_q(E: WeierstrassEquation) -> tuple:
    """Global minimal model of E/Q and its minimal discriminant (an integer).

    Laska-Kraus-Connell: strip u = p from (c4, c6) wherever p^4 | c4 and
    p^6 | c6 allow an integral model (Kraus conditions at 2 and 3).
    """
    if E.g != 1:
        raise DomainError("minimal models implemented for genus 1 only")
    c4, c6 = c_invariants(E)
    # clear denominators: enlarge by u = 1/p per prime of the denominators
    m = 1
    for p in _factorint(math.lcm(c4.denominator, c6.denominator)):
        e = max(-(-_val(c4.denominator, p) // 4), -(-_val(c6.denominator, p) // 6))
        m *= p ** e
    c4i = int(c4 * m ** 4)
    c6i = int(c6 * m ** 6)
    # integral (c4, c6) need not admit an integral model yet; an extra
    # u = 1/3 or u = 1/2 repairs whichever of the conditions fails, and each
    # bump raises the relevant valuation past its threshold
    for _ in range(8):
        if _valid_pair(c4i, c6i):
            break
        d = c4i ** 3 - c6i ** 2
        bad3 = d % 27 != 0 or not ((c6i % 9 != 0) or (c6i % 27 == 0))
        if bad3:
            c4i *= 3 ** 4
            c6i *= 3 ** 6
        else:
            c4i *= 2 ** 4
            c6i *= 2 ** 6
    else:
        raise NumericError("could not reach an integral model (internal error)")
    # strip u = p while an integral model survives
    for p in sorted(_factorint(math.gcd(c4i, c6i))):
        while (_val(c4i, p) >= 4 and _val(c6i, p) >= 6
               and _valid_pair(c4i // p ** 4, c6i // p ** 6)):
            c4i //= p ** 4
            c6i //= p ** 6
    Emin = _model_from_c4c6(c4i, c6i)
    dmin = discriminant(Emin)
    if dmin.denominator != 1:
        raise NumericError("minimal discriminant is not an integer (internal error)")
    return Emin, int(dmin)


def model_change_q(E: WeierstrassEquation, E2: WeierstrassEquation) -> ModelChange:
    """The change x = u^2 x' + r, y = u^3 y' + s u^2 x' + t, u > 0, that carries
    E onto an isomorphic model E2, such as minimal_model_q's.

    u^12 = Delta / Delta' = (c4^3 - c6^2) / (c4'^3 - c6'^2); the a1, a2 and a3
    laws then fix s, r and t, and the a4 and a6 laws check them (Silverman,
    AEC III.1; the other sign of u composes with [-1]).  Returned as
    ModelChange.make(u, r, [t, s u^2]); models that are not isomorphic over Q
    raise DomainError.
    """
    (c4, c6), (d4, d6) = c_invariants(E), c_invariants(E2)
    ratio = (c4 ** 3 - c6 ** 2) / (d4 ** 3 - d6 ** 2)
    u = Fraction(_iroot(abs(ratio.numerator), 12), _iroot(ratio.denominator, 12))
    a1, a2, a3, a4, a6 = a_invariants(E)
    b1, b2, b3, b4, b6 = a_invariants(E2)
    s = (u * b1 - a1) / 2
    r = (u * u * b2 - a2 + s * a1 + s * s) / 3
    t = (u ** 3 * b3 - a3 - r * a1) / 2
    if (ratio <= 0 or u ** 12 != ratio
            or u ** 4 * b4 != a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t
            or u ** 6 * b6 != a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1):
        raise DomainError("the two models are not isomorphic over Q")
    return ModelChange.make(u, r, [t, s * u * u])


# --- periods via AGM -----------------------------------------------------


@dataclass(frozen=True)
class EllipticPeriodData:
    """Period lattice of the invariant differential dx/(2y + Q(x))."""

    omega1: mpc     # basis with Im(omega2/omega1) > 0, tau reduced
    omega2: mpc
    tau: SiegelMatrix
    covolume: mpf   # |Im(conj(omega1) omega2)|


def periods_agm(E: WeierstrassEquation, ctx: PrecisionContext = DEFAULT_CTX) -> EllipticPeriodData:
    """Periods of dx/(2y+Q) by AGM on the 2-torsion values; j-verified."""
    if E.g != 1:
        raise DomainError("periods_agm is genus-1 only")
    f = E.rhs_quartic_free()  # y'^2 = f(x), f monic cubic
    jE = j_invariant(E)
    with ctx.workprec(40):
        roots = mp.polyroots([mpf(1)] + [mpf(c.numerator) / c.denominator for c in f[-2::-1]],
                             maxsteps=200, extraprec=80)
        roots = sorted((mpc(r) for r in roots), key=lambda r: (-r.real, -r.imag))
        j_exact = mpf(jE.numerator) / jE.denominator
        tol = mpf(2) ** (-(ctx.bits - 16)) * max(mpf(1), abs(j_exact))
        last_err = None
        for rot in range(3):
            e1, e2, e3 = roots[rot:] + roots[:rot]
            w1 = mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e1 - e2))
            w2 = mp.mpc(0, 1) * mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e2 - e3))
            if (w2 / w1).imag < 0:
                w2 = -w2
            rep = reduce_g1(w2 / w1, ctx)
            (a, b), (c, d) = rep.gamma
            w1r = c * w2 + d * w1
            w2r = a * w2 + b * w1
            tau = rep.reduced
            # accept only if the lattice reproduces j(E) through theta nulls
            _, t2, t3, _ = jacobi_thetas(0, tau, ctx)
            lam = (t2 / t3) ** 4
            j_num = 256 * (1 - lam + lam * lam) ** 3 / (lam * lam * (1 - lam) ** 2)
            last_err = abs(j_num - j_exact)
            if last_err <= tol:
                V = abs((mp.conj(w1r) * w2r).imag)
                return EllipticPeriodData(omega1=w1r, omega2=w2r, tau=tau, covolume=V)
        raise NumericError(
            f"period lattice failed the j-invariant roundtrip (|dj| = {mp.nstr(last_err, 5)})")


# --- Faltings height (Silverman's formula) --------------------------------


def finite_places(Emin: WeierstrassEquation, dmin: int) -> tuple:
    """([(d, e, prime, s)], semistable, den j) for the minimal model Emin,
    without factoring Delta_min.

    The places are weierstrass.split_places(Delta_min): |Delta_min| = prod d^e.
    s is the d-part of den j = |Delta_min| / gcd(Delta_min, c4^3), whose ord_p
    is max(0, -ord_p j), the exponent of the stable model at p; j = 0 has
    potentially good reduction everywhere, and there den j = 1.  E/Q is
    semistable exactly when gcd(c4, Delta_min) = 1 (Silverman, AEC VII.5.1).
    """
    c4 = int(c_invariants(Emin)[0])
    den_j = abs(dmin) // math.gcd(dmin, c4 ** 3)
    # den j divides prod d^e over pairwise coprime d, so its d-part is gcd(den j, d^e)
    out = [(d, e, prime, math.gcd(den_j, d ** e)) for d, e, prime in split_places(dmin)]
    return out, math.gcd(c4, dmin) == 1, den_j


def faltings_elliptic(E: WeierstrassEquation, ctx: PrecisionContext = DEFAULT_CTX,
                      stable: bool = False):
    """Positive differential height of E/Q with its per-place breakdown.

    Default: the literal formula with the minimal discriminant over Q,
        h = (1/12)[log|D_min| - log((2 pi)^12 |Delta(tau)| (Im tau)^6)]
            + (1/2) log(2 pi^2).
    With stable=True the finite exponents are replaced by the stable-model
    exponents max(0, -ord_p(j)), so |D_min| by den j (= |D_min| exactly when E
    is semistable).  Non-semistable input draws a warning either way; the
    formula's hypotheses assume semistable reduction.  The finite places are
    those of finite_places: primes, and at most one composite block d whose
    alpha_d = (1/12) e log d (stable: (1/12) log of its part of den j) is
    never split further.  The breakdown's extras hold the reduced period
    ratio ("tau") of the minimal model.

    Returns (h, HeightBreakdown).
    """
    from .local_heights import HeightBreakdown, Place, alpha_arch

    if E.g != 1:
        raise DomainError("faltings_elliptic is genus-1 only")
    Emin, dmin = minimal_model_q(E)
    warnings = []
    if (Emin.P, Emin.Q) != (E.P, E.Q):
        warnings.append("input model was not minimal; minimized internally")
    per = periods_agm(Emin, ctx)
    places, semistable, den_j = finite_places(Emin, dmin)
    if not semistable:
        warnings.append(
            "curve is not semistable over Q; the differential-height formula assumes "
            "semistable reduction" + (" (stable exponents substituted)" if stable else ""))
    with ctx.workprec():
        # alpha_d = (1/12) log of the d-part of |D_min| (stable: of den j)
        entries = [(Place.finite(d, prime=prime),
                    {"alpha": (mp.log(s) if stable else e * mp.log(d)) / 12})
                   for d, e, prime, s in places if s > 1 or not stable]
        a_inf = alpha_arch(per.tau, ctx)
        entries.append((Place.archimedean(), {"alpha": a_inf}))
        # the literal Thm 1.1 expression, kept as an independent route from
        # the per-place alpha sum (their agreement is a test contract)
        t = per.tau.scalar()
        delta = modular_discriminant(per.tau, ctx)
        log_dmin = mp.log(den_j if stable else abs(dmin))
        h = (log_dmin - mp.log((2 * mp.pi) ** 12 * abs(delta) * t.imag ** 6)) / 12 \
            + mp.log(2 * mp.pi ** 2) / 2
        breakdown = HeightBreakdown.assemble(entries, warnings=tuple(warnings),
                                             extras={"tau": per.tau})
        return h, breakdown


# --- Chowla-Selberg -------------------------------------------------------


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a | n)."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    t = 1
    if n < 0:
        n = -n
        if a < 0:
            t = -t
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            t = -t
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def quadratic_character(D: int) -> tuple:
    """epsilon(a) = Kronecker(-D | a) for a = 1..D-1 (fundamental -D < 0)."""
    if D <= 0:
        raise DomainError("D must be positive (the discriminant is -D)")
    return tuple(kronecker_symbol(-D, a) for a in range(1, D))


def chowla_selberg(D: int, w: int, h_cl: int, eps, ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
    """(1/2)log 2pi - (1/2)log( D^{-1/2} [prod Gamma(a/D)^{eps(a)}]^{w/2h} ).

    eps is the sequence (eps(1), ..., eps(D-1)) of quadratic character values.
    """
    if D <= 0 or w <= 0 or h_cl <= 0:
        raise DomainError("D, w, h must be positive")
    eps = tuple(int(e) for e in eps)
    if len(eps) != D - 1:
        raise DomainError(f"eps must have length D-1 = {D-1}")
    if any(e not in (-1, 0, 1) for e in eps):
        raise DomainError("character values must lie in {-1, 0, 1}")
    for a in range(1, D):
        if eps[a - 1] != -eps[D - a - 1]:
            raise DomainError("character must be odd: eps(D-a) = -eps(a)")
    with ctx.workprec():
        s = mp.fsum(eps[a - 1] * mp.loggamma(mpf(a) / D) for a in range(1, D) if eps[a - 1])
        inner = -mp.log(D) / 2 + s * w / (2 * h_cl)
        return +(mp.log(2 * mp.pi) / 2 - inner / 2)
