"""Faltings heights of hyperelliptic Jacobians.

Archimedean data through the theta-null product phi (for g = 2 the same
even nulls as J10, phi = J10^4), finite data through caller-supplied
(ord_v(Delta_min), e_v) pairs with f_v = (g ord_v - (8g+4) e_v) / (8g+4) >= 0.
All genus-dependent exponents are exact rationals applied to high-precision
logarithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .errors import DomainError
from .precision import DEFAULT_CTX, PrecisionContext
from .theta_engine import SiegelMatrix, as_siegel, phi_product
from .weierstrass import WeierstrassEquation, _isprime, discriminant


@dataclass(frozen=True)
class FinitePlaceInput:
    """Finite-place data for the Jacobian height: (p, ord_p(Delta_min), e_p)."""

    p: int
    ord_delta_min: int
    e: int = 0

    def f_value(self, g: int) -> Fraction:
        if not _isprime(self.p):
            raise DomainError(f"{self.p} is not prime")
        if self.ord_delta_min < 0 or self.e < 0:
            raise DomainError("ord_p(Delta_min) and e_p must be nonnegative")
        f = Fraction(g * self.ord_delta_min - (8 * g + 4) * self.e, 8 * g + 4)
        if f < 0:
            raise DomainError(
                f"f_p = (g ord_p - (8g+4) e_p)/(8g+4) = {f} < 0 at p={self.p}; "
                "the height formula requires f_p >= 0")
        return f


def _exact_exponents(g: int) -> dict:
    """The genus-dependent rational exponents, as exact fractions."""
    l = math.comb(2 * g + 1, g + 1)
    n = math.comb(2 * g, g + 1)
    return {
        "l": l,
        "n": n,
        "inv_4l": Fraction(1, 4 * l),
        "two_exp": Fraction(-g, 4 * g + 2),        # = -2g/(8g+4)
        "covol_exp": Fraction(4 * g + 2, g),       # = 4 + 2/g
    }


def _log_arch_factor(g: int, tau: SiegelMatrix, ctx: PrecisionContext) -> mpf:
    """log( 2^{-g/(4g+2)} |phi(tau)|^{1/4l} det(Im tau)^{1/2} )."""
    ex = _exact_exponents(g)
    with ctx.workprec():
        phi = phi_product(tau, ctx)
        return (mpf(ex["two_exp"].numerator) / ex["two_exp"].denominator * mp.log(2)
                + mpf(ex["inv_4l"].numerator) / ex["inv_4l"].denominator * mp.log(abs(phi))
                + mp.log(tau.det_imag()) / 2)


def eta_norm_arch(g: int, tau, ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
    """log ||eta||_v = (8g+4) log( 2^{-g/(4g+2)} |phi|^{1/4l} det(Im tau)^{1/2} ).

    For g = 1 this equals log( 2^6 |Delta(tau)| (Im tau)^6 ).
    """
    if not 1 <= g <= 3:
        raise DomainError("eta_norm_arch supports 1 <= g <= 3")
    tau = as_siegel(tau, g=g, ctx=ctx)
    with ctx.workprec():
        return (8 * g + 4) * _log_arch_factor(g, tau, ctx)


def faltings_jacobian(g: int, finite_inputs, tau_list,
                      ctx: PrecisionContext = DEFAULT_CTX):
    """Differential height of a hyperelliptic Jacobian from local data.

    h = (1/d) [ sum_v f_v log p_v
                - sum_arch log( 2^{-2g/(8g+4)} |phi(tau_v)|^{1/4l} det(Im tau_v)^{1/2} ) ]

    with d = number of archimedean places (local degrees 1).  The archimedean
    factor comes from one table of theta nulls per tau (phi_product).  For
    g = 2 it equals 2^{-1/5} |J10|^{1/10} det^{1/2}, because phi and J10 are
    products over the same 10 even nulls (char_system(2) is the even set, an
    exact unit test), so J10 is not evaluated a second time here.

    Returns (h, HeightBreakdown).
    """
    from .local_heights import HeightBreakdown, Place

    if not 1 <= g <= 3:
        raise DomainError("faltings_jacobian supports 1 <= g <= 3")
    taus = [as_siegel(t, g=g, ctx=ctx) for t in tau_list]
    if not taus:
        raise DomainError("at least one archimedean period matrix is required")
    d = len(taus)
    warnings = []
    if all(fp.e == 0 for fp in finite_inputs) and finite_inputs:
        warnings.append(
            "all boundary intersection numbers e_p defaulted to 0; they are "
            "semistable-model data and are NOT computed here")
    with ctx.workprec():
        entries = []
        for fp in finite_inputs:
            f = fp.f_value(g)
            contrib = mpf(f.numerator) / f.denominator * mp.log(fp.p) / d
            entries.append((Place.finite(fp.p), {"f_log_p": contrib}))
        for tau in taus:
            arch = -_log_arch_factor(g, tau, ctx)
            entries.append((Place.archimedean(), {"arch": arch / d}))
        breakdown = HeightBreakdown.assemble(entries, warnings=tuple(warnings))
        return breakdown.total, breakdown


@dataclass(frozen=True)
class LockhartReport:
    lhs: mpf              # |Delta_E| V(Lambda)^{4 + 2/g}
    rhs: mpf              # 2^{4g} pi^{8g+4} (|phi| det(Im tau)^{2l})^{1/n}
    rel_err: mpf


def lockhart_invariant(E: WeierstrassEquation, ctx: PrecisionContext = DEFAULT_CTX) -> LockhartReport:
    """Model-independence identity |Delta_E| V^{4+2/g} = 2^{4g} pi^{8g+4} (...)^{1/n}.

    Genus 1 only (the covolume comes from the AGM periods); both sides are
    computed independently and compared.  The left side is the same on every
    model of the curve (Delta scales by u^-12, the covolume by u^2): compare
    lhs across apply_model_change to see it.
    """
    from .elliptic import periods_agm

    if E.g != 1:
        raise DomainError("lockhart_invariant is implemented for g = 1")
    ex = _exact_exponents(1)
    with ctx.workprec():
        per = periods_agm(E, ctx)
        dE = discriminant(E)
        co = mpf(ex["covol_exp"].numerator) / ex["covol_exp"].denominator
        lhs = (abs(mpf(dE.numerator)) / dE.denominator) * per.covolume ** co
        phi = phi_product(per.tau, ctx)
        t = per.tau.scalar()
        # n = 1 and 2l/n = 6 for g = 1
        rhs = mpf(2) ** 4 * mp.pi ** 12 * abs(phi) * t.imag ** 6
        return LockhartReport(lhs=lhs, rhs=rhs, rel_err=abs(lhs - rhs) / abs(rhs))


def bomemo_closed_form(ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
    """3 log 2pi - (1/2) log( G(1/5)^5 G(2/5)^3 G(3/5) G(4/5)^{-1} ), G = Gamma."""
    with ctx.workprec():
        s = (5 * mp.loggamma(mpf(1) / 5) + 3 * mp.loggamma(mpf(2) / 5)
             + mp.loggamma(mpf(3) / 5) - mp.loggamma(mpf(4) / 5))
        return +(3 * mp.log(2 * mp.pi) - s / 2)


def quintic_cm_period_matrix(ctx: PrecisionContext = DEFAULT_CTX) -> SiegelMatrix:
    """Period matrix of Jac(y^2 + y = x^5) in the Siegel space, g = 2.

    The curve carries the order-5 automorphism x -> zeta x, which acts on a
    homology basis of cycles around consecutive branch-point pairs; the period
    matrix collapses to exact zeta_5 arithmetic (see scripts/
    period_matrix_oracle.py for the numerical contour-integration derivation
    and cross-check).  tau = MA^{-1} MB for the symplectic basis
    A = (g0, g0+g2), B = (g1, g3), followed by a unimodular change of the
    A-basis and an integer translation that land the representative inside
    the reduction-condition battery (every quantity consumed downstream is
    Sp(4,Z)-invariant, so the representative only affects conditioning).
    """
    with ctx.workprec(20):
        z = mp.expjpi(mpf(2) / 5)
        MA = mp.matrix([[1, 1 + z ** 2], [1, 1 + z ** 4]])
        MB = mp.matrix([[z, z ** 3], [z ** 2, z ** 6]])
        T = MA ** -1 * MB
        U = mp.matrix([[-1, 0], [-1, -1]])
        M = U.T * T * U
        # Re tau_12 is exactly -1/2: rounding it half-up at a tolerance far
        # above the rounding error keeps the representative at every precision
        t12 = (M[0, 1] + M[1, 0]) / 2
        t12 -= mp.floor(t12.real + mpf(1) / 2 + ctx.tol())
        rows = [[M[0, 0] - mp.nint(M[0, 0].real), t12], [t12, M[1, 1] - mp.nint(M[1, 1].real)]]
        return as_siegel(rows, g=2, ctx=ctx)
