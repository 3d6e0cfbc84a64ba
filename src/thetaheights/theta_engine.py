"""Theta series with characteristics and the classical forms built from them.

Conventions. The basic series is

    theta_{a,b}(z, tau) = sum_{n in Z^g} exp(i pi (n+a)^T tau (n+a)
                                             + 2 i pi (n+a)^T (z+b)),

summed over the box ||n||_inf <= N with N chosen so the Gaussian tail is
below 2^-(bits+guard).  The Jacobi thetas use the nome q = e^{i pi tau}
(Whittaker-Watson), the modular discriminant uses q = e^{2 i pi tau}; the
two are tied together by the identity phi(tau) = 2^8 Delta(tau) exercised
in the test suite.  Delta is not a theta sum: it is q s^24, s = prod (1 - q^n)
summed by Euler's pentagonal series (see modular_discriminant).

One lattice walker (_walk) evaluates every box sum.  Along the last axis
the exponent is quadratic in the step index, so each term is the previous
one times a ratio, and the ratio changes by the constant factor
e^{2 pi i h^2 tau_gg} (h the step): two multiplications per lattice point
and two exponentials per row, following the lattice-sum treatment of
Deconinck, Heil, Bobenko, van Hoeij and Schmies, Computing Riemann theta
functions, Math. Comp. 73 (2004).  The walk runs in fixed point (Python
integers in units of 2^-prec) from the largest term of each row outwards,
so every ratio has modulus at most 1, sums are exact and the terms that
round to 0 end the row: the box is cut down to the ellipsoid that matters.
theta_char walks n + a with h = 1 into a single bin.  _halfint_table walks
u = k/2 once with h = 1/2 and bins the terms by k mod 4: k mod 2 fixes a in
{0, 1/2}^g and the b phase is i^{k.2b}, so one pass yields all 4^g
half-integral values at (z, tau), keyed by characteristics built once per g
(_halfint_chars); jacobi_thetas, theta_nulls_halfint, phi_product and j10
read that table.  At z = 0 on a box symmetric about
u = 0 (every null table, and theta_char at the zero characteristic) the
summand is even in u, so the row at -u is the row at u read backwards: the
walk evaluates only the rows whose prefix is at least its mirror and adds
each one's integer sums a second time into the mirror's bins.  That halves
the work for g >= 2 and keeps the error bound below, which holds row by row.

Guard bits.  The box radius is certified at the worst characteristic of the
sum (||a|| = sqrt(g)/2 for the table).  The walk runs at bits + guard plus
extra = pi |Im z|^2 / lambda_min / log 2 + 8 bits for the size M of the
largest term (M + 1 <= 2^(extra-6)), plus (g + 2) ceil(log2 length) + 2 bits
for the recurrence: it errs by less than 6 (M + 1) length^(g+2) units
(derived at _walk), so its rounding stays below 2^-(bits+guard+4).  Results are rounded to
bits + guard + extra, which keeps that absolute error for values above 1.
tau and z are rounded to bits + guard on the way in, and the bound holds
for the rounded inputs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from mpmath import mp, mpc, mpf
from mpmath.libmp import to_fixed

from .errors import DomainError, ResourceError
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
        if not all(mp.isfinite(x.real) and mp.isfinite(x.imag) for row in ent for x in row):
            raise DomainError("tau must be finite")
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
            # Im(tau) > 0: elimination pivots are ratios of leading minors
            Y = [[x.imag for x in row] for row in self.entries]
            for k in range(self.g):
                if Y[k][k] <= 0:
                    raise DomainError("Im(tau) is not positive definite")
                for i in range(k + 1, self.g):
                    f = Y[i][k] / Y[k][k]
                    Y[i] = [y - f * v for y, v in zip(Y[i], Y[k])]

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
        """Least eigenvalue of Im(tau) at 53 bits (a float, not certified)."""
        with mp.workprec(53):
            return float(min(mp.eigsy(self.imag_matrix(), eigvals_only=True)))


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
    # coerce at the working precision: z may carry more bits than the
    # caller's global mpmath precision
    with ctx.workprec():
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
                f"theta truncation radius {N} exceeds the cap of {ctx.max_radius} per axis: "
                "Im z is too far from the lattice cell of tau, or the precision too high; "
                "reduce z modulo Z^g + tau Z^g and Siegel-reduce tau first")
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


def _box(zvec, tau: SiegelMatrix, a_norm: float, ctx: PrecisionContext,
         radius_margin: int = 0) -> tuple:
    """(N, extra): certified radius of the box ||n||_inf <= N for characteristics
    with ||a|| <= a_norm, and the bits spent on the size of the largest term."""
    lam = tau.min_imag_eigenvalue()
    if lam < MIN_IMAG_EIGENVALUE:
        raise DomainError(
            f"Im(tau) has least eigenvalue {lam:.3g} < {MIN_IMAG_EIGENVALUE}; "
            "Siegel-reduce tau before evaluating theta series")
    t = math.sqrt(sum(float(z.imag) ** 2 for z in zvec))
    target_log = -(ctx.bits + ctx.guard) * math.log(2)
    N = _truncation_radius(tau.g, lam, t, a_norm, target_log, ctx) + radius_margin
    # the largest term can exceed 1; spend extra bits so the *absolute* error
    # of the working-precision summation still meets the target
    extra = max(0, int(math.pi * t * t / lam / math.log(2)) + 8)
    if extra > 8 * ctx.bits + 64:
        raise ResourceError("z too far from the real torus for the precision budget")
    return N, extra


def _chain_bits(g: int, length: int) -> int:
    """Bits covering the rounding of _walk: it errs by less than
    6 (M + 1) length^(g+2) units, M the largest term (see _walk)."""
    return (g + 2) * math.ceil(math.log2(length)) + 2


def _fixed(x: mpc, prec: int) -> tuple:
    return to_fixed(x.real._mpf_, prec), to_fixed(x.imag._mpf_, prec)


def _fmul(x: tuple, y: tuple, prec: int) -> tuple:
    """Product of two fixed-point complex numbers, rounded to the nearest unit."""
    half = 1 << (prec - 1)
    return ((x[0] * y[0] - x[1] * y[1] + half) >> prec,
            (x[0] * y[1] + x[1] * y[0] + half) >> prec)


def _walk(zvec, tau: SiegelMatrix, starts, step, length: int, nbins: int, prec: int) -> list:
    """Sum e^{pi i (u^T tau u + 2 u^T z)} over u_i = starts[i] + step j_i, 0 <= j_i < length.

    Returns nbins^g partial sums as (re, im) integers in units of 2^-prec:
    bin sum_i (j_i mod nbins) nbins^(g-1-i) holds the terms with those
    residues of j.  Along the last axis the exponent E is quadratic in j, so
    each term is the previous one times a ratio, and the ratio changes by the
    constant factor q = e^{2 pi i step^2 tau_gg}: two multiplications per
    point, one exponential for the row's term and one for its ratio.

    Each row starts at its largest term and walks outwards both ways, so
    every ratio has modulus at most 1; a direction ends where its term
    rounds to 0, and a row whose largest term is below one unit / length is
    skipped.  Error, in units, with M the largest term in units of 1: the
    row's exponentials are formed with the bits of their largest argument
    (and the term with the bits of its size) on top, so a ratio enters
    within 3 units and the term within M + 2.  Sums of integers are exact
    and a product errs by at most half a unit, so the ratio after i steps is
    off by at most 3 (i + 1) and the term after j steps by 2 (M + 1)(j + 1)^2;
    a term computed as 0 bounds each term the direction leaves out.  A row
    thus errs by less than 6 (M + 1) length^3 and the walk by less than
    6 (M + 1) length^(g+2).

    When every z_i is 0 and the box is symmetric, 2 starts[i] + step
    (length - 1) = 0, the summand is even in u, so the row at the mirror
    prefix length - 1 - j holds this row's terms in reverse order.  Only
    prefixes lexicographically at least their mirror are walked; each walked
    row's integer sums go a second time into the mirror's bins, residue r to
    (length - 1 - r) mod nbins.  The mirror row then errs exactly as the
    walked row does, so the bound above is unchanged.  g = 1 has one row,
    its own mirror.
    """
    g = tau.g
    T = tau.entries
    h = mpf(step)
    tgg = T[g - 1][g - 1]
    # the cross terms u_i tau_ig u_g count both triangles, as the quadratic form does
    tcol = [(T[i][g - 1] + T[g - 1][i]) / 2 for i in range(g - 1)]
    # the prefix axes' coordinates; a row uses one point of the last axis
    us = [[mpf(s) + h * j for j in range(length)] for s in starts[:-1]]
    last = mpf(starts[-1])
    wp = mp.prec
    umax = max(abs(float(s)) for s in starts) + float(h) * length
    arg = math.pi * umax * (umax * sum(abs(complex(x)) for row in T for x in row)
                            + 2 * sum(abs(complex(x)) for x in zvec))
    row_prec = prec + math.ceil(math.log2(arg + 2))
    with mp.workprec(row_prec):
        q = mp.expjpi(2 * h * h * tgg)
    qr, qi = _fixed(q, prec)
    half = 1 << (prec - 1)
    bins_re = [0] * nbins ** g
    bins_im = [0] * nbins ** g
    # z = 0 on a box symmetric about u = 0: the summand is even in u
    even = all(x == 0 for x in zvec) and all(2 * s + h * (length - 1) == 0 for s in starts)
    for prefix in itertools.product(range(length), repeat=g - 1):
        mirror = tuple(length - 1 - j for j in prefix)
        if even and prefix < mirror:
            continue
        with mp.workprec(row_prec):
            u = [us[i][j] for i, j in enumerate(prefix)]
            lin = mp.fsum(tcol[i] * u[i] for i in range(g - 1)) + zvec[g - 1]
            const = (mp.fsum(u[i] * T[i][j] * u[j] for i in range(g - 1) for j in range(g - 1))
                     + 2 * mp.fsum(u[i] * zvec[i] for i in range(g - 1)))
            # |e^{pi i E(v)}| peaks at v* = -Im(lin) / Im(tau_gg); start at the nearest point
            jp = int(mp.nint((-lin.imag / tgg.imag - last) / h))
            jp = min(max(jp, 0), length - 1)
            v = mp.fadd(last, mp.fmul(h, jp, prec=wp), prec=wp)
            E = const + v * (tgg * v + 2 * lin)
            top = -math.pi * float(E.imag) / math.log(2)     # log2 of the largest term
            if top + math.log2(length) < -prec:
                continue
            fwd = mp.expjpi(h * (tgg * (2 * v + h) + 2 * lin))    # e^{pi i (E(v+h) - E(v))}
            bwd = q / fwd                                         # e^{pi i (E(v-h) - E(v))}
            with mp.workprec(row_prec + max(0, math.ceil(top))):
                term = mp.expjpi(E)
        term, fwd, bwd = _fixed(term, prec), _fixed(fwd, prec), _fixed(bwd, prec)
        acc_re = [0] * nbins
        acc_im = [0] * nbins
        for j, dj, (xr, xi), (rr, ri) in ((jp, 1, term, fwd),
                                          (jp - 1, -1, _fmul(term, bwd, prec),
                                           _fmul(bwd, (qr, qi), prec))):
            while 0 <= j < length and (xr or xi):
                k = j % nbins
                acc_re[k] += xr
                acc_im[k] += xi
                xr, xi = (xr * rr - xi * ri + half) >> prec, (xr * ri + xi * rr + half) >> prec
                rr, ri = (rr * qr - ri * qi + half) >> prec, (rr * qi + ri * qr + half) >> prec
                j += dj
        rows = [(prefix, range(nbins))]
        if even and mirror != prefix:
            # the mirror row holds the same integers, residue r at (length - 1 - r) mod nbins
            rows.append((mirror, [(length - 1 - r) % nbins for r in range(nbins)]))
        for pre, dest in rows:
            base = 0
            for j in pre:
                base = base * nbins + j % nbins
            base *= nbins
            for r, d in enumerate(dest):
                bins_re[base + d] += acc_re[r]
                bins_im[base + d] += acc_im[r]
    return list(zip(bins_re, bins_im))


def _from_fixed(re: int, im: int, prec: int) -> mpc:
    """re + i im in units of 2^-prec, rounded once to the current precision."""
    return mpc(mp.ldexp(re, -prec), mp.ldexp(im, -prec))


def theta_char(m: ThetaCharacteristic, z, tau, ctx: PrecisionContext = DEFAULT_CTX,
               radius_margin: int = 0) -> mpc:
    """theta_{a,b}(z, tau) with absolute error below 2^-bits, for rational a, b.

    radius_margin widens the certified truncation box; it exists so the
    soundness of the tail bound can be exercised from the outside.
    """
    tau = as_siegel(tau, ctx=ctx)
    if m.g != tau.g:
        raise DomainError(f"characteristic has g={m.g}, tau has g={tau.g}")
    zvec = _z_vector(z, tau.g, ctx)
    a_norm = math.sqrt(sum(float(x) ** 2 for x in m.a))
    N, extra = _box(zvec, tau, a_norm, ctx, radius_margin)
    length = 2 * N + 1
    prec = ctx.working_bits + extra + _chain_bits(tau.g, length)
    with mp.workprec(prec):
        # u = n + a over ||n||_inf <= N; the b phase folds into z
        starts = [mpf(x.numerator) / x.denominator - N for x in m.a]
        zb = [zvec[i] + mpf(x.numerator) / x.denominator for i, x in enumerate(m.b)]
        (re, im), = _walk(zb, tau, starts, 1, length, 1, prec)
    with ctx.workprec(extra):    # keeps the absolute error of values above 1
        return _from_fixed(re, im, prec)


_HALF = Fraction(1, 2)


@functools.cache
def _halfint_chars(g: int) -> tuple:
    """The 4^g keys of a half-integral table: row a2, column b2 holds the
    characteristic (a2/2, b2/2), both a2 and b2 running over {0, 1}^g in
    itertools.product order."""
    pairs = list(itertools.product((0, 1), repeat=g))
    return tuple(tuple(ThetaCharacteristic.make([_HALF * x for x in a2], [_HALF * x for x in b2])
                       for b2 in pairs) for a2 in pairs)


def _halfint_table(zvec, tau: SiegelMatrix, ctx: PrecisionContext) -> dict:
    """theta_{a,b}(z, tau) for all 4^g characteristics a, b in {0, 1/2}^g, from one walk.

    The walk runs over u = k/2 with ||k||_inf <= K = 2N + 1, which holds n + a
    for ||n||_inf <= N and every a, and bins the terms by k mod 4.  k mod 2
    fixes a = (k mod 2)/2, and the b phase e^{2 pi i u.b} is i^{k.2b}.
    """
    g = tau.g
    N, extra = _box(zvec, tau, math.sqrt(g) / 2, ctx)
    K = 2 * N + 1
    length = 2 * K + 1
    prec = ctx.working_bits + extra + _chain_bits(g, length)
    with mp.workprec(prec):
        bins = _walk(zvec, tau, [mpf(-K) / 2] * g, mpf(1) / 2, length, 4, prec)
    residues = [tuple((c - K) % 4 for c in cs)          # k mod 4 of each bin
                for cs in itertools.product(range(4), repeat=g)]
    pairs = list(itertools.product((0, 1), repeat=g))
    out = {}
    for a2, keys in zip(pairs, _halfint_chars(g)):
        members = [(s, k) for s, k in zip(bins, residues)
                   if all(ki % 2 == ai for ki, ai in zip(k, a2))]
        for b2, m in zip(pairs, keys):
            re = im = 0
            for (sr, si), k in members:
                # add i^e (sr + i si), exactly
                e = sum(ki * bi for ki, bi in zip(k, b2)) % 4
                re, im = ((re + sr, im + si), (re - si, im + sr),
                          (re - sr, im - si), (re + si, im - sr))[e]
            with ctx.workprec(extra):
                out[m] = _from_fixed(re, im, prec)
    return out


def jacobi_thetas(z, tau, ctx: PrecisionContext = DEFAULT_CTX) -> tuple:
    """(theta_1, ..., theta_4)(z, tau) for g = 1, nome q = e^{i pi tau}.

    Dictionary (asserted in the unit tests):
    theta_1 = -theta_{1/2,1/2}, theta_2 = theta_{1/2,0},
    theta_3 = theta_{0,0},      theta_4 = theta_{0,1/2}.
    """
    tau = as_siegel(tau, g=1, ctx=ctx)
    table = _halfint_table(_z_vector(z, 1, ctx), tau, ctx)
    (m00, m01), (m10, m11) = _halfint_chars(1)
    return (mp.fneg(table[m11], exact=True), table[m10], table[m00], table[m01])


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
    """Delta(tau) = q s^24 with q = e^{2 i pi tau}, g = 1, s = prod_{n>=1} (1 - q^n).

    s comes from Euler's pentagonal series (Apostol, Modular Functions and
    Dirichlet Series in Number Theory, ch. 3),

        s = sum_{n in Z} (-1)^n q^{n(3n-1)/2} = 1 + sum_{n>=1} (-1)^n q^{e_n} (1 + q^n),

    e_n = n(3n-1)/2, with n and -n summed as one pair.  The exponents grow by
    3n + 1 >= 1 from pair to pair, so after the pairs n <= M the rest is below
    d = 2 |q|^{e'} / (1 - |q|), e' = e_{M+1}; the sum stops at the first M
    with d <= 2^-(bits+guard+8).

    Through the 24th power: |s| >= L = prod (1 - |q|^n) > 0, so the truncated
    s (1 + x) has |x| <= d / L and |(1 + x)^24 - 1| <= 24 (d / L) e^{24 d / L}.
    Im tau >= 0.1 gives |q| <= e^{-pi/5} < 0.534 and L > 0.236, so 24 / L <
    2^7 and Delta errs relatively by less than 2^-(bits+guard+1) from the
    truncation.  On the fundamental domain |q| < 0.0044 and L > 0.995, and
    five pairs reach 256 bits.
    """
    tau = as_siegel(tau, g=1, ctx=ctx)
    t = tau.scalar()
    if t.imag <= 0:
        raise DomainError("Im(tau) must be positive")
    if float(t.imag) < MIN_IMAG_EIGENVALUE:
        raise DomainError("Im(tau) < 0.1: Siegel-reduce tau before evaluating Delta")
    with ctx.workprec():
        q = mp.expjpi(2 * t)
        aq = abs(q)
        target = mpf(2) ** (-(ctx.bits + ctx.guard + 8)) * (1 - aq) / 2
        s = mpc(1)
        qe = qn = mpc(1)           # q^{e_n}, q^n
        step = q                   # q^{e_{n+1} - e_n} = q^{3n+1}
        q3 = q ** 3
        n = e = 0
        while aq ** (e + 3 * n + 1) > target:
            n += 1
            e += 3 * n - 2
            qe *= step
            step *= q3
            qn *= q
            pair = qe * (1 + qn)
            s = s - pair if n % 2 else s + pair
        return +(q * s ** 24)


def theta_nulls_halfint(tau, ctx: PrecisionContext = DEFAULT_CTX) -> dict:
    """All 4^g theta nulls theta_{a,b}(0, tau) over half-integral characteristics."""
    tau = as_siegel(tau, ctx=ctx)
    return _halfint_table([mpc(0)] * tau.g, tau, ctx)


def phi_product(tau, ctx: PrecisionContext = DEFAULT_CTX) -> mpc:
    """Product of the C(2g+1, g+1) eighth powers of theta nulls, g <= 3.

    For g = 1 this equals 2^8 Delta(tau); for g = 2 it equals J10(tau)^4.
    A null at or below ctx.tol() in absolute value makes the product vanish
    to working precision and raises DomainError (for g = 2 an even null
    vanishes exactly on the reducible locus, products of elliptic curves).

    log|phi| is certified to 2^-bits as well.  A table null errs by less
    than err = 2^-(bits+guard-1): the tail stays below 2^-(bits+guard), the
    walk below 2^-(bits+guard+4), and the final rounding below
    2^-(bits+guard) for nulls under 2^extra.  So log|phi| errs by less than
    8 sum_m err / (|theta_m| - 2 err).  Where that exceeds 2^-bits (a null
    small but above the refusal threshold), the nulls are evaluated again
    with s more bits, s chosen so that 8 n err 2^-s / (|theta_min| - 2 err)
    stays below 2^-bits for the n nulls of the product.
    """
    from .weierstrass import char_system

    tau = as_siegel(tau, ctx=ctx)
    chars = char_system(tau.g)
    nulls = _halfint_table([mpc(0)] * tau.g, tau, ctx)
    with ctx.workprec():
        for m in chars:
            v = nulls[m]
            if abs(v) <= ctx.tol():
                raise DomainError(
                    f"theta null at characteristic a={[str(x) for x in m.a]}, "
                    f"b={[str(x) for x in m.b]} vanishes to working precision "
                    f"(|theta| = {mp.nstr(abs(v), 3)}); "
                    + ("tau lies on the reducible locus" if tau.g == 2 else "phi(tau) = 0"))
        err = mpf(2) ** (1 - ctx.working_bits)
        if 8 * mp.fsum(err / (abs(nulls[m]) - 2 * err) for m in chars) > ctx.eps():
            smallest = min(abs(nulls[m]) for m in chars)
            s = ctx.bits + int(mp.ceil(mp.log(8 * len(chars) * err / (smallest - 2 * err), 2)))
            nulls = _halfint_table([mpc(0)] * tau.g, tau, ctx.higher(s))
        out = mpc(1)
        for m in chars:
            out *= nulls[m] ** 8
        return +out


def j10(tau, ctx: PrecisionContext = DEFAULT_CTX) -> mpc:
    """Igusa J10: product of the squares of the 10 even theta nulls, g = 2."""
    tau = as_siegel(tau, ctx=ctx)
    if tau.g != 2:
        raise DomainError(f"J10 is defined for g=2, got g={tau.g}")
    nulls = _halfint_table([mpc(0)] * 2, tau, ctx)
    with ctx.workprec():
        out = mpc(1)
        for m, v in nulls.items():
            if m.parity() == 0:
                out *= v * v
        return +out
