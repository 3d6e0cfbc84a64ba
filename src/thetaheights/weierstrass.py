"""Exact hyperelliptic Weierstrass equations y^2 + Q(x) y = P(x).

P monic of degree 2g+1, deg Q <= g, coefficients exact rationals.  All
arithmetic here is exact; floating point never enters this module.  It is the
library's one sympy boundary: only _factorint and _isprime import it, on use.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (DomainError, MalformedChangeError, NumericError, ResourceError,
                     SingularModelError)
from .theta_engine import ThetaCharacteristic

# digit budget of finite_valuations, the one full factorization of an
# arbitrary integer (the CLI's `curve disc`); the elliptic heights factor only
# gcds and denominators, and split discriminants with split_places
FACTOR_DIGIT_BUDGET = 70

# split_places divides out the primes below this bound; the cofactor it leaves
# has no prime factor below it.  2^12 costs about 560 divisions (a few tens of
# microseconds on a 40-digit discriminant) and labels every prime place of a
# discriminant whose second-largest prime factor is below it.
TRIAL_DIVISION_BOUND = 1 << 12


def _primes_below(n: int) -> tuple:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(i for i, v in enumerate(sieve) if v)


_SMALL_PRIMES = _primes_below(TRIAL_DIVISION_BOUND)


def _factorint(n: int) -> dict:
    """{p: ord_p(n)} for an integer n >= 1, by sympy's factorint (ECM)."""
    from sympy import factorint
    return {int(p): e for p, e in factorint(n).items()}


def _isprime(p: int) -> bool:
    from sympy import isprime
    return isprime(p)


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for an integer n >= 0, by Newton's method on integers."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)             # above the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _coeffs_to_fractions(coeffs) -> tuple:
    return tuple(Fraction(c) for c in coeffs)


def _bareiss_det(M: list) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    n, sign, prev = len(M), 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            r = next((r for r in range(k + 1, n) if M[r][k]), None)
            if r is None:
                return 0
            M[k], M[r], sign = M[r], M[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1]


def poly_discriminant(coeffs: Sequence[Fraction]) -> Fraction:
    """disc(f) = (-1)^{d(d-1)/2} Res(f, f') / lc(f) for f given low-to-high;
    Res is the Sylvester determinant of F = L f, L the lcm of denominators."""
    c = list(_coeffs_to_fractions(coeffs))
    while c and c[-1] == 0:
        c.pop()
    d = len(c) - 1
    if d < 1:
        raise DomainError("discriminant needs degree >= 1")
    L = math.lcm(*(x.denominator for x in c))
    F = [int(x * L) for x in reversed(c)]                 # high-to-low
    dF = [(d - i) * a for i, a in enumerate(F[:-1])]
    rows = [[0] * i + F + [0] * (d - 2 - i) for i in range(d - 1)]
    rows += [[0] * i + dF + [0] * (d - 1 - i) for i in range(d)]
    return Fraction((-1) ** (d * (d - 1) // 2) * _bareiss_det(rows), F[0] * L ** (2 * d - 2))


@dataclass(frozen=True)
class WeierstrassEquation:
    """y^2 + Q(x) y = P(x), P monic of degree 2g+1, deg Q <= g."""

    g: int
    P: tuple  # low-to-high Fractions, length 2g+2, leading 1
    Q: tuple  # low-to-high Fractions, length g+1 (zero-padded)

    @classmethod
    def make(cls, g: int, P: Sequence, Q: Sequence = ()) -> "WeierstrassEquation":
        if g < 1:
            raise DomainError("genus must be >= 1")
        Pc = _coeffs_to_fractions(P)
        Qc = _coeffs_to_fractions(Q)
        if len(Pc) != 2 * g + 2 or Pc[-1] != 1:
            raise DomainError(f"P must be monic of degree {2*g+1} (got {len(Pc)} coefficients)")
        if len(Qc) > g + 1:
            raise DomainError(f"deg Q must be <= {g}")
        Qc = Qc + (Fraction(0),) * (g + 1 - len(Qc))
        eq = cls(g=g, P=Pc, Q=Qc)
        if discriminant(eq) == 0:
            raise SingularModelError("discriminant vanishes: singular model")
        return eq

    def rhs_quartic_free(self) -> tuple:
        """Coefficients of P(x) + Q(x)^2 / 4 (the model y'^2 = f(x))."""
        n = len(self.P)
        out = [Fraction(0)] * n
        for i, c in enumerate(self.P):
            out[i] += c
        for i, qi in enumerate(self.Q):
            for j, qj in enumerate(self.Q):
                out[i + j] += qi * qj / 4
        return tuple(out)


def discriminant(E: WeierstrassEquation) -> Fraction:
    """Delta_E = 2^{4g} disc(P + Q^2/4); exact rational."""
    return Fraction(2) ** (4 * E.g) * poly_discriminant(E.rhs_quartic_free())


@dataclass(frozen=True)
class ModelChange:
    """x = u^2 x' + s,  y = u^{2g+1} y' + t(x'); u nonzero, deg t <= g."""

    u: Fraction
    s: Fraction
    t: tuple  # low-to-high Fractions

    @classmethod
    def make(cls, u, s=0, t: Sequence = ()) -> "ModelChange":
        uf = Fraction(u)
        if uf == 0:
            raise MalformedChangeError("u must be nonzero")
        return cls(u=uf, s=Fraction(s), t=_coeffs_to_fractions(t))


def _poly_compose_affine(coeffs: Sequence[Fraction], a: Fraction, b: Fraction) -> list:
    """Coefficients of f(a x + b) from f given low-to-high."""
    out = [Fraction(0)]
    power = [Fraction(1)]  # (a x + b)^k coefficients
    for k, c in enumerate(coeffs):
        if k > 0:
            new = [Fraction(0)] * (len(power) + 1)
            for i, p in enumerate(power):
                new[i] += p * b
                new[i + 1] += p * a
            power = new
        if len(out) < len(power):
            out += [Fraction(0)] * (len(power) - len(out))
        for i, p in enumerate(power):
            out[i] += c * p
    return out


def apply_model_change(E: WeierstrassEquation, c: ModelChange) -> WeierstrassEquation:
    """Transform E by c; asserts disc(E) = u^{4g(2g+1)} disc(E')."""
    g = E.g
    if len(c.t) > g + 1:
        raise MalformedChangeError(f"deg t must be <= {g}")
    u2 = c.u ** 2
    Ps = _poly_compose_affine(E.P, u2, c.s)
    Qs = _poly_compose_affine(E.Q, u2, c.s)
    t = list(c.t) + [Fraction(0)] * (g + 1 - len(c.t))
    # y = u^{2g+1} y' + t(x'):
    #   Q' = (2 t + Q(u^2 x' + s)) / u^{2g+1}
    #   P' = (P(u^2 x' + s) - t^2 - Q(u^2 x' + s) t) / u^{4g+2}
    un = c.u ** (2 * g + 1)
    Qp = [Fraction(0)] * (g + 1)
    for i in range(g + 1):
        Qp[i] = (2 * t[i] + (Qs[i] if i < len(Qs) else Fraction(0))) / un
    deg = 2 * g + 1
    t_sq = [Fraction(0)] * (2 * g + 1)
    for a_ in range(g + 1):
        for b_ in range(g + 1):
            t_sq[a_ + b_] += t[a_] * t[b_]
    qt = [Fraction(0)] * (len(Qs) + g)
    for a_, qa in enumerate(Qs):
        for b_ in range(g + 1):
            qt[a_ + b_] += qa * t[b_]
    Pp = [Fraction(0)] * (deg + 1)
    for i in range(deg + 1):
        v = Ps[i] if i < len(Ps) else Fraction(0)
        if i < len(t_sq):
            v -= t_sq[i]
        if i < len(qt):
            v -= qt[i]
        Pp[i] = v / un ** 2
    if Pp[-1] != 1:
        raise MalformedChangeError("transformed P is not monic of the right degree")
    E2 = WeierstrassEquation.make(g, Pp, Qp)
    if discriminant(E) != c.u ** (4 * g * (2 * g + 1)) * discriminant(E2):
        raise NumericError("discriminant transformation law violated (internal error)")
    return E2


# --- Lockhart characteristic system ------------------------------------


def _m_vector(i: int, g: int, even_kind: bool) -> ThetaCharacteristic:
    """m_{2i-1} (even_kind=False) or m_{2i} (even_kind=True), 1-indexed i."""
    a = [Fraction(0)] * g
    if i <= g:
        a[i - 1] = Fraction(1, 2)
    b = [Fraction(0)] * g
    for j in range(min(i - 1, g)):
        b[j] = Fraction(1, 2)
    if even_kind:
        b[i - 1] = Fraction(1, 2)
    return ThetaCharacteristic.make(a, b)


def branch_point_characteristics(g: int) -> list:
    """m_1, ..., m_{2g+1} for the 2g+1 finite branch points."""
    out = []
    for i in range(1, g + 2):
        out.append(_m_vector(i, g, even_kind=False))  # m_{2i-1}
        if i <= g:
            out.append(_m_vector(i, g, even_kind=True))  # m_{2i}
    return out


def _char_sum(chars) -> ThetaCharacteristic:
    g = chars[0].g if chars else 1
    a = [Fraction(0)] * g
    b = [Fraction(0)] * g
    for m in chars:
        for j in range(g):
            a[j] += m.a[j]
            b[j] += m.b[j]
    return ThetaCharacteristic.make(a, b).reduced()


@functools.cache
def char_system(g: int) -> tuple:
    """The l = C(2g+1, g+1) characteristics m_{T o U}, reduced mod 1.

    T runs over the (g+1)-subsets of {1, ..., 2g+1}, U = {1, 3, ..., 2g+1},
    and o is symmetric difference.  Each characteristic is even.  Built once
    per g: every call with that g returns the same tuple.
    """
    if not 1 <= g <= 3:
        raise DomainError("char_system supports 1 <= g <= 3")
    ms = branch_point_characteristics(g)
    U = set(range(1, 2 * g + 2, 2))
    out = []
    for T in itertools.combinations(range(1, 2 * g + 2), g + 1):
        S = set(T) ^ U
        if S:
            m = _char_sum([ms[i - 1] for i in sorted(S)])
        else:
            m = ThetaCharacteristic.make([Fraction(0)] * g, [Fraction(0)] * g)
        out.append(m)
    if len(out) != math.comb(2 * g + 1, g + 1):
        raise NumericError("characteristic system has the wrong size (internal error)")
    return tuple(out)


def finite_valuations(delta) -> list:
    """[(p, ord_p(delta))] over primes with nonzero valuation; exact."""
    d = Fraction(delta)
    if d == 0:
        raise DomainError("valuations of 0 are undefined")
    num = abs(d.numerator)
    den = d.denominator
    if len(str(num)) > FACTOR_DIGIT_BUDGET or len(str(den)) > FACTOR_DIGIT_BUDGET:
        raise ResourceError("discriminant exceeds the factorization digit budget")
    vals = _factorint(num)
    for p, e in _factorint(den).items():
        vals[p] = vals.get(p, 0) - e
    return sorted((p, e) for p, e in vals.items() if e != 0)


def split_places(n: int) -> list:
    """[(d, e, prime)] with |n| = prod d^e over pairwise coprime d > 1, without
    factoring: the primes below TRIAL_DIVISION_BOUND by trial division, then
    the cofactor c as d^e with e maximal (c is a perfect e-th power of d, and
    d of no higher power).  d is a prime place when _isprime(d), else one
    composite block: every prime of it exceeds TRIAL_DIVISION_BOUND, and no
    ord_p of n is read there.
    """
    if n == 0:
        raise DomainError("valuations of 0 are undefined")
    n = abs(n)
    out = []
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e, True))
    if n == 1:
        return out
    if n < TRIAL_DIVISION_BOUND ** 2:            # no two primes above the bound
        return out + [(n, 1, True)]
    e, k = 1, 2
    # a k-th power of primes above the bound exceeds TRIAL_DIVISION_BOUND^k
    while TRIAL_DIVISION_BOUND ** k <= n:
        r = _iroot(n, k)
        if r ** k == n:
            n, e = r, e * k
        else:
            k += 1
    return out + [(n, e, _isprime(n))]


def parse_curve_spec(spec) -> WeierstrassEquation:
    """Curve from {"genus": g, "P": [c0, ..., 1], "Q": [q0, ...]}.

    Coefficients are exact rational strings ("1/4") or integers; JSON text
    is accepted as well as an already-decoded mapping.
    """
    if isinstance(spec, (str, bytes)):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as e:
            raise DomainError(f"curve spec is not valid JSON: {e}") from None
    if not isinstance(spec, dict) or "genus" not in spec or "P" not in spec:
        raise DomainError('curve spec must be {"genus": g, "P": [...], "Q": [...]}')
    try:
        g = int(spec["genus"])
        P = [Fraction(str(c)) for c in spec["P"]]
        Q = [Fraction(str(c)) for c in spec.get("Q", [])]
    except (ValueError, ZeroDivisionError) as e:
        raise DomainError(f"bad coefficient in curve spec: {e}") from None
    return WeierstrassEquation.make(g, P, Q)
