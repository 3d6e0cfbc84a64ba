"""Finite local heights by residue iteration: the test-side oracle of the
library's closed form (local_heights._lambda_finite_all).

With x = A/B in lowest terms and (Phi, Psi) the homogenized duplication
quartics, lambda_hat_p = ord_p(B) log p - sum_k 4^{-k-1} ord_p(G_k) log p,
G_k = gcd(Phi, Psi) at the k-th point of the orbit [2^k]P.  G_k divides
Delta^2, so at a prime p the series lives in the residues mod a power of
D = p^{2 ord_p Delta}: gcd(x mod M, D) = gcd(x, D) whenever D | M, and
scaling (A, B) by a unit at p leaves ord_p G_k alone, so each prime runs its
own orbit.  This is the duplication series itself, not Silverman's case
analysis, and it never factors: it reads the primes it is given, and checks
that no other prime divides B or any G_k, so that every other place is 0.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from mpmath import mp, mpf

from thetaheights.elliptic import b_invariants, curve_from_a_invariants
from thetaheights.errors import OrbitCollisionError
from thetaheights.local_heights import _orbit_collision_check
from thetaheights.weierstrass import discriminant

EC_STRATA = 12      # answers per ec_batch block, one per slice of log a4


def _strip(n: int, p: int) -> tuple:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return n, e


def residue_orbit(b, x0: Fraction, n_terms: int, D: int) -> list:
    """[G_0, ..., G_{n_terms-1}], G_k = gcd(Phi, Psi, D) along the duplication
    orbit of x0, with b = (b2, b4, b6, b8) of an integral model whose Delta^2
    is a multiple of D.

    The residues are kept mod D^k and stay exact while D divides the modulus,
    which each step divides by G; k starts at 2 and doubles when the modulus
    runs short (k = n_terms + 2 always suffices, since every G divides D).
    """
    b2, b4, b6, b8 = b
    k = 2
    while True:
        modulus = D ** k
        A, B = x0.numerator % modulus, x0.denominator % modulus
        gcds = []
        for _ in range(n_terms):
            Phi = (A ** 4 - b4 * A ** 2 * B ** 2 - 2 * b6 * A * B ** 3 - b8 * B ** 4) % modulus
            Psi = (4 * A ** 3 * B + b2 * A ** 2 * B ** 2 + 2 * b4 * A * B ** 3
                   + b6 * B ** 4) % modulus
            G = math.gcd(math.gcd(Phi, D), Psi)
            modulus //= G
            if modulus % D:
                break
            gcds.append(G)
            A, B = (Phi // G) % modulus, (Psi // G) % modulus
        else:
            return gcds
        k *= 2


def residue_lambdas(E, x0: Fraction, primes, ctx) -> dict:
    """{p: lambda_hat_p} on the integral model E over the given primes, with
    (bits + 24) // 2 terms (a tail below 2^-(bits+23) ord_p(Delta) log p);
    raises AssertionError if B or the orbit has a prime outside them."""
    b = tuple(int(v) for v in b_invariants(E))
    n_terms = (ctx.bits + 24) // 2
    rest = int(discriminant(E)) ** 2
    den = x0.denominator
    out = {}
    with ctx.workprec():
        for p in sorted(primes):
            rest, e2 = _strip(rest, p)
            den, e0 = _strip(den, p)
            lam = Fraction(e0)
            if e2:
                for k, G in enumerate(residue_orbit(b, x0, n_terms, p ** e2)):
                    lam -= Fraction(_strip(G, p)[1], 4 ** (k + 1))
            out[p] = mpf(lam.numerator) * mp.log(p) / lam.denominator
    assert den == 1, "a prime of den x is missing from the places"
    assert set(residue_orbit(b, x0, n_terms, rest)) <= {1}, \
        "a prime of the orbit is missing from the places"
    return out


def ec_batch_cases(seeds, blocks: int = 1) -> list:
    """The (curve, point) answers of the benchmark's ec_batch decks
    (perfbench/workloads.py), blocks 0 .. blocks-1 of each seed: the same
    draws as workloads._curve_through_point.  That generator refuses a point
    whose first six doublings reach O; by Mazur's theorem a point of 2-power
    order has order at most 8, so three doublings decide the same."""
    out = []
    for seed in seeds:
        for j in range(blocks):
            rng = random.Random(f"ec_batch/{seed}/{j}")
            for k in range(EC_STRATA):
                a4 = int(10 ** (1 + 11 * (k + rng.random()) / EC_STRATA))
                while True:
                    a1, a3 = rng.randint(0, 1), rng.randint(0, 1)
                    a2 = rng.randint(-1, 1)
                    x0, y0 = rng.randint(-3, 3), rng.randint(1, 12)
                    a6 = y0 * y0 + a1 * x0 * y0 + a3 * y0 - x0 ** 3 - a2 * x0 * x0 - a4 * x0
                    E = curve_from_a_invariants(a1, a2, a3, a4, a6)
                    if discriminant(E) == 0 or 2 * y0 + a1 * x0 + a3 == 0:
                        continue
                    P = (Fraction(x0), Fraction(y0))
                    try:
                        _orbit_collision_check(E, P)
                    except OrbitCollisionError:
                        continue
                    out.append((E, P))
                    break
    return out
