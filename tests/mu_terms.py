"""The terms of the mu series by direct theta sums: a test oracle.

The library walks the orbit [2^n] w on the Kummer line and never forms a
term.  This module evaluates each term from its definition,

    E_n = c N(2^{n+1} w) / N(2^n w)^4,   c = |t2 t3 t4|(0) / 2,

with N the lattice-invariant norm of the four Jacobi thetas, summed afresh at
every lattice-reduced 2^n w: no duplication formula is used.  Doubling w n
times scales its rounding error by 2^n, so w is carried at bits + n + 64 bits
before it is reduced.
"""

from __future__ import annotations

from mpmath import mpc

from thetaheights.local_heights import (_form_constant, _normalized_vector_norm,
                                        reduce_point_mod_lattice)
from thetaheights.theta_engine import jacobi_thetas


def mu_arch_terms(z, tau, n_terms: int, ctx) -> list:
    """E([2^n] P) for n = 0, ..., n_terms - 1, with P at w = 2z."""
    with ctx.workprec():
        c = _form_constant(jacobi_thetas(0, tau, ctx)[1:])
    norms = []
    for n in range(n_terms + 1):
        wide = ctx.higher(n + 64)
        with wide.workprec():
            w = reduce_point_mod_lattice(2 ** (n + 1) * mpc(z), tau, wide)
        norms.append(_normalized_vector_norm(w, tau, ctx))
    with ctx.workprec():
        return [c * norms[n + 1] / norms[n] ** 4 for n in range(n_terms)]
