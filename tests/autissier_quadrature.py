"""Autissier's integral by midpoint quadrature in IEEE doubles: a test oracle.

The library returns I(tau) = alpha(tau) / 2 from the eta product.  This
module integrates the theta norm over the torus directly, which is different
mathematics, so the two can check each other.  The quadrature error is
estimated by the grid-doubling delta |I(n) - I(n // 2)|.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    grid_n: int
    grid_delta: float       # |I(grid_n) - I(grid_n // 2)|
    perturbed_nodes: int
    warnings: tuple = ()


def _radius(tau_c: complex) -> int:
    return int(6.0 / math.sqrt(tau_c.imag) + 0.5 * abs(tau_c.imag) + 8)


def theta_norm_grid(tau_c: complex, n: int) -> np.ndarray:
    """||theta||(z, tau) on the midpoint grid z = ((i+1/2)/n) + ((j+1/2)/n) tau.

    The terms factor over the two grid axes: with z = u + v tau,
    e^{pi i k^2 tau + 2 pi i k z} = e^{2 pi i k u} e^{pi i k (k + 2v) tau}, so
    the n x n sum is one (n x K) @ (K x n) product.  The norm factor
    (Im tau)^{1/4} e^{-pi (Im z)^2 / Im tau} depends on v alone and rides in
    the second factor, whose entries then have modulus e^{-pi y (k + v)^2}.
    """
    y = tau_c.imag
    a = (np.arange(n) + 0.5) / n
    N = _radius(tau_c)
    k = np.arange(-N, N + 1)[:, None]
    along_u = np.exp(2j * np.pi * k * a)
    along_v = (y ** 0.25) * np.exp(1j * np.pi * k * (k + 2 * a) * tau_c - np.pi * y * a * a)
    return np.abs(along_u.T @ along_v)


def autissier_value(tau_c: complex, n: int, scale: float) -> tuple:
    """(I on the n x n grid, number of perturbed nodes) for the section scale * theta."""
    s = theta_norm_grid(tau_c, n) * scale
    perturbed = 0
    # the theta divisor is the single half-period (1+tau)/2; the midpoint
    # grid contains it exactly iff n is odd, at i = j = (n-1)/2
    if n % 2 == 1:
        i = (n - 1) // 2
        y = tau_c.imag
        z = (0.5 + 0.5 / n) + 0.5 * tau_c   # node shifted by half a step
        N = _radius(tau_c)
        th = 0j
        for k in range(-N, N + 1):
            th += np.exp(1j * np.pi * k * k * tau_c + 2j * np.pi * k * z)
        s[i, i] = (y ** 0.25) * math.exp(-np.pi * (z.imag) ** 2 / y) * abs(th) * scale
        perturbed = 1
    val = -float(np.mean(np.log(s))) + 0.5 * float(np.log(np.mean(s ** 2)))
    return val, perturbed


def autissier_quadrature(tau_c: complex, grid_n: int = 512,
                         section_scale: float = 1.0) -> QuadratureResult:
    """I(tau) = -int log||s|| dmu + (1/2) log int ||s||^2 dmu on C/(Z + tau Z)
    by midpoint quadrature on a grid_n x grid_n grid (Haar mass 1)."""
    tau_c = complex(tau_c)
    val, pert = autissier_value(tau_c, grid_n, section_scale)
    val_half, _ = autissier_value(tau_c, max(2, grid_n // 2), section_scale)
    warnings = (f"{pert} grid node(s) on the theta divisor were perturbed",) if pert else ()
    return QuadratureResult(value=val, grid_n=grid_n, grid_delta=abs(val - val_half),
                            perturbed_nodes=pert, warnings=warnings)
