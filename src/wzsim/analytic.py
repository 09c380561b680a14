"""Closed-form references and error measures.

The hard-wall box admits an exact series solution for an initially flat
wavefunction: only odd modes contribute, with 1/a coefficients and phases
set by the mode energies a^2 pi^2 hbar^2 / (2 m L^2). Truncated at K
terms it serves as the spatial-accuracy reference for box runs.

The series is evaluated on the lattice x_j = j L / M, where the mode
sin(a pi j / M) depends on a only modulo 2M. The K weights fold into 2M
residue bins, and one inverse FFT of length 2M sums the bins at every
lattice point: O(K + M log M) time and O(K + M) memory.

A dense eigendecomposition propagator over the same operators provides
the splitting-error reference for small systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .grid import (
    HBAR,
    GridSpec,
    ParticleSpec,
    StateVector,
    check_integer,
    check_real,
    quantum_particles,
)
from .kinetic import momentum_eigenvalues, momentum_matrix
from .potential import composite_potential

MAX_ORACLE_DIM = 4096

# The most terms a box series may have.
MAX_SERIES_TERMS = 1 << 21


@dataclass(frozen=True)
class BoxSeriesSpec:
    """Truncated odd-mode series for the box with hard walls at 0 and L."""

    length: float
    mass: float
    t: float
    terms: int = 1000

    def __post_init__(self) -> None:
        for name in ("length", "mass", "t"):
            value = getattr(self, name)
            check_real(name, value)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if self.length <= 0 or self.mass <= 0:
            raise ValidationError("length and mass must be positive")
        check_integer("terms", self.terms)
        if self.terms < 1:
            raise ValidationError("series needs at least one term")
        if self.terms > MAX_SERIES_TERMS:
            raise ResourceLimitError(
                f"{self.terms} series terms exceed the limit of {MAX_SERIES_TERMS}"
            )


def box_exact_density(points: int, spec: BoxSeriesSpec) -> np.ndarray:
    """|psi(x_j, t)|^2 at x_j = j L / points for j = 0 .. points - 1, for
    the initially flat box state. Entry 0, on the wall, is exactly 0.

    psi = (2^{3/2}/pi) sum_k psi_{2k-1}(x) exp(-i E_{2k-1} t / hbar) / (2k-1)
    with psi_a the box eigenfunctions sqrt(2/L) sin(a pi x / L). With
    N = 2 points and G_r the sum of the weights of the modes a = r mod N,
    sum_a w_a sin(a pi j / points) = (g_j - g_{N-j}) / 2i for
    g_j = sum_r G_r exp(2 pi i r j / N), an unscaled inverse FFT.

    Raises ValidationError unless the top mode's phase E t / hbar is
    finite; the phase grows with the mode, so it bounds them all.
    """
    check_integer("points", points)
    if points < 1:
        raise ValidationError(f"points must be >= 1, got {points}")
    N = 2 * points
    a = np.arange(1, 2 * spec.terms, 2, dtype=np.int64)
    residue = a % N
    a = a.astype(float)
    # The phase rounds as the mode energy a^2 pi^2 hbar^2 / (2 m L^2)
    # first, then times t / hbar. An overflow is caught below; an L^2 that
    # overflows makes every energy 0.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        angle = a * a
        angle *= np.pi**2
        angle *= HBAR**2
        angle /= 2.0 * spec.mass * np.float64(spec.length) ** 2
        angle *= spec.t
        angle /= HBAR
    if not math.isfinite(angle[-1]):
        raise ValidationError(f"the phase E t / hbar of mode {2 * spec.terms - 1} is {angle[-1]}")
    re = np.cos(angle)
    re /= a
    im = np.sin(angle, out=angle)
    im /= a
    del a, angle
    g = np.empty(N, dtype=np.complex128)
    g.real = np.bincount(residue, weights=re, minlength=N)
    del re
    g.imag = np.bincount(residue, weights=im, minlength=N)
    del residue, im
    # The bins hold the conjugate weights, exp(+i E t / hbar) / a, which
    # conjugate psi and so leave |psi| as it is.
    np.fft.ifft(g, norm="forward", out=g)
    s = g[:points]
    s[1:] -= g[: points : -1]
    out = np.abs(s)
    out *= out
    # (2^{3/2}/pi)^2 (2/L) / |2i|^2.
    out *= 4.0 / (np.pi**2 * spec.length)
    out[0] = 0.0
    return out


def rmse(sim_density: np.ndarray, exact_density: np.ndarray) -> float:
    """Root-mean-square difference of two per-cell probability vectors of
    length 2^n, i.e. 2^{-n/2} times the l2 distance."""
    sim = np.asarray(sim_density, dtype=float)
    exact = np.asarray(exact_density, dtype=float)
    if sim.shape != exact.shape or sim.ndim != 1:
        raise ValidationError("density vectors must share one shape")
    size = sim.shape[0]
    if size < 1 or (size & (size - 1)) != 0:
        raise ValidationError("density length must be a power of two")
    return float(np.sqrt(np.sum((sim - exact) ** 2) / size))


def yb_error(rmse_value: float, n: int) -> float:
    """Resolution-weighted error measure: 2^{-n/2} times the RMSE."""
    if n < 0:
        raise ValidationError("n must be nonnegative")
    return float(2.0 ** (-n / 2.0) * rmse_value)


def loglog_slope(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValidationError("need at least two (x, y) points")
    if np.any(pts <= 0.0):
        raise ValidationError("log-log fit needs positive coordinates")
    return float(np.polyfit(np.log(pts[:, 0]), np.log(pts[:, 1]), 1)[0])


def _spectral_kinetic_matrix(D: int, delta: float, mass: float) -> np.ndarray:
    f = np.fft.ifft(np.eye(D), axis=0, norm="ortho")
    p2 = momentum_eigenvalues(D, delta) ** 2
    return f.conj().T @ (p2[:, None] / (2.0 * mass) * f)


def dense_evolution_oracle(
    grid: GridSpec,
    particles: Sequence[ParticleSpec],
    terms: Sequence[str],
    T: float,
    v_wall: float = 1e6,
    kinetic_generator: str = "finite_difference",
) -> Callable[[StateVector], StateVector]:
    """Exact propagator exp(-i H T / hbar) via eigendecomposition.

    H sums one kinetic matrix per quantum particle and axis plus the
    selected potential diagonals. kinetic_generator chooses the matrix the
    split methods are measured against: the squared finite-difference
    momentum operator, or the Fourier-conjugated dispersion the spectral
    route exponentiates exactly.
    """
    if kinetic_generator not in ("finite_difference", "spectral"):
        raise ValidationError(f"unknown kinetic generator {kinetic_generator!r}")
    quantum = quantum_particles(particles)
    if not quantum:
        raise ValidationError("need at least one quantum particle")
    D = grid.cells_per_axis
    registers = len(quantum) * grid.d
    dim = D**registers
    if dim > MAX_ORACLE_DIM:
        raise ResourceLimitError(f"oracle dimension {dim} exceeds {MAX_ORACLE_DIM}")

    h = np.zeros((dim, dim), dtype=np.complex128)
    for q, particle in enumerate(quantum):
        if particle.kinetic_term not in terms:
            continue
        if kinetic_generator == "finite_difference":
            p = momentum_matrix(D, grid.delta)
            k1 = (p @ p) / (2.0 * particle.mass)
        else:
            k1 = _spectral_kinetic_matrix(D, grid.delta, particle.mass)
        for r in grid.registers(q):
            left = D**r
            right = D ** (registers - 1 - r)
            h += np.kron(np.eye(left), np.kron(k1, np.eye(right)))
    pot = composite_potential(grid, particles, terms, v_wall=v_wall)
    if pot is not None:
        h[np.diag_indices(dim)] += pot

    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * T / HBAR)) @ v.conj().T

    def propagate(state: StateVector) -> StateVector:
        if state.dim != dim:
            raise ValidationError(
                f"state dimension {state.dim} does not match oracle dimension {dim}"
            )
        return state.with_amplitudes(u @ state.amplitudes)

    return propagate
