"""Closed-form references and error measures.

The hard-wall box admits an exact series solution for an initially flat
wavefunction: only odd modes contribute, with 1/a coefficients and phases
set by the mode energies a^2 pi^2 hbar^2 / (2 m L^2). Truncated at K
terms it serves as the spatial-accuracy reference for box runs.

A dense eigendecomposition propagator over the same operators provides
the splitting-error reference for small systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .grid import HBAR, GridSpec, ParticleSpec, StateVector, quantum_particles
from .kinetic import momentum_eigenvalue, momentum_matrix
from .potential import composite_potential

MAX_ORACLE_DIM = 4096

# box_exact_density evaluates the series on blocks of at most this many
# (position, term) pairs: 2^11 positions at the default 1000 terms are one
# block. The peak is about 32 bytes per pair.
SERIES_BLOCK_ENTRIES = 1 << 21


@dataclass(frozen=True)
class BoxSeriesSpec:
    """Truncated odd-mode series for the box with hard walls at 0 and L."""

    length: float
    mass: float
    t: float
    terms: int = 1000

    def __post_init__(self) -> None:
        if self.length <= 0 or self.mass <= 0:
            raise ValidationError("length and mass must be positive")
        if self.terms < 1:
            raise ValidationError("series needs at least one term")
        if self.terms > SERIES_BLOCK_ENTRIES:
            raise ResourceLimitError(
                f"{self.terms} series terms exceed the limit of {SERIES_BLOCK_ENTRIES}"
            )


def box_exact_density(x, spec: BoxSeriesSpec) -> np.ndarray:
    """|psi(x, t)|^2 for the initially flat box state.

    psi = (2^{3/2}/pi) sum_k psi_{2k-1}(x) exp(-i E_{2k-1} t / hbar) / (2k-1)
    with psi_a the box eigenfunctions sqrt(2/L) sin(a pi x / L).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if np.any(x <= 0.0) or np.any(x >= spec.length):
        raise ValidationError("positions must lie strictly inside (0, L)")
    a = 2.0 * np.arange(1, spec.terms + 1) - 1.0
    energies = a**2 * np.pi**2 * HBAR**2 / (2.0 * spec.mass * spec.length**2)
    phases = np.exp(-1j * energies * spec.t / HBAR)
    weights = phases / a
    rows = max(1, SERIES_BLOCK_ENTRIES // spec.terms)
    psi = np.empty(x.shape[0], dtype=np.complex128)
    for lo in range(0, x.shape[0], rows):
        block = x[lo : lo + rows]
        modes = np.sqrt(2.0 / spec.length) * np.sin(np.outer(block, a) * np.pi / spec.length)
        psi[lo : lo + rows] = (2.0**1.5 / np.pi) * (modes @ weights)
    return np.abs(psi) ** 2


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
    p2 = np.array([momentum_eigenvalue(k, D, delta) ** 2 for k in range(D)])
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
    for pq, particle in enumerate(quantum):
        term = "T_n" if particle.is_nucleus else "T_e"
        if term not in terms:
            continue
        if kinetic_generator == "finite_difference":
            p = momentum_matrix(D, grid.delta)
            k1 = (p @ p) / (2.0 * particle.mass)
        else:
            k1 = _spectral_kinetic_matrix(D, grid.delta, particle.mass)
        for axis in range(grid.d):
            r = pq * grid.d + axis
            left = D**r
            right = D ** (registers - 1 - r)
            h += np.kron(np.eye(left), np.kron(k1, np.eye(right)))
    pot = composite_potential(grid, particles, terms, v_wall=v_wall)
    if pot is not None:
        h[np.diag_indices(dim)] += pot.energies

    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * T / HBAR)) @ v.conj().T

    def propagate(state: StateVector) -> StateVector:
        if state.dim != dim:
            raise ValidationError(
                f"state dimension {state.dim} does not match oracle dimension {dim}"
            )
        return state.with_amplitudes(u @ state.amplitudes)

    return propagate
