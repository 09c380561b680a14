"""Diagonal potential-energy operators.

Coulomb interactions are diagonal in the position basis: each joint basis
state maps to a sum of pair energies e' q_p q_q / r over the selected
pairs. Particles are classified by charge sign: negative charge means
electron, positive means nucleus. Two particles in the same cell are
regularized by replacing the vanishing separation with one cell width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .grid import (
    HBAR,
    GridSpec,
    IndexCodec,
    ParticleSpec,
    StateVector,
    clamped_position,
    quantum_particles,
)

# Coulomb coupling e^2 / (4 pi eps0) in atomic units.
E_PRIME = 1.0

COULOMB_TERMS = ("ee", "en", "nn", "all")

ANTIDIAGONAL_TOL = 1e-10


@dataclass(frozen=True)
class DiagonalOperator:
    """Diagonal of a position-basis operator, stored as real energies."""

    energies: np.ndarray
    label: str

    def __post_init__(self) -> None:
        energies = np.asarray(self.energies, dtype=float)
        object.__setattr__(self, "energies", energies)
        if energies.ndim != 1 or energies.size == 0:
            raise ValidationError("energies must be a nonempty vector")
        if not np.all(np.isfinite(energies)):
            raise ValidationError(f"non-finite energies in diagonal {self.label!r}")

    @property
    def dim(self) -> int:
        return self.energies.shape[0]


@dataclass(frozen=True)
class LevelQuantization:
    """Distinct-levels summary of a diagonal after bucketing to multiples
    of delta_u. u_min and u_max are the quantized extremes."""

    delta_u: float
    u_min: float
    u_max: float
    level_count: int


def pair_energy(r_p: np.ndarray, r_q: np.ndarray, qq: float, delta: float) -> float:
    """Coulomb energy of one pair; same-cell distance is clamped to delta."""
    if delta <= 0:
        raise ValidationError("delta must be positive")
    dist = float(np.linalg.norm(np.asarray(r_p, float) - np.asarray(r_q, float)))
    if dist == 0.0:
        dist = delta
    return E_PRIME * qq / dist


def _pair_in_term(p: ParticleSpec, q: ParticleSpec, term: str) -> bool:
    if term == "all":
        return (p.is_electron or p.is_nucleus) and (q.is_electron or q.is_nucleus)
    if term == "ee":
        return p.is_electron and q.is_electron
    if term == "en":
        return (p.is_electron and q.is_nucleus) or (p.is_nucleus and q.is_electron)
    if term == "nn":
        return p.is_nucleus and q.is_nucleus
    raise ValidationError(f"unknown Coulomb term {term!r}")


def _register_coordinates(grid: GridSpec, registers: int) -> list[np.ndarray]:
    """Cell-center coordinate of every register, as views that broadcast
    against a (D,)*registers array: entry r varies along axis r only."""
    x = grid.delta * (np.arange(grid.cells_per_axis, dtype=float) + 0.5)
    return [x.reshape((-1,) + (1,) * (registers - 1 - r)) for r in range(registers)]


def _inverse_distance(squares: Sequence[np.ndarray], delta: float) -> np.ndarray:
    """1 / sqrt(sum of squared axis displacements), with a vanishing
    distance regularized to one cell width."""
    dist = sum(squares[1:], squares[0])
    np.sqrt(dist, out=dist)
    same = dist == 0.0
    with np.errstate(divide="ignore"):
        inv = np.divide(1.0, dist, out=dist)
    inv[same] = 1.0 / delta
    return inv


def build_coulomb_diagonal(
    grid: GridSpec, particles: Sequence[ParticleSpec], term: str
) -> DiagonalOperator:
    """Sum of pair Coulomb energies for the selected term over the joint
    basis of the quantum particles. Clamped particles contribute through
    their fixed positions; a clamped-clamped pair adds a constant.

    Each pair's energies are built by broadcasting register coordinates,
    so they span only the registers of that pair before being added in."""
    if term not in COULOMB_TERMS:
        raise ValidationError(f"term must be one of {COULOMB_TERMS}, got {term!r}")
    particles = tuple(particles)
    quantum = quantum_particles(particles)
    if not quantum:
        raise ValidationError("need at least one quantum particle")
    d = grid.d
    coords = _register_coordinates(grid, len(quantum) * d)
    q_slot = {}
    slot = 0
    for i, p in enumerate(particles):
        if p.is_quantum:
            q_slot[i] = slot
            slot += 1

    energies = np.zeros((grid.cells_per_axis,) * len(coords), dtype=float)
    delta = grid.delta
    for i in range(len(particles)):
        for j in range(i + 1, len(particles)):
            pi, pj = particles[i], particles[j]
            if not _pair_in_term(pi, pj, term):
                continue
            qq = pi.charge * pj.charge
            if qq == 0.0:
                continue
            if pi.is_quantum and pj.is_quantum:
                a, b = q_slot[i] * d, q_slot[j] * d
                disp = [coords[a + k] - coords[b + k] for k in range(d)]
            elif pi.is_quantum or pj.is_quantum:
                qp = i if pi.is_quantum else j
                cp = j if pi.is_quantum else i
                fixed = clamped_position(grid, particles[cp])
                a = q_slot[qp] * d
                disp = [coords[a + k] - fixed[k] for k in range(d)]
            else:
                energies += pair_energy(
                    clamped_position(grid, pi), clamped_position(grid, pj), qq, delta
                )
                continue
            inv = _inverse_distance([x * x for x in disp], delta)
            inv *= E_PRIME * qq
            energies += inv
    return DiagonalOperator(energies=energies.reshape(-1), label=term)


def wall_potential(grid: GridSpec, v_wall: float) -> DiagonalOperator:
    """Single-particle box wall: v_wall added per axis whose cell index is
    0 or 2^n - 1."""
    if v_wall < 0:
        raise ValidationError("wall height must be nonnegative")
    codec = IndexCodec(n=grid.n, d=grid.d, n_particles=1)
    idx = np.arange(codec.dim, dtype=np.int64)
    energies = np.zeros(codec.dim, dtype=float)
    top = grid.cells_per_axis - 1
    for a in range(grid.d):
        cells = codec.register_cells(idx, 0, a)
        energies += v_wall * ((cells == 0) | (cells == top))
    return DiagonalOperator(energies=energies, label="wall")


def lift_single_particle(diag: DiagonalOperator, n_particles: int) -> DiagonalOperator:
    """Sum a one-body diagonal over every particle register."""
    if n_particles < 1:
        raise ValidationError("n_particles must be >= 1")
    dim1 = diag.dim
    total = np.zeros((dim1,) * n_particles, dtype=float)
    for p in range(n_particles):
        shape = [1] * n_particles
        shape[p] = dim1
        total += diag.energies.reshape(shape)
    return DiagonalOperator(energies=total.reshape(-1), label=diag.label)


def composite_potential(
    grid: GridSpec,
    particles: Sequence[ParticleSpec],
    terms: Sequence[str],
    v_wall: float = 1e6,
) -> DiagonalOperator | None:
    """Sum the requested potential diagonals ('U_ee', 'U_en', 'U_nn',
    'wall') over the joint basis. Returns None when no term applies."""
    quantum = quantum_particles(particles)
    if not quantum:
        raise ValidationError("need at least one quantum particle")
    total = None
    for term in ("U_ee", "U_en", "U_nn", "wall"):
        if term not in terms:
            continue
        if term == "wall":
            piece = lift_single_particle(wall_potential(grid, v_wall), len(quantum)).energies
        else:
            piece = build_coulomb_diagonal(grid, particles, term.split("_")[1]).energies
        if total is None:
            total = piece
        else:
            total += piece
    if total is None:
        return None
    return DiagonalOperator(energies=total, label="+".join(sorted(terms)))


def apply_diagonal_phase(state: StateVector, diag: DiagonalOperator, eps: float) -> StateVector:
    """Multiply amplitudes by exp(-i eps E / hbar). Exactly norm-preserving."""
    if diag.dim != state.dim:
        raise ValidationError(
            f"diagonal dimension {diag.dim} does not match state dimension {state.dim}"
        )
    phases = np.multiply(-1j * eps, diag.energies, dtype=np.complex128)
    phases /= HBAR
    np.exp(phases, out=phases)
    return state.with_amplitudes(np.multiply(state.amplitudes, phases, out=phases))


def potential_bounds(grid: GridSpec, particles: Sequence[ParticleSpec]) -> tuple[float, float]:
    """Crude potential extremes (U_min, U_max): all repulsive pairs at one
    cell width for the maximum, each electron one cell from every nucleus
    for the minimum."""
    n_e = sum(1 for p in particles if p.is_electron)
    zs = [p.charge for p in particles if p.is_nucleus]
    scale = E_PRIME / grid.delta
    u_max = scale * (
        n_e * (n_e - 1) / 2.0
        + sum(zs[i] * zs[j] for i in range(len(zs)) for j in range(i + 1, len(zs)))
    )
    u_min = -scale * sum(zs)
    return float(u_min), float(u_max)


def level_spacing(grid: GridSpec) -> float:
    """Quantization step e' delta^2 / (2 L^3)."""
    return E_PRIME * grid.delta**2 / (2.0 * grid.length**3)


def quantize_levels(diag: DiagonalOperator, grid: GridSpec) -> LevelQuantization:
    """Bucket each energy to the nearest multiple of the quantization step
    and count distinct occupied levels."""
    du = level_spacing(grid)
    buckets = np.rint(diag.energies / du)
    distinct = np.unique(buckets)
    return LevelQuantization(
        delta_u=du,
        u_min=float(distinct.min() * du),
        u_max=float(distinct.max() * du),
        level_count=int(distinct.size),
    )


def antidiagonal_symmetry_check(diag: DiagonalOperator) -> bool:
    """True when E[x] == E[dim-1-x] for all x within tolerance; the index
    complement reflects every register through the box center."""
    e = diag.energies
    return bool(np.max(np.abs(e - e[::-1])) <= ANTIDIAGONAL_TOL)


@dataclass(frozen=True)
class FoldedDiagonal:
    """Half of an antidiagonally symmetric diagonal; the other half is its
    mirror image."""

    half: np.ndarray
    label: str

    def reconstruct(self) -> np.ndarray:
        return np.concatenate([self.half, self.half[::-1]])


def antidiagonal_fold(diag: DiagonalOperator) -> FoldedDiagonal:
    if diag.dim % 2 != 0:
        raise ValidationError("can only fold even-length diagonals")
    if not antidiagonal_symmetry_check(diag):
        raise ValidationError(f"diagonal {diag.label!r} is not antidiagonally symmetric")
    return FoldedDiagonal(half=diag.energies[: diag.dim // 2].copy(), label=diag.label)
