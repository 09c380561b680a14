"""Diagonal potential-energy operators.

Coulomb interactions are diagonal in the position basis: each joint basis
state maps to a sum of pair energies e' q_p q_q / r over the selected
pairs. A diagonal is a flat float64 array of those energies, one entry
per basis state. Particles are classified by charge sign: negative
charge means electron, positive means nucleus. Two particles in the same
cell are regularized by replacing the vanishing separation with one cell
width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .grid import (
    GridSpec,
    ParticleSpec,
    cell_centers,
    clamped_position,
    quantum_particles,
    register_views,
)

# Coulomb coupling e^2 / (4 pi eps0) in atomic units.
E_PRIME = 1.0

COULOMB_TERMS = ("ee", "en", "nn", "all")

ANTIDIAGONAL_TOL = 1e-10

# composite_potential on a slab of cells holds at most this many float64
# arrays of the slab's size at once: the running sum, the term being
# built, one pair's distances, and the masks.
SLAB_ARRAYS = 4


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


def _check_cells(grid: GridSpec, cells: tuple[int, int] | None) -> tuple[int, int]:
    """The register-0 cell range [lo, hi); None means every cell."""
    if cells is None:
        return 0, grid.cells_per_axis
    lo, hi = (int(c) for c in cells)
    if not 0 <= lo < hi <= grid.cells_per_axis:
        raise ValidationError(f"cell range [{lo}, {hi}) outside [0, {grid.cells_per_axis})")
    return lo, hi


def _inverse_distance(squares: Sequence[np.ndarray], delta: float) -> np.ndarray:
    """1 / sqrt(sum of squared axis displacements), with a vanishing
    distance regularized to one cell width. The sum is built in one array
    of the broadcast shape."""
    dist = np.empty(np.broadcast_shapes(*(s.shape for s in squares)))
    dist[...] = squares[0]
    for s in squares[1:]:
        dist += s
    np.sqrt(dist, out=dist)
    same = dist == 0.0
    with np.errstate(divide="ignore"):
        inv = np.divide(1.0, dist, out=dist)
    inv[same] = 1.0 / delta
    return inv


def build_coulomb_diagonal(
    grid: GridSpec,
    particles: Sequence[ParticleSpec],
    term: str,
    cells: tuple[int, int] | None = None,
) -> np.ndarray:
    """Sum of pair Coulomb energies for the selected term over the joint
    basis of the quantum particles. Clamped particles contribute through
    their fixed positions; a clamped-clamped pair adds a constant.

    Each pair's energies are built by broadcasting register coordinates,
    so they span only the registers of that pair before being added in.
    With cells = (lo, hi), only register-0 cells lo..hi-1 are built: the
    contiguous slab of the full diagonal, with the same bytes."""
    if term not in COULOMB_TERMS:
        raise ValidationError(f"term must be one of {COULOMB_TERMS}, got {term!r}")
    particles = tuple(particles)
    quantum = quantum_particles(particles)
    if not quantum:
        raise ValidationError("need at least one quantum particle")
    lo, hi = _check_cells(grid, cells)
    d = grid.d
    D = grid.cells_per_axis
    registers = len(quantum) * d
    coords = register_views(cell_centers(grid), registers, (lo, hi))
    q_slot = {}
    slot = 0
    for i, p in enumerate(particles):
        if p.is_quantum:
            q_slot[i] = slot
            slot += 1

    energies = np.zeros((hi - lo,) + (D,) * (registers - 1), dtype=float)
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
    return energies.reshape(-1)


def _wall_energies(
    grid: GridSpec, n_particles: int, v_wall: float, cells: tuple[int, int]
) -> np.ndarray:
    """v_wall for every axis whose cell index is 0 or D - 1, summed over
    each particle's axes and then over the particles, from one 1-D table
    broadcast per register. Register 0 spans only cells lo..hi-1."""
    if v_wall < 0:
        raise ValidationError("wall height must be nonnegative")
    table = np.zeros(grid.cells_per_axis)
    table[[0, -1]] += v_wall
    views = register_views(table, n_particles * grid.d, cells)
    d = grid.d
    per_particle = [sum(views[p * d + 1 : (p + 1) * d], views[p * d]) for p in range(n_particles)]
    return sum(per_particle[1:], per_particle[0])


def composite_potential(
    grid: GridSpec,
    particles: Sequence[ParticleSpec],
    terms: Sequence[str],
    v_wall: float = 1e6,
    cells: tuple[int, int] | None = None,
) -> np.ndarray | None:
    """Sum the requested potential diagonals ('U_ee', 'U_en', 'U_nn',
    'wall') over the joint basis, in that order. Returns None when no term
    applies, and raises ValidationError when the sum holds a non-finite
    energy. With cells = (lo, hi), only register-0 cells lo..hi-1 are
    built: flat entries lo * D^(R-1) to hi * D^(R-1) of the full diagonal,
    bit for bit, for R registers."""
    quantum = quantum_particles(particles)
    if not quantum:
        raise ValidationError("need at least one quantum particle")
    cells = _check_cells(grid, cells)
    total = None
    for term in ("U_ee", "U_en", "U_nn", "wall"):
        if term not in terms:
            continue
        if term == "wall":
            piece = _wall_energies(grid, len(quantum), v_wall, cells).reshape(-1)
        else:
            piece = build_coulomb_diagonal(grid, particles, term.split("_")[1], cells)
        if total is None:
            total = piece
        else:
            total += piece
    if total is not None and not np.all(np.isfinite(total)):
        raise ValidationError(f"non-finite energies in potential {'+'.join(sorted(terms))!r}")
    return total


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


def quantize_levels(energies: np.ndarray, grid: GridSpec) -> LevelQuantization:
    """Bucket each energy to the nearest multiple of the quantization step
    and count distinct occupied levels."""
    du = level_spacing(grid)
    buckets = np.rint(energies / du)
    distinct = np.unique(buckets)
    return LevelQuantization(
        delta_u=du,
        u_min=float(distinct.min() * du),
        u_max=float(distinct.max() * du),
        level_count=int(distinct.size),
    )


def antidiagonal_symmetry_check(energies: np.ndarray) -> bool:
    """True when E[x] == E[dim-1-x] for all x within tolerance; the index
    complement reflects every register through the box center."""
    return bool(np.max(np.abs(energies - energies[::-1])) <= ANTIDIAGONAL_TOL)


def antidiagonal_fold(energies: np.ndarray) -> np.ndarray:
    """The first half of an antidiagonally symmetric diagonal; the second
    half is its mirror image."""
    if energies.size % 2 != 0:
        raise ValidationError("can only fold even-length diagonals")
    if not antidiagonal_symmetry_check(energies):
        raise ValidationError("diagonal is not antidiagonally symmetric")
    return energies[: energies.size // 2].copy()
