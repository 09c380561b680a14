"""Diagonal potential-energy operators.

Coulomb interactions are diagonal in the position basis: each joint basis
state maps to a sum of pair energies e' q_p q_q / r over the selected
pairs, plus the wall's v_wall once per register at cell 0 or D - 1. A
diagonal is a flat float64 array of those energies, one entry per basis
state of the (D,) * R register tensor. Every term is an (index, table)
pair, added in one way, energies[index] += table: the table is small and
broadcasts over the tensor, as each term depends on one particle's cell,
on one pair's displacement or on nothing. _coulomb_terms and _wall_terms
yield the terms in the order of the sums. Particles are classified by
charge sign: negative charge means electron, positive means nucleus. Two
particles in the same cell are regularized by replacing the vanishing
separation with one cell width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError
from .grid import (
    GridSpec,
    ParticleSpec,
    cell_centers,
    clamped_position,
    quantum_particles,
    register_views,
    slab_bounds,
)

# Coulomb coupling e^2 / (4 pi eps0) in atomic units.
E_PRIME = 1.0

COULOMB_TERMS = ("ee", "en", "nn", "all")

ANTIDIAGONAL_TOL = 1e-10


@dataclass(frozen=True)
class LevelQuantization:
    """Distinct-levels summary of a diagonal after bucketing to multiples
    of delta_u. u_min and u_max are the quantized extremes."""

    delta_u: float
    u_min: float
    u_max: float
    level_count: int


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


def _pair_table(displacements: Sequence[np.ndarray], qq: float, delta: float) -> np.ndarray:
    """e' qq / r over per-axis displacements that broadcast into one table,
    with a vanishing r regularized to one cell width."""
    table = np.zeros(np.broadcast_shapes(*(x.shape for x in displacements)))
    for x in displacements:
        table += x * x
    np.sqrt(table, out=table)
    table[table == 0.0] = delta
    np.divide(1.0, table, out=table)
    table *= E_PRIME * qq
    return table


def _coulomb_terms(
    grid: GridSpec, particles: tuple[ParticleSpec, ...], term: str
) -> Iterator[tuple[tuple, np.ndarray]]:
    """The selected pairs' terms, in roster order. Two quantum particles:
    a window of D cells per axis of the (2D-1)^d table over their
    displacement, a view. A quantum particle and a clamped one: the D^d
    table over the quantum particle's cells, in blocks of rows under
    grid.SLAB_BYTES, as it is half a state when that particle is the only
    one. Two clamped particles: a constant."""
    d = grid.d
    D = grid.cells_per_axis
    first = {}
    for i, p in enumerate(particles):
        if p.is_quantum:
            first[i] = len(first) * d
    registers = len(first) * d

    delta = grid.delta
    centers = register_views(cell_centers(grid), d)
    displacements = register_views(delta * np.arange(1 - D, D, dtype=float), d)
    backwards = (slice(None, None, -1),) * d
    rows = slab_bounds(D, 8 * D ** (d - 1))
    for i in range(len(particles)):
        for j in range(i + 1, len(particles)):
            pi, pj = particles[i], particles[j]
            if not _pair_in_term(pi, pj, term):
                continue
            qq = pi.charge * pj.charge
            if qq == 0.0:
                continue
            if pi.is_quantum and pj.is_quantum:
                # window[x, y] = table[x + y], so reversed on x it is the
                # table at displacement y - x, for cells x of particle i
                # and y of particle j.
                table = _pair_table(displacements, qq, delta)
                view = sliding_window_view(table, (D,) * d)[backwards]
                axes = [*range(first[i], first[i] + d), *range(first[j], first[j] + d)]
                yield (), np.expand_dims(view, tuple(set(range(registers)) - set(axes)))
            elif pi.is_quantum or pj.is_quantum:
                a = first[i] if pi.is_quantum else first[j]
                fixed = clamped_position(grid, pj if pi.is_quantum else pi)
                disp = [c - fixed[k] for k, c in enumerate(centers)]
                for lo, hi in zip(rows, rows[1:]):
                    block = _pair_table([disp[0][lo:hi], *disp[1:]], qq, delta)
                    block = block.reshape(block.shape + (1,) * (registers - a - d))
                    yield (slice(None),) * a + (slice(lo, hi),), block
            else:
                r = clamped_position(grid, pi) - clamped_position(grid, pj)
                yield (), _pair_table(list(r), qq, delta)


def _wall_terms(registers: int, v_wall: float) -> Iterator[tuple[tuple, float]]:
    """The wall's terms: v_wall at cell 0 and cell D - 1 of every
    register, one face of the tensor at a time. A basis state thus gets
    v_wall once per register on a wall, added in register order whichever
    particles those registers belong to."""
    for r in range(registers):
        for edge in (0, -1):
            yield (slice(None),) * r + (edge,), v_wall


def _add_terms(energies: np.ndarray, terms: Iterable[tuple[tuple, np.ndarray | float]]) -> None:
    """The one way a potential term enters a diagonal, in term order."""
    for index, table in terms:
        energies[index] += table


def build_coulomb_diagonal(
    grid: GridSpec,
    particles: Sequence[ParticleSpec],
    term: str,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Sum of pair Coulomb energies for the selected term over the joint
    basis of the quantum particles, added into the flat diagonal out (a
    new zeroed one when out is None), which is returned."""
    if term not in COULOMB_TERMS:
        raise ValidationError(f"term must be one of {COULOMB_TERMS}, got {term!r}")
    particles = tuple(particles)
    quantum = quantum_particles(particles)
    if not quantum:
        raise ValidationError("need at least one quantum particle")
    D = grid.cells_per_axis
    registers = len(quantum) * grid.d
    flat = np.zeros(D**registers) if out is None else out
    _add_terms(flat.reshape((D,) * registers), _coulomb_terms(grid, particles, term))
    return flat


def composite_potential(
    grid: GridSpec,
    particles: Sequence[ParticleSpec],
    terms: Sequence[str],
    v_wall: float = 1e6,
    out: np.ndarray | None = None,
) -> np.ndarray | None:
    """Sum the requested potential diagonals ('U_ee', 'U_en', 'U_nn',
    'wall') over the joint basis, in that order, into the flat diagonal
    out (a new zeroed one when out is None), which is returned: one
    running sum, with nothing diagonal-sized beside it. Returns None when
    no term applies, and raises ValidationError when the sum holds a
    non-finite energy."""
    quantum = quantum_particles(particles)
    if not quantum:
        raise ValidationError("need at least one quantum particle")
    applied = [t for t in ("U_ee", "U_en", "U_nn", "wall") if t in terms]
    if not applied:
        return None
    if "wall" in applied and v_wall < 0:
        raise ValidationError("wall height must be nonnegative")
    registers = len(quantum) * grid.d
    total = np.zeros(grid.cells_per_axis**registers) if out is None else out
    # An overflow here is caught below, as a non-finite sum.
    with np.errstate(over="ignore", invalid="ignore"):
        for term in applied:
            if term == "wall":
                energies = total.reshape((grid.cells_per_axis,) * registers)
                _add_terms(energies, _wall_terms(registers, v_wall))
            else:
                # A module global, so that a wrapper of it sees this call.
                build_coulomb_diagonal(grid, particles, term.split("_")[1], out=total)
    # min and max propagate NaN and +-inf, and allocate no mask.
    if not (np.isfinite(total.min()) and np.isfinite(total.max())):
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
    u_min = -scale * n_e * sum(zs)
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
