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

A time step never needs the whole diagonal, only its phase, which
factors over the terms. So evolution builds one D^d diagonal per quantum
particle, composite_potential over that particle and the clamped ones,
and takes each pair of quantum particles from quantum_pair_tables as its
(2D-1)^d table over their displacement, which pair_window views into the
register tensor. The full diagonal is built only for one quantum
particle, where it is the particle's own, and for the references.
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
    check_real,
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


def _first_registers(particles: Sequence[ParticleSpec], d: int) -> dict[int, int]:
    """The first register of each quantum particle, by roster index."""
    first = {}
    for i, p in enumerate(particles):
        if p.is_quantum:
            first[i] = len(first) * d
    return first


def _selected_pairs(
    particles: Sequence[ParticleSpec], term: str
) -> Iterator[tuple[int, int, float]]:
    """(i, j, qq) for the pairs i < j of the term with a nonzero charge
    product qq, in roster order."""
    for i in range(len(particles)):
        for j in range(i + 1, len(particles)):
            pi, pj = particles[i], particles[j]
            qq = pi.charge * pj.charge
            if _pair_in_term(pi, pj, term) and qq != 0.0:
                yield i, j, qq


def _displacements(grid: GridSpec) -> list[np.ndarray]:
    """The 2D - 1 displacements of one axis, as views along each of d axes."""
    D = grid.cells_per_axis
    return register_views(grid.delta * np.arange(1 - D, D, dtype=float), grid.d)


def pair_window(table: np.ndarray, firsts: tuple[int, int], registers: int) -> np.ndarray:
    """A (2D-1)^d table over the displacement of two quantum particles, as
    a view that broadcasts into the (D,) * registers tensor, where firsts
    are the particles' first registers. window[x, y] = table[x + y], so
    reversed on x it is the table at displacement y - x, for cells x of
    the first particle and y of the second."""
    d = table.ndim
    D = (table.shape[0] + 1) // 2
    view = sliding_window_view(table, (D,) * d)[(slice(None, None, -1),) * d]
    axes = {r for first in firsts for r in range(first, first + d)}
    return np.expand_dims(view, tuple(set(range(registers)) - axes))


def _coulomb_terms(
    grid: GridSpec, particles: tuple[ParticleSpec, ...], term: str, clamped_pairs: bool = True
) -> Iterator[tuple[tuple, np.ndarray]]:
    """The selected pairs' terms, in roster order. Two quantum particles:
    the pair_window of their table, a view. A quantum particle and a
    clamped one: the D^d table over the quantum particle's cells, in
    blocks of rows under grid.SLAB_BYTES, as it is half a state when that
    particle is the only one. Two clamped particles: a constant, unless
    clamped_pairs is false."""
    d = grid.d
    first = _first_registers(particles, d)
    registers = len(first) * d
    delta = grid.delta
    centers = register_views(cell_centers(grid), d)
    displacements = _displacements(grid)
    rows = slab_bounds(grid.cells_per_axis, 8 * grid.cells_per_axis ** (d - 1))
    for i, j, qq in _selected_pairs(particles, term):
        pi, pj = particles[i], particles[j]
        if pi.is_quantum and pj.is_quantum:
            table = _pair_table(displacements, qq, delta)
            yield (), pair_window(table, (first[i], first[j]), registers)
        elif pi.is_quantum or pj.is_quantum:
            a = first[i] if pi.is_quantum else first[j]
            fixed = clamped_position(grid, pj if pi.is_quantum else pi)
            disp = [c - fixed[k] for k, c in enumerate(centers)]
            for lo, hi in zip(rows, rows[1:]):
                block = _pair_table([disp[0][lo:hi], *disp[1:]], qq, delta)
                block = block.reshape(block.shape + (1,) * (registers - a - d))
                yield (slice(None),) * a + (slice(lo, hi),), block
        elif clamped_pairs:
            r = clamped_position(grid, pi) - clamped_position(grid, pj)
            yield (), _pair_table(list(r), qq, delta)


def quantum_pair_tables(
    grid: GridSpec, particles: Sequence[ParticleSpec], terms: Sequence[str]
) -> Iterator[tuple[tuple[int, int], np.ndarray]]:
    """The requested Coulomb terms' pairs of two quantum particles, in the
    order of composite_potential's sums: for each, the two particles'
    first registers, as pair_window takes them, and the pair's (2D-1)^d
    table of e' qq / r over their displacement."""
    particles = tuple(particles)
    first = _first_registers(particles, grid.d)
    displacements = _displacements(grid)
    for term in ("U_ee", "U_en", "U_nn"):
        if term not in terms:
            continue
        for i, j, qq in _selected_pairs(particles, term.split("_")[1]):
            if particles[i].is_quantum and particles[j].is_quantum:
                yield (first[i], first[j]), _pair_table(displacements, qq, grid.delta)


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
    clamped_pairs: bool = True,
) -> np.ndarray:
    """Sum of pair Coulomb energies for the selected term over the joint
    basis of the quantum particles, added into the flat diagonal out (a
    new zeroed one when out is None), which is returned. clamped_pairs
    false leaves out the constants of two clamped particles."""
    if term not in COULOMB_TERMS:
        raise ValidationError(f"term must be one of {COULOMB_TERMS}, got {term!r}")
    particles = tuple(particles)
    quantum = quantum_particles(particles)
    if not quantum:
        raise ValidationError("need at least one quantum particle")
    D = grid.cells_per_axis
    registers = len(quantum) * grid.d
    flat = np.zeros(D**registers) if out is None else out
    terms = _coulomb_terms(grid, particles, term, clamped_pairs)
    _add_terms(flat.reshape((D,) * registers), terms)
    return flat


def composite_potential(
    grid: GridSpec,
    particles: Sequence[ParticleSpec],
    terms: Sequence[str],
    v_wall: float = 1e6,
    out: np.ndarray | None = None,
    clamped_pairs: bool = True,
) -> np.ndarray | None:
    """Sum the requested potential diagonals ('U_ee', 'U_en', 'U_nn',
    'wall') over the joint basis, in that order, into the flat diagonal
    out (a new zeroed one when out is None), which is returned: one
    running sum, with nothing diagonal-sized beside it. clamped_pairs
    false leaves out the constants of two clamped particles. Returns None
    when no term applies, and raises ValidationError when the sum holds a
    non-finite energy."""
    quantum = quantum_particles(particles)
    if not quantum:
        raise ValidationError("need at least one quantum particle")
    applied = [t for t in ("U_ee", "U_en", "U_nn", "wall") if t in terms]
    if not applied:
        return None
    if "wall" in applied:
        check_real("wall height", v_wall)
        if v_wall < 0:
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
                build_coulomb_diagonal(
                    grid, particles, term.split("_")[1], out=total, clamped_pairs=clamped_pairs
                )
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
