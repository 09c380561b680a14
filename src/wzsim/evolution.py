"""Split-operator time stepping and configuration sampling.

Every step is the same sequence: the potential phase, then the kinetic
factors. evolve multiplies the first phase in before its first step;
each step, one call of step, then applies the kinetic factors, takes the
norm and multiplies in the phase the next step starts with (see evolve).
Kinetic factors act as (register, plan) pairs, in the ascending register
order of GridSpec.registers; the registers are disjoint so the order
only fixes a convention.

Every operator is a unitary on the one state vector, and it acts in
place: step and kinetic.apply_kinetic_plan write into the amplitudes of
the StateVector they are given, and evolve steps the caller's state
itself. No state-sized array or StateVector is made per operator.

A step of a state of two or more registers is two passes over the
state: register 0's kinetic factor, then one _cell_pass over slabs of
whole register-0 cells, on grid.on_slabs. On each slab, while it is in
cache, the cell pass applies the kinetic factors of the other
registers, whose lines lie inside a register-0 cell, takes the slab's
norm_chunk_sums and multiplies in the next step's tables. The first
phase is one cell pass with no kinetic factor, on every state. Every
amplitude meets the operators in the order of one pass per operator,
so the bytes are those of that schedule. A step of a one-register state
takes its operators in turn, each over the whole state.

The potential phase factors over the terms of V (Wiesner; Zalka), so it
is kept as small unit-modulus tables that broadcast into the register
tensor: one per quantum particle, the exp of its one-body energies, and
one per pair of quantum particles, the exp of the pair's Coulomb table
over their displacement. A run of two or more quantum particles thus
peaks at one state plus the tables, a few KiB, and the kinetic slab
temporaries. Every table has one axis per register; with one quantum
particle the one table is the whole potential phase, a second
state-sized array, summed from small tables into the real part of its
complex array and exponentiated there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NormDriftError, ResourceLimitError, ValidationError
from .grid import (
    GridSpec,
    ParticleSpec,
    StateVector,
    check_integer,
    check_real,
    density,
    norm_chunk_sums,
    norm_of_chunk_sums,
    norm_unit,
    on_slabs,
    quantum_particles,
    worker_count,
)
from .kinetic import (
    KineticPlan,
    apply_kinetic_plan,
    apply_on_cells,
    make_spectral_plan,
    make_trotter_plan,
)
from .potential import composite_potential, pair_window, quantum_pair_tables

KINETIC_METHODS = ("trotter", "spectral")
SPLITTINGS = ("first-order", "strang")
HAMILTONIAN_TERMS = ("T_e", "T_n", "U_ee", "U_en", "U_nn", "wall")

NORM_ABORT_TOL = 1e-6

# The most steps a plan takes: evolve keeps one float of norm drift per
# step, 128 MiB at this bound.
MAX_STEPS = 1 << 24

# sample_configurations draws this many shots at a time.
SHOT_CHUNK = 1 << 20


def check_steps(n_t: int) -> None:
    """Raise unless n_t is an integer and 1 <= n_t <= MAX_STEPS."""
    check_integer("the step count", n_t)
    if n_t < 1:
        raise ValidationError(f"need at least one step, got {n_t}")
    if n_t > MAX_STEPS:
        raise ResourceLimitError(f"{n_t} steps exceed the limit of {MAX_STEPS}")


@dataclass(frozen=True)
class EvolutionPlan:
    """Time grid and operator selection for one run."""

    T: float
    N_t: int
    kinetic_method: str = "spectral"
    terms: frozenset[str] = frozenset({"T_e"})
    splitting: str = "first-order"
    v_wall: float = 1e6

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", frozenset(self.terms))
        check_real("T", self.T)
        check_real("v_wall", self.v_wall)
        if self.T < 0 or not np.isfinite(self.T):
            raise ValidationError(f"T must be nonnegative, got {self.T}")
        check_steps(self.N_t)
        if self.kinetic_method not in KINETIC_METHODS:
            raise ValidationError(f"kinetic_method must be one of {KINETIC_METHODS}")
        if self.splitting not in SPLITTINGS:
            raise ValidationError(f"splitting must be one of {SPLITTINGS}")
        if not self.v_wall >= 0:
            raise ValidationError(f"v_wall must be nonnegative, got {self.v_wall}")
        unknown = self.terms - set(HAMILTONIAN_TERMS)
        if unknown:
            raise ValidationError(f"unknown Hamiltonian terms {sorted(unknown)}")

    @property
    def eps(self) -> float:
        return self.T / self.N_t


@dataclass
class PreparedOperators:
    """Potential phase tables and (register, kinetic plan) pairs
    precomputed for one eps.

    The product of the phases is the factor the splitting applies,
    exp(-i eps V) for first-order and exp(-i eps V / 2) for Strang. Each
    is a unit-modulus table that broadcasts into the (D,) * R register
    tensor: first one D^d table per quantum particle, from
    composite_potential over that particle and the clamped ones (its
    Coulomb pairs with them and its wall faces, and on the first particle
    the constants of the clamped pairs), then one (2D-1)^d table per pair
    of quantum particles, seen through potential.pair_window. With one
    quantum particle the one table is the whole phase, as big as the
    state. Empty without a potential term.

    evolve multiplies phases in before its first step. fused is the
    phase of a whole eps, which each step but the last multiplies in for
    the next: phases itself for a first-order plan. For Strang
    it replaces the trailing half phase of one step and the leading one
    of the next: the tables of exp(-i eps V), or with one quantum
    particle its one half table listed twice, so that no second
    state-sized array is made."""

    phases: list[np.ndarray]
    kinetic: list[tuple[int, KineticPlan]]
    fused: list[np.ndarray]


def _exp_in_place(scale: complex, energies: np.ndarray) -> np.ndarray:
    """exp(scale * E) in the complex array energies, whose real part holds E."""
    # A huge eps makes a NaN phase, which evolve's norm check catches.
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(scale, energies, out=energies)
        return np.exp(energies, out=energies)


def _phase_tables(
    grid: GridSpec, particles: tuple[ParticleSpec, ...], terms: list[str], plan: EvolutionPlan
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The PreparedOperators phases and fused tables. Raises
    ValidationError unless the sums of the tables' least and of their
    greatest energies are finite, so that no total potential overflows."""
    strang = plan.splitting == "strang"
    whole = -1j * plan.eps
    scale = -1j * (plan.eps / 2.0) if strang else whole
    D, d = grid.cells_per_axis, grid.d
    positions = [k for k, p in enumerate(particles) if p.is_quantum]
    registers = len(positions) * d
    # A fused table of its own for each small table; one quantum
    # particle's is as big as the state.
    small = strang and len(positions) > 1
    phases, fused = [], []
    lowest = highest = 0.0
    for q, k in enumerate(positions):
        own = tuple(p for m, p in enumerate(particles) if m == k or not p.is_quantum)
        table = np.zeros(D**d, dtype=np.complex128)
        # A module global, so that a wrapper of it sees this call.
        energies = composite_potential(
            grid, own, terms, v_wall=plan.v_wall, out=table.real, clamped_pairs=q == 0
        )
        lowest += float(energies.min())
        highest += float(energies.max())
        shape = (1,) * (q * d) + (D,) * d + (1,) * (registers - (q + 1) * d)
        if small:
            fused.append(_exp_in_place(whole, table.copy()).reshape(shape))
        _exp_in_place(scale, table)
        phases.append(table.reshape(shape))
    # An overflow here is caught below, as a non-finite extreme.
    with np.errstate(over="ignore", invalid="ignore"):
        for firsts, energies in quantum_pair_tables(grid, particles, terms):
            lowest += float(energies.min())
            highest += float(energies.max())
            table = _exp_in_place(scale, energies.astype(np.complex128))
            phases.append(pair_window(table, firsts, registers))
            if small:
                table = _exp_in_place(whole, energies.astype(np.complex128))
                fused.append(pair_window(table, firsts, registers))
    if not (math.isfinite(lowest) and math.isfinite(highest)):
        raise ValidationError(f"non-finite energies in potential {'+'.join(sorted(terms))!r}")
    if not strang:
        fused = phases
    elif not small:
        fused = phases * 2
    return phases, fused


def prepare_operators(
    grid: GridSpec, particles: Sequence[ParticleSpec], plan: EvolutionPlan
) -> PreparedOperators:
    particles = tuple(particles)
    quantum = quantum_particles(particles)
    if not quantum:
        raise ValidationError("need at least one quantum particle")
    potential_terms = [t for t in plan.terms if t.startswith("U_") or t == "wall"]
    phases = fused = []
    if potential_terms:
        phases, fused = _phase_tables(grid, particles, potential_terms, plan)

    kinetic: list[tuple[int, KineticPlan]] = []
    make = make_trotter_plan if plan.kinetic_method == "trotter" else make_spectral_plan
    plans: dict[float, KineticPlan] = {}
    for q, particle in enumerate(quantum):
        if particle.kinetic_term not in plan.terms:
            continue
        if particle.mass not in plans:
            plans[particle.mass] = make(grid.cells_per_axis, grid.delta, particle.mass, plan.eps)
        kinetic += [(r, plans[particle.mass]) for r in grid.registers(q)]
    return PreparedOperators(phases=phases, kinetic=kinetic, fused=fused)


def _cell_pass(
    state: StateVector, kinetic: list[tuple[int, KineticPlan]], following: list[np.ndarray]
) -> float:
    """One on_slabs pass over slabs of whole register-0 cells: on each
    slab, the kinetic factors given, whose lines lie inside a register-0
    cell, then the slab's norm_chunk_sums, then the tables following.
    Returns the norm the chunk sums make in chunk order, the state's
    before following. step runs it for registers 1 and up, and evolve for
    the first phase, with no kinetic factor, on any state.

    A slab is cut in units of one cell or one NORM_CHUNK, whichever is
    more, and at most the whole state: both are powers of two, so no
    chunk crosses a slab and the norm is vector_norm's float whatever the
    cut or thread count. The slab stays under SLAB_BYTES as if it held the
    kinetic temporaries, or one, so the passes after the first find it in
    cache; a kernel cuts its own lines on a larger one as on_slabs would."""
    t, amps = state.tensor, state.amplitudes
    cell = amps.size // t.shape[0]
    unit = min(amps.size, norm_unit(cell))
    units = amps.reshape(-1, unit)
    # Each slab's chunk sums, at the slab's first unit.
    sums: list[list[float]] = [[]] * len(units)

    def work(cut: slice) -> None:
        cells = slice(cut.start * unit // cell, cut.stop * unit // cell)
        slab = t[cells]
        for register, kplan in kinetic:
            apply_on_cells(slab, register, kplan)
        sums[cut.start] = norm_chunk_sums(units[cut].reshape(-1))
        for table in following:
            np.multiply(slab, table[cells] if table.shape[0] > 1 else table, out=slab)

    temporaries = max([1] + [kplan.temporaries for _, kplan in kinetic])
    on_slabs(work, units, temporaries)
    return norm_of_chunk_sums(itertools.chain.from_iterable(sums))


def step(
    state: StateVector, kinetic: list[tuple[int, KineticPlan]], following: list[np.ndarray]
) -> float:
    """The rest of a step after its phase, in place: each (register,
    kinetic plan) pair, the state's norm, then the tables following, which
    the next step starts with. Returns the norm. A state of two or more
    registers takes two passes, register 0's kinetic factor and one
    _cell_pass for the rest; a one-register state takes them in turn."""
    t = state.tensor
    if t.ndim == 1:
        for register, kplan in kinetic:
            apply_kinetic_plan(state, register, kplan)
        norm = state.norm()
        for table in following:
            np.multiply(t, table, out=t)
        return norm
    for register, kplan in kinetic:
        if register == 0:
            apply_kinetic_plan(state, register, kplan)
    return _cell_pass(state, [(r, kplan) for r, kplan in kinetic if r > 0], following)


@dataclass
class EvolutionReport:
    final_state: StateVector
    norm_drift: np.ndarray

    @property
    def max_norm_drift(self) -> float:
        return float(self.norm_drift.max()) if self.norm_drift.size else 0.0


def evolve(
    state: StateVector,
    plan: EvolutionPlan,
    particles: Sequence[ParticleSpec] | None = None,
) -> EvolutionReport:
    """Run N_t steps on state in place, recording the per-step norm drift.

    particles may include clamped nuclei; its quantum subset must match the
    state's register layout. Aborts unless |norm - 1| is at most 1e-6, so
    a NaN norm aborts too.

    state's own amplitudes are the work buffer: the report's final_state is
    state, and state holds the steps taken. When the norm check aborts a
    step before the last, state also holds the tables the next step
    starts with, which the step multiplies in before evolve checks its
    norm. To keep the initial state, pass a copy.

    ops.phases is multiplied in by one _cell_pass before the first step,
    whose norm goes unused. Each step is then one call of step: it takes
    the norm after its kinetic factors and then multiplies in the tables
    the next step starts with, ops.fused, the same tables as ops.phases
    for a first-order plan. A Strang run is thus fused
    (Strang 1968): the trailing half phase of each step and the leading
    one of the next are one whole-step phase, and the half phases follow
    the last step once more, before its norm check, which takes the norm
    again after them. That is one phase pass a step fewer than chained
    half-phase sandwiches, and the same product but for rounding (N_t = 1
    is the sandwich); the drift of every step but the last is taken
    without its trailing half phase, of modulus one.
    """
    roster = tuple(particles) if particles is not None else state.particles
    quantum = quantum_particles(roster)
    if len(quantum) != len(state.particles):
        raise ValidationError("quantum particle count does not match the state")
    if any(q.mass != s.mass or q.charge != s.charge for q, s in zip(quantum, state.particles)):
        raise ValidationError("quantum roster does not match the state's particles")

    # A malformed WZ_THREADS is rejected before a step changes the state.
    worker_count()
    ops = prepare_operators(state.grid, roster, plan)
    tail = ops.phases if plan.splitting == "strang" else []
    if ops.phases:
        _cell_pass(state, [], ops.phases)
    drift = np.empty(plan.N_t, dtype=float)
    for k in range(1, plan.N_t + 1):
        last = k == plan.N_t
        norm = step(state, ops.kinetic, tail if last else ops.fused)
        if last and tail:
            norm = state.norm()
        drift[k - 1] = abs(norm - 1.0)
        if not drift[k - 1] <= NORM_ABORT_TOL:
            raise NormDriftError(
                f"norm drift {drift[k - 1]:.3e} at step {k} exceeds {NORM_ABORT_TOL}"
            )
    return EvolutionReport(final_state=state, norm_drift=drift)


def sample_configurations(state: StateVector, shots: int, seed: int) -> np.ndarray:
    """Histogram of shots independent draws from the state's density.

    Uses a counter-based generator so a fixed seed reproduces the exact
    histogram; counts sum to shots.
    """
    check_integer("shots", shots)
    check_integer("seed", seed)
    if shots < 1 or seed < 0:
        raise ValidationError(f"need shots >= 1 and seed >= 0, got {shots} and {seed}")
    p = density(state)
    total = p.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValidationError("state has no probability mass")
    # Normalized and accumulated in place: the density is the only
    # state-sized array.
    np.divide(p, total, out=p)
    cdf = np.cumsum(p, out=p)
    cdf[-1] = 1.0
    rng = np.random.Generator(np.random.Philox(int(seed)))
    counts = np.zeros(state.dim, dtype=np.int64)
    # The float64 stream is sequential, so chunks draw what one
    # rng.random(shots) would, in 8 bytes per chunk entry, not per shot.
    for done in range(0, shots, SHOT_CHUNK):
        draws = rng.random(min(SHOT_CHUNK, shots - done))
        counts += np.bincount(np.searchsorted(cdf, draws, side="right"), minlength=state.dim)
    return counts
