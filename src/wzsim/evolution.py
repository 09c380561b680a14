"""Split-operator time stepping and configuration sampling.

A step applies the potential phase first and the kinetic factors second
(first-order splitting), or the potential in two half phases around the
kinetic factor (Strang). Kinetic factors act register by register in
particle-major, axis-ascending order; the registers are disjoint so the
order only fixes a convention.

evolve steps one work buffer: a StateVector over a copy of the initial
amplitudes, or, with overwrite_input=True, the caller's state itself.
Every step writes into it through out=, so the phases, the FFTs and the
Trotter scans all act in place on that one array and no state-sized
array or StateVector is made per operator. The potential phase is built
slab by slab of register-0 cells, straight into its complex array, so no
full-size energy diagonal exists. A run with overwrite_input=True thus
peaks at two states, the state and the phase, plus slab-sized
temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NormDriftError, ValidationError
from .grid import (
    GridSpec,
    ParticleSpec,
    StateVector,
    density,
    quantum_particles,
    slab_bounds,
)
from .kinetic import (
    KineticTrotterPlan,
    SpectralKineticPlan,
    apply_spectral_plan,
    apply_trotter_plan,
    make_spectral_plan,
    make_trotter_plan,
)
from .potential import SLAB_ARRAYS, composite_potential

KINETIC_METHODS = ("trotter", "spectral")
SPLITTINGS = ("first-order", "strang")
HAMILTONIAN_TERMS = ("T_e", "T_n", "U_ee", "U_en", "U_nn", "wall")

NORM_ABORT_TOL = 1e-6
DEFAULT_SNAPSHOT_COUNT = 10

# sample_configurations draws this many shots at a time.
SHOT_CHUNK = 1 << 20


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
        if self.T < 0 or not np.isfinite(self.T):
            raise ValidationError(f"T must be nonnegative, got {self.T}")
        if self.N_t < 1:
            raise ValidationError(f"N_t must be >= 1, got {self.N_t}")
        if self.kinetic_method not in KINETIC_METHODS:
            raise ValidationError(f"kinetic_method must be one of {KINETIC_METHODS}")
        if self.splitting not in SPLITTINGS:
            raise ValidationError(f"splitting must be one of {SPLITTINGS}")
        unknown = self.terms - set(HAMILTONIAN_TERMS)
        if unknown:
            raise ValidationError(f"unknown Hamiltonian terms {sorted(unknown)}")

    @property
    def eps(self) -> float:
        return self.T / self.N_t


@dataclass
class PreparedOperators:
    """Potential phase and per-register kinetic plans precomputed for one
    eps. Only the phase the splitting uses is built: phase_full for
    first-order, phase_half for Strang; the other stays None."""

    phase_full: np.ndarray | None
    phase_half: np.ndarray | None
    kinetic: list[tuple[int, int, KineticTrotterPlan | SpectralKineticPlan]]


def _kinetic_term_for(particle: ParticleSpec) -> str:
    return "T_n" if particle.is_nucleus else "T_e"


def prepare_operators(
    grid: GridSpec, particles: Sequence[ParticleSpec], plan: EvolutionPlan
) -> PreparedOperators:
    quantum = quantum_particles(particles)
    if not quantum:
        raise ValidationError("need at least one quantum particle")
    potential_terms = [t for t in plan.terms if t.startswith("U_") or t == "wall"]
    eps = plan.eps
    phase_full = phase_half = None
    if potential_terms:
        scale = -1j * eps if plan.splitting == "first-order" else -1j * (eps / 2.0)
        D = grid.cells_per_axis
        rows = D ** (len(quantum) * grid.d - 1)
        phase = np.empty(D * rows, dtype=np.complex128)
        bounds = slab_bounds(D, SLAB_ARRAYS * 8 * rows)
        for lo, hi in zip(bounds, bounds[1:]):
            diag = composite_potential(
                grid, particles, potential_terms, v_wall=plan.v_wall, cells=(lo, hi)
            )
            slab = phase[lo * rows : hi * rows]
            np.multiply(scale, diag.energies, out=slab)
            np.exp(slab, out=slab)
        if plan.splitting == "first-order":
            phase_full = phase
        else:
            phase_half = phase

    kinetic: list[tuple[int, int, KineticTrotterPlan | SpectralKineticPlan]] = []
    make = make_trotter_plan if plan.kinetic_method == "trotter" else make_spectral_plan
    plans: dict[float, KineticTrotterPlan | SpectralKineticPlan] = {}
    for pq, particle in enumerate(quantum):
        if _kinetic_term_for(particle) not in plan.terms:
            continue
        if particle.mass not in plans:
            plans[particle.mass] = make(grid.cells_per_axis, grid.delta, particle.mass, eps)
        kinetic += [(pq, axis, plans[particle.mass]) for axis in range(grid.d)]
    return PreparedOperators(phase_full=phase_full, phase_half=phase_half, kinetic=kinetic)


def step(
    state: StateVector,
    plan: EvolutionPlan,
    operators: PreparedOperators,
    out: StateVector | None = None,
) -> StateVector:
    """Advance one eps: potential phase then kinetic factor, or the Strang
    half-phase sandwich. With out (which may be state itself) the result is
    written into out.amplitudes and out is returned; without it, a new
    StateVector."""
    out = state.copy_into(out)
    a = out.amplitudes
    first_order = plan.splitting == "first-order"
    phase = operators.phase_full if first_order else operators.phase_half
    if phase is not None:
        np.multiply(a, phase, out=a)
    for pq, axis, kplan in operators.kinetic:
        if isinstance(kplan, KineticTrotterPlan):
            apply_trotter_plan(out, pq, axis, kplan, out=out)
        else:
            apply_spectral_plan(out, pq, axis, kplan, out=out)
    if not first_order and phase is not None:
        np.multiply(a, phase, out=a)
    return out


@dataclass
class EvolutionReport:
    final_state: StateVector
    norm_drift: np.ndarray
    snapshots: list[tuple[int, np.ndarray]] = field(default_factory=list)

    @property
    def max_norm_drift(self) -> float:
        return float(self.norm_drift.max()) if self.norm_drift.size else 0.0


def default_snapshot_steps(n_t: int, count: int = DEFAULT_SNAPSHOT_COUNT) -> tuple[int, ...]:
    return tuple(sorted({max(1, round(i * n_t / count)) for i in range(1, count + 1)}))


def evolve(
    state: StateVector,
    plan: EvolutionPlan,
    particles: Sequence[ParticleSpec] | None = None,
    snapshot_steps: Sequence[int] | None = None,
    overwrite_input: bool = False,
) -> EvolutionReport:
    """Run N_t steps, recording per-step norm drift and density snapshots.

    particles may include clamped nuclei; its quantum subset must match the
    state's register layout. Aborts when |norm - 1| exceeds 1e-6.

    By default the steps act on a copy and state is left as it was. With
    overwrite_input, as numpy's overwrite_x, state's own amplitudes are the
    work buffer: no copy is made, the report's final_state is state, and
    state holds the last step taken, also when the norm check aborts.
    """
    roster = tuple(particles) if particles is not None else state.particles
    quantum = quantum_particles(roster)
    if len(quantum) != len(state.particles):
        raise ValidationError("quantum particle count does not match the state")
    if any(q.mass != s.mass or q.charge != s.charge for q, s in zip(quantum, state.particles)):
        raise ValidationError("quantum roster does not match the state's particles")
    if snapshot_steps is None:
        snapshot_steps = default_snapshot_steps(plan.N_t)
    wanted = set(int(s) for s in snapshot_steps)
    bad = [s for s in wanted if not 1 <= s <= plan.N_t]
    if bad:
        raise ValidationError(f"snapshot steps {sorted(bad)} outside [1, {plan.N_t}]")

    ops = prepare_operators(state.grid, roster, plan)
    drift = np.empty(plan.N_t, dtype=float)
    snapshots: list[tuple[int, np.ndarray]] = []
    work = state if overwrite_input else state.with_amplitudes(state.amplitudes.copy())
    for k in range(1, plan.N_t + 1):
        step(work, plan, ops, out=work)
        drift[k - 1] = abs(work.norm() - 1.0)
        if drift[k - 1] > NORM_ABORT_TOL:
            raise NormDriftError(
                f"norm drift {drift[k - 1]:.3e} at step {k} exceeds {NORM_ABORT_TOL}"
            )
        if k in wanted:
            snapshots.append((k, density(work)))
    return EvolutionReport(final_state=work, norm_drift=drift, snapshots=snapshots)


def sample_configurations(state: StateVector, shots: int, seed: int) -> np.ndarray:
    """Histogram of shots independent draws from the state's density.

    Uses a counter-based generator so a fixed seed reproduces the exact
    histogram; counts sum to shots.
    """
    if shots < 1:
        raise ValidationError(f"shots must be >= 1, got {shots}")
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
