"""Split-operator time stepping and configuration sampling.

A step applies the potential phase first and the kinetic factors second
(first-order splitting), or the potential in two half phases around the
kinetic factor (Strang). Kinetic factors act register by register in
particle-major, axis-ascending order; the registers are disjoint so the
order only fixes a convention.

Every operator is a unitary on the one state vector, and it acts in
place: step and kinetic.apply_kinetic_plan write into the amplitudes of
the StateVector they are given, and evolve steps the caller's state
itself. No state-sized array or StateVector is made per
operator. The potential is summed from small tables into the real part
of the phase's complex array, which becomes the phase in place, so no
float energy diagonal exists. A run thus peaks at two states, the state
and the phase, plus the tables and the kinetic slab temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NormDriftError, ResourceLimitError, ValidationError
from .grid import (
    GridSpec,
    ParticleSpec,
    StateVector,
    density,
    quantum_particles,
)
from .kinetic import (
    KineticTrotterPlan,
    SpectralKineticPlan,
    apply_kinetic_plan,
    make_spectral_plan,
    make_trotter_plan,
)
from .potential import composite_potential

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
    """Raise unless 1 <= n_t <= MAX_STEPS."""
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
        if self.T < 0 or not np.isfinite(self.T):
            raise ValidationError(f"T must be nonnegative, got {self.T}")
        check_steps(self.N_t)
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
    eps. phase is the factor the splitting applies, exp(-i eps V) for
    first-order and exp(-i eps V / 2) for Strang, or None without a
    potential term."""

    phase: np.ndarray | None
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
    phase = None
    if potential_terms:
        scale = -1j * eps if plan.splitting == "first-order" else -1j * (eps / 2.0)
        phase = np.zeros(grid.cells_per_axis ** (len(quantum) * grid.d), dtype=np.complex128)
        composite_potential(grid, particles, potential_terms, v_wall=plan.v_wall, out=phase.real)
        # A huge eps makes a NaN phase, which evolve's norm check catches.
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(scale, phase, out=phase)
            np.exp(phase, out=phase)

    kinetic: list[tuple[int, int, KineticTrotterPlan | SpectralKineticPlan]] = []
    make = make_trotter_plan if plan.kinetic_method == "trotter" else make_spectral_plan
    plans: dict[float, KineticTrotterPlan | SpectralKineticPlan] = {}
    for pq, particle in enumerate(quantum):
        if _kinetic_term_for(particle) not in plan.terms:
            continue
        if particle.mass not in plans:
            plans[particle.mass] = make(grid.cells_per_axis, grid.delta, particle.mass, eps)
        kinetic += [(pq, axis, plans[particle.mass]) for axis in range(grid.d)]
    return PreparedOperators(phase=phase, kinetic=kinetic)


def step(state: StateVector, plan: EvolutionPlan, operators: PreparedOperators) -> None:
    """Advance state by one eps, in place: the potential phase then the
    kinetic factors, or the Strang half-phase sandwich."""
    a = state.amplitudes
    phase = operators.phase
    if phase is not None:
        np.multiply(a, phase, out=a)
    for pq, axis, kplan in operators.kinetic:
        apply_kinetic_plan(state, pq, axis, kplan)
    if phase is not None and plan.splitting == "strang":
        np.multiply(a, phase, out=a)


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
    state, and state holds the last step taken, also when the norm check
    aborts. To keep the initial state, pass a copy.
    """
    roster = tuple(particles) if particles is not None else state.particles
    quantum = quantum_particles(roster)
    if len(quantum) != len(state.particles):
        raise ValidationError("quantum particle count does not match the state")
    if any(q.mass != s.mass or q.charge != s.charge for q, s in zip(quantum, state.particles)):
        raise ValidationError("quantum roster does not match the state's particles")

    ops = prepare_operators(state.grid, roster, plan)
    drift = np.empty(plan.N_t, dtype=float)
    for k in range(1, plan.N_t + 1):
        step(state, plan, ops)
        drift[k - 1] = abs(state.norm() - 1.0)
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
