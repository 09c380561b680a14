"""Spatial discretization and position-basis encoding.

Conventions used throughout the package:

* Hartree atomic units: hbar = 1, electron mass = 1, and the Coulomb
  coupling e^2/(4 pi eps0) = 1. Lengths are in bohr, energies in hartree.
* Each spatial axis of the box [0, L]^d is split into 2^n cells of width
  delta = L / 2^n; grid points sit at cell centers delta * (i + 1/2).
* A quantum particle occupies d registers of n qubits each. The joint
  basis index is particle-major, axes ordered x, y, z within a particle,
  and big-endian within an axis register (qubit 0 is the most significant
  bit of the whole index).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ResourceLimitError, ValidationError

HBAR = 1.0

# Size guards: per-axis register width and total qubit budget for any
# state vector this package will materialize.
MAX_AXIS_QUBITS = 20
MAX_TOTAL_QUBITS = 30

NORM_TOL = 1e-10


@dataclass(frozen=True)
class GridSpec:
    """Uniform cubic grid on [0, L]^d with 2^n cells per axis."""

    length: float
    n: int
    d: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.length) or self.length <= 0:
            raise ValidationError(f"box length must be positive, got {self.length}")
        if self.n < 1:
            raise ValidationError(f"need at least one qubit per axis, got n={self.n}")
        if self.n > MAX_AXIS_QUBITS:
            raise ResourceLimitError(
                f"n={self.n} exceeds the per-axis limit of {MAX_AXIS_QUBITS}"
            )
        if self.d not in (1, 2, 3):
            raise ValidationError(f"d must be 1, 2 or 3, got {self.d}")

    @property
    def delta(self) -> float:
        # Division by a power of two is exact, so delta * 2**n == length.
        return self.length / self.cells_per_axis

    @property
    def cells_per_axis(self) -> int:
        return 2**self.n


def build_grid(length: float, n: int, d: int) -> GridSpec:
    """Validate and construct a GridSpec."""
    return GridSpec(length=float(length), n=int(n), d=int(d))


def cell_center(grid: GridSpec, idx: Sequence[int]) -> np.ndarray:
    """Position of the center of the cell with per-axis indices idx."""
    idx = tuple(int(i) for i in idx)
    if len(idx) != grid.d:
        raise ValidationError(f"expected {grid.d} axis indices, got {len(idx)}")
    for i in idx:
        if not 0 <= i < grid.cells_per_axis:
            raise ValidationError(f"cell index {i} outside [0, {grid.cells_per_axis})")
    return grid.delta * (np.asarray(idx, dtype=float) + 0.5)


@dataclass(frozen=True)
class ParticleSpec:
    """A point particle. Clamped particles carry no register; they sit at
    the center of a fixed cell and contribute only potential terms."""

    mass: float
    charge: float
    kind: str = "quantum"
    clamped_cell: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("quantum", "clamped"):
            raise ValidationError(f"unknown particle kind {self.kind!r}")
        if not np.isfinite(self.mass) or self.mass <= 0:
            raise ValidationError(f"mass must be positive, got {self.mass}")
        if self.kind == "clamped" and self.clamped_cell is None:
            raise ValidationError("clamped particles need a clamped_cell")
        if self.kind == "quantum" and self.clamped_cell is not None:
            raise ValidationError("quantum particles cannot carry a clamped_cell")
        if self.clamped_cell is not None:
            object.__setattr__(
                self, "clamped_cell", tuple(int(c) for c in self.clamped_cell)
            )

    @property
    def is_quantum(self) -> bool:
        return self.kind == "quantum"

    @property
    def is_electron(self) -> bool:
        return self.charge < 0

    @property
    def is_nucleus(self) -> bool:
        return self.charge > 0


def quantum_particles(particles: Sequence[ParticleSpec]) -> tuple[ParticleSpec, ...]:
    return tuple(p for p in particles if p.is_quantum)


def clamped_position(grid: GridSpec, particle: ParticleSpec) -> np.ndarray:
    if particle.clamped_cell is None:
        raise ValidationError("particle is not clamped")
    return cell_center(grid, particle.clamped_cell)


def total_qubits(n: int, d: int, n_particles: int) -> int:
    """Qubits of n_particles quantum particles on d axes of n qubits each,
    checked against MAX_TOTAL_QUBITS."""
    if n_particles < 1:
        raise ValidationError("need at least one quantum particle")
    total = n * d * n_particles
    if total > MAX_TOTAL_QUBITS:
        raise ResourceLimitError(f"{total} total qubits exceed the limit of {MAX_TOTAL_QUBITS}")
    return total


@dataclass(frozen=True)
class IndexCodec:
    """Bijection between flat basis indices and per-particle cell tuples.

    Register r = particle * d + axis holds n bits; register 0 occupies the
    most significant bits of the flat index.
    """

    n: int
    d: int
    n_particles: int

    def __post_init__(self) -> None:
        total_qubits(self.n, self.d, self.n_particles)

    @property
    def registers(self) -> int:
        return self.n_particles * self.d

    @property
    def dim(self) -> int:
        return 1 << (self.n * self.registers)

    def register_shift(self, particle: int, axis: int) -> int:
        r = particle * self.d + axis
        return (self.registers - 1 - r) * self.n

    def flat_index(self, cells) -> int:
        cells = np.asarray(cells, dtype=np.int64).reshape(self.n_particles, self.d)
        if np.any(cells < 0) or np.any(cells >= (1 << self.n)):
            raise ValidationError("cell index outside the register range")
        flat = 0
        for p in range(self.n_particles):
            for a in range(self.d):
                flat = (flat << self.n) | int(cells[p, a])
        return flat

    def unflatten(self, flat: int) -> np.ndarray:
        flat = int(flat)
        if not 0 <= flat < self.dim:
            raise ValidationError(f"flat index {flat} outside [0, {self.dim})")
        mask = (1 << self.n) - 1
        cells = np.empty((self.n_particles, self.d), dtype=np.int64)
        for p in range(self.n_particles):
            for a in range(self.d):
                cells[p, a] = (flat >> self.register_shift(p, a)) & mask
        return cells

    def register_cells(self, flat: np.ndarray, particle: int, axis: int) -> np.ndarray:
        """Vectorized extraction of one register from an index array."""
        mask = (1 << self.n) - 1
        return (np.asarray(flat) >> self.register_shift(particle, axis)) & mask


@dataclass(frozen=True)
class StateVector:
    """Joint state of the quantum particles on a grid.

    amplitudes is a contiguous vector of length 2^(d*n*N_q). No operation
    mutates it except through an explicit out= argument (step,
    apply_trotter_plan, apply_spectral_plan), which writes the result into
    out.amplitudes and returns out; without out= every operation returns a
    new StateVector over a new array.
    """

    amplitudes: np.ndarray
    grid: GridSpec
    particles: tuple[ParticleSpec, ...]

    def __post_init__(self) -> None:
        # Contiguous, so that reshaping for a register is a view and out=
        # writes land in amplitudes.
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "particles", tuple(self.particles))
        if not all(p.is_quantum for p in self.particles):
            raise ValidationError("state particles must all be quantum")
        dim = 1 << total_qubits(self.grid.n, self.grid.d, len(self.particles))
        if amps.shape != (dim,):
            raise ValidationError(f"amplitude vector has shape {amps.shape}, expected ({dim},)")

    @property
    def codec(self) -> IndexCodec:
        return IndexCodec(n=self.grid.n, d=self.grid.d, n_particles=len(self.particles))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        nrm = self.norm()
        if nrm == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        return self.with_amplitudes(self.amplitudes / nrm)

    def with_amplitudes(self, amplitudes: np.ndarray) -> "StateVector":
        return StateVector(amplitudes=amplitudes, grid=self.grid, particles=self.particles)

    def copy_into(self, out: "StateVector | None") -> "StateVector":
        """The state an out= operation writes its result into: out holding
        these amplitudes (nothing is copied when out is self), or a new
        StateVector over a copy when out is None."""
        if out is None:
            return self.with_amplitudes(self.amplitudes.copy())
        if out is not self:
            if out.grid != self.grid or out.particles != self.particles:
                raise ValidationError("out must have the state's grid and particles")
            np.copyto(out.amplitudes, self.amplitudes)
        return out


def encode_state(
    grid: GridSpec,
    particles: Sequence[ParticleSpec],
    sampler: Callable[..., complex],
) -> StateVector:
    """Build a normalized state from sampler values at cell centers.

    The sampler is called once per joint configuration with one position
    vector (length d) per quantum particle, in register order.
    """
    quantum = quantum_particles(particles)
    if not quantum:
        raise ValidationError("need at least one quantum particle to encode a state")
    codec = IndexCodec(n=grid.n, d=grid.d, n_particles=len(quantum))
    dim = codec.dim
    idx = np.arange(dim, dtype=np.int64)
    positions = np.empty((dim, len(quantum), grid.d), dtype=float)
    for p in range(len(quantum)):
        for a in range(grid.d):
            positions[:, p, a] = grid.delta * (codec.register_cells(idx, p, a) + 0.5)
    amps = np.empty(dim, dtype=np.complex128)
    for m in range(dim):
        amps[m] = sampler(*positions[m])
    nrm = np.linalg.norm(amps)
    if nrm == 0.0:
        raise ValidationError("sampler produced the zero vector; cannot normalize")
    return StateVector(amplitudes=amps / nrm, grid=grid, particles=quantum)


def density(state: StateVector) -> np.ndarray:
    """Per-configuration probability |amplitude|^2."""
    return np.abs(state.amplitudes) ** 2


def marginal_density(state: StateVector, particle: int) -> np.ndarray:
    """Probability over one particle's 2^(d*n) cells, others traced out."""
    n_q = len(state.particles)
    if not 0 <= particle < n_q:
        raise ValidationError(f"particle index {particle} outside [0, {n_q})")
    per_particle = 1 << (state.grid.d * state.grid.n)
    dens = density(state).reshape((per_particle,) * n_q)
    axes = tuple(ax for ax in range(n_q) if ax != particle)
    return dens.sum(axis=axes) if axes else dens
