"""Spatial discretization and position-basis encoding.

Conventions used throughout the package:

* Hartree atomic units: hbar = 1, electron mass = 1, and the Coulomb
  coupling e^2/(4 pi eps0) = 1. Lengths are in bohr, energies in hartree.
* Each spatial axis of the box [0, L]^d is split into D = 2^n cells of
  width delta = L / 2^n; grid points sit at cell centers delta * (i + 1/2),
  which cell_centers returns for one axis, and a clamped particle sits at
  the center of its cell (clamped_position).
* A quantum particle occupies d registers of n qubits each; register
  r = particle * d + axis, axes ordered x, y, z (GridSpec.registers). The
  joint basis index is the C-order ravel of the (D,) * R register tensor
  of R registers: the index is big-endian, and qubit 0 is the most
  significant bit of register 0 and of the whole index. StateVector.tensor
  is that tensor as a view, register_views broadcasts a per-cell table
  along each of its axes, and IndexCodec converts single indices for
  reference.
* Work on a state-sized array runs slab by slab of its axis 0, on up to
  WZ_THREADS threads: on_slabs holds the policy and SLAB_BYTES the cap.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ResourceLimitError, ValidationError

HBAR = 1.0

# Size guards: per-axis register width and total qubit budget for any
# state vector this package will materialize.
MAX_AXIS_QUBITS = 20
MAX_TOTAL_QUBITS = 30

# Bytes one slab may hold on each thread, for every slab kernel: a
# kinetic kernel's temporaries, evolution's multiply of phase tables, the
# rows of a quantum-clamped Coulomb table built at once, and the |a|^2 of
# a marginal_density slab. A call of on_slabs also takes one thread per
# SLAB_BYTES of its array at most.
SLAB_BYTES = 1 << 20

# Each slab thread is an OS thread; a huge WZ_THREADS must not start
# thousands of them. The thread count never changes output bytes.
MAX_THREADS = 64

# vector_norm sums squares by BLAS ddot over chunks of this many
# amplitudes, in order. OpenBLAS threads no ddot this short, so the sum
# does not depend on its thread count.
NORM_CHUNK = 8192


def check_integer(name: str, value) -> None:
    """Raise unless value is an int or a numpy integer; a bool is not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r:.40}")


def check_real(name: str, value) -> None:
    """Raise unless value is a real number; a bool is not, nor is an int
    too large for a double."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{name} must be a real number, got {value!r:.40}")
    if isinstance(value, int) and not abs(value) <= sys.float_info.max:
        raise ValidationError(f"{name} must fit a double, got an int of {value.bit_length()} bits")


def vector_norm(amps: np.ndarray) -> float:
    """The 2-norm of a complex vector: the two real dot products
    np.linalg.norm takes, summed chunk by chunk of NORM_CHUNK amplitudes in
    order. A vector of one chunk is one pair, bit for bit np.linalg.norm."""
    re, im = amps.real, amps.imag
    total = 0.0
    for lo in range(0, len(amps), NORM_CHUNK):
        r, i = re[lo : lo + NORM_CHUNK], im[lo : lo + NORM_CHUNK]
        total += r.dot(r) + i.dot(i)
    return math.sqrt(total)


@dataclass(frozen=True)
class GridSpec:
    """Uniform cubic grid on [0, L]^d with 2^n cells per axis."""

    length: float
    n: int
    d: int

    def __post_init__(self) -> None:
        check_real("box length", self.length)
        if not 0 < self.length < math.inf:
            raise ValidationError(f"box length must be positive, got {self.length}")
        check_integer("n", self.n)
        check_integer("d", self.d)
        if self.n < 1:
            raise ValidationError(f"need at least one qubit per axis, got n={self.n}")
        if self.n > MAX_AXIS_QUBITS:
            raise ResourceLimitError(
                f"n={self.n} exceeds the per-axis limit of {MAX_AXIS_QUBITS}"
            )
        if self.d not in (1, 2, 3):
            raise ValidationError(f"d must be 1, 2 or 3, got {self.d}")
        # Kinetic energies scale as 1/delta^2 and potentials with up to L^3;
        # both must stay finite doubles.
        if self.length > 1e100 or self.delta < 1e-100:
            raise ValidationError(f"box length {self.length} outside [2^n * 1e-100, 1e100]")
        object.__setattr__(self, "length", float(self.length))

    @property
    def delta(self) -> float:
        # Division by a power of two is exact, so delta * 2**n == length.
        return self.length / self.cells_per_axis

    @property
    def cells_per_axis(self) -> int:
        return 2**self.n

    def registers(self, q: int) -> range:
        """The registers of quantum particle q, one per axis."""
        return range(q * self.d, (q + 1) * self.d)


def build_grid(length: float, n: int, d: int) -> GridSpec:
    """Validate and construct a GridSpec."""
    return GridSpec(length=length, n=n, d=d)


def cell_centers(grid: GridSpec) -> np.ndarray:
    """The D cell-center coordinates of one axis."""
    return grid.delta * (np.arange(grid.cells_per_axis, dtype=float) + 0.5)


def register_views(table: np.ndarray, registers: int) -> list[np.ndarray]:
    """A per-cell table of one axis as one view per register of the
    (D,) * registers tensor: view r varies along axis r only, so the views
    broadcast against the tensor and against each other."""
    return [table.reshape((-1,) + (1,) * (registers - 1 - r)) for r in range(registers)]


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
        check_real("mass", self.mass)
        check_real("charge", self.charge)
        if not abs(self.charge) <= sys.float_info.max:
            raise ValidationError(f"charge must be finite, got {self.charge}")
        # The Trotter coupling divides by 8 m delta^2; with the grid's
        # bounds on delta this keeps it a normal double.
        if not 1e-100 <= self.mass <= 1e100:
            raise ValidationError(f"mass must lie in [1e-100, 1e100], got {self.mass}")
        if self.kind == "clamped" and self.clamped_cell is None:
            raise ValidationError("clamped particles need a clamped_cell")
        if self.kind == "quantum" and self.clamped_cell is not None:
            raise ValidationError("quantum particles cannot carry a clamped_cell")
        if self.clamped_cell is not None:
            for c in self.clamped_cell:
                check_integer("a clamped cell index", c)
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

    @property
    def kinetic_term(self) -> str:
        return "T_n" if self.is_nucleus else "T_e"


def quantum_particles(particles: Sequence[ParticleSpec]) -> tuple[ParticleSpec, ...]:
    return tuple(p for p in particles if p.is_quantum)


def clamped_position(grid: GridSpec, particle: ParticleSpec) -> np.ndarray:
    """The center of a clamped particle's cell, one coordinate per axis."""
    cell = particle.clamped_cell
    if cell is None:
        raise ValidationError("particle is not clamped")
    if len(cell) != grid.d:
        raise ValidationError(f"expected {grid.d} axis indices, got {len(cell)}")
    for i in cell:
        if not 0 <= i < grid.cells_per_axis:
            raise ValidationError(f"cell index {i} outside [0, {grid.cells_per_axis})")
    return cell_centers(grid)[list(cell)]


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
    """Bijection between flat basis indices and per-particle cell tuples:
    the C-order ravel over the (2^n,) * registers register tensor."""

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

    def flat_index(self, cells) -> int:
        cells = np.asarray(cells, dtype=np.int64)
        if cells.shape != (self.n_particles, self.d):
            raise ValidationError(
                f"cells have shape {cells.shape}, expected ({self.n_particles}, {self.d})"
            )
        if np.any(cells < 0) or np.any(cells >= (1 << self.n)):
            raise ValidationError("cell index outside the register range")
        return int(np.ravel_multi_index(tuple(cells.reshape(-1)), (1 << self.n,) * self.registers))

    def unflatten(self, flat: int) -> np.ndarray:
        flat = int(flat)
        if not 0 <= flat < self.dim:
            raise ValidationError(f"flat index {flat} outside [0, {self.dim})")
        cells = np.unravel_index(flat, (1 << self.n,) * self.registers)
        return np.array(cells).reshape(self.n_particles, self.d)


@dataclass(frozen=True)
class StateVector:
    """Joint state of the quantum particles on a grid.

    amplitudes is a contiguous vector of length 2^(d*n*N_q). The stepping
    core acts on it in place: evolve, step and apply_kinetic_plan write
    into the amplitudes of the state they are given. Every other
    operation returns a new StateVector over a new array.
    """

    amplitudes: np.ndarray
    grid: GridSpec
    particles: tuple[ParticleSpec, ...]
    # The amplitudes as the (D,) * R register tensor, a view made once:
    # axis r is register r = particle * d + axis.
    tensor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Contiguous, so that reshaping for a register is a view and
        # in-place writes land in amplitudes.
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "particles", tuple(self.particles))
        if not all(p.is_quantum for p in self.particles):
            raise ValidationError("state particles must all be quantum")
        dim = 1 << total_qubits(self.grid.n, self.grid.d, len(self.particles))
        if amps.shape != (dim,):
            raise ValidationError(f"amplitude vector has shape {amps.shape}, expected ({dim},)")
        registers = len(self.particles) * self.grid.d
        object.__setattr__(self, "tensor", amps.reshape((self.grid.cells_per_axis,) * registers))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        """The 2-norm of the amplitudes, by vector_norm."""
        return vector_norm(self.amplitudes)

    def normalized(self) -> "StateVector":
        nrm = self.norm()
        if nrm == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        return self.with_amplitudes(self.amplitudes / nrm)

    def with_amplitudes(self, amplitudes: np.ndarray) -> "StateVector":
        return StateVector(amplitudes=amplitudes, grid=self.grid, particles=self.particles)


def slab_bounds(cells: int, cell_bytes: int, minimum: int = 1) -> list[int]:
    """Cut points 0 = b_0 < ... < b_k = cells of k even slabs of cells:
    at least minimum slabs, enough that none holds more than SLAB_BYTES at
    cell_bytes per cell, and never more than one per cell."""
    per_slab = max(1, SLAB_BYTES // cell_bytes) if cell_bytes > 0 else cells
    count = min(cells, max(minimum, -(-cells // per_slab)))
    return [cells * i // count for i in range(count + 1)]


def worker_count() -> int:
    """Slab threads from WZ_THREADS; unset, empty or < 1 means 1, and more
    than MAX_THREADS means MAX_THREADS."""
    raw = os.environ.get("WZ_THREADS", "1").strip() or "1"
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ValidationError(f"WZ_THREADS must be an integer, got {raw!r}") from exc
    return min(max(1, workers), MAX_THREADS)


@functools.cache
def _slab_pool(threads: int):
    """The threads that work on slabs beside the caller's own, made on the
    first call with this count, so importing wzsim starts none."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=threads, thread_name_prefix="wzsim-slab")


def on_slabs(fn: Callable[[slice], None], t: np.ndarray, temporaries: int) -> None:
    """Call fn(cut) for slices cut of t's axis 0 that together cover it, so
    that fn works on the slab t[cut]: every kinetic factor of two or more
    registers and every multiply of two or more phase tables. workers is
    worker_count(), read at this call, so no plan holds it, capped at
    t.nbytes // SLAB_BYTES, so that a thread's share of t is worth its
    hand-off; below SLAB_BYTES the caller works alone. There is one slab
    per worker or, when fn holds `temporaries` arrays of its slab's size,
    as many more as keep them under SLAB_BYTES. The slabs, of equal size
    to within a cell, are dealt in turn to min(workers, slabs) threads,
    the caller's among them."""
    workers = min(worker_count(), max(1, t.nbytes // SLAB_BYTES))
    cells = t.shape[0]
    bounds = slab_bounds(cells, temporaries * (t.nbytes // cells), workers)
    cuts = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    threads = min(workers, len(cuts))

    def deal(first: int) -> None:
        for cut in cuts[first::threads]:
            fn(cut)

    futures = [_slab_pool(threads - 1).submit(deal, i) for i in range(1, threads)]
    try:
        deal(0)
    finally:
        for future in futures:
            future.result()


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
    dim = 1 << total_qubits(grid.n, grid.d, len(quantum))
    coords = np.broadcast_arrays(*register_views(cell_centers(grid), len(quantum) * grid.d))
    positions = np.stack(coords, axis=-1).reshape(dim, len(quantum), grid.d)
    amps = np.empty(dim, dtype=np.complex128)
    for m in range(dim):
        amps[m] = sampler(*positions[m])
    nrm = vector_norm(amps)
    if nrm == 0.0:
        raise ValidationError("sampler produced the zero vector; cannot normalize")
    return StateVector(amplitudes=amps / nrm, grid=grid, particles=quantum)


def density(state: StateVector) -> np.ndarray:
    """Per-configuration probability |amplitude|^2, in one float array."""
    p = np.abs(state.amplitudes)
    return np.square(p, out=p)


def marginal_density(state: StateVector, particle: int) -> np.ndarray:
    """Probability over one particle's 2^(d*n) cells, others traced out.

    |amplitude|^2 is taken slab by slab of particle 0's cells, each slab
    under SLAB_BYTES of floats, and summed over the other particles there,
    so nothing state-sized is made. The bytes are those of density(state)
    summed over the other particles' axes at once: a slab's rows sum into
    their own entries, and the sum over particle 0's cells continues from
    the running sum, the first entry of a buffer that is zero elsewhere."""
    check_integer("particle", particle)
    n_q = len(state.particles)
    if not 0 <= particle < n_q:
        raise ValidationError(f"particle index {particle} outside [0, {n_q})")
    if n_q == 1:
        return density(state)
    per_particle = 1 << (state.grid.d * state.grid.n)
    marginal = np.zeros(per_particle)
    shape = (per_particle,) * n_q
    t = state.amplitudes.reshape(shape)
    axes = tuple(ax for ax in range(n_q) if ax != particle)
    bounds = slab_bounds(per_particle, 8 * per_particle ** (n_q - 1))
    rows = -(-per_particle // (len(bounds) - 1))
    # The running sum's entry in the buffer: the first cell of every
    # summed axis but particle 0's.
    running = (0,) * particle + (slice(None),) + (0,) * (n_q - 1 - particle)
    buffer = np.zeros((1 + rows,) + shape[1:])
    for lo, hi in zip(bounds, bounds[1:]):
        dens = buffer[1 : 1 + hi - lo]
        np.abs(t[lo:hi], out=dens)
        np.square(dens, out=dens)
        if particle == 0:
            np.sum(dens, axis=axes, out=marginal[lo:hi])
        else:
            buffer[running] = marginal
            np.sum(buffer[: 1 + hi - lo], axis=axes, out=marginal)
    return marginal
