"""Kinetic-energy operators on qubit position registers.

Two interchangeable single-axis methods are provided:

* a finite-difference route: the antisymmetrized central-difference
  momentum matrix P is squared analytically into overlapping three-level
  blocks, and exp(-i eps P^2 / 2M hbar) is approximated by the ordered
  product of the exact block exponentials (trotter_coupling_block). Only
  the reference trotter_factor_matrix forms it: KineticTrotterPlan.lines
  reduces it to two linear recurrences with a constant pole, one per cell
  parity, and evaluates them as a log-depth prefix scan in O(D) passes;
* a spectral route: conjugation by the discrete Fourier transform, under
  which P is asymptotically diagonal with eigenvalues
  -(hbar/delta) sin(2 pi k / D) (momentum_eigenvalues), so the kinetic
  phase is applied exactly in momentum space, in place in numpy.fft.
  numpy transforms line by line, and on lines of up to 64 cells that
  costs more per amplitude than a dense product in BLAS. So for D <=
  DENSE_MAX_CELLS make_spectral_plan returns the factor F^dagger
  diag(phases) F as a D x D matrix, the FFT kernel's image of the
  identity, applied with one matmul per slab. Measured at 2 threads
  through apply_kinetic_plan, the matrix takes 0.4-0.7 of the FFT's time
  per amplitude from 4 to 64 cells, 1.1 at 128 and 2.9 at 256.

A plan is its kernel, one class each: KineticTrotterPlan (the scan),
SpectralKineticPlan (the FFT) and MatrixKineticPlan (the matrix). Each
holds only the constants its lines(a) reads, which applies the factor
along axis 0 of a, in place, and its class constant temporaries counts
the slab-sized arrays lines holds. apply_kinetic_plan, the one apply
path, runs lines on one register r of the state it is given, as
GridSpec.registers numbers them. Registers are disjoint, so application
order is irrelevant. With R > 1 registers it views the state as (A, D,
B) = (D^r, D, D^(R-r-1)), and register 0 as (B, D, 1), cuts axis 0 of
that view into slabs and hands the kernel each slab with its lines
first. on_slabs, which cuts and deals the slabs over WZ_THREADS threads
for the kernels and for evolution's potential phase tables, reads that
count at every call, so no plan holds it. A thread is worth its
hand-off only for grid.SLAB_BYTES of state, so a call uses at most
max(1, state bytes // SLAB_BYTES) threads: a state under SLAB_BYTES
runs on the caller's thread alone. The FFT works in place, so it is
cut into one slab per thread. matmul copies its input, which overlaps
its output; the matrix plan counts that copy twice, so that it and the
slab share SLAB_BYTES. The scan is counted as three
temporaries the size of its slab, so it is cut into as many more slabs
as keep them under SLAB_BYTES; on a strided slab it holds about 3.7, as
numpy adds an iterator buffer of up to 128 KiB to each call on a
strided operand. A slab is at least one cell of axis 0: one line on the
first and last registers, but a D-th of the state on register 1, which
can exceed the cap. Every 1-D line is worked on alone, so the result
does not depend on the cut or the thread count. Nor does BLAS's, with
two or more lines to a call (one line is a matrix-vector product, which
rounds otherwise); under the default cap only a one-register state makes
a one-line call.
"""

from __future__ import annotations

import cmath
import functools
import math
import os
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from . import grid
from .errors import ResourceLimitError, ValidationError
from .grid import HBAR, StateVector, slab_bounds

# fourier_conjugation_diagnostic builds O(D^2) dense intermediates.
MAX_DIAGNOSTIC_DIM = 4096

# The spectral factor of a register of at most this many cells is one
# dense matrix product per slab; above it, two FFTs and a phase pass.
DENSE_MAX_CELLS = 64

# Each kinetic thread is an OS thread; a huge WZ_THREADS must not start
# thousands of them. The thread count never changes output bytes.
MAX_FFT_THREADS = 64


def _check_register_size(D: int) -> None:
    grid.check_integer("register size", D)
    if D < 2 or (D & (D - 1)) != 0:
        raise ValidationError(f"register size must be a power of two >= 2, got {D}")


def _check_positive(name: str, value: float) -> None:
    grid.check_real(name, value)
    if not 0 < value < math.inf:
        raise ValidationError(f"{name} must be positive and finite, got {value}")


def _check_mass_and_step(mass: float, eps: float) -> None:
    _check_positive("mass", mass)
    grid.check_real("eps", eps)


def momentum_matrix(D: int, delta: float) -> np.ndarray:
    """Hermitian central-difference momentum operator: -i hbar / (2 delta)
    on the superdiagonal, +i hbar / (2 delta) on the subdiagonal and a zero
    diagonal, the same stencil at the endpoints as inside."""
    _check_register_size(D)
    _check_positive("grid spacing delta", delta)
    alpha = -1j * HBAR / (2.0 * delta)
    return alpha * (np.eye(D, k=1) - np.eye(D, k=-1)).astype(np.complex128)


def trotter_coupling_block(xi: complex) -> np.ndarray:
    """Exact exponential of the three-level block xi * (|0><2| + |2><0| - 2|1><1|).

    Closed form: cosh/sinh on the outer pair, exp(-2 xi) in the middle.
    Unitary whenever xi is purely imaginary.
    """
    ch, sh = np.cosh(xi), np.sinh(xi)
    return np.array(
        [
            [ch, 0.0, sh],
            [0.0, np.exp(-2.0 * xi), 0.0],
            [sh, 0.0, ch],
        ],
        dtype=np.complex128,
    )


@dataclass
class KineticTrotterPlan:
    """Composed finite-difference kinetic factor for one register.

    The factor is the ordered product
        E_0 * B_1 * B_2 * ... * B_{D-2} * E_{D-1}
    where E_j is the endpoint phase exp(-xi |j><j|) and B_i the coupling
    block at cells (i-1, i, i+1). Applied to a state, the rightmost factor
    acts first. The plan holds D and the complex constants lines multiplies
    by, computed once by trotter_plan: cosh(xi), sinh(xi), mid =
    exp(-2 xi), cosh_mid = cosh(xi) exp(-2 xi), top = exp(xi), end =
    exp(-xi), and the pass strides s = 2, 4, ... < D, each with its power
    p^(s/2) of the pole p = sinh(xi) exp(-2 xi). trotter_factor_matrix
    builds the dense matrix for reference.
    """

    dim: int
    cosh: complex
    sinh: complex
    mid: complex
    cosh_mid: complex
    top: complex
    end: complex
    powers: tuple[tuple[int, complex], ...]
    # The scan holds c, shifted and ps * c[s:], each the size of its input.
    # On a strided slab numpy adds an iterator buffer of up to 128 KiB to
    # each call, about 3.7 slabs in all at the 1 MiB cap; the cuts count 3.
    temporaries: ClassVar[int] = 3

    def lines(self, o: np.ndarray) -> None:
        """Apply the ordered block product along axis 0 of a complex
        (D, ...) array, in place.

        Sweeping the blocks from the top, block i leaves its low cell holding
            c_i = cosh(xi) o[i-1] + p c_{i+2},   p = sinh(xi) exp(-2 xi),
        seeded by c_{D-1} = o[D-2] and c_D = exp(xi) o[D-1], and finalizes
        cell i+1. With c[m] = c_{m+1} both parity chains become one recurrence
        c[m] = u[m] + p c[m+2], evaluated as a Hillis-Steele scan from the top:
        log2(D/2) passes of c[:-s] += p^(s/2) c[s:]. |p| = |sin(Im xi)| <= 1
        for imaginary xi, and every partial sum is a partial product applied to
        a truncated input, so nothing grows. Then
            out[0] = exp(-xi) c_1,  out[1] = exp(-2 xi) c_2,
            out[j] = sinh(xi) o[j-2] + cosh(xi) exp(-2 xi) c_{j+1}.
        The result is written into o. c runs forward in o's memory order: a
        reversed operand would send the multiply into o down numpy's strided
        loop.
        """
        c = o * self.cosh
        c[-1] = self.top * o[-1]
        c[-2] = o[-2]
        for s, ps in self.powers:
            c[:-s] += ps * c[s:]
        shifted = self.sinh * o[:-2]
        np.multiply(c, self.cosh_mid, out=o)
        o[2:] += shifted
        o[0] = self.end * c[0]
        o[1] = self.mid * c[1]


def trotter_plan(D: int, xi: complex) -> KineticTrotterPlan:
    """The KineticTrotterPlan of a register of D cells at coupling xi."""
    _check_register_size(D)
    ch, sh, mid = cmath.cosh(xi), cmath.sinh(xi), cmath.exp(-2.0 * xi)
    powers = []
    s, ps = 2, sh * mid
    while s < D:
        powers.append((s, ps))
        s, ps = 2 * s, ps * ps
    return KineticTrotterPlan(D, ch, sh, mid, ch * mid, cmath.exp(xi), cmath.exp(-xi), tuple(powers))


def trotter_xi(delta: float, mass: float, eps: float) -> complex:
    _check_mass_and_step(mass, eps)
    _check_positive("grid spacing delta", delta)
    xi = 1j * HBAR * eps / (8.0 * mass * delta * delta)
    if not cmath.isfinite(xi):
        raise ValidationError(f"Trotter coupling eps/(8 m delta^2) overflows at eps={eps}")
    return xi


def trotter_factor_matrix(D: int, xi: complex) -> np.ndarray:
    """Dense matrix of the composed block product for one register: the
    identity, with trotter_coupling_block(xi) applied to rows i-1 .. i+1
    for i = D-2 down to 1 between the endpoint phases on rows D-1 and 0.
    A reference for KineticTrotterPlan.lines."""
    _check_register_size(D)
    a = np.eye(D, dtype=np.complex128)
    block = trotter_coupling_block(xi)
    end = np.exp(-xi)
    a[D - 1] *= end
    for i in range(D - 2, 0, -1):
        a[i - 1 : i + 2] = block @ a[i - 1 : i + 2]
    a[0] *= end
    return a


def make_trotter_plan(D: int, delta: float, mass: float, eps: float) -> KineticTrotterPlan:
    return trotter_plan(D, trotter_xi(delta, mass, eps))


@dataclass
class SpectralKineticPlan:
    """Unit-modulus momentum-space phases exp(-i eps p_k^2 / 2 M hbar)."""

    dim: int
    phase_table: np.ndarray
    # numpy.fft works in place.
    temporaries: ClassVar[int] = 0

    def lines(self, a: np.ndarray) -> None:
        """F^dagger diag(phase_table) F along axis 0 of a, in place in numpy.fft."""
        np.fft.ifft(a, axis=0, norm="ortho", out=a)
        a *= self.phase_table.reshape((self.dim,) + (1,) * (a.ndim - 1))
        np.fft.fft(a, axis=0, norm="ortho", out=a)


@dataclass
class MatrixKineticPlan:
    """A register's kinetic factor as a dense matrix, stored transposed."""

    dim: int
    matrix_t: np.ndarray
    # matmul's copy of its input, counted twice (see the module docstring).
    temporaries: ClassVar[int] = 2

    def lines(self, a: np.ndarray) -> None:
        """Apply the factor along axis 0 of a, in place."""
        v = np.moveaxis(a, 0, -1)
        if v.ndim == 3 and v.shape[1] == 1:
            # The first or last register: one product, not a batch of
            # matrix-vector products.
            v = v[:, 0]
        np.matmul(v, self.matrix_t, out=v)


def momentum_eigenvalues(D: int, delta: float) -> np.ndarray:
    """The D asymptotic eigenvalues -(hbar/delta) sin(2 pi k / D) of P
    under Fourier conjugation, k = 0 .. D-1."""
    _check_register_size(D)
    _check_positive("grid spacing delta", delta)
    return -(HBAR / delta) * np.sin(2.0 * np.pi * np.arange(D) / D)


KineticPlan = KineticTrotterPlan | SpectralKineticPlan | MatrixKineticPlan


def make_spectral_plan(D: int, delta: float, mass: float, eps: float) -> KineticPlan:
    """The FFT plan, or for D <= DENSE_MAX_CELLS the matrix of its factor."""
    _check_mass_and_step(mass, eps)
    p = momentum_eigenvalues(D, delta)
    # A huge eps makes a NaN table, which evolution.evolve's norm check catches.
    with np.errstate(over="ignore", invalid="ignore"):
        plan = SpectralKineticPlan(D, np.exp(-1j * eps * p * p / (2.0 * mass * HBAR)))
        if D > DENSE_MAX_CELLS:
            return plan
        # Column j is the FFT kernel's image of cell j.
        factor = np.eye(D, dtype=np.complex128)
        plan.lines(factor)
    return MatrixKineticPlan(D, factor.T)


def apply_kinetic_plan(state: StateVector, register: int, plan: KineticPlan) -> None:
    """Apply plan's kinetic factor to one register of state, in place."""
    grid.check_integer("register", register)
    t = state.tensor
    if not 0 <= register < t.ndim:
        raise ValidationError(f"register {register} outside [0, {t.ndim})")
    D = state.grid.cells_per_axis
    if plan.dim != D:
        raise ValidationError(f"a plan for {plan.dim} cells applied to registers of {D}")
    if t.ndim == 1:
        plan.lines(t)
        return
    # (A, D, B): the cells before the register, its own and those after
    # it. Register 0, whose A is 1, is cut along B.
    x = state.amplitudes.reshape(D**register, D, -1)
    if register == 0:
        x = x.transpose(2, 1, 0)
    on_slabs(lambda cut: plan.lines(x[cut].swapaxes(0, 1)), x, plan.temporaries)


def _worker_count() -> int:
    """Kinetic threads from WZ_THREADS; unset, empty or < 1 means 1, and more
    than MAX_FFT_THREADS means MAX_FFT_THREADS."""
    raw = os.environ.get("WZ_THREADS", "1").strip() or "1"
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ValidationError(f"WZ_THREADS must be an integer, got {raw!r}") from exc
    return min(max(1, workers), MAX_FFT_THREADS)


@functools.cache
def _slab_pool(threads: int):
    """The threads that work on slabs beside the caller's own, made on the
    first call with this count, so importing wzsim starts none."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=threads, thread_name_prefix="wzsim-slab")


def on_slabs(fn: Callable[[slice], None], t: np.ndarray, temporaries: int) -> None:
    """Call fn(cut) for slices cut of t's axis 0 that together cover it, so
    that fn works on the slab t[cut]. workers is WZ_THREADS, read at this
    call, capped at t.nbytes // SLAB_BYTES, so that a thread's share of t
    is worth its hand-off; below SLAB_BYTES the caller works alone. There
    is one slab per worker or, when fn holds `temporaries` arrays of its
    slab's size, as many more as keep them under SLAB_BYTES. The slabs, of
    equal size to within a cell, are dealt in turn to min(workers, slabs)
    threads, the caller's among them."""
    workers = min(_worker_count(), max(1, t.nbytes // grid.SLAB_BYTES))
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


def fourier_conjugation_diagnostic(D: int, delta: float) -> tuple[float, np.ndarray]:
    """Conjugate the momentum matrix by the Fourier transform, densely.

    Returns (max off-diagonal magnitude, real diagonal). The diagonal
    approaches -(hbar/delta) sin(2 pi k / D) and the off-diagonal mass
    decays like 1/D at fixed delta.
    """
    _check_register_size(D)
    if D > MAX_DIAGNOSTIC_DIM:
        raise ResourceLimitError(
            f"diagnostic dimension {D} exceeds {MAX_DIAGNOSTIC_DIM}"
        )
    P = momentum_matrix(D, delta)
    conj = np.fft.fft(np.fft.ifft(P, axis=0, norm="ortho"), axis=1, norm="ortho")
    diag = np.real(np.diag(conj)).copy()
    off = conj - np.diag(np.diag(conj))
    return float(np.max(np.abs(off))), diag
