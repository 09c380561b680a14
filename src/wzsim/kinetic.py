"""Kinetic-energy operators on qubit position registers.

Two interchangeable single-axis methods are provided:

* a finite-difference route: the antisymmetrized central-difference
  momentum matrix P is squared analytically into overlapping three-level
  blocks, and exp(-i eps P^2 / 2M hbar) is approximated by the ordered
  product of the exact block exponentials (trotter_coupling_block).
  trotter_factor_matrix forms that product block by block, as a
  reference. KineticTrotterPlan.lines reduces it to two linear
  recurrences with a constant pole, one per cell parity, and evaluates
  them as a prefix scan of at most log2(D/2) passes over the line, which
  ends at the first stride whose power of the pole is at most
  POLE_POWER_FLOOR;
* a spectral route: conjugation by the discrete Fourier transform, under
  which P is asymptotically diagonal with eigenvalues
  -(hbar/delta) sin(2 pi k / D) (momentum_eigenvalues), so the kinetic
  phase is applied exactly in momentum space, in place in numpy.fft.

The scan and numpy's FFT both work line by line, and on lines of up to
64 cells that costs more per amplitude than a dense product in BLAS. So
for D <= DENSE_MAX_CELLS both make_trotter_plan and make_spectral_plan
return their factor as a D x D matrix, the kernel's image of the
identity, applied with one matmul per slab; above it they return the
kernel. Measured at 2 threads through apply_kinetic_plan, the spectral
matrix takes 0.4-0.7 of the FFT's time per amplitude from 4 to 64 cells,
1.1 at 128 and 2.9 at 256; on one line the Trotter matrix takes 0.2-0.6
of the scan's time from 2 to 64 cells. The phases sin^2(2 pi k / D)
repeat after D / 2 momenta, so the spectral factor, as the stencil, never
couples an even cell to an odd one, and it acts alike on both parities:
its plan also holds its D/2 x D/2 block on the even cells, which does
half the flops of the whole matrix. The Trotter factor's end phases and
block order make its even and odd blocks differ, so its plan holds the
whole matrix alone.

A plan is its kernel, one class each: KineticTrotterPlan (the scan),
SpectralKineticPlan (the FFT) and MatrixKineticPlan (the matrix). Each
holds only the constants its lines(a) reads, which applies the factor
along axis 0 of a, in place. Its class constant temporaries counts the
slab-sized arrays lines holds, by which grid.on_slabs sizes the slabs:
none for the FFT, which works in place, so it is cut into one slab per
thread; two for the matrix, as matmul copies its input, which overlaps
its output, and the copy is counted twice so that it and the slab share
SLAB_BYTES; three for the scan, which on a strided slab holds about 3.7,
as numpy adds an iterator buffer of up to 128 KiB to each call on a
strided operand.

apply_kinetic_plan runs lines on one register r of the state it is
given, as GridSpec.registers numbers them. Registers are disjoint, so
application order is irrelevant. With R > 1 registers it views the
state as (A, D, B) = (D^r, D, D^(R-r-1)), and register 0 as (B, D, 1),
and grid.on_slabs cuts axis 0 of that view; the kernel gets each slab
with its lines first. A matrix plan with a block sees every register
but the last as (A, D/2, 2B), the lines of both parities side by side,
and register 0 as (2B, D/2, 1). apply_on_cells takes the same view of
a register r >= 1 on a slab of whole register-0 cells, whose A is a
multiple of D^(r-1) smaller, and cuts it as on_slabs would on one
thread: evolution's cell pass applies it on each of its slabs. A slab
is at least one cell of axis 0: one line on the first and last
registers, but a D-th of the state on register 1, which can exceed the
cap. Every 1-D line is worked on alone,
so the result does not depend on the cut. Nor does BLAS's, with two or
more lines to a call (one line is a matrix-vector product, which rounds
otherwise); under the default cap only a one-register state makes a
one-line call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import grid
from .errors import ResourceLimitError, ValidationError
from .grid import HBAR, StateVector

# fourier_conjugation_diagnostic builds O(D^2) dense intermediates.
MAX_DIAGNOSTIC_DIM = 4096

# The kinetic factor of a register of at most this many cells is one
# dense matrix product per slab; above it, the scan or two FFTs and a
# phase pass.
DENSE_MAX_CELLS = 64

# The scan stops at the first stride s whose pole power |p^(s/2)| is at
# most this. After the strides below s every carry holds the first s/2
# terms of its series, c[m] = u[m] + p u[m+2] + ... , and the terms of
# s/2 and on sum to exactly p^(s/2) c[m+s], a full carry. So the passes
# left out move no carry by more than 2^-64 of the largest carry, 2^-11
# of the unit roundoff 2^-53 of a double. For imaginary xi |p| <= 1, and
# at |p| = 1 (a quarter turn) every stride is kept.
POLE_POWER_FLOOR = 2.0**-64


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
    if not math.isfinite(eps):
        raise ValidationError(f"eps must be finite, got {eps}")


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
    p^(s/2) of the pole p = sinh(xi) exp(-2 xi), up to the first stride
    whose power is at most POLE_POWER_FLOOR. trotter_factor_matrix builds
    the untruncated product as a dense matrix, for reference.
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
    temporaries: ClassVar[int] = 3

    def lines(self, o: np.ndarray) -> None:
        """Apply the ordered block product along axis 0 of a complex
        (D, ...) array, in place.

        Sweeping the blocks from the top, block i leaves its low cell holding
            c_i = cosh(xi) o[i-1] + p c_{i+2},   p = sinh(xi) exp(-2 xi),
        seeded by c_{D-1} = o[D-2] and c_D = exp(xi) o[D-1], and finalizes
        cell i+1. With c[m] = c_{m+1} both parity chains become one recurrence
        c[m] = u[m] + p c[m+2], evaluated as a Hillis-Steele scan from the top:
        a pass c[:-s] += p^(s/2) c[s:] for each stride of the plan, at most
        log2(D/2) of them. The passes the plan leaves out would move no carry
        by more than POLE_POWER_FLOOR of the largest. |p| = |sin(Im xi)| <= 1
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
    """The KineticTrotterPlan of a register of D cells at coupling xi. Its
    strides double from 2 while they are below D and their power of the
    pole is above POLE_POWER_FLOOR: the scan of the plan's lines is the
    untruncated scan to within that bound of its largest carry."""
    _check_register_size(D)
    ch, sh, mid = cmath.cosh(xi), cmath.sinh(xi), cmath.exp(-2.0 * xi)
    powers = []
    s, ps = 2, sh * mid
    while s < D and abs(ps) > POLE_POWER_FLOOR:
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


def make_trotter_plan(D: int, delta: float, mass: float, eps: float) -> KineticPlan:
    """The scan, or for D <= DENSE_MAX_CELLS the matrix of its factor."""
    plan = trotter_plan(D, trotter_xi(delta, mass, eps))
    if D > DENSE_MAX_CELLS:
        return plan
    # Column j is the scan's image of cell j. An entry that only the
    # strides left out would fill, at most POLE_POWER_FLOOR, is a zero.
    factor = np.eye(D, dtype=np.complex128)
    plan.lines(factor)
    return MatrixKineticPlan(D, factor.T)


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
    """A register's kinetic factor as a dense matrix, stored transposed.

    block_t, when given, is the factor's block on the even cells, stored
    transposed, for a factor that couples no even cell to an odd one and
    acts alike on both parities, as the spectral factor does. Then
    apply_kinetic_plan hands lines half-length lines of one parity on
    every register but the last, and lines applies the block to them."""

    dim: int
    matrix_t: np.ndarray
    block_t: np.ndarray | None = None
    # matmul's copy of its input, counted twice (see the module docstring).
    temporaries: ClassVar[int] = 2

    def lines(self, a: np.ndarray) -> None:
        """Apply the factor along axis 0 of a, in place: the matrix on
        lines of dim cells, the block on lines of dim / 2."""
        # np.moveaxis(a, 0, -1), without its cost per call.
        v = a.transpose((*range(1, a.ndim), 0))
        if v.ndim == 3 and v.shape[1] == 1:
            # The first or last register: one product, not a batch of
            # matrix-vector products.
            v = v[:, 0]
        np.matmul(v, self.matrix_t if len(a) == self.dim else self.block_t, out=v)


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
    # The phases repeat after D / 2 momenta, so the factor is zero at odd
    # offsets, to rounding, and its even and odd blocks agree.
    return MatrixKineticPlan(D, factor.T, np.ascontiguousarray(factor[::2, ::2].T))


def _register_lines(t: np.ndarray, register: int, plan: KineticPlan) -> np.ndarray:
    """The (A, D, B) view of register r of t, a register tensor or a slab
    of whole cells of its axis 0: the cells before the register, its own
    and those after it. Register 0, whose A is 1, is (B, D, 1), to be cut
    along B. A factor of one block per parity acts on (A, D/2, 2B), both
    parities' lines side by side, unless B is 1: on the last register that
    would make each line its own two-row product."""
    cells = t.shape[register]
    if isinstance(plan, MatrixKineticPlan) and plan.block_t is not None and register < t.ndim - 1:
        cells //= 2
    x = t.reshape(math.prod(t.shape[:register]), cells, -1)
    return x.transpose(2, 1, 0) if register == 0 else x


def _check_register(t: np.ndarray, register: int, plan: KineticPlan) -> None:
    grid.check_integer("register", register)
    if not 0 <= register < t.ndim:
        raise ValidationError(f"register {register} outside [0, {t.ndim})")
    if plan.dim != t.shape[register]:
        raise ValidationError(
            f"a plan for {plan.dim} cells applied to registers of {t.shape[register]}"
        )


def apply_kinetic_plan(state: StateVector, register: int, plan: KineticPlan) -> None:
    """Apply plan's kinetic factor to one register of state, in place."""
    t = state.tensor
    _check_register(t, register, plan)
    if t.ndim == 1:
        plan.lines(t)
        return
    x = _register_lines(t, register, plan)
    grid.on_slabs(lambda cut: plan.lines(x[cut].swapaxes(0, 1)), x, plan.temporaries)


def apply_on_cells(slab: np.ndarray, register: int, plan: KineticPlan) -> None:
    """Apply plan's kinetic factor to register r >= 1 of slab, a slab of
    whole cells of a register tensor's axis 0, in place on the caller's
    thread. The lines of r lie inside the slab's cells, and they are cut
    as on_slabs cuts them on one thread, under SLAB_BYTES."""
    _check_register(slab, register, plan)
    if register == 0:
        raise ValidationError("register 0 does not lie inside its own cells")
    x = _register_lines(slab, register, plan)
    bounds = grid.slab_bounds(len(x), plan.temporaries * (x.nbytes // len(x)))
    for lo, hi in zip(bounds, bounds[1:]):
        plan.lines(x[lo:hi].swapaxes(0, 1))


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
