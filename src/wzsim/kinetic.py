"""Kinetic-energy operators on qubit position registers.

Two interchangeable single-axis methods are provided:

* a finite-difference route: the antisymmetrized central-difference
  momentum matrix P is squared analytically into overlapping three-level
  blocks, and exp(-i eps P^2 / 2M hbar) is approximated by the ordered
  product of the exact block exponentials. The product is never formed:
  it reduces to two first-order linear recurrences with a constant pole,
  one per cell parity, which a log-depth prefix scan evaluates in O(D)
  numpy passes per register;
* a spectral route: conjugation by the discrete Fourier transform, under
  which P is asymptotically diagonal with eigenvalues
  -(hbar/delta) sin(2 pi k / D), so the kinetic phase is applied exactly
  in momentum space. The transforms run in scipy.fft with WZ_THREADS
  workers; scipy is imported on first use, so runs that never take this
  route do not load it.

Both act on one register (one particle, one axis) at a time; registers
are disjoint, so axis application order is irrelevant.
"""

from __future__ import annotations

import cmath
import os
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .grid import HBAR, StateVector

# fourier_conjugation_diagnostic builds O(D^2) dense intermediates.
MAX_DIAGNOSTIC_DIM = 4096


def _check_register_size(D: int) -> None:
    if D < 2 or (D & (D - 1)) != 0:
        raise ValidationError(f"register size must be a power of two >= 2, got {D}")


def derivative_matrix(D: int, delta: float) -> np.ndarray:
    """Central-difference first derivative, one-sided at the endpoints.

    Interior rows hold (-1, 0, 1)/(2 delta); the first and last rows use
    the forward and backward two-point differences scaled to match.
    """
    _check_register_size(D)
    if delta <= 0:
        raise ValidationError("delta must be positive")
    m = np.zeros((D, D), dtype=float)
    for j in range(1, D - 1):
        m[j, j - 1] = -1.0
        m[j, j + 1] = 1.0
    m[0, 0], m[0, 1] = -2.0, 2.0
    m[D - 1, D - 2], m[D - 1, D - 1] = -2.0, 2.0
    return m / (2.0 * delta)


def momentum_matrix(D: int, delta: float) -> np.ndarray:
    """Hermitian momentum operator -i hbar * antisym(derivative).

    Antisymmetrizing the derivative stencil zeroes the endpoint diagonal,
    leaving +/-(-i hbar / 2 delta) on the off-diagonals.
    """
    _check_register_size(D)
    if delta <= 0:
        raise ValidationError("delta must be positive")
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
    acts first. The plan holds only D and xi: apply_trotter_plan evaluates
    the product as a prefix scan, and trotter_factor_matrix builds the
    dense matrix for reference.
    """

    dim: int
    xi: complex

    @property
    def endpoint_phase(self) -> complex:
        return np.exp(-self.xi)


def trotter_xi(delta: float, mass: float, eps: float) -> complex:
    if mass <= 0:
        raise ValidationError("mass must be positive")
    return 1j * HBAR * eps / (8.0 * mass * delta * delta)


def _sweep_trotter(block_axis: np.ndarray, xi: complex) -> np.ndarray:
    """Apply the ordered block product along axis 0 of a (D, ...) array."""
    a = block_axis.astype(np.complex128, copy=True)
    D = a.shape[0]
    end = np.exp(-xi)
    ch, sh, mid = np.cosh(xi), np.sinh(xi), np.exp(-2.0 * xi)
    a[D - 1] *= end
    for i in range(D - 2, 0, -1):
        lo = a[i - 1].copy()
        hi = a[i + 1]
        a[i - 1] = ch * lo + sh * hi
        a[i + 1] = sh * lo + ch * hi
        a[i] *= mid
    a[0] *= end
    return a


def trotter_factor_matrix(D: int, xi: complex) -> np.ndarray:
    """Dense matrix of the composed block product for one register, built
    by sweeping the blocks one at a time. A reference for _trotter_scan."""
    _check_register_size(D)
    return _sweep_trotter(np.eye(D, dtype=np.complex128), xi)


def _trotter_scan(o: np.ndarray, xi: complex) -> np.ndarray:
    """Apply the ordered block product along axis 0 of a complex (D, ...)
    array, in place, and return it.

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
    D = o.shape[0]
    ch, sh, mid = cmath.cosh(xi), cmath.sinh(xi), cmath.exp(-2.0 * xi)
    c = o * ch
    c[D - 1] = cmath.exp(xi) * o[D - 1]
    c[D - 2] = o[D - 2]
    s, ps = 2, sh * mid
    while s < D:
        c[:-s] += ps * c[s:]
        s, ps = 2 * s, ps * ps
    shifted = sh * o[:-2]
    np.multiply(c, ch * mid, out=o)
    o[2:] += shifted
    o[0] = cmath.exp(-xi) * c[0]
    o[1] = mid * c[1]
    return o


def make_trotter_plan(D: int, delta: float, mass: float, eps: float) -> KineticTrotterPlan:
    _check_register_size(D)
    return KineticTrotterPlan(dim=D, xi=trotter_xi(delta, mass, eps))


def _worker_count() -> int:
    """FFT worker threads from WZ_THREADS; unset, empty or < 1 means 1."""
    raw = os.environ.get("WZ_THREADS", "1").strip() or "1"
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ValidationError(f"WZ_THREADS must be an integer, got {raw!r}") from exc
    return max(1, workers)


@dataclass
class SpectralKineticPlan:
    """Unit-modulus momentum-space phases exp(-i eps p_k^2 / 2 M hbar),
    and the number of threads the transforms run on."""

    dim: int
    phase_table: np.ndarray
    workers: int


def momentum_eigenvalue(k: int, D: int, delta: float) -> float:
    """Asymptotic eigenvalue of P under Fourier conjugation."""
    _check_register_size(D)
    if not 0 <= k < D:
        raise ValidationError(f"momentum index {k} outside [0, {D})")
    return -(HBAR / delta) * np.sin(2.0 * np.pi * k / D)


def make_spectral_plan(D: int, delta: float, mass: float, eps: float) -> SpectralKineticPlan:
    _check_register_size(D)
    if mass <= 0:
        raise ValidationError("mass must be positive")
    k = np.arange(D)
    p = -(HBAR / delta) * np.sin(2.0 * np.pi * k / D)
    table = np.exp(-1j * eps * p * p / (2.0 * mass * HBAR))
    return SpectralKineticPlan(dim=D, phase_table=table, workers=_worker_count())


def qft(values: np.ndarray) -> np.ndarray:
    """Unitary transform F[j, k] = exp(+2 pi i j k / D) / sqrt(D)."""
    values = np.asarray(values, dtype=np.complex128)
    _check_register_size(values.shape[-1])
    return np.fft.ifft(values, norm="ortho")


def iqft(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.complex128)
    _check_register_size(values.shape[-1])
    return np.fft.fft(values, norm="ortho")


def apply_trotter_plan(
    state: StateVector,
    particle: int,
    axis: int,
    plan: KineticTrotterPlan,
    out: StateVector | None = None,
) -> StateVector:
    """Apply the finite-difference factor to one register. With out (which
    may be state itself) the result is written into out.amplitudes and out
    is returned; without it, a new StateVector."""
    out = state.copy_into(out)
    reg = particle * state.grid.d + axis
    t = out.amplitudes.reshape((plan.dim,) * (len(state.particles) * state.grid.d))
    _trotter_scan(t.swapaxes(0, reg), plan.xi)
    return out


def apply_spectral_plan(
    state: StateVector,
    particle: int,
    axis: int,
    plan: SpectralKineticPlan,
    out: StateVector | None = None,
) -> StateVector:
    """Apply the momentum-space phase to one register; out as in
    apply_trotter_plan."""
    from scipy import fft

    out = state.copy_into(out)
    registers = len(state.particles) * state.grid.d
    reg = particle * state.grid.d + axis
    t = out.amplitudes.reshape((plan.dim,) * registers)
    shape = [1] * registers
    shape[reg] = plan.dim
    # With overwrite_x, scipy.fft transforms complex input in place and
    # returns a new array object viewing it. The copy-back is guarded by
    # may_share_memory, not by identity: r is never t, and assigning an
    # overlapping view copies through a temporary.
    r = fft.ifft(t, axis=reg, norm="ortho", overwrite_x=True, workers=plan.workers)
    r *= plan.phase_table.reshape(shape)
    r = fft.fft(r, axis=reg, norm="ortho", overwrite_x=True, workers=plan.workers)
    if not np.may_share_memory(r, t):
        t[...] = r
    return out


def _check_particle_axis(state: StateVector, particle: int, axis: int) -> None:
    if not 0 <= particle < len(state.particles):
        raise ValidationError(f"particle index {particle} out of range")
    if not 0 <= axis < state.grid.d:
        raise ValidationError(f"axis {axis} out of range for d={state.grid.d}")


def apply_kinetic_trotter(
    state: StateVector, particle: int, axis: int, mass: float, eps: float
) -> StateVector:
    """One finite-difference kinetic factor on the addressed register."""
    _check_particle_axis(state, particle, axis)
    plan = make_trotter_plan(state.grid.cells_per_axis, state.grid.delta, mass, eps)
    return apply_trotter_plan(state, particle, axis, plan)


def apply_kinetic_spectral(
    state: StateVector, particle: int, axis: int, mass: float, eps: float
) -> StateVector:
    """Exact kinetic phase in momentum space on the addressed register."""
    _check_particle_axis(state, particle, axis)
    plan = make_spectral_plan(state.grid.cells_per_axis, state.grid.delta, mass, eps)
    return apply_spectral_plan(state, particle, axis, plan)


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
