import cmath
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from wzsim import grid as grid_mod
from wzsim import kinetic as kinetic_mod
from wzsim.errors import ResourceLimitError, ValidationError
from wzsim.grid import HBAR, ParticleSpec, StateVector, build_grid
from wzsim.kinetic import (
    MAX_FFT_THREADS,
    MatrixKineticPlan,
    SpectralKineticPlan,
    apply_kinetic_plan,
    fourier_conjugation_diagnostic,
    make_spectral_plan,
    make_trotter_plan,
    momentum_eigenvalues,
    momentum_matrix,
    trotter_coupling_block,
    trotter_factor_matrix,
    trotter_plan,
    trotter_xi,
)

POWERS = [2, 4, 8, 16, 32]

METHODS = {"trotter": make_trotter_plan, "spectral": make_spectral_plan}

# Cut points of 256, 512 and 32 cells into 6, 3 and 11 even slabs.
SIXTHS = [0, 42, 85, 128, 170, 213, 256]
THIRDS = [0, 170, 341, 512]
ELEVENTHS = [0, 2, 5, 8, 11, 14, 17, 20, 23, 26, 29, 32]


def electron():
    return ParticleSpec(mass=1.0, charge=-1.0)


def copy_of(state: StateVector) -> StateVector:
    return state.with_amplitudes(state.amplitudes.copy())


def scan_per_call(o: np.ndarray, xi: complex) -> np.ndarray:
    """KineticTrotterPlan.lines with every constant computed on the call
    from xi, as the scan did before the plan held them."""
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


def spectral_phases(D: int, delta: float, mass: float = 1.0, eps: float = 0.05) -> np.ndarray:
    """exp(-i eps p_k^2 / 2 M hbar) over the momentum eigenvalues p_k."""
    p = momentum_eigenvalues(D, delta)
    return np.exp(-1j * eps * p * p / (2 * mass * HBAR))


def coupling_generator(D: int) -> np.ndarray:
    """Independent reconstruction: sum of embedded three-level generators
    plus the endpoint projectors, built entry by entry."""
    K = np.zeros((D, D))
    for i in range(1, D - 1):
        K[i - 1, i + 1] += 1.0
        K[i + 1, i - 1] += 1.0
        K[i, i] -= 2.0
    K[0, 0] -= 1.0
    K[D - 1, D - 1] -= 1.0
    return K


def embedded_factor_product(D: int, xi: complex) -> np.ndarray:
    """Oracle for the composed factor: exact matrix exponentials of each
    embedded term, multiplied in the documented order."""
    def embed(generator: np.ndarray) -> np.ndarray:
        return scipy.linalg.expm(xi * generator)

    e0 = np.zeros((D, D))
    e0[0, 0] = -1.0
    eD = np.zeros((D, D))
    eD[D - 1, D - 1] = -1.0
    product = embed(e0)
    for i in range(1, D - 1):
        g = np.zeros((D, D))
        g[i - 1, i + 1] = g[i + 1, i - 1] = 1.0
        g[i, i] = -2.0
        product = product @ embed(g)
    return product @ embed(eD)


class TestStencils:
    def test_momentum_matrix_entries_and_hermiticity(self):
        P = momentum_matrix(4, 0.5)
        assert P[0, 1] == -1j * HBAR
        assert P[1, 0] == 1j * HBAR
        assert P[0, 0] == 0.0
        assert np.array_equal(P, P.conj().T)

    @pytest.mark.parametrize("D", POWERS)
    def test_momentum_squared_equals_coupling_generator(self, D):
        # With delta = 1/2 the prefactor 4 delta^2 / hbar^2 is exactly 1,
        # so the identity holds entry for entry in exact arithmetic.
        P = momentum_matrix(D, 0.5)
        lhs = -np.real(P @ P)
        assert np.array_equal(lhs, coupling_generator(D))

    @pytest.mark.parametrize("bad", [0, 1, 3, 12, 4.0, 8.0, True, "8"])
    def test_register_size_validation(self, bad):
        with pytest.raises(ValidationError):
            momentum_matrix(bad, 0.5)
        with pytest.raises(ValidationError):
            momentum_eigenvalues(bad, 0.5)
        with pytest.raises(ValidationError):
            trotter_plan(bad, 0.01j)
        with pytest.raises(ValidationError):
            trotter_factor_matrix(bad, 0.01j)
        for make in METHODS.values():
            with pytest.raises(ValidationError):
                make(bad, 0.5, 1.0, 0.1)

    @pytest.mark.parametrize("delta", [0.0, -0.5, float("nan"), float("inf"), True, "x"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda delta: momentum_matrix(8, delta),
            lambda delta: momentum_eigenvalues(8, delta),
            lambda delta: make_trotter_plan(8, delta, 1.0, 1e-3),
            lambda delta: make_spectral_plan(8, delta, 1.0, 1e-3),
        ],
        ids=["momentum_matrix", "momentum_eigenvalues", "trotter", "spectral"],
    )
    def test_grid_spacing_must_be_positive(self, build, delta):
        with pytest.raises(ValidationError):
            build(delta)

    @pytest.mark.parametrize("mass", [0.0, -1.0, float("nan"), float("inf"), True, "x"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda mass: trotter_xi(0.5, mass, 1e-3),
            lambda mass: make_trotter_plan(8, 0.5, mass, 1e-3),
            lambda mass: make_spectral_plan(8, 0.5, mass, 1e-3),
            lambda mass: make_spectral_plan(128, 0.5, mass, 1e-3),
        ],
        ids=["trotter_xi", "trotter", "spectral-matrix", "spectral-fft"],
    )
    def test_mass_must_be_positive_and_finite(self, build, mass):
        with pytest.raises(ValidationError, match="mass"):
            build(mass)

    @pytest.mark.parametrize("eps", ["x", None, True, 1j])
    @pytest.mark.parametrize("make", sorted(METHODS))
    def test_step_must_be_a_real_number(self, make, eps):
        with pytest.raises(ValidationError, match="eps"):
            METHODS[make](8, 0.5, 1.0, eps)


class TestCouplingBlock:
    def test_matches_expm_oracle_for_random_imaginary_arguments(self):
        rng = np.random.default_rng(42)
        G = np.array([[0.0, 0.0, 1.0], [0.0, -2.0, 0.0], [1.0, 0.0, 0.0]])
        for _ in range(100):
            xi = 1j * rng.uniform(-2.0, 2.0)
            block = trotter_coupling_block(xi)
            oracle = scipy.linalg.expm(xi * G)
            assert np.max(np.abs(block - oracle)) < 1e-12

    def test_unitary_for_imaginary_argument(self):
        block = trotter_coupling_block(0.37j)
        assert np.max(np.abs(block @ block.conj().T - np.eye(3))) < 1e-14

    def test_identity_at_zero(self):
        assert np.array_equal(trotter_coupling_block(0.0), np.eye(3))


class TestTrotterFactor:
    @pytest.mark.parametrize("D", [4, 8, 16])
    def test_matches_embedded_expm_product(self, D):
        xi = 0.013j
        factor = trotter_factor_matrix(D, xi)
        oracle = embedded_factor_product(D, xi)
        assert np.max(np.abs(factor - oracle)) < 1e-13

    def test_first_order_consistency_with_momentum_squared(self):
        # The factor approximates exp(-i eps P^2 / 2 M hbar); halving eps
        # should shrink the defect by about 4.
        D, delta, mass = 16, 1.0 / 16, 1.0
        P = momentum_matrix(D, delta)
        defects = []
        for eps in (1e-4, 5e-5):
            xi = trotter_xi(delta, mass, eps)
            target = scipy.linalg.expm(-1j * eps / (2 * mass * HBAR) * (P @ P))
            defects.append(np.max(np.abs(trotter_factor_matrix(D, xi) - target)))
        ratio = defects[0] / defects[1]
        assert 3.0 < ratio < 5.0

    def test_coupling_overflow_rejected(self):
        # eps / (8 m delta^2) beyond the double range; cosh(xi) would raise.
        with pytest.raises(ValidationError):
            trotter_xi(2.0**-90, 1e-100, 1e308)

    @given(
        D=st.sampled_from(POWERS),
        mag=st.floats(min_value=1e-6, max_value=0.5),
    )
    @settings(max_examples=40)
    def test_factor_unitary_for_imaginary_xi(self, D, mag):
        factor = trotter_factor_matrix(D, 1j * mag)
        assert np.max(np.abs(factor @ factor.conj().T - np.eye(D))) < 1e-12

    @pytest.mark.parametrize("D", [2**k for k in range(1, 13)])
    def test_scan_matches_dense_factor(self, D):
        xi = 0.013j
        rng = np.random.default_rng(D)
        block = rng.normal(size=(D, 3)) + 1j * rng.normal(size=(D, 3))
        dense = trotter_factor_matrix(D, xi) @ block
        trotter_plan(D, xi).lines(block)
        assert np.max(np.abs(block - dense)) <= 1e-14

    @pytest.mark.parametrize("D", [2**k for k in range(1, 11)])
    @pytest.mark.parametrize("xi", [0.013j, 1j * np.pi / 2, 0.3 + 0.7j])
    def test_plan_coefficients_scan_bit_equal_to_per_call_formula(self, D, xi):
        # On one line, and along the middle axis of a (3, D, 2) tensor, a
        # strided view as apply_kinetic_plan scans. The dense-factor tests
        # of this class hold the plan's scan to trotter_factor_matrix.
        plan = trotter_plan(D, xi)
        rng = np.random.default_rng(D)
        t = rng.normal(size=(3, D, 2)) + 1j * rng.normal(size=(3, D, 2))
        line = t[1, :, 0].copy()
        held_line = line.copy()
        plan.lines(held_line)
        assert np.array_equal(held_line, scan_per_call(line, xi))
        held, per_call = t.copy(), t.copy()
        plan.lines(held.swapaxes(0, 1))
        scan_per_call(per_call.swapaxes(0, 1), xi)
        assert np.array_equal(held, per_call)

    @pytest.mark.parametrize("reg", [0, 1, 2])
    def test_scan_on_every_axis_of_three_registers(self, reg):
        # The scan, and the matrix kernel on the dense factor, through
        # apply_kinetic_plan.
        grid = build_grid(1.0, 4, 3)
        rng = np.random.default_rng(reg)
        amps = rng.normal(size=16**3) + 1j * rng.normal(size=16**3)
        st_ = StateVector(amps, grid, (electron(),)).normalized()
        xi = trotter_xi(grid.delta, 1.0, 1e-3)
        factor = trotter_factor_matrix(16, xi)
        scan, matrix = copy_of(st_), copy_of(st_)
        apply_kinetic_plan(scan, reg, make_trotter_plan(16, grid.delta, 1.0, 1e-3))
        apply_kinetic_plan(matrix, reg, MatrixKineticPlan(16, factor.T))
        t = st_.amplitudes.reshape((16,) * 3)
        dense = np.moveaxis(np.tensordot(factor, t, axes=(1, reg)), 0, reg).reshape(-1)
        assert np.max(np.abs(scan.amplitudes - dense)) <= 1e-14
        assert np.max(np.abs(matrix.amplitudes - scan.amplitudes)) <= 1e-14

    @pytest.mark.parametrize("D", [2, 16, 512])
    @pytest.mark.parametrize("theta", [np.pi / 2 - 1e-3, np.pi / 2, np.pi / 2 + 1e-7])
    def test_scan_near_quarter_turn(self, D, theta):
        # |pole| = |sin theta| reaches 1 here, the slowest-decaying case,
        # where every input amplitude feeds every carry. Columns are unit
        # vectors, as states are.
        xi = 1j * theta
        rng = np.random.default_rng(7)
        block = rng.normal(size=(D, 2)) + 1j * rng.normal(size=(D, 2))
        block /= np.linalg.norm(block, axis=0)
        dense = trotter_factor_matrix(D, xi) @ block
        trotter_plan(D, xi).lines(block)
        assert np.max(np.abs(block - dense)) <= 1e-14


class TestSpectral:
    def test_power_of_two_required(self):
        with pytest.raises(ValidationError):
            make_spectral_plan(6, 0.5, 1.0, 0.1)

    def test_momentum_eigenvalue_quarter_wave(self):
        D, delta = 16, 0.25
        p = momentum_eigenvalues(D, delta)
        assert p.shape == (D,)
        assert p[D // 4] == pytest.approx(-HBAR / delta, rel=1e-15)
        assert p[0] == 0.0

    @pytest.mark.parametrize("D", [2, 8])
    def test_plane_waves_are_eigenvectors(self, D):
        # The convention: the plane wave exp(-2 pi i j k / D) over cells j
        # takes the phase of momentum index k, and no other.
        grid = build_grid(1.0, D.bit_length() - 1, 1)
        plan = make_spectral_plan(D, grid.delta, 1.0, 0.05)
        phases = spectral_phases(D, grid.delta)
        j = np.arange(D)
        for k in range(D):
            wave = np.exp(-2j * np.pi * j * k / D)
            state = StateVector(wave.copy(), grid, (electron(),))
            apply_kinetic_plan(state, 0, plan)
            assert np.max(np.abs(state.amplitudes - phases[k] * wave)) <= 1e-14

    @given(st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False), min_size=8, max_size=8))
    @settings(max_examples=50)
    def test_step_then_reverse_step_restores(self, values):
        vec = np.asarray(values, dtype=np.complex128)
        grid = build_grid(1.0, 3, 1)
        state = StateVector(vec.copy(), grid, (electron(),))
        for eps in (0.05, -0.05):
            apply_kinetic_plan(state, 0, make_spectral_plan(8, grid.delta, 1.0, eps))
        assert np.allclose(state.amplitudes, vec, atol=1e-9 * (1 + np.abs(vec).max()))

    def test_phase_table_unit_modulus_and_quarter_entry(self):
        # The FFT plan, the one that holds a phase table.
        D, delta, mass, eps = 128, 0.25, 2.0, 1e-3
        plan = make_spectral_plan(D, delta, mass, eps)
        assert isinstance(plan, SpectralKineticPlan)
        assert np.allclose(np.abs(plan.phase_table), 1.0, atol=1e-15)
        expected = np.exp(-1j * eps * (HBAR / delta) ** 2 / (2 * mass * HBAR))
        assert plan.phase_table[D // 4] == pytest.approx(expected, abs=1e-15)


class TestApplyKinetic:
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_norm_preserved(self, method):
        grid = build_grid(1.0, 3, 1)
        rng = np.random.default_rng(9)
        amps = rng.normal(size=64) + 1j * rng.normal(size=64)
        out = StateVector(amps, grid, (electron(), electron())).normalized()
        apply_kinetic_plan(out, 1, METHODS[method](8, grid.delta, 1.0, 1e-4))
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_acts_only_on_addressed_register(self):
        grid = build_grid(1.0, 3, 1)
        rng = np.random.default_rng(11)
        a = rng.normal(size=8) + 1j * rng.normal(size=8)
        b = rng.normal(size=8) + 1j * rng.normal(size=8)
        out = StateVector(np.kron(a, b), grid, (electron(), electron())).normalized()
        plan = make_trotter_plan(8, grid.delta, 1.0, 1e-4)
        apply_kinetic_plan(out, 0, plan)
        expected = np.kron(trotter_factor_matrix(8, trotter_xi(grid.delta, 1.0, 1e-4)) @ a, b)
        expected /= np.linalg.norm(np.kron(a, b))
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-13

    @pytest.mark.parametrize("method", sorted(METHODS))
    @pytest.mark.parametrize("particles, d", [(1, 1), (2, 1), (1, 2)])
    def test_register_bounds_checked(self, method, particles, d):
        # One register, and two as two particles or as two axes: every
        # register index outside the state, and every index that is not an
        # integer, is refused, and the state is left as it was.
        grid = build_grid(1.0, 2, d)
        state = TestSpectralSlabs.random_state(grid, (electron(),) * particles, 0)
        before = state.amplitudes.copy()
        plan = METHODS[method](4, grid.delta, 1.0, 1e-3)
        for register in (-1, particles * d, particles * d + 1, True, 1.0):
            with pytest.raises(ValidationError):
                apply_kinetic_plan(state, register, plan)
        assert np.array_equal(state.amplitudes, before)

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_plan_must_match_the_register_size(self, method):
        # 2 registers of 8 cells hold as many amplitudes as 1 of 64.
        for n, d, wrong in ((3, 2, 64), (6, 1, 8), (3, 1, 16)):
            grid = build_grid(1.0, n, d)
            state = StateVector(np.ones(2 ** (n * d), complex), grid, (electron(),)).normalized()
            before = state.amplitudes.copy()
            with pytest.raises(ValidationError):
                apply_kinetic_plan(state, 0, METHODS[method](wrong, grid.delta, 1.0, 1e-3))
            assert np.array_equal(state.amplitudes, before)


class TestSpectralSlabs:
    """apply_kinetic_plan cuts a register's (A, D, B) view along A, or
    along B for register 0, into WZ_THREADS slabs, and into as many more as
    keep the kernel's temporaries under the cap."""

    @staticmethod
    def random_state(grid, particles, seed):
        rng = np.random.default_rng(seed)
        size = grid.cells_per_axis ** (grid.d * len(particles))
        amps = rng.normal(size=size) + 1j * rng.normal(size=size)
        return StateVector(amps, grid, particles).normalized()

    @staticmethod
    def apply(monkeypatch, threads, state, reg):
        """The factor applied to a copy of state, and its plan. A cap of
        one amplitude, so that no state here is too small for the
        threads."""
        monkeypatch.setattr(grid_mod, "SLAB_BYTES", 16)
        monkeypatch.setenv("WZ_THREADS", str(threads))
        grid = state.grid
        plan = make_spectral_plan(grid.cells_per_axis, grid.delta, 1.0, 0.05)
        out = copy_of(state)
        apply_kinetic_plan(out, reg, plan)
        return out, plan

    @staticmethod
    def dense_factor(D, delta):
        """F^dagger diag(phase) F at mass 1 and eps 0.05, with the unitary
        F[j, k] = exp(2 pi i j k / D) / sqrt(D)."""
        j, k = np.meshgrid(np.arange(D), np.arange(D), indexing="ij")
        F = np.exp(2j * np.pi * j * k / D) / np.sqrt(D)
        return F.conj().T @ (spectral_phases(D, delta)[:, None] * F)

    @classmethod
    def dense_reference(cls, state, reg, plan):
        """The dense factor on register reg."""
        D = plan.dim
        t = state.amplitudes.reshape((D,) * (len(state.particles) * state.grid.d))
        product = np.tensordot(cls.dense_factor(D, state.grid.delta), t, axes=(1, reg))
        return np.moveaxis(product, 0, reg).reshape(-1)

    @pytest.mark.parametrize(
        "n, d, particles, threads",
        # Three registers (one particle in 3D) and four (two in 2D) of 8
        # cells, where 3 threads cut uneven slabs of 2, 3 and 3 cells; and
        # four registers of 2 cells, where 4 threads find only 2 slabs.
        # Two registers of 128 cells run the FFT kernel, above
        # DENSE_MAX_CELLS.
        [(3, 3, 1, t) for t in (1, 2, 3)]
        + [(3, 2, 2, t) for t in (1, 2, 3)]
        + [(1, 2, 2, 4)]
        + [(7, 2, 1, t) for t in (1, 3)],
    )
    def test_matches_dense_reference_on_every_register(self, monkeypatch, n, d, particles, threads):
        grid = build_grid(1.0, n, d)
        for reg in range(particles * d):
            state = self.random_state(grid, (electron(),) * particles, reg)
            out, plan = self.apply(monkeypatch, threads, state, reg)
            assert np.max(np.abs(out.amplitudes - self.dense_reference(state, reg, plan))) <= 1e-15
            single, _ = self.apply(monkeypatch, 1, state, reg)
            assert np.array_equal(out.amplitudes, single.amplitudes)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matrix_and_fft_kernels_agree(self, monkeypatch, n):
        # D = 2 .. 128 on 1 to 4 registers, as many as keep the state at
        # 2^16 amplitudes or less. The bound moved to 128 cells builds the
        # matrix of every plan here, and moved to 1 cell none.
        D = 2**n
        plans = {}
        for bound in (1, 128):
            monkeypatch.setattr(kinetic_mod, "DENSE_MAX_CELLS", bound)
            plans[bound] = make_spectral_plan(D, 1.0 / D, 1.0, 0.05)
        assert isinstance(plans[1], SpectralKineticPlan)
        assert isinstance(plans[128], MatrixKineticPlan)
        grid = build_grid(1.0, n, 1)
        for registers in range(1, min(4, 16 // n) + 1):
            state = self.random_state(grid, (electron(),) * registers, registers)
            for reg in range(registers):
                fft, matrix = copy_of(state), copy_of(state)
                apply_kinetic_plan(fft, reg, plans[1])
                apply_kinetic_plan(matrix, reg, plans[128])
                assert np.max(np.abs(fft.amplitudes - matrix.amplitudes)) <= 1e-14

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matrix_exactly_up_to_the_bound(self, n):
        # A plan is its kernel: the matrix, counted as two slab
        # temporaries, exactly when D is at most DENSE_MAX_CELLS, and the
        # FFT's phase table, counted as none, above. Each holds no other
        # array, and the matrix is the dense reference's factor to rounding.
        D = 2**n
        plan = make_spectral_plan(D, 1.0 / D, 1.0, 0.05)
        matrix = D <= kinetic_mod.DENSE_MAX_CELLS
        kind = MatrixKineticPlan if matrix else SpectralKineticPlan
        assert type(plan) is kind
        arrays = {name for name, v in vars(plan).items() if isinstance(v, np.ndarray)}
        assert arrays == ({"matrix_t"} if matrix else {"phase_table"})
        assert plan.temporaries == (2 if matrix else 0)
        assert "temporaries" not in vars(plan)
        if matrix:
            assert np.max(np.abs(plan.matrix_t.T - self.dense_factor(D, 1.0 / D))) <= 1e-14

    def test_thread_count_is_capped(self, monkeypatch):
        # Read alone: on_slabs would start a pool of MAX_FFT_THREADS - 1.
        monkeypatch.setenv("WZ_THREADS", str(10**6))
        assert kinetic_mod._worker_count() == MAX_FFT_THREADS

    @pytest.mark.parametrize(
        "n, d, particles, threads, cap, cuts, dealt",
        # Each register r is cut along the D^r cells of the registers before
        # it, register 0 along the D^(R-1) after it. A cap of three cells'
        # worth of register 1's scan temporaries cuts every register of one
        # particle in 3D on 16 cells into 6 uneven slabs, more than threads,
        # and of two in 2D on 8 cells into 3; those states are under two
        # caps, so the caller scans every slab. A cap of one amplitude cuts
        # two particles in 2D on 2 cells into one slab per cell, dealt out
        # to 3 threads, or 2 for the 2 cells of register 1. One particle in
        # 2D on 32 cells is over three caps: 11 uneven slabs, dealt out to
        # up to 3 threads.
        [(4, 3, 1, t, 36864, [SIXTHS, [0, 2, 5, 8, 10, 13, 16], SIXTHS], [1] * 3) for t in (1, 2, 3)]
        + [
            (3, 2, 2, t, 73728, [THIRDS, [0, 2, 5, 8], [0, 21, 42, 64], THIRDS], [1] * 4)
            for t in (1, 2, 3)
        ]
        + [(1, 2, 2, 3, 16, [[*range(9)], [0, 1, 2], [*range(5)], [*range(9)]], [3, 2, 3, 3])]
        + [(5, 2, 1, t, 4608, [ELEVENTHS] * 2, [t] * 2) for t in (1, 2, 3)],
    )
    def test_trotter_slabs_match_whole_tensor_scan(
        self, monkeypatch, n, d, particles, threads, cap, cuts, dealt
    ):
        made = []
        on_slabs = kinetic_mod.on_slabs

        def spy(fn, t, temporaries):
            seen = []

            def record(cut):
                seen.append((cut.start, cut.stop, threading.current_thread().name))
                fn(cut)

            on_slabs(record, t, temporaries)
            made.append(seen)

        asked = []
        pool = kinetic_mod._slab_pool

        def pool_spy(count):
            asked.append(count)
            return pool(count)

        monkeypatch.setattr(kinetic_mod, "on_slabs", spy)
        monkeypatch.setattr(kinetic_mod, "_slab_pool", pool_spy)
        monkeypatch.setattr(grid_mod, "SLAB_BYTES", cap)
        monkeypatch.setenv("WZ_THREADS", str(threads))
        grid = build_grid(1.0, n, d)
        D = grid.cells_per_axis
        registers = particles * d
        plan = make_trotter_plan(D, grid.delta, 1.0, 0.05)
        for reg in range(registers):
            state = self.random_state(grid, (electron(),) * particles, reg)
            out = copy_of(state)
            asked.clear()
            apply_kinetic_plan(out, reg, plan)
            slabs = sorted(made[-1])
            starts = [lo for lo, _, _ in slabs]
            assert starts + [slabs[-1][1]] == cuts[reg]
            # Dealt in turn: the caller takes slabs 0, dealt, 2 dealt, ...
            # and the pool has dealt - 1 threads.
            assert asked == [dealt[reg] - 1] * (dealt[reg] - 1)
            ours = [lo for lo, _, name in slabs if name == threading.current_thread().name]
            assert ours == starts[:: dealt[reg]]
            whole = state.amplitudes.copy().reshape((D,) * registers)
            plan.lines(whole.swapaxes(0, reg))
            assert np.array_equal(out.amplitudes, whole.reshape(-1))
        assert len(made) == registers

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_peak_per_register_under_four_caps(self, monkeypatch, method):
        # Two electrons in 2D on 16 cells under a cap of a 64th of the
        # state, on one thread. Registers 0, 2 and 3 are cut fine enough to
        # keep their temporaries under the cap. Register 1 is cut along the
        # 16 cells of register 0 alone, so its slab is at least a 16th of
        # the state, 4 caps, and its kernel holds one or two temporaries
        # that size.
        grid = build_grid(1.0, 4, 2)
        state = self.random_state(grid, (electron(), electron()), 0)
        cap = state.amplitudes.nbytes // 64
        monkeypatch.setattr(grid_mod, "SLAB_BYTES", cap)
        monkeypatch.setenv("WZ_THREADS", "1")
        plan = METHODS[method](16, grid.delta, 1.0, 0.05)
        peaks = []
        for reg in range(4):
            tracemalloc.start()
            try:
                apply_kinetic_plan(state, reg, plan)
                peaks.append(tracemalloc.get_traced_memory()[1] / cap)
            finally:
                tracemalloc.stop()
        assert max(peaks[0], peaks[2], peaks[3]) < 4, peaks
        assert 4 <= peaks[1] <= 2 * 4 + 1, peaks

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_small_states_stay_on_the_callers_thread(self, monkeypatch, method):
        # Two electrons in 2D on 8 cells, 64 KiB, under the default cap and
        # under a cap one amplitude over the state.
        def no_pool(threads):
            raise AssertionError(f"a pool of {threads} was asked for")

        monkeypatch.setattr(kinetic_mod, "_slab_pool", no_pool)
        monkeypatch.setenv("WZ_THREADS", "3")
        grid = build_grid(1.0, 3, 2)
        plan = METHODS[method](8, grid.delta, 1.0, 0.05)
        state = self.random_state(grid, (electron(), electron()), 0)
        for cap in (grid_mod.SLAB_BYTES, state.amplitudes.nbytes + 16):
            monkeypatch.setattr(grid_mod, "SLAB_BYTES", cap)
            for reg in range(4):
                apply_kinetic_plan(state, reg, plan)

    @pytest.mark.parametrize("method", sorted(METHODS))
    @pytest.mark.parametrize("caps, threads", [(1, 1), (2, 2), (3, 3), (100, 3)])
    def test_one_thread_per_cap_of_state(self, monkeypatch, method, caps, threads):
        # A plan made under WZ_THREADS=1 and applied under 3 to a state of
        # `caps` caps: on_slabs reads the count at the call, so the pool
        # has threads - 1.
        asked = []
        pool = kinetic_mod._slab_pool

        def spy(count):
            asked.append(count)
            return pool(count)

        monkeypatch.setattr(kinetic_mod, "_slab_pool", spy)
        monkeypatch.setenv("WZ_THREADS", "1")
        grid = build_grid(1.0, 3, 2)
        plan = METHODS[method](8, grid.delta, 1.0, 0.05)
        state = self.random_state(grid, (electron(), electron()), 0)
        monkeypatch.setattr(grid_mod, "SLAB_BYTES", state.amplitudes.nbytes // caps)
        monkeypatch.setenv("WZ_THREADS", "3")
        apply_kinetic_plan(state, 1, plan)
        assert asked == [threads - 1] * (threads - 1)


class TestFourierDiagnostic:
    def test_two_cell_conjugation_is_exactly_antidiagonal(self):
        # The conjugated momentum matrix at D = 2 has zero diagonal and all
        # of its mass on the antidiagonal.
        off, diag = fourier_conjugation_diagnostic(2, 0.5)
        assert off == pytest.approx(HBAR / (2 * 0.5), rel=1e-12)
        assert np.max(np.abs(diag)) < 1e-14

    def test_diagonal_matches_scaled_sine(self):
        D, delta = 16, 0.25
        _, diag = fourier_conjugation_diagnostic(D, delta)
        k = np.arange(D)
        expected = -((D - 1) / D) * (HBAR / delta) * np.sin(2 * np.pi * k / D)
        assert np.max(np.abs(diag - expected)) < 1e-13

    def test_off_diagonal_mass_decays_inversely_with_size(self):
        delta = 0.25
        sizes = [8, 16, 32, 64, 128]
        offs = [fourier_conjugation_diagnostic(D, delta)[0] for D in sizes]
        logs = np.polyfit(np.log([float(D) for D in sizes]), np.log(offs), 1)
        assert logs[0] < -0.9

    def test_dimension_guard(self):
        with pytest.raises(ResourceLimitError):
            fourier_conjugation_diagnostic(8192, 0.5)
