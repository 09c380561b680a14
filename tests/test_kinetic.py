import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from wzsim.errors import ResourceLimitError, ValidationError
from wzsim.grid import HBAR, ParticleSpec, StateVector, build_grid
from wzsim.kinetic import (
    apply_kinetic_spectral,
    apply_kinetic_trotter,
    apply_spectral_plan,
    apply_trotter_plan,
    derivative_matrix,
    fourier_conjugation_diagnostic,
    iqft,
    make_spectral_plan,
    make_trotter_plan,
    momentum_eigenvalue,
    momentum_matrix,
    qft,
    trotter_coupling_block,
    trotter_factor_matrix,
    trotter_xi,
    _sweep_trotter,
    _trotter_scan,
)

POWERS = [2, 4, 8, 16, 32]


def electron():
    return ParticleSpec(mass=1.0, charge=-1.0)


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
    def test_derivative_matrix_entries(self):
        m = derivative_matrix(4, 0.5)
        expected = np.array(
            [
                [-2.0, 2.0, 0.0, 0.0],
                [-1.0, 0.0, 1.0, 0.0],
                [0.0, -1.0, 0.0, 1.0],
                [0.0, 0.0, -2.0, 2.0],
            ]
        )
        assert np.array_equal(m, expected)

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

    def test_register_size_validation(self):
        for bad in (0, 1, 3, 12):
            with pytest.raises(ValidationError):
                momentum_matrix(bad, 0.5)
        with pytest.raises(ValidationError):
            derivative_matrix(4, 0.0)


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

    @given(
        D=st.sampled_from(POWERS),
        mag=st.floats(min_value=1e-6, max_value=0.5),
    )
    @settings(max_examples=40)
    def test_factor_unitary_for_imaginary_xi(self, D, mag):
        factor = trotter_factor_matrix(D, 1j * mag)
        assert np.max(np.abs(factor @ factor.conj().T - np.eye(D))) < 1e-12

    def test_sweep_equals_dense_matrix_action(self):
        D, xi = 16, 0.021j
        rng = np.random.default_rng(5)
        vec = rng.normal(size=D) + 1j * rng.normal(size=D)
        dense = trotter_factor_matrix(D, xi) @ vec
        swept = _sweep_trotter(vec.copy(), xi)
        assert np.max(np.abs(dense - swept)) < 1e-14

    @pytest.mark.parametrize("D", [2**k for k in range(1, 13)])
    def test_scan_matches_dense_factor(self, D):
        xi = 0.013j
        rng = np.random.default_rng(D)
        block = rng.normal(size=(D, 3)) + 1j * rng.normal(size=(D, 3))
        dense = trotter_factor_matrix(D, xi) @ block
        assert np.max(np.abs(_trotter_scan(block, xi) - dense)) <= 1e-14

    @pytest.mark.parametrize("reg", [0, 1, 2])
    def test_scan_on_every_axis_of_three_registers(self, reg):
        grid = build_grid(1.0, 4, 3)
        rng = np.random.default_rng(reg)
        amps = rng.normal(size=16**3) + 1j * rng.normal(size=16**3)
        st_ = StateVector(amps, grid, (electron(),)).normalized()
        plan = make_trotter_plan(16, grid.delta, 1.0, 1e-3)
        out = apply_trotter_plan(st_, 0, reg, plan)
        t = st_.amplitudes.reshape((16,) * 3)
        dense = np.tensordot(trotter_factor_matrix(16, plan.xi), t, axes=(1, reg))
        dense = np.moveaxis(dense, 0, reg).reshape(-1)
        assert np.max(np.abs(out.amplitudes - dense)) <= 1e-14

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
        assert np.max(np.abs(_trotter_scan(block, xi) - dense)) <= 1e-14


class TestSpectral:
    def test_qft_matrix_convention(self):
        D = 8
        F = qft(np.eye(D))
        j, k = np.meshgrid(np.arange(D), np.arange(D), indexing="ij")
        explicit = np.exp(2j * np.pi * j * k / D) / np.sqrt(D)
        assert np.max(np.abs(F - explicit)) < 1e-13

    @given(st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False), min_size=8, max_size=8))
    @settings(max_examples=50)
    def test_qft_roundtrip(self, values):
        vec = np.asarray(values, dtype=np.complex128)
        assert np.allclose(iqft(qft(vec)), vec, atol=1e-9 * (1 + np.abs(vec).max()))

    def test_power_of_two_required(self):
        with pytest.raises(ValidationError):
            qft(np.ones(6))

    def test_momentum_eigenvalue_quarter_wave(self):
        D, delta = 16, 0.25
        assert momentum_eigenvalue(D // 4, D, delta) == pytest.approx(-HBAR / delta, rel=1e-15)
        assert momentum_eigenvalue(0, D, delta) == 0.0
        with pytest.raises(ValidationError):
            momentum_eigenvalue(D, D, delta)

    def test_phase_table_unit_modulus_and_quarter_entry(self):
        D, delta, mass, eps = 16, 0.25, 2.0, 1e-3
        plan = make_spectral_plan(D, delta, mass, eps)
        assert np.allclose(np.abs(plan.phase_table), 1.0, atol=1e-15)
        expected = np.exp(-1j * eps * (HBAR / delta) ** 2 / (2 * mass * HBAR))
        assert plan.phase_table[D // 4] == pytest.approx(expected, abs=1e-15)


class TestApplyKinetic:
    @pytest.mark.parametrize("apply_fn", [apply_kinetic_trotter, apply_kinetic_spectral])
    def test_norm_preserved(self, apply_fn):
        grid = build_grid(1.0, 3, 1)
        rng = np.random.default_rng(9)
        amps = rng.normal(size=64) + 1j * rng.normal(size=64)
        st_ = StateVector(amps, grid, (electron(), electron())).normalized()
        out = apply_fn(st_, 1, 0, 1.0, 1e-4)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_acts_only_on_addressed_register(self):
        grid = build_grid(1.0, 3, 1)
        rng = np.random.default_rng(11)
        a = rng.normal(size=8) + 1j * rng.normal(size=8)
        b = rng.normal(size=8) + 1j * rng.normal(size=8)
        joint = StateVector(np.kron(a, b), grid, (electron(), electron())).normalized()
        out = apply_kinetic_trotter(joint, 0, 0, 1.0, 1e-4)
        factor = trotter_factor_matrix(8, trotter_xi(grid.delta, 1.0, 1e-4))
        expected = np.kron(factor @ a, b)
        expected /= np.linalg.norm(np.kron(a, b))
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-13

    def test_register_bounds_checked(self):
        grid = build_grid(1.0, 3, 1)
        st_ = StateVector(np.ones(8, complex), grid, (electron(),)).normalized()
        with pytest.raises(ValidationError):
            apply_kinetic_trotter(st_, 1, 0, 1.0, 1e-4)
        with pytest.raises(ValidationError):
            apply_kinetic_spectral(st_, 0, 1, 1.0, 1e-4)

    @pytest.mark.parametrize("method", ["trotter", "spectral"])
    @pytest.mark.parametrize("reg", [0, 1, 2, 3])
    def test_out_targets_agree(self, method, reg):
        # Two electrons in 2D: four registers of 8 cells each.
        grid = build_grid(1.0, 3, 2)
        rng = np.random.default_rng(reg)

        def random_state():
            amps = rng.normal(size=8**4) + 1j * rng.normal(size=8**4)
            return StateVector(amps, grid, (electron(), electron())).normalized()

        if method == "trotter":
            apply, plan = apply_trotter_plan, make_trotter_plan(8, grid.delta, 1.0, 1e-3)
        else:
            apply, plan = apply_spectral_plan, make_spectral_plan(8, grid.delta, 1.0, 1e-3)
        state = random_state()
        before = state.amplitudes.copy()
        fresh = apply(state, reg // 2, reg % 2, plan)
        other = random_state()
        assert apply(state, reg // 2, reg % 2, plan, out=other) is other
        assert np.array_equal(state.amplitudes, before)
        assert apply(state, reg // 2, reg % 2, plan, out=state) is state
        assert np.array_equal(fresh.amplitudes, other.amplitudes)
        assert np.array_equal(fresh.amplitudes, state.amplitudes)
        assert not np.array_equal(fresh.amplitudes, before)

    def test_out_must_match_the_state_layout(self):
        grid = build_grid(1.0, 3, 2)
        state = StateVector(np.ones(8**4, complex), grid, (electron(), electron())).normalized()
        flat = StateVector(np.ones(8**4, complex), build_grid(1.0, 6, 1), (electron(), electron()))
        plan = make_trotter_plan(8, grid.delta, 1.0, 1e-3)
        with pytest.raises(ValidationError):
            apply_trotter_plan(state, 0, 0, plan, out=flat)


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
