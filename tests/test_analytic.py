import cmath
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from wzsim.analytic import (
    MAX_ORACLE_DIM,
    SERIES_BLOCK_ENTRIES,
    BoxSeriesSpec,
    box_exact_density,
    dense_evolution_oracle,
    loglog_slope,
    rmse,
    yb_error,
)
from wzsim.errors import ResourceLimitError, ValidationError
from wzsim.grid import ParticleSpec, StateVector, build_grid, encode_state
from wzsim.kinetic import momentum_matrix
from wzsim.potential import composite_potential


def series_density_oracle(x, length, mass, t, terms):
    """Scalar reimplementation of the odd-mode series, summed term by term."""
    psi = 0j
    for k in range(1, terms + 1):
        a = 2 * k - 1
        energy = a * a * math.pi**2 / (2.0 * mass * length * length)
        mode = math.sqrt(2.0 / length) * math.sin(a * math.pi * x / length)
        psi += mode * cmath.exp(-1j * energy * t) / a
    psi *= 2.0**1.5 / math.pi
    return abs(psi) ** 2


def electron():
    return ParticleSpec(mass=1.0, charge=-1.0)


class TestBoxSeries:
    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            BoxSeriesSpec(length=0.0, mass=1.0, t=0.0)
        with pytest.raises(ValidationError):
            BoxSeriesSpec(length=1.0, mass=-1.0, t=0.0)
        with pytest.raises(ValidationError):
            BoxSeriesSpec(length=1.0, mass=1.0, t=0.0, terms=0)
        with pytest.raises(ResourceLimitError):
            BoxSeriesSpec(length=1.0, mass=1.0, t=0.0, terms=SERIES_BLOCK_ENTRIES + 1)

    def test_blocks_match_one_block(self, monkeypatch):
        # 1000 positions against 200 terms: one block by default; at a
        # budget of 7400 entries, 27 blocks of 37 rows and one of 1 row.
        # Each row is the same dot product, but BLAS may order its sum by
        # block shape, so the bound is a few ulps of the density.
        import wzsim.analytic as analytic_mod

        spec = BoxSeriesSpec(length=1.0, mass=1.0, t=1e-3, terms=200)
        x = (np.arange(1000) + 0.5) / 1000
        whole = box_exact_density(x, spec)
        monkeypatch.setattr(analytic_mod, "SERIES_BLOCK_ENTRIES", 37 * 200)
        # Reversed, so a block left unwritten cannot pass by holding the
        # freed buffer of the first call.
        blocked = box_exact_density(x[::-1], spec)[::-1]
        assert blocked.shape == whole.shape
        assert np.max(np.abs(blocked - whole)) <= 1e-14

    def test_one_block_up_to_two_thousand_positions(self):
        # conv_spatial_trotter evaluates n <= 10 at the default 1000 terms.
        assert SERIES_BLOCK_ENTRIES // 1000 >= 2**11

    def test_initial_density_is_flat_inside(self):
        spec = BoxSeriesSpec(length=2.0, mass=1.0, t=0.0, terms=2000)
        x = np.linspace(0.2, 1.8, 33)
        rho = box_exact_density(x, spec)
        assert np.all(np.abs(rho - 0.5) < 0.02 * 0.5)

    def test_positions_must_be_interior(self):
        spec = BoxSeriesSpec(length=1.0, mass=1.0, t=0.0)
        with pytest.raises(ValidationError):
            box_exact_density([0.0], spec)
        with pytest.raises(ValidationError):
            box_exact_density([1.0], spec)
        with pytest.raises(ValidationError):
            box_exact_density([-0.5], spec)

    def test_matches_independent_summation(self):
        spec = BoxSeriesSpec(length=1.0, mass=1.0, t=1e-3, terms=1000)
        for x in (0.125, 0.5, 0.8):
            assert box_exact_density([x], spec)[0] == pytest.approx(
                series_density_oracle(x, 1.0, 1.0, 1e-3, 1000), abs=1e-12
            )

    def test_reference_value_short_series(self):
        spec = BoxSeriesSpec(length=1.0, mass=1.0, t=1e-3, terms=1000)
        assert box_exact_density([0.5], spec)[0] == pytest.approx(
            0.91159992941212276, abs=1e-12
        )

    def test_reference_value_long_series(self):
        spec = BoxSeriesSpec(length=1.0, mass=1.0, t=1e-3, terms=100000)
        assert box_exact_density([0.5], spec)[0] == pytest.approx(
            0.9226113357687572, abs=1e-9
        )

    def test_truncation_tail_is_visible_at_short_times(self):
        short = BoxSeriesSpec(length=1.0, mass=1.0, t=1e-3, terms=1000)
        long = BoxSeriesSpec(length=1.0, mass=1.0, t=1e-3, terms=100000)
        gap = abs(box_exact_density([0.5], short)[0] - box_exact_density([0.5], long)[0])
        assert 1e-3 < gap < 5e-2

    @pytest.mark.parametrize("n", [7, 8, 10])
    def test_midpoint_riemann_sum_near_unity(self, n):
        grid = build_grid(1.0, n, 1)
        centers = grid.delta * (np.arange(grid.cells_per_axis) + 0.5)
        spec = BoxSeriesSpec(length=1.0, mass=1.0, t=1e-3, terms=1000)
        total = np.sum(box_exact_density(centers, spec)) * grid.delta
        assert abs(total - 1.0) < 0.01

    def test_midpoint_riemann_sum_coarse_grid(self):
        # At t = 1e-3 the density develops wall layers of width ~ sqrt(t)
        # that a 64-cell grid cannot resolve, so the midpoint sum only
        # reaches the 1% budget once the layers span multiple cells; the
        # flat t = 0 profile already integrates cleanly at n = 6.
        grid = build_grid(1.0, 6, 1)
        centers = grid.delta * (np.arange(grid.cells_per_axis) + 0.5)
        flat = BoxSeriesSpec(length=1.0, mass=1.0, t=0.0, terms=1000)
        total = np.sum(box_exact_density(centers, flat)) * grid.delta
        assert abs(total - 1.0) < 0.01
        layered = BoxSeriesSpec(length=1.0, mass=1.0, t=1e-3, terms=1000)
        total = np.sum(box_exact_density(centers, layered)) * grid.delta
        assert abs(total - 1.0) < 0.02


class TestErrorMeasures:
    def test_rmse_zero_for_identical(self):
        v = np.array([0.1, 0.2, 0.3, 0.4])
        assert rmse(v, v) == 0.0

    def test_rmse_uniform_offset(self):
        a = np.zeros(4)
        b = np.full(4, 0.1)
        assert rmse(a, b) == pytest.approx(0.1, abs=1e-15)

    def test_rmse_validation(self):
        with pytest.raises(ValidationError):
            rmse(np.zeros(4), np.zeros(8))
        with pytest.raises(ValidationError):
            rmse(np.zeros(3), np.zeros(3))

    def test_yb_error_scaling(self):
        assert yb_error(0.08, 6) == pytest.approx(0.01, abs=1e-15)
        with pytest.raises(ValidationError):
            yb_error(0.1, -1)

    @given(
        st.lists(
            st.floats(min_value=1e-6, max_value=1e3), min_size=3, max_size=10
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_slope_gap_is_exactly_half(self, values):
        # Fitting rmse and 2^{-n/2} rmse against delta = L / 2^n shifts the
        # slope by exactly one half regardless of the data.
        pts_rmse = []
        pts_yb = []
        for n, r in enumerate(values, start=1):
            delta = 1.0 / 2**n
            pts_rmse.append((delta, r))
            pts_yb.append((delta, yb_error(r, n)))
        gap = loglog_slope(pts_yb) - loglog_slope(pts_rmse)
        assert abs(gap - 0.5) < 1e-10


class TestLogLogSlope:
    def test_quadratic(self):
        pts = [(x, x**2) for x in (0.5, 1.0, 2.0, 4.0)]
        assert loglog_slope(pts) == pytest.approx(2.0, abs=1e-12)

    def test_two_points_exact(self):
        assert loglog_slope([(1.0, 1.0), (2.0, 8.0)]) == pytest.approx(3.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            loglog_slope([(1.0, 1.0)])
        with pytest.raises(ValidationError):
            loglog_slope([(1.0, 0.0), (2.0, 1.0)])


class TestDenseOracle:
    def _gaussian(self, grid, roster, sigma=0.12):
        def sampler(pos):
            return np.exp(-np.sum((pos - 0.5) ** 2, axis=-1) / (2 * sigma**2)).astype(complex)

        return encode_state(grid, roster, sampler)

    def test_zero_time_is_identity(self):
        grid = build_grid(1.0, 3, 1)
        roster = (electron(),)
        state = self._gaussian(grid, roster)
        propagate = dense_evolution_oracle(grid, roster, ("T_e", "wall"), 0.0)
        out = propagate(state)
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12

    def test_norm_preserved(self):
        grid = build_grid(1.0, 4, 1)
        roster = (electron(),)
        state = self._gaussian(grid, roster)
        propagate = dense_evolution_oracle(grid, roster, ("T_e", "wall"), 2.0)
        assert abs(propagate(state).norm() - 1.0) < 1e-12

    def test_matches_scaling_and_squaring(self):
        grid = build_grid(1.0, 4, 1)
        roster = (electron(),)
        state = self._gaussian(grid, roster)
        T = 0.05
        p = momentum_matrix(grid.cells_per_axis, grid.delta)
        h = (p @ p) / 2.0
        diag = composite_potential(grid, roster, ("wall",), v_wall=10.0)
        h[np.diag_indices_from(h)] += diag.energies
        expected = scipy.linalg.expm(-1j * h * T) @ state.amplitudes
        propagate = dense_evolution_oracle(grid, roster, ("T_e", "wall"), T, v_wall=10.0)
        assert np.max(np.abs(propagate(state).amplitudes - expected)) < 1e-10

    def test_split_evolution_approaches_finite_difference_oracle(self):
        # With many steps the split scheme built on the same stencil lands
        # within 1e-3 of the eigendecomposition answer.
        from wzsim.evolution import EvolutionPlan, evolve

        grid = build_grid(1.0, 4, 1)
        roster = (electron(),)
        state = self._gaussian(grid, roster)
        T = 1e-3
        propagate = dense_evolution_oracle(
            grid, roster, ("T_e",), T, kinetic_generator="finite_difference"
        )
        exact = propagate(state)
        plan = EvolutionPlan(T=T, N_t=10000, kinetic_method="spectral", terms={"T_e"})
        report = evolve(state, plan)
        d = np.linalg.norm(report.final_state.amplitudes - exact.amplitudes)
        assert d < 1e-3

    def test_generator_choice_validated(self):
        grid = build_grid(1.0, 3, 1)
        with pytest.raises(ValidationError):
            dense_evolution_oracle(grid, (electron(),), ("T_e",), 1.0, kinetic_generator="exact")

    def test_needs_quantum_particle(self):
        grid = build_grid(1.0, 3, 1)
        clamped = ParticleSpec(mass=1836.0, charge=1.0, kind="clamped", clamped_cell=(0,))
        with pytest.raises(ValidationError):
            dense_evolution_oracle(grid, (clamped,), ("T_e",), 1.0)

    def test_dimension_guard(self):
        grid = build_grid(1.0, 7, 2)
        assert grid.cells_per_axis**2 > MAX_ORACLE_DIM
        with pytest.raises(ResourceLimitError):
            dense_evolution_oracle(grid, (electron(),), ("T_e",), 1.0)

    def test_state_dimension_checked(self):
        grid = build_grid(1.0, 3, 1)
        roster = (electron(),)
        propagate = dense_evolution_oracle(grid, roster, ("T_e",), 1.0)
        small = StateVector(
            np.full(4, 0.5, complex), build_grid(1.0, 2, 1), roster
        )
        with pytest.raises(ValidationError):
            propagate(small)
