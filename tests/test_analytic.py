import cmath
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from wzsim.analytic import (
    MAX_ORACLE_DIM,
    MAX_SERIES_TERMS,
    BoxSeriesSpec,
    box_exact_density,
    dense_evolution_oracle,
    loglog_slope,
    rmse,
    yb_error,
)
from wzsim.errors import ResourceLimitError, ValidationError
from wzsim.grid import HBAR, ParticleSpec, StateVector, build_grid, encode_state
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


def series_density_direct(points, specs, block_entries=1 << 18):
    """The series at x_j = j L / points as a dense sine block, positions by
    terms, evaluated on row blocks of at most block_entries entries. The
    specs share L and K, and each gives one row of the result."""
    length, terms = specs[0].length, specs[0].terms
    assert all((s.length, s.terms) == (length, terms) for s in specs)
    x = length * np.arange(points) / points
    a = 2.0 * np.arange(1, terms + 1) - 1.0
    weights = np.empty((terms, len(specs)), dtype=np.complex128)
    for i, spec in enumerate(specs):
        energies = a**2 * np.pi**2 * HBAR**2 / (2.0 * spec.mass * length**2)
        weights[:, i] = np.exp(-1j * energies * spec.t / HBAR) / a
    rows = max(1, block_entries // terms)
    psi = np.empty((points, len(specs)), dtype=np.complex128)
    for lo in range(0, points, rows):
        block = x[lo : lo + rows]
        modes = np.sqrt(2.0 / length) * np.sin(np.outer(block, a) * np.pi / length)
        psi[lo : lo + rows] = (2.0**1.5 / np.pi) * (modes @ weights)
    return np.abs(psi.T) ** 2


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
            BoxSeriesSpec(length=1.0, mass=1.0, t=0.0, terms=MAX_SERIES_TERMS + 1)
        for terms in (2.5, True):
            with pytest.raises(ValidationError):
                BoxSeriesSpec(length=1.0, mass=1.0, t=0.0, terms=terms)
        for field in ("length", "mass", "t"):
            for bad in (True, 10**400):
                with pytest.raises(ValidationError):
                    BoxSeriesSpec(**{"length": 1.0, "mass": 1.0, "t": 0.0, field: bad})

    @pytest.mark.parametrize("field", ["length", "mass", "t"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_spec_refuses_a_non_finite_field(self, field, bad):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            BoxSeriesSpec(**{"length": 1.0, "mass": 1.0, "t": 0.0, field: bad})

    @pytest.mark.parametrize(
        "length, mass, t",
        # The phase overflows: a huge time, a tiny box or mass, an infinite
        # energy times t = 0, and a time at which only the top mode's
        # phase, of mode 1999, overflows.
        [
            (1.0, 1.0, 1e308),
            (1e-200, 1.0, 1.0),
            (1.0, 1e-320, 1.0),
            (1e-200, 1.0, 0.0),
            (1.0, 1.0, 1e302),
        ],
    )
    def test_series_refuses_a_non_finite_top_phase(self, length, mass, t):
        spec = BoxSeriesSpec(length=length, mass=mass, t=t, terms=1000)
        with pytest.raises(ValidationError, match="phase"):
            box_exact_density(8, spec)

    @pytest.mark.parametrize(
        "length, t, terms",
        # Mode 1 alone at the time that overflows mode 1999; and a box whose
        # L^2 overflows, so that every mode energy is 0.
        [(1.0, 1e302, 1), (1e200, 1.0, 1000)],
    )
    def test_finite_phases_give_a_finite_density(self, length, t, terms):
        rho = box_exact_density(8, BoxSeriesSpec(length=length, mass=1.0, t=t, terms=terms))
        assert np.all(np.isfinite(rho)) and rho[0] == 0.0

    @pytest.mark.parametrize("length", [1.0, 8.0, 3.0])
    def test_lattice_matches_direct_sum(self, length):
        # The worst case, about 7e-13 at t = 0 and K = 5000, is the direct
        # sum's own rounding: its phases sin(a pi x / L) are not reduced.
        for terms in (1, 7, 1000, 5000):
            specs = [
                BoxSeriesSpec(length=length, mass=mass, t=t, terms=terms)
                for mass in (1.0, 1836.0)
                for t in (0.0, 1e-3, 0.37)
            ]
            for points in (2, 3, 8, 64, 1024, 4096):
                direct = series_density_direct(points, specs)
                for spec, expected in zip(specs, direct):
                    got = box_exact_density(points, spec)
                    assert got.shape == (points,)
                    assert np.max(np.abs(got - expected)) <= 1e-12

    @pytest.mark.parametrize("points", [1, 2, 3, 1024])
    def test_wall_entry_is_exactly_zero(self, points):
        for t in (0.0, 1e-3, 0.37):
            spec = BoxSeriesSpec(length=3.0, mass=1.0, t=t, terms=5000)
            assert box_exact_density(points, spec)[0] == 0.0

    @pytest.mark.parametrize("points", [0, -4, True, False, 2.0, "8", None, [8]])
    def test_points_must_be_a_positive_int(self, points):
        spec = BoxSeriesSpec(length=1.0, mass=1.0, t=0.0)
        with pytest.raises(ValidationError):
            box_exact_density(points, spec)

    @pytest.mark.parametrize(
        "points, terms", [(2**17, 1000), (2**21, 1000), (2**10, 200000), (2**17, 200000)]
    )
    def test_memory_is_linear_in_points_and_terms(self, points, terms):
        spec = BoxSeriesSpec(length=1.0, mass=1.0, t=1e-3, terms=terms)
        tracemalloc.start()
        try:
            box_exact_density(points, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * points + 64 * terms

    def test_initial_density_is_flat_inside(self):
        spec = BoxSeriesSpec(length=2.0, mass=1.0, t=0.0, terms=2000)
        # x_j = j / 80: the 129 points of [0.2, 1.8].
        rho = box_exact_density(160, spec)[16:145]
        assert np.all(np.abs(rho - 0.5) < 0.02 * 0.5)

    def test_matches_independent_summation(self):
        spec = BoxSeriesSpec(length=1.0, mass=1.0, t=1e-3, terms=1000)
        rho = box_exact_density(40, spec)
        for j in (5, 20, 32):
            assert rho[j] == pytest.approx(
                series_density_oracle(j / 40, 1.0, 1.0, 1e-3, 1000), abs=1e-12
            )

    def test_reference_value_short_series(self):
        spec = BoxSeriesSpec(length=1.0, mass=1.0, t=1e-3, terms=1000)
        assert box_exact_density(2, spec)[1] == pytest.approx(0.91159992941212276, abs=1e-12)

    def test_reference_value_long_series(self):
        spec = BoxSeriesSpec(length=1.0, mass=1.0, t=1e-3, terms=100000)
        assert box_exact_density(2, spec)[1] == pytest.approx(0.9226113357687572, abs=1e-9)

    def test_truncation_tail_is_visible_at_short_times(self):
        short = BoxSeriesSpec(length=1.0, mass=1.0, t=1e-3, terms=1000)
        long = BoxSeriesSpec(length=1.0, mass=1.0, t=1e-3, terms=100000)
        gap = abs(box_exact_density(2, short)[1] - box_exact_density(2, long)[1])
        assert 1e-3 < gap < 5e-2

    @pytest.mark.parametrize("n", [7, 8, 10])
    def test_midpoint_riemann_sum_near_unity(self, n):
        grid = build_grid(1.0, n, 1)
        spec = BoxSeriesSpec(length=1.0, mass=1.0, t=1e-3, terms=1000)
        # The odd lattice points of 2D are the cell centers.
        total = np.sum(box_exact_density(2 * grid.cells_per_axis, spec)[1::2]) * grid.delta
        assert abs(total - 1.0) < 0.01

    def test_midpoint_riemann_sum_coarse_grid(self):
        # At t = 1e-3 the density develops wall layers of width ~ sqrt(t)
        # that a 64-cell grid cannot resolve, so the midpoint sum only
        # reaches the 1% budget once the layers span multiple cells; the
        # flat t = 0 profile already integrates cleanly at n = 6.
        grid = build_grid(1.0, 6, 1)
        flat = BoxSeriesSpec(length=1.0, mass=1.0, t=0.0, terms=1000)
        total = np.sum(box_exact_density(128, flat)[1::2]) * grid.delta
        assert abs(total - 1.0) < 0.01
        layered = BoxSeriesSpec(length=1.0, mass=1.0, t=1e-3, terms=1000)
        total = np.sum(box_exact_density(128, layered)[1::2]) * grid.delta
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
        h[np.diag_indices_from(h)] += diag
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
