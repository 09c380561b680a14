import numpy as np
import pytest

from wzsim.analytic import dense_evolution_oracle
from wzsim.errors import NormDriftError, ValidationError
from wzsim.evolution import (
    EvolutionPlan,
    default_snapshot_steps,
    evolve,
    prepare_operators,
    sample_configurations,
    step,
)
from wzsim.grid import ParticleSpec, StateVector, build_grid, encode_state
from wzsim.kinetic import apply_spectral_plan, apply_trotter_plan
from wzsim.potential import composite_potential


def electron():
    return ParticleSpec(mass=1.0, charge=-1.0)


def proton_clamped(cell):
    return ParticleSpec(mass=1836.0, charge=1.0, kind="clamped", clamped_cell=cell)


def gaussian_state(grid, roster, sigma=0.1, mu=0.5):
    def sampler(*positions):
        total = np.zeros(positions[0].shape[:-1])
        for pos in positions:
            total = total + np.sum((pos - mu) ** 2, axis=-1)
        return np.exp(-total / (2 * sigma**2)).astype(complex)

    return encode_state(grid, roster, sampler)


class TestPlanValidation:
    def test_eps(self):
        assert EvolutionPlan(T=1.0, N_t=4).eps == 0.25

    def test_rejects_bad_fields(self):
        with pytest.raises(ValidationError):
            EvolutionPlan(T=-1.0, N_t=10)
        with pytest.raises(ValidationError):
            EvolutionPlan(T=1.0, N_t=0)
        with pytest.raises(ValidationError):
            EvolutionPlan(T=1.0, N_t=10, kinetic_method="exact")
        with pytest.raises(ValidationError):
            EvolutionPlan(T=1.0, N_t=10, splitting="second-order")
        with pytest.raises(ValidationError):
            EvolutionPlan(T=1.0, N_t=10, terms={"T_e", "U_xx"})

    def test_terms_coerced_to_frozenset(self):
        plan = EvolutionPlan(T=1.0, N_t=10, terms=["T_e", "wall"])
        assert plan.terms == frozenset({"T_e", "wall"})


class TestPreparedOperators:
    def test_free_particle_has_no_phase(self):
        grid = build_grid(1.0, 3, 1)
        plan = EvolutionPlan(T=1e-3, N_t=10, terms={"T_e"})
        ops = prepare_operators(grid, (electron(),), plan)
        assert ops.phase_full is None and ops.phase_half is None
        assert len(ops.kinetic) == 1

    def test_phases_match_composite_diagonal(self):
        # Only the phase the splitting applies is stored.
        grid = build_grid(1.0, 3, 1)
        roster = (electron(), electron())
        diag = composite_potential(grid, roster, ["U_ee", "wall"], v_wall=10.0)
        terms = {"T_e", "U_ee", "wall"}
        plan = EvolutionPlan(T=1e-3, N_t=10, terms=terms, splitting="first-order", v_wall=10.0)
        ops = prepare_operators(grid, roster, plan)
        assert ops.phase_half is None
        assert np.allclose(ops.phase_full, np.exp(-1j * plan.eps * diag.energies), atol=1e-15)
        plan = EvolutionPlan(T=1e-3, N_t=10, terms=terms, splitting="strang", v_wall=10.0)
        ops = prepare_operators(grid, roster, plan)
        assert ops.phase_full is None
        assert np.allclose(ops.phase_half, np.exp(-1j * plan.eps / 2 * diag.energies), atol=1e-15)

    def test_kinetic_entries_cover_quantum_registers(self):
        grid = build_grid(1.0, 2, 2)
        roster = (electron(), electron(), proton_clamped((1, 1)))
        plan = EvolutionPlan(T=1e-3, N_t=10, terms={"T_e", "U_en"})
        ops = prepare_operators(grid, roster, plan)
        assert [(pq, ax) for pq, ax, _ in ops.kinetic] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_nuclear_kinetic_term_is_separate(self):
        grid = build_grid(1.0, 2, 1)
        roster = (electron(), ParticleSpec(mass=1836.0, charge=1.0))
        plan_e = EvolutionPlan(T=1e-3, N_t=10, terms={"T_e"})
        plan_both = EvolutionPlan(T=1e-3, N_t=10, terms={"T_e", "T_n"})
        assert len(prepare_operators(grid, roster, plan_e).kinetic) == 1
        assert len(prepare_operators(grid, roster, plan_both).kinetic) == 2

    def test_requires_a_quantum_particle(self):
        grid = build_grid(1.0, 2, 1)
        plan = EvolutionPlan(T=1e-3, N_t=10)
        with pytest.raises(ValidationError):
            prepare_operators(grid, (proton_clamped((0,)),), plan)


class TestStepComposition:
    def _manual_kinetic(self, state, ops):
        for pq, axis, kplan in ops.kinetic:
            if hasattr(kplan, "xi"):
                state = apply_trotter_plan(state, pq, axis, kplan)
            else:
                state = apply_spectral_plan(state, pq, axis, kplan)
        return state

    def test_first_order_is_phase_then_kinetic(self):
        grid = build_grid(1.0, 4, 1)
        roster = (electron(),)
        state = gaussian_state(grid, roster)
        plan = EvolutionPlan(T=1e-3, N_t=10, terms={"T_e", "wall"}, splitting="first-order")
        ops = prepare_operators(grid, roster, plan)
        stepped = step(state, plan, ops)
        manual = self._manual_kinetic(state.with_amplitudes(state.amplitudes * ops.phase_full), ops)
        assert np.array_equal(stepped.amplitudes, manual.amplitudes)

    def test_strang_is_half_phase_sandwich(self):
        grid = build_grid(1.0, 4, 1)
        roster = (electron(),)
        state = gaussian_state(grid, roster)
        plan = EvolutionPlan(T=1e-3, N_t=10, terms={"T_e", "wall"}, splitting="strang")
        ops = prepare_operators(grid, roster, plan)
        stepped = step(state, plan, ops)
        manual = state.with_amplitudes(state.amplitudes * ops.phase_half)
        manual = self._manual_kinetic(manual, ops)
        manual = manual.with_amplitudes(manual.amplitudes * ops.phase_half)
        assert np.array_equal(stepped.amplitudes, manual.amplitudes)


class TestEvolve:
    @pytest.mark.parametrize("method", ["trotter", "spectral"])
    def test_norm_preserved(self, method):
        grid = build_grid(1.0, 4, 1)
        roster = (electron(),)
        state = gaussian_state(grid, roster)
        plan = EvolutionPlan(
            T=1e-3, N_t=50, kinetic_method=method, terms={"T_e", "wall"}, splitting="strang"
        )
        report = evolve(state, plan)
        assert report.max_norm_drift < 1e-12
        assert report.norm_drift.shape == (50,)

    def test_free_particle_matches_dense_oracle_exactly(self):
        # With no potential the spectral factor is the whole propagator, so
        # any step count reproduces the eigendecomposition oracle.
        grid = build_grid(1.0, 4, 1)
        roster = (electron(),)
        state = gaussian_state(grid, roster)
        T = 1e-3
        propagate = dense_evolution_oracle(grid, roster, ("T_e",), T, kinetic_generator="spectral")
        exact = propagate(state)
        plan = EvolutionPlan(T=T, N_t=3, kinetic_method="spectral", terms={"T_e"})
        report = evolve(state, plan)
        assert np.linalg.norm(report.final_state.amplitudes - exact.amplitudes) < 1e-12

    def test_splitting_error_shrinks_with_step_count(self):
        grid = build_grid(1.0, 4, 1)
        roster = (electron(),)
        state = gaussian_state(grid, roster)
        T = 1e-3
        propagate = dense_evolution_oracle(
            grid, roster, ("T_e", "wall"), T, kinetic_generator="spectral"
        )
        exact = propagate(state)

        def distance(n_t):
            plan = EvolutionPlan(
                T=T,
                N_t=n_t,
                kinetic_method="spectral",
                terms={"T_e", "wall"},
                splitting="strang",
            )
            return np.linalg.norm(evolve(state, plan).final_state.amplitudes - exact.amplitudes)

        coarse, fine = distance(100), distance(800)
        assert fine < coarse / 10
        assert fine < 1e-7

    def test_snapshots_recorded_at_requested_steps(self):
        grid = build_grid(1.0, 3, 1)
        roster = (electron(),)
        state = gaussian_state(grid, roster)
        plan = EvolutionPlan(T=1e-3, N_t=20, terms={"T_e"})
        report = evolve(state, plan, snapshot_steps=[5, 20])
        assert [k for k, _ in report.snapshots] == [5, 20]
        assert np.allclose(report.snapshots[1][1], np.abs(report.final_state.amplitudes) ** 2)

    def test_snapshot_steps_validated(self):
        grid = build_grid(1.0, 3, 1)
        state = gaussian_state(grid, (electron(),))
        plan = EvolutionPlan(T=1e-3, N_t=20, terms={"T_e"})
        with pytest.raises(ValidationError):
            evolve(state, plan, snapshot_steps=[0])
        with pytest.raises(ValidationError):
            evolve(state, plan, snapshot_steps=[21])

    def test_clamped_roster_supplies_potential(self):
        grid = build_grid(1.0, 3, 1)
        roster = (electron(), proton_clamped((4,)))
        state = gaussian_state(grid, (electron(),))
        plan = EvolutionPlan(T=1e-3, N_t=10, terms={"T_e", "U_en"})
        report = evolve(state, plan, particles=roster)
        assert report.max_norm_drift < 1e-12
        free = evolve(state, EvolutionPlan(T=1e-3, N_t=10, terms={"T_e"}))
        assert not np.allclose(report.final_state.amplitudes, free.final_state.amplitudes)

    def test_roster_mismatch_rejected(self):
        grid = build_grid(1.0, 3, 1)
        state = gaussian_state(grid, (electron(),))
        plan = EvolutionPlan(T=1e-3, N_t=10, terms={"T_e"})
        with pytest.raises(ValidationError):
            evolve(state, plan, particles=(electron(), electron()))
        with pytest.raises(ValidationError):
            evolve(state, plan, particles=(ParticleSpec(mass=2.0, charge=-1.0),))

    def test_norm_drift_abort(self):
        grid = build_grid(1.0, 3, 1)
        roster = (electron(),)
        state = StateVector(np.full(8, 0.5, complex), grid, roster)
        assert abs(state.norm() - 1.0) > 1e-3
        plan = EvolutionPlan(T=1e-3, N_t=10, terms={"T_e"})
        with pytest.raises(NormDriftError):
            evolve(state, plan)


class TestSnapshotSteps:
    @pytest.mark.parametrize("n_t", [1, 3, 10, 1000, 1234])
    def test_sorted_unique_and_ends_at_n_t(self, n_t):
        steps = default_snapshot_steps(n_t)
        assert list(steps) == sorted(set(steps))
        assert steps[0] >= 1
        assert steps[-1] == n_t
        assert len(steps) <= 10


class TestSampling:
    def test_deterministic_and_counts_sum(self):
        grid = build_grid(1.0, 3, 1)
        state = gaussian_state(grid, (electron(),))
        a = sample_configurations(state, 5000, seed=42)
        b = sample_configurations(state, 5000, seed=42)
        assert np.array_equal(a, b)
        assert a.sum() == 5000
        assert a.shape == (8,)

    def test_different_seeds_differ(self):
        grid = build_grid(1.0, 3, 1)
        state = gaussian_state(grid, (electron(),))
        a = sample_configurations(state, 5000, seed=1)
        b = sample_configurations(state, 5000, seed=2)
        assert not np.array_equal(a, b)

    def test_concentrated_state_samples_one_cell(self):
        grid = build_grid(1.0, 3, 1)
        amps = np.zeros(8, complex)
        amps[3] = 1.0
        state = StateVector(amps, grid, (electron(),))
        counts = sample_configurations(state, 100, seed=0)
        assert counts[3] == 100

    def test_shots_validated(self):
        grid = build_grid(1.0, 3, 1)
        state = gaussian_state(grid, (electron(),))
        with pytest.raises(ValidationError):
            sample_configurations(state, 0, seed=0)
