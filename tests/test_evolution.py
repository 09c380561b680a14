import tracemalloc

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
from wzsim import grid as grid_mod
from wzsim.grid import ParticleSpec, StateVector, build_grid, encode_state
from wzsim.kinetic import apply_spectral_plan, apply_trotter_plan
from wzsim.potential import SLAB_ARRAYS, composite_potential


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

    @pytest.mark.parametrize("splitting", ["first-order", "strang"])
    def test_slab_built_phase_is_bit_exact(self, monkeypatch, splitting):
        # Two electrons in 2D on 8 cells: a register-0 cell holds 512
        # amplitudes, 16 KiB of float slab arrays. A cap of three cells
        # cuts uneven slabs of 2, 3 and 3 cells.
        grid = build_grid(4.0, 3, 2)
        roster = (*molecule_roster(grid), proton_clamped((0, 7)))
        terms = {"T_e", "U_ee", "U_en", "U_nn", "wall"}
        plan = EvolutionPlan(T=0.05, N_t=4, terms=terms, splitting=splitting, v_wall=30.0)
        cell_bytes = SLAB_ARRAYS * 8 * 8**3
        monkeypatch.setattr(grid_mod, "SLAB_BYTES", 3 * cell_bytes)
        assert grid_mod.slab_bounds(8, cell_bytes) == [0, 2, 5, 8]
        ops = prepare_operators(grid, roster, plan)
        phase = ops.phase_full if splitting == "first-order" else ops.phase_half
        scale = -1j * plan.eps if splitting == "first-order" else -1j * (plan.eps / 2.0)
        diag = composite_potential(grid, roster, ["U_ee", "U_en", "U_nn", "wall"], v_wall=30.0)
        assert np.array_equal(phase, np.exp(scale * diag.energies))

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


MOLECULE_TERMS = {"T_e", "U_ee", "U_en", "wall"}


def molecule_roster(grid):
    mid = grid.cells_per_axis // 2
    return (electron(), electron(), proton_clamped((mid - 1, mid)), proton_clamped((mid + 1, mid)))


def random_state(grid, n_particles, seed=0):
    rng = np.random.default_rng(seed)
    dim = 1 << (grid.n * grid.d * n_particles)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(amps / np.linalg.norm(amps), grid, (electron(),) * n_particles)


class TestWorkBuffer:
    """evolve steps one work buffer in place through step(..., out=)."""

    def test_caller_state_is_left_unchanged(self):
        grid = build_grid(4.0, 3, 2)
        state = random_state(grid, 2)
        before = state.amplitudes.copy()
        plan = EvolutionPlan(T=0.05, N_t=3, terms=MOLECULE_TERMS, splitting="strang")
        report = evolve(state, plan, particles=molecule_roster(grid), snapshot_steps=[])
        assert np.array_equal(state.amplitudes, before)
        assert not np.shares_memory(report.final_state.amplitudes, state.amplitudes)

    @pytest.mark.parametrize("splitting", ["first-order", "strang"])
    @pytest.mark.parametrize("method", ["trotter", "spectral"])
    def test_evolve_equals_chained_steps(self, method, splitting):
        grid = build_grid(4.0, 3, 2)
        roster = molecule_roster(grid)
        state = random_state(grid, 2)
        plan = EvolutionPlan(
            T=0.05, N_t=4, kinetic_method=method, terms=MOLECULE_TERMS, splitting=splitting
        )
        report = evolve(state, plan, particles=roster, snapshot_steps=[])
        ops = prepare_operators(grid, roster, plan)
        chained = state
        for _ in range(plan.N_t):
            chained = step(chained, plan, ops)
        assert np.array_equal(report.final_state.amplitudes, chained.amplitudes)

    @pytest.mark.parametrize("splitting", ["first-order", "strang"])
    @pytest.mark.parametrize("method", ["trotter", "spectral"])
    def test_step_out_targets_agree(self, method, splitting):
        grid = build_grid(4.0, 3, 2)
        roster = molecule_roster(grid)
        plan = EvolutionPlan(
            T=0.05, N_t=4, kinetic_method=method, terms=MOLECULE_TERMS, splitting=splitting
        )
        ops = prepare_operators(grid, roster, plan)
        state = random_state(grid, 2)
        before = state.amplitudes.copy()
        fresh = step(state, plan, ops)
        other = random_state(grid, 2, seed=1)
        into_other = step(state, plan, ops, out=other)
        assert into_other is other
        assert np.array_equal(state.amplitudes, before)
        in_place = step(state, plan, ops, out=state)
        assert in_place is state
        assert np.array_equal(fresh.amplitudes, other.amplitudes)
        assert np.array_equal(fresh.amplitudes, state.amplitudes)

    @pytest.mark.parametrize("method", ["trotter", "spectral"])
    def test_overwrite_input_steps_the_callers_buffer(self, method):
        grid = build_grid(4.0, 3, 2)
        roster = molecule_roster(grid)
        plan = EvolutionPlan(
            T=0.05, N_t=4, kinetic_method=method, terms=MOLECULE_TERMS, splitting="strang"
        )
        copied = evolve(random_state(grid, 2), plan, particles=roster, snapshot_steps=[2])
        state = random_state(grid, 2)
        buffer = state.amplitudes
        report = evolve(state, plan, particles=roster, snapshot_steps=[2], overwrite_input=True)
        assert report.final_state is state and state.amplitudes is buffer
        assert np.array_equal(buffer, copied.final_state.amplitudes)
        assert np.array_equal(report.norm_drift, copied.norm_drift)
        assert np.array_equal(report.snapshots[0][1], copied.snapshots[0][1])

    @pytest.mark.parametrize("wall", [False, True])
    @pytest.mark.parametrize("splitting", ["first-order", "strang"])
    @pytest.mark.parametrize("method", ["trotter", "spectral"])
    @pytest.mark.parametrize(
        "n, d, particles",
        # 2^16 amplitudes (1 MiB) in 1 and 2 particles, 2^18 in 3: every
        # layout has more than one register, so every kinetic factor and
        # every phase slab can be cut.
        [(8, 2, 1), (4, 2, 2), (6, 1, 3)],
    )
    def test_peak_with_overwrite_is_state_plus_phase(
        self, monkeypatch, n, d, particles, method, splitting, wall
    ):
        # Handing the state over leaves the phase as the only state-sized
        # array evolve makes. The potential slabs stay under the cap, here
        # a 32nd of the state, and so do the Trotter scan slabs, unless one
        # cell of the cut axis is more: 3/16 of the state in temporaries at
        # 16 cells. Each thread holds its own slab, so this runs on one.
        # The rest is numpy's fixed-size FFT buffer, about 140 KiB.
        monkeypatch.setenv("WZ_THREADS", "1")
        grid = build_grid(4.0, n, d)
        mid = grid.cells_per_axis // 2
        roster = (electron(),) * particles + (proton_clamped((mid - 1,) * d),)
        terms = {"T_e", "U_en"} | ({"U_ee"} if particles > 1 else set())
        plan = EvolutionPlan(
            T=0.002,
            N_t=2,
            kinetic_method=method,
            terms=terms | ({"wall"} if wall else set()),
            splitting=splitting,
            v_wall=50.0,
        )
        state = random_state(grid, particles)
        state_bytes = state.amplitudes.nbytes
        monkeypatch.setattr(grid_mod, "SLAB_BYTES", state_bytes // 32)
        evolve(random_state(grid, particles, seed=1), plan, particles=roster,
               snapshot_steps=[], overwrite_input=True)  # warm-up: imports, pools, plans
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            report = evolve(state, plan, particles=roster, snapshot_steps=[], overwrite_input=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.final_state is state
        assert peak - base <= 1.25 * state_bytes

    def test_peak_memory_is_a_few_states(self):
        grid = build_grid(4.0, 4, 2)
        state = random_state(grid, 2)
        plan = EvolutionPlan(
            T=0.04, N_t=2, kinetic_method="spectral", terms=MOLECULE_TERMS, splitting="strang"
        )
        roster = molecule_roster(grid)
        evolve(state, plan, particles=roster, snapshot_steps=[])  # the first run imports numpy.fft
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            evolve(state, plan, particles=roster, snapshot_steps=[])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base <= 3.5 * state.amplitudes.nbytes

    def test_statevector_builds_do_not_grow_with_steps(self, monkeypatch):
        builds = []
        post_init = StateVector.__post_init__

        def counting(self):
            builds.append(1)
            post_init(self)

        monkeypatch.setattr(grid_mod.StateVector, "__post_init__", counting)
        grid = build_grid(4.0, 3, 2)
        roster = molecule_roster(grid)
        state = random_state(grid, 2)
        counts = []
        for n_t in (1, 6):
            for method in ("trotter", "spectral"):
                plan = EvolutionPlan(T=0.05, N_t=n_t, kinetic_method=method, terms=MOLECULE_TERMS)
                builds.clear()
                evolve(state, plan, particles=roster, snapshot_steps=[])
                counts.append(len(builds))
        assert counts[:2] == counts[2:]


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

    def test_chunked_draws_match_one_draw(self, monkeypatch):
        # 1000 shots in chunks of 64 cross 15 chunk boundaries and end on a
        # partial chunk; the histogram must be the one a single draw gives.
        import wzsim.evolution as evolution_mod

        grid = build_grid(1.0, 3, 1)
        state = gaussian_state(grid, (electron(),))
        whole = sample_configurations(state, 1000, seed=5)
        monkeypatch.setattr(evolution_mod, "SHOT_CHUNK", 64)
        chunked = sample_configurations(state, 1000, seed=5)
        assert np.array_equal(chunked, whole)
        assert chunked.dtype == np.int64 and chunked.sum() == 1000

    def test_histogram_matches_reference_draw(self):
        # The in-place normalization and cumulative sum are the arithmetic
        # of cumsum(p / p.sum()), so the counts are those of one draw.
        state = random_state(build_grid(4.0, 4, 2), 1, seed=3)
        p = np.abs(state.amplitudes) ** 2
        cdf = np.cumsum(p / p.sum())
        cdf[-1] = 1.0
        draws = np.random.Generator(np.random.Philox(9)).random(20000)
        expected = np.bincount(np.searchsorted(cdf, draws, side="right"), minlength=state.dim)
        assert np.array_equal(sample_configurations(state, 20000, seed=9), expected)

    def test_shots_validated(self):
        grid = build_grid(1.0, 3, 1)
        state = gaussian_state(grid, (electron(),))
        with pytest.raises(ValidationError):
            sample_configurations(state, 0, seed=0)
