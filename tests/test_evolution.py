import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.array_utils import byte_bounds

from wzsim.analytic import dense_evolution_oracle, loglog_slope
from wzsim.errors import NormDriftError, ResourceLimitError, ValidationError
from wzsim.evolution import (
    MAX_STEPS,
    EvolutionPlan,
    evolve,
    prepare_operators,
    sample_configurations,
    step,
)
from wzsim import evolution as evolution_mod
from wzsim import grid as grid_mod
from wzsim import kinetic as kinetic_mod
from wzsim.experiments import box_initial_state
from wzsim.grid import (
    ParticleSpec,
    StateVector,
    build_grid,
    density,
    encode_state,
    quantum_particles,
)
from wzsim.kinetic import MatrixKineticPlan, SpectralKineticPlan, apply_kinetic_plan
from wzsim.potential import composite_potential


def electron():
    return ParticleSpec(mass=1.0, charge=-1.0)


def proton_clamped(cell):
    return ParticleSpec(mass=1836.0, charge=1.0, kind="clamped", clamped_cell=cell)


def copy_of(state):
    return state.with_amplitudes(state.amplitudes.copy())


def gaussian_state(grid, roster, sigma=0.1, mu=0.5):
    def sampler(*positions):
        total = np.zeros(positions[0].shape[:-1])
        for pos in positions:
            total = total + np.sum((pos - mu) ** 2, axis=-1)
        return np.exp(-total / (2 * sigma**2)).astype(complex)

    return encode_state(grid, roster, sampler)


def multiply_tables(state, tables):
    """Each table multiplied into the whole register tensor, in order."""
    tensor = state.tensor
    for table in tables:
        np.multiply(tensor, table, out=tensor)


def first_order_step(state, tables, kinetic):
    """A first-order step by hand, in place: the tables, then each
    (register, kinetic plan) pair on the whole state."""
    multiply_tables(state, tables)
    for register, kplan in kinetic:
        apply_kinetic_plan(state, register, kplan)


class TestPlanValidation:
    def test_eps(self):
        assert EvolutionPlan(T=1.0, N_t=4).eps == 0.25

    def test_rejects_bad_fields(self):
        with pytest.raises(ValidationError):
            EvolutionPlan(T=-1.0, N_t=10)
        with pytest.raises(ValidationError):
            EvolutionPlan(T=1.0, N_t=0)
        with pytest.raises(ValidationError):
            EvolutionPlan(T=0.1, N_t=2.5)
        with pytest.raises(ValidationError):
            EvolutionPlan(T=0.1, N_t=True)
        with pytest.raises(ValidationError):
            EvolutionPlan(T=1.0, N_t=10, kinetic_method="exact")
        with pytest.raises(ValidationError):
            EvolutionPlan(T=1.0, N_t=10, splitting="second-order")
        with pytest.raises(ValidationError):
            EvolutionPlan(T=1.0, N_t=10, terms={"T_e", "U_xx"})
        for T in (True, "x", 10**400):
            with pytest.raises(ValidationError):
                EvolutionPlan(T=T, N_t=1)
        for v_wall in (-1.0, float("nan"), True, "x", 10**400):
            with pytest.raises(ValidationError):
                EvolutionPlan(T=1.0, N_t=10, v_wall=v_wall)

    def test_step_count_is_bounded(self):
        assert EvolutionPlan(T=1.0, N_t=MAX_STEPS).N_t == MAX_STEPS
        with pytest.raises(ResourceLimitError):
            EvolutionPlan(T=1.0, N_t=MAX_STEPS + 1)

    def test_terms_coerced_to_frozenset(self):
        plan = EvolutionPlan(T=1.0, N_t=10, terms=["T_e", "wall"])
        assert plan.terms == frozenset({"T_e", "wall"})


class TestPreparedOperators:
    def test_free_particle_has_no_phase(self):
        grid = build_grid(1.0, 3, 1)
        plan = EvolutionPlan(T=1e-3, N_t=10, terms={"T_e"})
        ops = prepare_operators(grid, (electron(),), plan)
        assert ops.phases == []
        assert len(ops.kinetic) == 1

    @staticmethod
    def scale(plan):
        return -1j * plan.eps if plan.splitting == "first-order" else -1j * (plan.eps / 2.0)

    @pytest.mark.parametrize("splitting", ["first-order", "strang"])
    @pytest.mark.parametrize(
        "d, protons, terms",
        # The 1D box with a wall, and an electron in 2D with three clamped
        # protons, U_nn and a wall.
        [(1, 0, {"T_e", "wall"}), (2, 3, {"T_e", "U_en", "U_nn", "wall"})],
    )
    def test_phase_is_exp_of_the_diagonal_bit_exact(self, d, protons, terms, splitting):
        # One quantum particle: its one table is the whole phase, summed in
        # the real part of the phase and exponentiated there, with the
        # arithmetic of exp(scale * V).
        grid = build_grid(4.0, 3, d)
        cells = [(1, 6), (5, 2), (6, 6)][:protons]
        roster = (electron(), *(proton_clamped(c) for c in cells))
        plan = EvolutionPlan(T=0.05, N_t=4, terms=terms, splitting=splitting, v_wall=30.0)
        (phase,) = prepare_operators(grid, roster, plan).phases
        diag = composite_potential(grid, roster, sorted(terms - {"T_e"}), v_wall=30.0)
        assert phase.shape == (8,) * d
        assert np.array_equal(phase.reshape(-1), np.exp(self.scale(plan) * diag))

    @pytest.mark.parametrize("splitting", ["first-order", "strang"])
    @pytest.mark.parametrize(
        "d, roster, tables",
        # Two electrons in 1D with U_ee and a wall; two electrons and three
        # clamped protons in 2D with every potential term; three electrons
        # and a clamped proton in 1D. One table per electron and one per
        # pair of electrons.
        [
            (1, (electron(), electron()), 3),
            (2, (electron(), electron(), *(proton_clamped(c) for c in [(3, 4), (5, 4), (0, 7)])), 3),
            (1, (electron(),) * 3 + (proton_clamped((4,)),), 6),
        ],
    )
    def test_phases_match_composite_diagonal(self, d, roster, tables, splitting):
        # The tables' product is the factor the splitting applies, to
        # rounding: it multiplies exp of the terms where the diagonal sums
        # the terms under one exp.
        grid = build_grid(4.0, 3, d)
        terms = {"T_e", "U_ee", "U_en", "U_nn", "wall"}
        plan = EvolutionPlan(T=0.05, N_t=4, terms=terms, splitting=splitting, v_wall=30.0)
        phases = prepare_operators(grid, roster, plan).phases
        diag = composite_potential(grid, roster, ["U_ee", "U_en", "U_nn", "wall"], v_wall=30.0)
        registers = len(quantum_particles(roster)) * d
        product = np.ones((8,) * registers, dtype=complex)
        for table in phases:
            assert table.ndim == registers
            product = product * table
        assert len(phases) == tables
        expected = np.exp(self.scale(plan) * diag)
        assert np.max(np.abs(product.reshape(-1) - expected)) <= 1e-15

    @pytest.mark.parametrize("method", ["trotter", "spectral"])
    def test_build_peaks_under_a_sixteenth_of_a_state(self, method):
        # Two electrons and two protons in 2D at n=4, a 1 MiB state: no
        # table is state-sized, as each spans a few KiB of memory, and
        # neither are the kinetic plans.
        grid = build_grid(4.0, 4, 2)
        roster = molecule_roster(grid)
        plan = EvolutionPlan(
            T=0.05, N_t=4, kinetic_method=method, terms=MOLECULE_TERMS, v_wall=50.0
        )
        state_bytes = 16 * 16**4
        prepare_operators(grid, roster, plan)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            ops = prepare_operators(grid, roster, plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ops.phases) == 3
        for table in ops.phases:
            low, high = byte_bounds(table)
            assert high - low < state_bytes // 16
        assert peak - base < state_bytes // 16

    def test_kinetic_entries_cover_quantum_registers(self):
        grid = build_grid(1.0, 2, 2)
        roster = (electron(), electron(), proton_clamped((1, 1)))
        plan = EvolutionPlan(T=1e-3, N_t=10, terms={"T_e", "U_en"})
        ops = prepare_operators(grid, roster, plan)
        assert [r for r, _ in ops.kinetic] == [0, 1, 2, 3]

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
    def test_first_order_is_phase_then_kinetic(self):
        grid = build_grid(1.0, 4, 1)
        roster = (electron(),)
        state = gaussian_state(grid, roster)
        plan = EvolutionPlan(T=1e-4, N_t=1, terms={"T_e", "wall"}, splitting="first-order")
        ops = prepare_operators(grid, roster, plan)
        (phase,) = ops.phases
        stepped = evolve(copy_of(state), plan).final_state
        manual = state.with_amplitudes(state.amplitudes * phase)
        first_order_step(manual, [], ops.kinetic)
        assert np.array_equal(stepped.amplitudes, manual.amplitudes)

    def test_strang_is_half_phase_sandwich(self):
        # A one-step Strang evolve: the half phase, the kinetic factor and
        # the half phase again.
        grid = build_grid(1.0, 4, 1)
        roster = (electron(),)
        state = gaussian_state(grid, roster)
        plan = EvolutionPlan(T=1e-4, N_t=1, terms={"T_e", "wall"}, splitting="strang")
        ops = prepare_operators(grid, roster, plan)
        (phase,) = ops.phases
        stepped = evolve(copy_of(state), plan).final_state
        manual = state.with_amplitudes(state.amplitudes * phase)
        first_order_step(manual, [], ops.kinetic)
        manual = manual.with_amplitudes(manual.amplitudes * phase)
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
            report = evolve(copy_of(state), plan)
            return np.linalg.norm(report.final_state.amplitudes - exact.amplitudes)

        coarse, fine = distance(100), distance(800)
        assert fine < coarse / 10
        assert fine < 1e-7

    def test_clamped_roster_supplies_potential(self):
        grid = build_grid(1.0, 3, 1)
        roster = (electron(), proton_clamped((4,)))
        state = gaussian_state(grid, (electron(),))
        plan = EvolutionPlan(T=1e-3, N_t=10, terms={"T_e", "U_en"})
        report = evolve(copy_of(state), plan, particles=roster)
        assert report.max_norm_drift < 1e-12
        free = evolve(copy_of(state), EvolutionPlan(T=1e-3, N_t=10, terms={"T_e"}))
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

    def test_nan_drift_aborts(self):
        # eps = 1e308 makes the wall phase exp(-1e314 i), which is NaN, so
        # the norm is NaN after the first step.
        grid = build_grid(1.0, 3, 1)
        state = gaussian_state(grid, (electron(),))
        plan = EvolutionPlan(T=1e308, N_t=1, terms={"T_e", "wall"})
        with pytest.raises(NormDriftError, match="nan"):
            evolve(state, plan)
        assert np.isnan(state.norm())

    @pytest.mark.parametrize("n", [3, 7])
    def test_nan_kinetic_factor_aborts(self, n):
        # eps = 1e308 makes the spectral phases NaN, and with them the
        # matrix (D = 8) or the FFT's phase pass (D = 128): the norm check
        # aborts the first step, and numpy warns of nothing (tier-1 turns a
        # RuntimeWarning into an error).
        grid = build_grid(1.0, n, 1)
        state = gaussian_state(grid, (electron(),))
        plan = EvolutionPlan(T=1e308, N_t=1, terms={"T_e"})
        with pytest.raises(NormDriftError, match="nan"):
            evolve(state, plan)
        assert np.isnan(state.norm())


MOLECULE_TERMS = {"T_e", "U_ee", "U_en", "wall"}


def molecule_roster(grid):
    mid = grid.cells_per_axis // 2
    return (electron(), electron(), proton_clamped((mid - 1, mid)), proton_clamped((mid + 1, mid)))


def one_ion_roster(grid):
    """Two electrons and a proton clamped at the middle cell."""
    return (electron(), electron(), proton_clamped((grid.cells_per_axis // 2,) * grid.d))


def random_state(grid, n_particles, seed=0):
    rng = np.random.default_rng(seed)
    dim = 1 << (grid.n * grid.d * n_particles)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(amps / np.linalg.norm(amps), grid, (electron(),) * n_particles)


def sandwich_step(state, plan, ops):
    """One step of plan on state by hand, in place: a first-order step,
    and for Strang the half phases once more after it, the half-phase
    sandwich."""
    first_order_step(state, ops.phases, ops.kinetic)
    if plan.splitting == "strang":
        multiply_tables(state, ops.phases)


def chained_steps(state, plan, ops):
    """A copy of state after N_t sandwich steps, and the drift after each."""
    chained, drift = copy_of(state), []
    for _ in range(plan.N_t):
        sandwich_step(chained, plan, ops)
        drift.append(abs(chained.norm() - 1.0))
    return chained, drift


def fused_chain(state, plan, ops):
    """A run by hand, as evolve schedules it, one whole-state pass per
    operator: first-order steps, the first with ops.phases and the rest
    with the fused tables, and for Strang the half phases once more
    before the last norm. Returns a copy of state after the run and the
    drift after each step."""
    chained, drift = copy_of(state), []
    for k in range(plan.N_t):
        first_order_step(chained, ops.fused if k else ops.phases, ops.kinetic)
        if k == plan.N_t - 1 and plan.splitting == "strang":
            multiply_tables(chained, ops.phases)
        drift.append(abs(chained.norm() - 1.0))
    return chained, drift


class TestWorkBuffer:
    """evolve steps the caller's state in place, one step call at a time."""

    @pytest.mark.parametrize("splitting", ["first-order", "strang"])
    @pytest.mark.parametrize("method", ["trotter", "spectral"])
    def test_evolve_equals_chained_steps(self, method, splitting):
        # First-order: N_t steps, bit for bit. Strang: the fused chain bit
        # for bit, and N_t half-phase sandwiches to rounding.
        grid = build_grid(4.0, 3, 2)
        roster = molecule_roster(grid)
        state = random_state(grid, 2)
        plan = EvolutionPlan(
            T=0.05, N_t=4, kinetic_method=method, terms=MOLECULE_TERMS, splitting=splitting
        )
        report = evolve(copy_of(state), plan, particles=roster)
        ops = prepare_operators(grid, roster, plan)
        chained, _ = chained_steps(state, plan, ops)
        if splitting == "first-order":
            assert np.array_equal(report.final_state.amplitudes, chained.amplitudes)
        else:
            fused, _ = fused_chain(state, plan, ops)
            assert np.array_equal(report.final_state.amplitudes, fused.amplitudes)
            assert np.max(np.abs(report.final_state.amplitudes - chained.amplitudes)) <= 1e-14

    @pytest.mark.parametrize("splitting", ["first-order", "strang"])
    @pytest.mark.parametrize("method", ["trotter", "spectral"])
    def test_step_acts_on_the_state_it_is_given(self, method, splitting):
        # Two electrons and two clamped protons in 2D: four registers, so
        # every kinetic factor and the tables act on a multi-register
        # state. A step is the kinetic factors, the norm, then the next
        # step's tables.
        grid = build_grid(4.0, 3, 2)
        roster = molecule_roster(grid)
        plan = EvolutionPlan(
            T=0.05, N_t=4, kinetic_method=method, terms=MOLECULE_TERMS, splitting=splitting
        )
        ops = prepare_operators(grid, roster, plan)
        state = random_state(grid, 2)
        manual = copy_of(state)
        buffer = state.amplitudes
        norm = step(state, ops.kinetic, ops.fused)
        assert state.amplitudes is buffer
        first_order_step(manual, [], ops.kinetic)
        assert norm == manual.norm()
        multiply_tables(manual, ops.fused)
        assert np.array_equal(state.amplitudes, manual.amplitudes)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_phase_tables_on_slabs_match_the_whole_tensor(self, monkeypatch, threads):
        # Two electrons and two protons in 2D on 8 cells, under a cap of a
        # third of the state and a norm chunk of one register-0 cell: 4
        # slabs of register 0, on up to 3 threads. The cell pass with no
        # kinetic factor is evolve's first phase. The tables are made
        # under WZ_THREADS=1 and the pass reads `threads`: the pool has
        # threads - 1.
        asked = []
        pool = grid_mod._slab_pool

        def spy(count):
            asked.append(count)
            return pool(count)

        monkeypatch.setattr(grid_mod, "_slab_pool", spy)
        monkeypatch.setenv("WZ_THREADS", "1")
        grid = build_grid(4.0, 3, 2)
        roster = molecule_roster(grid)
        state = random_state(grid, 2)
        monkeypatch.setattr(grid_mod, "SLAB_BYTES", state.amplitudes.nbytes // 3)
        monkeypatch.setattr(grid_mod, "NORM_CHUNK", state.dim // grid.cells_per_axis)
        plan = EvolutionPlan(T=0.05, N_t=4, terms={"U_ee", "U_en", "wall"})
        ops = prepare_operators(grid, roster, plan)
        assert len(ops.phases) == 3 and ops.kinetic == []
        whole = copy_of(state)
        multiply_tables(whole, ops.phases)
        monkeypatch.setenv("WZ_THREADS", str(threads))
        evolution_mod._cell_pass(state, [], ops.phases)
        assert np.array_equal(state.amplitudes, whole.amplitudes)
        assert asked == [threads - 1] * (threads - 1)

    @pytest.mark.parametrize("method", ["trotter", "spectral"])
    def test_drift_matches_chained_steps(self, method):
        # The drift of the fused chain bit for bit, and that of N_t
        # sandwiches to rounding: the steps before the last are measured
        # without their trailing half phase, of modulus one.
        grid = build_grid(4.0, 3, 2)
        roster = molecule_roster(grid)
        plan = EvolutionPlan(
            T=0.05, N_t=4, kinetic_method=method, terms=MOLECULE_TERMS, splitting="strang"
        )
        state = random_state(grid, 2)
        ops = prepare_operators(grid, roster, plan)
        fused, fused_drift = fused_chain(state, plan, ops)
        chained, drift = chained_steps(state, plan, ops)
        report = evolve(state, plan, particles=roster)
        assert np.array_equal(report.norm_drift, fused_drift)
        assert np.array_equal(report.final_state.amplitudes, fused.amplitudes)
        assert np.max(np.abs(report.norm_drift - drift)) <= 1e-15
        assert np.max(np.abs(report.final_state.amplitudes - chained.amplitudes)) <= 1e-14

    @pytest.mark.parametrize("method", ["trotter", "spectral"])
    def test_one_strang_step_is_the_sandwich(self, method):
        grid = build_grid(4.0, 3, 2)
        roster = molecule_roster(grid)
        plan = EvolutionPlan(
            T=0.05, N_t=1, kinetic_method=method, terms=MOLECULE_TERMS, splitting="strang"
        )
        state = random_state(grid, 2)
        ops = prepare_operators(grid, roster, plan)
        chained, drift = chained_steps(state, plan, ops)
        report = evolve(state, plan, particles=roster)
        assert np.array_equal(report.final_state.amplitudes, chained.amplitudes)
        assert np.array_equal(report.norm_drift, drift)

    @pytest.mark.parametrize("method", ["trotter", "spectral"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_one_quantum_particle_strang_equals_chained_steps(self, d, method):
        # One electron's fused table is its half table listed twice, each
        # multiplied in whole, so the fused run is N_t sandwiches bit for
        # bit, with no second state-sized table.
        grid = build_grid(4.0, 4, d)
        mid = grid.cells_per_axis // 2
        roster = (electron(), proton_clamped((mid - 1,) * d), proton_clamped((mid + 1,) * d))
        plan = EvolutionPlan(
            T=0.05, N_t=5, kinetic_method=method, terms={"T_e", "U_en", "wall"},
            splitting="strang", v_wall=50.0,
        )
        state = random_state(grid, 1)
        ops = prepare_operators(grid, roster, plan)
        (half,) = ops.phases
        assert len(ops.fused) == 2 and all(table is half for table in ops.fused)
        chained, _ = chained_steps(state, plan, ops)
        report = evolve(state, plan, particles=roster)
        assert np.array_equal(report.final_state.amplitudes, chained.amplitudes)

    @pytest.mark.parametrize("roster", ["molecule", "one ion"])
    def test_fused_tables_are_the_first_order_phases(self, roster):
        # Two or more quantum particles: the fused tables are exp(-i eps V),
        # bit for bit the phases of the first-order plan, in small tables
        # of their own.
        grid = build_grid(4.0, 3, 2)
        particles = molecule_roster(grid) if roster == "molecule" else one_ion_roster(grid)
        plan = EvolutionPlan(T=0.05, N_t=4, terms=MOLECULE_TERMS, splitting="strang")
        ops = prepare_operators(grid, particles, plan)
        first = prepare_operators(grid, particles, replace(plan, splitting="first-order"))
        assert first.fused is first.phases
        assert len(ops.fused) == len(first.phases) == len(ops.phases)
        for fused, whole, half in zip(ops.fused, first.phases, ops.phases):
            assert np.array_equal(fused, whole)
            assert not np.shares_memory(fused, half)

    @pytest.mark.parametrize("d, particles", [(1, 1), (2, 1), (2, 2)])
    def test_malformed_thread_count_leaves_the_state_as_it_was(self, monkeypatch, d, particles):
        # One register, where no step reaches the slab engine; two, where
        # the kinetic factors reach it after the phase has been multiplied
        # in; and four, where the phase tables reach it too. evolve rejects
        # the value before its first step in each.
        monkeypatch.setenv("WZ_THREADS", "many")
        grid = build_grid(4.0, 3, d)
        roster = molecule_roster(grid) if particles == 2 else (electron(),)
        terms = MOLECULE_TERMS if particles == 2 else {"T_e", "wall"}
        plan = EvolutionPlan(T=0.05, N_t=2, terms=terms)
        state = random_state(grid, particles)
        before = state.amplitudes.copy()
        with pytest.raises(ValidationError, match="WZ_THREADS"):
            evolve(state, plan, particles=roster)
        assert np.array_equal(state.amplitudes, before)

    @pytest.mark.parametrize("wall", [False, True])
    @pytest.mark.parametrize("splitting", ["first-order", "strang"])
    @pytest.mark.parametrize("method", ["trotter", "spectral"])
    @pytest.mark.parametrize(
        "n, d, particles, protons",
        # 2^16 amplitudes (1 MiB) in 1 and 2 particles, 2^18 in 3: every
        # layout has more than one register, so every kinetic factor can
        # be cut. The last is two electrons around two protons.
        [(8, 2, 1, 1), (4, 2, 2, 1), (6, 1, 3, 1), (4, 2, 2, 2)],
    )
    def test_evolve_peaks_at_state_plus_phase(
        self, monkeypatch, n, d, particles, protons, method, splitting, wall
    ):
        # The steps act on the caller's state, so evolve holds the phase
        # tables and a quarter of a state at most beside it. With one
        # quantum particle its table is the only state-sized array; with
        # more, the tables are a few KiB. The Trotter scan slabs stay under
        # the cap, here a 32nd of the state, unless one cell of the cut axis
        # is more: 3/16 of the state in temporaries at 16 cells, and numpy's
        # iterator buffers, 0.23 of the state in all. Each thread holds its
        # own slab, so this runs on one. The spectral route holds numpy's
        # fixed-size FFT buffer, about 140 KiB.
        monkeypatch.setenv("WZ_THREADS", "1")
        grid = build_grid(4.0, n, d)
        mid = grid.cells_per_axis // 2
        cells = [(mid - 1,) * d] if protons == 1 else [(mid - 1, mid), (mid + 1, mid)]
        roster = (electron(),) * particles + tuple(proton_clamped(c) for c in cells)
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
        buffer = state.amplitudes
        state_bytes = buffer.nbytes
        monkeypatch.setattr(grid_mod, "SLAB_BYTES", state_bytes // 32)
        # A warm-up run: imports, pools, plans.
        evolve(random_state(grid, particles, seed=1), plan, particles=roster)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            report = evolve(state, plan, particles=roster)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        phases = prepare_operators(grid, roster, plan).phases
        tables = sum(high - low for low, high in map(byte_bounds, phases))
        assert report.final_state is state and state.amplitudes is buffer
        assert tables == state_bytes if particles == 1 else tables < state_bytes // 16
        assert peak - base <= 0.25 * state_bytes + tables

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
                evolve(state, plan, particles=roster)
                counts.append(len(builds))
        assert counts[:2] == counts[2:]


class TestTwoPassStep:
    """A step of a multi-register state is register 0's kinetic factor,
    then one pass over register-0 cells for the other registers, the norm
    and the next step's tables: the bytes of one pass per operator."""

    # (n, d, electrons): two electrons in 2D on 8 cells, whose cells of
    # 512 amplitudes meet the matrix kernels; one electron in 2D on 128
    # cells, whose cells of 128 meet the scan and the FFT; and one
    # electron on one axis of 128 cells, whose steps take the operators in
    # turn and whose first phase alone is a cell pass.
    LAYOUTS = {"two electrons": (3, 2, 2), "one electron": (7, 2, 1), "one register": (7, 1, 1)}

    def case(self, layout):
        n, d, electrons = self.LAYOUTS[layout]
        grid = build_grid(4.0, n, d)
        mid = grid.cells_per_axis // 2
        roster = (electron(),) * electrons + (
            proton_clamped((mid - 1,) + (mid,) * (d - 1)),
            proton_clamped((mid + 1,) + (mid,) * (d - 1)),
        )
        return grid, roster, random_state(grid, electrons)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("splitting", ["first-order", "strang"])
    @pytest.mark.parametrize("method", ["trotter", "spectral"])
    @pytest.mark.parametrize("chunk", ["cell / 2", "cell", "4 cells"])
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_evolve_matches_one_pass_per_operator(
        self, monkeypatch, layout, chunk, method, splitting, threads
    ):
        # NORM_CHUNK is set against a register-0 cell, so that the slabs
        # are cut in cells or in chunks; SLAB_BYTES to a 32nd of the
        # state, so that the cell pass hands slabs to every thread and
        # the kernels cut their lines inside a slab. A one-register cell
        # is one amplitude, so its chunks are reckoned against 4: 2, 4 and
        # 16 amplitudes, 32, 32 and 8 slabs.
        grid, roster, state = self.case(layout)
        cell = max(4, state.dim // grid.cells_per_axis)
        size = {"cell / 2": cell // 2, "cell": cell, "4 cells": 4 * cell}[chunk]
        monkeypatch.setattr(grid_mod, "NORM_CHUNK", size)
        monkeypatch.setattr(grid_mod, "SLAB_BYTES", state.amplitudes.nbytes // 32)
        monkeypatch.setenv("WZ_THREADS", str(threads))
        plan = EvolutionPlan(
            T=0.05, N_t=3, kinetic_method=method, terms=MOLECULE_TERMS,
            splitting=splitting, v_wall=50.0,
        )
        ops = prepare_operators(grid, roster, plan)
        expected, drift = fused_chain(state, plan, ops)
        report = evolve(state, plan, particles=roster)
        assert np.array_equal(report.final_state.amplitudes, expected.amplitudes)
        assert np.array_equal(report.norm_drift, drift)

    @pytest.mark.parametrize("splitting", ["first-order", "strang"])
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_an_abort_leaves_the_next_steps_tables_in(self, layout, splitting):
        # A state of norm 1.01 fails the first step's norm check. A step
        # multiplies in the tables the next one starts with before evolve
        # checks the norm it returns, so the aborted state holds the first
        # step and then the fused tables, on the cell pass and on the
        # one-register path alike.
        grid, roster, state = self.case(layout)
        state.amplitudes[...] *= 1.01
        plan = EvolutionPlan(
            T=0.05, N_t=3, kinetic_method="spectral", terms=MOLECULE_TERMS,
            splitting=splitting, v_wall=50.0,
        )
        ops = prepare_operators(grid, roster, plan)
        expected = copy_of(state)
        first_order_step(expected, ops.phases, ops.kinetic)
        multiply_tables(expected, ops.fused)
        with pytest.raises(NormDriftError, match="at step 1 "):
            evolve(state, plan, particles=roster)
        assert np.array_equal(state.amplitudes, expected.amplitudes)

    @pytest.mark.parametrize("d, electrons, calls", [(2, 2, 2), (1, 1, 0)])
    def test_every_step_makes_two_slab_calls(self, monkeypatch, d, electrons, calls):
        # The bench molecule's layout, two electrons and two clamped
        # protons in 2D, makes two on_slabs calls a step: register 0, then
        # the cell pass. A one-register box makes none. evolve makes one
        # more, before the first step, for the first half tables.
        per_step, total = [], [0]
        slabs, stepper = grid_mod.on_slabs, evolution_mod.step

        def spy(*args):
            total[0] += 1
            return slabs(*args)

        def counted_step(*args):
            before = total[0]
            out = stepper(*args)
            per_step.append(total[0] - before)
            return out

        monkeypatch.setattr(grid_mod, "on_slabs", spy)
        monkeypatch.setattr(evolution_mod, "on_slabs", spy)
        monkeypatch.setattr(evolution_mod, "step", counted_step)
        grid = build_grid(4.0, 3, d)
        roster = molecule_roster(grid) if electrons == 2 else (electron(),)
        terms = {"T_e", "U_ee", "U_en"} if electrons == 2 else {"T_e", "wall"}
        plan = EvolutionPlan(T=0.05, N_t=4, kinetic_method="spectral", terms=terms, splitting="strang")
        evolve(random_state(grid, electrons), plan, particles=roster)
        assert per_step == [calls] * 4
        assert total[0] == 1 + calls * 4


class TestInteractingOracle:
    """Two electrons and a proton with U_ee, U_en and the wall, stepped
    from a random state and measured against the dense propagator of the
    generator each route exponentiates. The proton is clamped, in 1D and
    in 2D, or quantum in 1D with its own kinetic term T_n."""

    T, STEPS = 0.05, (10, 40, 160)
    # The least log-log slope of the distance against eps, and a bound on
    # the distance at the finest step. The block product is itself first
    # order, so the Trotter route is first order under either splitting.
    BOUNDS = {
        ("trotter", "first-order"): (0.9, 1e-2),
        ("trotter", "strang"): (0.9, 1e-2),
        ("spectral", "first-order"): (0.9, 1e-3),
        ("spectral", "strang"): (1.8, 1e-6),
    }

    # n qubits per axis, d dimensions, and whether the proton is quantum.
    SYSTEMS = {
        "1d-n5-clamped": (5, 1, False),
        "1d-n3-quantum-proton": (3, 1, True),
        "2d-n2-clamped": (2, 2, False),
    }

    @pytest.fixture(scope="class", params=list(SYSTEMS))
    def system(self, request):
        """The system's roster, initial state and terms, and the exact
        final state for each kinetic method, one oracle each."""
        n, d, quantum_proton = self.SYSTEMS[request.param]
        grid = build_grid(4.0, n, d)
        roster, terms = one_ion_roster(grid), MOLECULE_TERMS
        if quantum_proton:
            roster, terms = roster[:2] + (ParticleSpec(mass=1836.0, charge=1.0),), terms | {"T_n"}
        quantum = quantum_particles(roster)
        state = StateVector(random_state(grid, len(quantum), 3).amplitudes, grid, quantum)
        generators = {"trotter": "finite_difference", "spectral": "spectral"}
        exact = {
            method: dense_evolution_oracle(
                grid, roster, terms, self.T, v_wall=10.0, kinetic_generator=generator
            )(state).amplitudes
            for method, generator in generators.items()
        }
        return roster, state, terms, exact

    @pytest.mark.parametrize("method, splitting", sorted(BOUNDS))
    def test_distance_shrinks_at_the_splitting_order(self, system, method, splitting):
        roster, state, terms, exact = system
        distances = []
        for n_t in self.STEPS:
            plan = EvolutionPlan(
                T=self.T, N_t=n_t, kinetic_method=method, terms=terms,
                splitting=splitting, v_wall=10.0,
            )
            final = evolve(copy_of(state), plan, particles=roster).final_state
            distances.append(np.linalg.norm(final.amplitudes - exact[method]))
        slope_min, finest_max = self.BOUNDS[method, splitting]
        assert loglog_slope([(self.T / k, d) for k, d in zip(self.STEPS, distances)]) >= slope_min
        assert distances[-1] < finest_max


class TestSpectralKernelsAgainstTheOracle:
    """One electron in a 1D box with the kinetic term alone, which the
    spectral route applies exactly at any step count, against the dense
    propagator of the spectral generator: at n = 5 and 6 on the matrix
    kernel, at n = 7 and 10 on the FFT kernel (D = 128 and 1024)."""

    T, STEPS = 0.05, (1, 10, 160)

    @pytest.mark.parametrize("n, bound", [(5, 1e-12), (6, 1e-12), (7, 1e-12), (10, 1e-10)])
    def test_kinetic_factor_is_the_exact_propagator(self, n, bound):
        grid = build_grid(1.0, n, 1)
        roster = (electron(),)
        state = gaussian_state(grid, roster)
        exact = dense_evolution_oracle(
            grid, roster, {"T_e"}, self.T, kinetic_generator="spectral"
        )(state).amplitudes
        ops = prepare_operators(grid, roster, EvolutionPlan(T=self.T, N_t=1, terms={"T_e"}))
        ((_, kplan),) = ops.kinetic
        matrix = grid.cells_per_axis <= kinetic_mod.DENSE_MAX_CELLS
        assert isinstance(kplan, MatrixKineticPlan if matrix else SpectralKineticPlan)
        for n_t in self.STEPS:
            for splitting in ("first-order", "strang"):
                evo = EvolutionPlan(T=self.T, N_t=n_t, terms={"T_e"}, splitting=splitting)
                final = evolve(copy_of(state), evo).final_state
                assert np.linalg.norm(final.amplitudes - exact) <= bound


class TestSeparableBox:
    """The paper's 3D setting: one electron in a walled box. Its kinetic
    term and its wall are sums over the axes, and a uniform start is a
    product over them, so evolved as one d = 3 state it is the outer
    product of the 1D run on each axis."""

    @staticmethod
    def run(n, d, method, splitting):
        grid = build_grid(1.0, n, d)
        plan = EvolutionPlan(
            T=1e-3,
            N_t=200,
            kinetic_method=method,
            terms={"T_e", "wall"},
            splitting=splitting,
            v_wall=1e6,
        )
        return evolve(box_initial_state(grid, electron(), interior_only=False), plan).final_state

    @pytest.mark.parametrize("splitting", ["first-order", "strang"])
    @pytest.mark.parametrize("method", ["trotter", "spectral"])
    @pytest.mark.parametrize("n", [4, 5])
    def test_three_dimensional_box_is_the_outer_product_of_one_axis(self, n, method, splitting):
        line = self.run(n, 1, method, splitting)
        box = self.run(n, 3, method, splitting)
        p = density(line)
        assert np.max(np.abs(density(box) - np.einsum("i,j,k->ijk", p, p, p).reshape(-1))) <= 1e-15
        a = line.amplitudes
        product = np.einsum("i,j,k->ijk", a, a, a).reshape(-1)
        assert np.max(np.abs(box.amplitudes - product)) <= 1e-13

    @pytest.mark.parametrize("method", ["trotter", "spectral"])
    def test_three_registers_on_slabs_match_the_uncapped_run(self, monkeypatch, method):
        # n = 5 in 3D is 512 KiB, under the default cap: one slab on the
        # caller's thread. Under a cap of a 16th of it, every register is
        # cut into slabs on 3 threads: the pool has 2.
        asked = set()
        pool = grid_mod._slab_pool

        def spy(count):
            asked.add(count)
            return pool(count)

        monkeypatch.setattr(grid_mod, "_slab_pool", spy)
        monkeypatch.setenv("WZ_THREADS", "1")
        whole = self.run(5, 3, method, "strang")
        assert asked == set()
        monkeypatch.setattr(grid_mod, "SLAB_BYTES", whole.amplitudes.nbytes // 16)
        monkeypatch.setenv("WZ_THREADS", "3")
        assert np.array_equal(self.run(5, 3, method, "strang").amplitudes, whole.amplitudes)
        assert asked == {2}


class TestExchangeSymmetry:
    """Swapping two identical electrons commutes with a step, up to the
    rounding of the potential's pair sums, which the swap reorders."""

    @pytest.mark.parametrize("splitting", ["first-order", "strang"])
    @pytest.mark.parametrize("method", ["trotter", "spectral"])
    @pytest.mark.parametrize("n, d", [(5, 1), (3, 2)])
    def test_swap_commutes_with_a_step(self, n, d, method, splitting):
        grid = build_grid(4.0, n, d)
        roster = molecule_roster(grid) if d == 2 else one_ion_roster(grid)
        plan = EvolutionPlan(
            T=0.0125, N_t=1, kinetic_method=method, terms=MOLECULE_TERMS, splitting=splitting
        )
        order = tuple(range(d, 2 * d)) + tuple(range(d))

        def swapped(state):
            return state.with_amplitudes(state.tensor.transpose(order).reshape(-1))

        state = random_state(grid, 2, 5)
        before = evolve(swapped(state), plan, particles=roster).final_state
        after = swapped(evolve(copy_of(state), plan, particles=roster).final_state)
        assert np.max(np.abs(before.amplitudes - after.amplitudes)) <= 1e-14


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
        with pytest.raises(ValidationError):
            sample_configurations(state, 10, seed=-1)
        for shots, seed in [(2.5, 0), (True, 0), (10, 1.5), (10, True)]:
            with pytest.raises(ValidationError):
                sample_configurations(state, shots, seed)
