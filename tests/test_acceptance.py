"""End-to-end acceptance checks for the assembled simulator.

Each test prints one PASS/FAIL line so a transcript of this module reads
as a checklist: unitarity, oracle agreement, convergence slopes, closed
forms, circuit synthesis, symmetry, gate counts, level counting, molecule
reflection symmetry, wall-height insensitivity, and sampling.
"""

import numpy as np
import pytest
import scipy.linalg

from wzsim.analytic import dense_evolution_oracle, loglog_slope
from wzsim.circuits import CPHASE, PHASE, circuit_unitary, count_kinetic_gates, synthesize_diagonal
from wzsim.evolution import EvolutionPlan, evolve
from wzsim.experiments import (
    RunConfig,
    box_initial_state,
    box_run,
    run_convergence,
    run_molecule2d,
    run_sample,
)
from wzsim.grid import ParticleSpec, build_grid, encode_state
from wzsim.kinetic import fourier_conjugation_diagnostic, trotter_coupling_block
from wzsim.potential import (
    antidiagonal_symmetry_check,
    build_coulomb_diagonal,
    potential_bounds,
    quantize_levels,
)


def _report(num: int, label: str, ok: bool) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}")
    return ok


def electron() -> ParticleSpec:
    return ParticleSpec(mass=1.0, charge=-1.0)


def proton_clamped(cell) -> ParticleSpec:
    return ParticleSpec(mass=1836.0, charge=1.0, kind="clamped", clamped_cell=cell)


def narrow_gaussian_state(grid, sigma=0.08, mu=0.5):
    def sampler(pos):
        return np.exp(-np.sum((pos - mu) ** 2, axis=-1) / (2 * sigma**2)).astype(complex)

    return encode_state(grid, (electron(),), sampler)


def test_criterion_01_unitarity():
    worst = 0.0
    for method in ("trotter", "spectral"):
        for n in (4, 6, 8, 10):
            grid = build_grid(1.0, n, 1)
            state = box_initial_state(grid, electron(), interior_only=False)
            plan = EvolutionPlan(
                T=1e-3, N_t=1000, kinetic_method=method, terms={"T_e", "wall"}
            )
            report = evolve(state, plan)
            worst = max(worst, report.max_norm_drift)
    ok = worst < 1e-10
    assert _report(1, f"norm drift {worst:.2e} < 1e-10 for both methods, n in 4..10", ok)


def test_criterion_02_oracle_equivalence():
    grid = build_grid(1.0, 5, 1)
    state = narrow_gaussian_state(grid)
    T = 1e-3
    roster = (electron(),)
    terms = ("T_e", "wall")
    oracle_fd = dense_evolution_oracle(grid, roster, terms, T, kinetic_generator="finite_difference")
    oracle_sp = dense_evolution_oracle(grid, roster, terms, T, kinetic_generator="spectral")

    def distance(oracle, method, splitting, n_t):
        plan = EvolutionPlan(
            T=T, N_t=n_t, kinetic_method=method, terms=set(terms), splitting=splitting
        )
        report = evolve(state.with_amplitudes(state.amplitudes.copy()), plan)
        return float(
            np.linalg.norm(report.final_state.amplitudes - oracle(state).amplitudes)
        )

    # The first-order route exponentiates the finite-difference stencil, so
    # it is measured against that generator; the Strang route wraps the
    # spectral factor and is measured against the dispersion it applies.
    steps = (10, 100, 1000)
    d_first = [distance(oracle_fd, "trotter", "first-order", k) for k in steps]
    d_strang = [distance(oracle_sp, "spectral", "strang", k) for k in steps]
    slope_first = loglog_slope([(T / k, d) for k, d in zip(steps, d_first)])
    slope_strang = loglog_slope([(T / k, d) for k, d in zip(steps, d_strang)])
    ok = d_first[-1] < 1e-4 and slope_first >= 0.9 and slope_strang >= 1.8
    assert _report(
        2,
        f"oracle distance {d_first[-1]:.2e} < 1e-4, slopes {slope_first:.3f} >= 0.9 "
        f"and {slope_strang:.3f} >= 1.8",
        ok,
    )


def test_criterion_03_spatial_convergence(tmp_path):
    summary = run_convergence(RunConfig(axis="spatial"), tmp_path / "spatial")
    slope = summary["rmse_slope"]
    gap = summary["slope_gap"]
    ok = abs(slope - 0.25) <= 0.10 and abs(gap - 0.5) < 1e-10
    assert _report(
        3, f"spatial RMSE slope {slope:.4f} within 0.25 +/- 0.10, slope gap {gap:.12f}", ok
    )


def test_criterion_04_coupling_block_closed_form():
    generator = np.array([[0.0, 0.0, 1.0], [0.0, -2.0, 0.0], [1.0, 0.0, 0.0]])
    rng = np.random.default_rng(7)
    worst_match = 0.0
    worst_unitary = 0.0
    for u in rng.uniform(-3.0, 3.0, size=100):
        xi = 1j * u
        block = trotter_coupling_block(xi)
        reference = scipy.linalg.expm(xi * generator)
        worst_match = max(worst_match, float(np.max(np.abs(block - reference))))
        gram = block @ block.conj().T
        worst_unitary = max(worst_unitary, float(np.max(np.abs(gram - np.eye(3)))))
    ok = worst_match < 1e-12 and worst_unitary < 1e-12
    assert _report(
        4,
        f"closed-form block vs expm {worst_match:.2e}, unitarity {worst_unitary:.2e}, "
        "100 random imaginary arguments",
        ok,
    )


def test_criterion_05_fourier_conjugation():
    delta = 0.25
    points = []
    worst_rel_budget = True
    for D in (8, 16, 32, 64, 128):
        off, diag = fourier_conjugation_diagnostic(D, delta)
        k = np.arange(D)
        target = -(1.0 / delta) * np.sin(2.0 * np.pi * k / D)
        mask = np.abs(np.sin(2.0 * np.pi * k / D)) > 1e-9
        rel = np.max(np.abs(diag[mask] - target[mask]) / np.abs(target[mask]))
        worst_rel_budget &= bool(rel <= 2.0 / D)
        points.append((D, off))
    exponent = -loglog_slope(points)
    ok = exponent >= 0.9 and worst_rel_budget
    assert _report(
        5,
        f"off-diagonal decay exponent {exponent:.3f} >= 0.9, diagonal relative error "
        "within 2/D at every D",
        ok,
    )


def test_criterion_06_pattern_circuit():
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(50):
        t1, t2, t3, t4 = rng.uniform(-np.pi, np.pi, size=4)
        phases = np.array([t1, t2, t3, t4, t3, t4, t1, t2])
        compressed = synthesize_diagonal(phases)
        blind = synthesize_diagonal(phases, strategy="naive")
        target = np.exp(1j * phases)
        err = np.max(np.abs(np.diag(circuit_unitary(compressed)) - target))
        ok &= err < 1e-12
        ok &= compressed.count(CPHASE) == 2 and compressed.count(PHASE) == 0
        ok &= blind.count(PHASE, CPHASE) == 4
    assert _report(
        6, "pattern diagonal exact within 1e-12, 2 controlled-phase gates vs 4 naive", ok
    )


def test_criterion_07_antidiagonal_symmetry():
    systems = []
    for n in range(1, 9):
        systems.append((n, 1, [electron(), electron()], ("ee",)))
    for n in range(1, 6):
        systems.append((n, 1, [electron()] * 3, ("ee",)))
    for n in range(1, 5):
        systems.append((n, 2, [electron(), electron()], ("ee",)))
    for n in range(1, 3):
        systems.append((n, 2, [electron()] * 3, ("ee",)))
    for n in range(1, 3):
        systems.append((n, 3, [electron(), electron()], ("ee",)))
    # Clamped charges keep the symmetry only as mirror-image pairs.
    for n in range(2, 9):
        D = 2**n
        pair = [proton_clamped((1,)), proton_clamped((D - 2,))]
        systems.append((n, 1, [electron()] + pair, ("en", "all")))
    for n in range(2, 5):
        D = 2**n
        pair = [proton_clamped((1,)), proton_clamped((D - 2,))]
        systems.append((n, 1, [electron(), electron()] + pair, ("ee", "en", "all")))

    checked = 0
    ok = True
    for n, d, roster, term_list in systems:
        grid = build_grid(1.0, n, d)
        quantum = [p for p in roster if p.is_quantum]
        dim = grid.cells_per_axis ** (d * len(quantum))
        assert dim <= 2**16
        for term in term_list:
            diag = build_coulomb_diagonal(grid, tuple(roster), term)
            # Multi-pair sums accumulate the same addends in a different
            # order at mirrored indices, so equality holds to rounding.
            ok &= antidiagonal_symmetry_check(diag)
            checked += 1
    assert _report(
        7, f"U[x] = U[dim-1-x] exact for {checked} Coulomb diagonals up to dim 2^16", ok
    )


def test_criterion_08_gate_counts():
    ok = all(
        count_kinetic_gates(n_particles, n, "trotter") == 3 * n_particles * 2**n
        for n_particles in (1, 2, 3)
        for n in range(1, 9)
    )
    assert _report(8, "kinetic gate count equals 3N*2^n for N in 1..3, n in 1..8", ok)


def test_criterion_09_level_quantization():
    roster = (electron(), electron())
    points = []
    ok = True
    for n in range(2, 6):
        grid = build_grid(1.0, n, 1)
        diag = build_coulomb_diagonal(grid, roster, "ee")
        q = quantize_levels(diag, grid)
        u_min, u_max = potential_bounds(grid, roster)
        budget = (u_max - u_min) / q.delta_u + 1
        ok &= q.level_count <= budget
        points.append((2**n, q.level_count))
    exponent = loglog_slope(points)
    ok &= exponent <= 3.5
    assert _report(
        9,
        f"two-electron level counts within the spacing budget, growth exponent "
        f"{exponent:.3f} <= 3.5",
        ok,
    )


def test_criterion_10_molecule_symmetry(tmp_path):
    base = dict(
        qubits_per_axis=4,
        steps=1000,
        total_time=1.0,
        reflection_centers=[8, 8],
    )
    configs = {
        "one proton": RunConfig(
            particles=[
                {"mass": 1.0, "charge": -1.0},
                {"mass": 1836.0, "charge": 1.0, "kind": "clamped", "clamped_cell": [8, 8]},
            ],
            **base,
        ),
        "two protons": RunConfig(
            particles=[
                {"mass": 1.0, "charge": -1.0},
                {"mass": 1836.0, "charge": 1.0, "kind": "clamped", "clamped_cell": [5, 8]},
                {"mass": 1836.0, "charge": 1.0, "kind": "clamped", "clamped_cell": [11, 8]},
            ],
            **base,
        ),
    }
    ok = True
    worst = 0.0
    for name, cfg in configs.items():
        summary = run_molecule2d(cfg, tmp_path / name.replace(" ", "_"))
        for entry in summary["electrons"]:
            ok &= abs(entry["marginal_sum"] - 1.0) < 1e-10
            worst = max(worst, max(entry["reflection_asymmetry"]))
    ok &= worst < 0.05
    assert _report(
        10, f"electron marginals reflection-symmetric, worst asymmetry {worst:.2e} < 5%", ok
    )


def test_criterion_11_wall_height_insensitivity():
    def error_at(v_wall):
        cfg = RunConfig(
            box_length=1.0,
            kinetic_method="spectral",
            splitting="first-order",
            wall_height=v_wall,
            interior_only=False,
            series_terms=1000,
            particles=[{"mass": 1.0, "charge": -1.0}],
        ).resolved("box-evolve")
        return box_run(cfg, n=6, steps=1000, total_time=1e-3)["rmse"]

    lo, hi = error_at(1e6), error_at(1e7)
    rel = abs(hi - lo) / lo
    ok = rel < 0.05
    assert _report(11, f"RMSE shift {rel:.2%} < 5% between wall heights 1e6 and 1e7", ok)


def test_criterion_12_sampling(tmp_path):
    cfg = RunConfig(qubits_per_axis=6, shots=100000, seed=13)
    a = run_sample(cfg, tmp_path / "a")
    run_sample(cfg, tmp_path / "b")
    identical = (tmp_path / "a" / "histogram.csv").read_bytes() == (
        tmp_path / "b" / "histogram.csv"
    ).read_bytes()
    ok = a["dim"] == 64 and a["tv_distance"] < 0.05 and identical
    assert _report(
        12,
        f"TV distance {a['tv_distance']:.4f} < 0.05 on 64 states, histogram bitwise "
        "reproducible",
        ok,
    )
