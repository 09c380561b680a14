import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wzsim
from wzsim.circuits import circuit_from_text, circuit_unitary
from wzsim.cli import load_config, main
from wzsim.errors import NormDriftError, ResourceLimitError, ValidationError
from wzsim.experiments import (
    BOX_TERMS,
    CSV_BLOCK_ROWS,
    MOLECULE_TERMS,
    TEMPORAL_STEPS,
    RunConfig,
    _fmt,
    _Outputs,
    box_initial_state,
    box_run,
    cell_indicator,
    particles_from_config,
    run_box_evolve,
    run_convergence,
    run_molecule2d,
    run_sample,
    run_synth_report,
)
from wzsim import experiments as experiments_mod
from wzsim import grid as grid_mod
from wzsim.analytic import BoxSeriesSpec, box_exact_density
from wzsim.evolution import MAX_STEPS, EvolutionPlan, evolve
from wzsim.grid import ParticleSpec, build_grid, cell_centers, density, worker_count


def write_config(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def test_every_export_resolves():
    # A public function deleted without its export would leave a dead name.
    assert [name for name in wzsim.__all__ if not hasattr(wzsim, name)] == []


class TestRunConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError):
            RunConfig.from_dict({"qubits": 4})

    def test_must_be_object(self):
        with pytest.raises(ValidationError):
            RunConfig.from_dict([1, 2])

    def test_experiment_mismatch(self):
        cfg = RunConfig(experiment="sample")
        with pytest.raises(ValidationError):
            cfg.resolved("box-evolve")

    def test_unknown_experiment(self):
        with pytest.raises(ValidationError):
            RunConfig().resolved("teleport")

    def test_box_defaults(self):
        cfg = RunConfig().resolved("box-evolve")
        assert cfg.qubits_per_axis == 10
        assert cfg.steps == 1000
        assert cfg.evolve_times == [1e-3]
        assert cfg.terms == BOX_TERMS
        assert cfg.kinetic_method == "spectral"

    def test_sample_defaults(self):
        cfg = RunConfig().resolved("sample")
        assert cfg.qubits_per_axis == 6
        assert cfg.steps == 100
        assert cfg.shots == 100000

    def test_convergence_requires_axis(self):
        with pytest.raises(ValidationError):
            RunConfig().resolved("convergence")
        cfg = RunConfig(axis="temporal").resolved("convergence")
        assert cfg.sweep_steps == TEMPORAL_STEPS

    def test_molecule_defaults_center_the_nucleus(self):
        cfg = RunConfig().resolved("molecule2d")
        assert cfg.dims == 2
        assert cfg.terms == MOLECULE_TERMS
        assert cfg.particles[1]["clamped_cell"] == [8, 8]

    def test_explicit_values_survive_resolve(self):
        cfg = RunConfig(steps=7, qubits_per_axis=3).resolved("box-evolve")
        assert cfg.steps == 7
        assert cfg.qubits_per_axis == 3

    @pytest.mark.parametrize(
        "field, value",
        [
            ("steps", True),
            ("interior_only", 1),
            ("total_time", float("nan")),
            ("total_time", float("inf")),
            ("total_time", 10**400),
            ("evolve_times", 1e-3),
            ("evolve_times", [1e-3, None]),
            ("terms", "T_e"),
            ("particles", [["mass", 1.0]]),
        ],
    )
    def test_types_follow_annotations(self, field, value):
        with pytest.raises(ValidationError, match=field):
            RunConfig(**{field: value}).resolved("box-evolve")

    def test_int_stands_for_float_unchanged(self):
        cfg = RunConfig(total_time=1, evolve_times=[1, 0.5]).resolved("box-evolve")
        assert cfg.total_time == 1 and isinstance(cfg.total_time, int)
        assert cfg.evolve_times == [1, 0.5]

    def test_molecule_grid_checked_before_default(self):
        # The centred-nucleus default is 2**qubits_per_axis // 2.
        with pytest.raises(ResourceLimitError):
            RunConfig(qubits_per_axis=10**18).resolved("molecule2d")

    @pytest.mark.parametrize("experiment", ["box-evolve", "convergence"])
    def test_box_terms_are_fixed(self, experiment):
        cfg = RunConfig(axis="spatial", terms=["T_e"])
        with pytest.raises(ValidationError, match="terms"):
            cfg.resolved(experiment)
        cfg = RunConfig(axis="spatial", terms=["wall", "T_e"]).resolved(experiment)
        assert cfg.terms == ["wall", "T_e"]

    def test_sample_honours_terms(self, tmp_path):
        cfg = RunConfig(qubits_per_axis=3, steps=5, shots=100, terms=["T_e"])
        run_sample(cfg, tmp_path / "free")
        run_sample(dataclasses.replace(cfg, terms=None), tmp_path / "walled")
        manifest = json.loads((tmp_path / "free" / "manifest.json").read_text())
        assert manifest["config"]["terms"] == ["T_e"]
        assert (tmp_path / "free" / "summary.json").read_bytes() != (
            tmp_path / "walled" / "summary.json"
        ).read_bytes()


class TestParticlesFromConfig:
    def test_parses_kinds(self):
        cfg = RunConfig(
            particles=[
                {"mass": 1.0, "charge": -1.0},
                {"mass": 1836.0, "charge": 1.0, "kind": "clamped", "clamped_cell": [2, 3]},
            ]
        )
        roster = particles_from_config(cfg)
        assert roster[0].is_quantum and roster[0].is_electron
        assert roster[1].clamped_cell == (2, 3)

    def test_rejects_empty_and_malformed(self):
        with pytest.raises(ValidationError):
            particles_from_config(RunConfig(particles=[]))
        with pytest.raises(ValidationError):
            particles_from_config(RunConfig(particles=["proton"]))
        with pytest.raises(ValidationError):
            particles_from_config(RunConfig(particles=[{"mass": 1.0, "spin": 0.5}]))
        for entry in (
            {"mass": "x"},
            {"mass": True},
            {"charge": None},
            {"kind": 3},
            {"kind": "clamped", "clamped_cell": "88"},
        ):
            with pytest.raises(ValidationError):
                particles_from_config(RunConfig(particles=[entry]))


class TestHelpers:
    def test_fmt_channels(self):
        assert _fmt(True) == "True"
        assert _fmt(7) == "7"
        assert _fmt(1 / 3) == "0.33333333333333331"
        assert _fmt(np.float64(0.5)) == "0.5"

    def test_csv_floats_roundtrip(self):
        # 17 significant digits reproduce the double exactly on parse.
        for v in (1 / 3, np.pi, 2.13e-5, 0.91159992941212276):
            assert float(_fmt(v)) == v

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.delenv("WZ_THREADS", raising=False)
        assert worker_count() == 1
        monkeypatch.setenv("WZ_THREADS", "4")
        assert worker_count() == 4
        monkeypatch.setenv("WZ_THREADS", "0")
        assert worker_count() == 1
        monkeypatch.setenv("WZ_THREADS", "many")
        with pytest.raises(ValidationError):
            worker_count()


def reference_csv(header, rows) -> bytes:
    """The writer the runners used before rows were streamed: every line
    joined into one string."""
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


class TestOutputs:
    HEADER = ["i", "x", "flag"]

    @staticmethod
    def rows(count):
        return ((i, i / 7, np.float64(i) ** 0.5, i % 3 == 0) for i in range(count))

    @pytest.mark.parametrize(
        "count",
        [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 3 * CSV_BLOCK_ROWS,
         3 * CSV_BLOCK_ROWS - 1, 3 * CSV_BLOCK_ROWS + 1],
    )
    def test_csv_bytes_match_the_joined_writer(self, tmp_path, count):
        out = _Outputs(tmp_path / "o")
        out.csv("t.csv", self.HEADER, self.rows(count))
        assert (tmp_path / "o" / "t.csv").read_bytes() == reference_csv(self.HEADER, self.rows(count))

    def test_digests_match_the_files_on_disk(self, tmp_path):
        out = _Outputs(tmp_path / "o")
        out.csv("t.csv", self.HEADER, self.rows(2 * CSV_BLOCK_ROWS + 5))
        out.text("c.txt", "X 0\nCNOT 1 0\n")
        out.finish(RunConfig(), {"value": 0.1})
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == ["c.txt", "summary.json", "t.csv"]
        assert out.digests == manifest["outputs"]
        for name, digest in manifest["outputs"].items():
            assert hashlib.sha256((tmp_path / "o" / name).read_bytes()).hexdigest() == digest

    def test_writer_memory_does_not_grow_with_rows(self, tmp_path):
        def peak(count):
            out = _Outputs(tmp_path / str(count))
            tracemalloc.start()
            try:
                out.csv("t.csv", self.HEADER, self.rows(count))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_block = peak(CSV_BLOCK_ROWS)
        assert abs(peak(2**17) - peak(2**15)) < one_block

    def test_rerun_removes_the_earlier_runs_stale_outputs(self, tmp_path):
        # Two evolve_times, then one, into the same directory: density_01.csv
        # goes with the earlier manifest; a file no manifest named stays.
        out = tmp_path / "o"
        for times in ([5e-4, 1e-3], [5e-4]):
            cfg = write_config(tmp_path / "c.json", {"qubits_per_axis": 3, "evolve_times": times})
            if times == [5e-4]:
                (out / "notes.txt").write_text("mine")
            assert main(["box-evolve", "--config", cfg, "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["density_00.csv", "manifest.json", "notes.txt", "summary.json"]
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert sorted(outputs) == ["density_00.csv", "summary.json"]
        assert (out / "notes.txt").read_text() == "mine"

    @pytest.mark.parametrize(
        "manifest",
        [
            b"not json",
            b"[1]",
            b'{"outputs": ["keep.txt"]}',
            json.dumps({"outputs": {"../keep.txt": "", "sub/keep.txt": "", "subdir": ""}}).encode(),
        ],
        ids=["undecodable", "not-an-object", "outputs-not-an-object", "not-plain-names"],
    )
    def test_rerun_leaves_what_no_plain_manifest_entry_names(self, tmp_path, manifest):
        out = tmp_path / "o"
        (out / "sub" / "subdir").mkdir(parents=True)
        (out / "subdir").mkdir()
        for path in (tmp_path / "keep.txt", out / "keep.txt", out / "sub" / "keep.txt"):
            path.write_text("mine")
        (out / "manifest.json").write_bytes(manifest)
        writer = _Outputs(out)
        writer.text("a.txt", "a\n")
        writer.finish(RunConfig(), {})
        for path in (tmp_path / "keep.txt", out / "keep.txt", out / "sub" / "keep.txt"):
            assert path.read_text() == "mine"
        assert (out / "subdir").is_dir()
        assert sorted(json.loads((out / "manifest.json").read_text())["outputs"]) == [
            "a.txt", "summary.json"
        ]

    def test_out_dir_that_is_a_file_is_rejected(self, tmp_path):
        (tmp_path / "f").write_text("")
        with pytest.raises(ValidationError, match="cannot create output directory"):
            _Outputs(tmp_path / "f")
        with pytest.raises(ValidationError):
            _Outputs(tmp_path / "f" / "below")


class TestBoxState:
    def test_uniform_state(self):
        grid = build_grid(1.0, 3, 1)
        state = box_initial_state(grid, ParticleSpec(mass=1.0, charge=-1.0), False)
        assert np.allclose(state.amplitudes, np.full(8, 1 / np.sqrt(8)), atol=1e-15)

    def test_interior_only_zeroes_walls(self):
        grid = build_grid(1.0, 2, 1)
        state = box_initial_state(grid, ParticleSpec(mass=1.0, charge=-1.0), True)
        assert state.amplitudes[0] == 0 and state.amplitudes[3] == 0
        assert abs(state.norm() - 1) < 1e-15

    def test_interior_only_needs_two_cells_per_axis(self):
        grid = build_grid(1.0, 1, 1)
        with pytest.raises(ValidationError):
            box_initial_state(grid, ParticleSpec(mass=1.0, charge=-1.0), True)

    def test_cell_indicator_ranges_per_axis(self):
        # Axis 0 holds the most significant bits, so the flat vector
        # reshapes to (x, y).
        grid = build_grid(1.0, 2, 2)
        keep = cell_indicator(grid, [(1, 2), (0, 1)]).reshape(4, 4)
        x, y = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
        assert np.array_equal(keep, ((1 <= x) & (x <= 2) & (y <= 1)).astype(complex))

    def test_box_run_sanity(self):
        cfg = RunConfig(
            box_length=1.0,
            kinetic_method="spectral",
            splitting="first-order",
            wall_height=1e6,
            interior_only=False,
            series_terms=1000,
            particles=[{"mass": 1.0, "charge": -1.0}],
        ).resolved("box-evolve")
        result = box_run(cfg, n=4, steps=50, total_time=1e-3)
        assert 0 < result["rmse"] < 1.0
        assert result["yb_error"] == pytest.approx(result["rmse"] / 4)
        assert result["max_norm_drift"] < 1e-12
        assert result["simulated"].sum() == pytest.approx(1.0, abs=1e-12)


class TestBoxEvolveRunner:
    def run(self, tmp_path, name, **overrides):
        out = tmp_path / name
        cfg = RunConfig(qubits_per_axis=4, steps=50, **overrides)
        summary = run_box_evolve(cfg, out)
        return out, summary

    def test_outputs_and_manifest(self, tmp_path):
        out, summary = self.run(tmp_path, "a", evolve_times=[5e-4, 1e-3])
        assert (out / "density_00.csv").is_file()
        assert (out / "density_01.csv").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifact_version"] == wzsim.__version__
        assert manifest["config"]["experiment"] == "box-evolve"
        for name, digest in manifest["outputs"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
        assert summary["runs"][1]["T"] == 1e-3

    def test_density_rows_sum_to_one(self, tmp_path):
        out, _ = self.run(tmp_path, "a")
        lines = (out / "density_00.csv").read_text().splitlines()
        assert lines[0] == "cell_index,cell_center,simulated_probability,exact_probability"
        sim = [float(line.split(",")[2]) for line in lines[1:]]
        assert len(sim) == 16
        assert sum(sim) == pytest.approx(1.0, abs=1e-12)

    def test_runs_are_byte_deterministic(self, tmp_path):
        out_a, _ = self.run(tmp_path, "a")
        out_b, _ = self.run(tmp_path, "b")
        for name in ("density_00.csv", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_density_bytes_match_the_series_at_the_centers(self, tmp_path):
        # Each file is the evolved density and the series at the cell
        # centers times delta, evaluated here apart from the runner.
        times = [5e-4, 1e-3]
        out, _ = self.run(tmp_path, "a", evolve_times=times)
        grid = build_grid(1.0, 4, 1)
        x = cell_centers(grid)
        for i, t in enumerate(times):
            state = box_initial_state(grid, ParticleSpec(mass=1.0, charge=-1.0), False)
            plan = EvolutionPlan(T=t, N_t=50, terms=frozenset(BOX_TERMS))
            sim = density(evolve(state, plan).final_state)
            spec = BoxSeriesSpec(length=1.0, mass=1.0, t=t)
            exact = box_exact_density(32, spec)[1::2] * grid.delta
            rows = [",".join(_fmt(v) for v in row) for row in zip(range(16), x, sim, exact)]
            header = "cell_index,cell_center,simulated_probability,exact_probability"
            assert (out / f"density_{i:02d}.csv").read_text() == "\n".join([header, *rows]) + "\n"

    def test_dims_guard(self, tmp_path):
        cfg = RunConfig(dims=2)
        with pytest.raises(ValidationError):
            run_box_evolve(cfg, tmp_path / "x")

    def test_single_quantum_particle_required(self, tmp_path):
        cfg = RunConfig(
            particles=[
                {"mass": 1.0, "charge": -1.0},
                {"mass": 1.0, "charge": -1.0},
            ]
        )
        with pytest.raises(ValidationError):
            run_box_evolve(cfg, tmp_path / "x")


class TestConvergenceRunner:
    def test_spatial_slope_gap(self, tmp_path):
        cfg = RunConfig(axis="spatial", sweep_qubits=[3, 4, 5], steps=50)
        summary = run_convergence(cfg, tmp_path / "s")
        assert (tmp_path / "s" / "spatial.csv").read_text().splitlines()[0] == "delta,rmse,yb_error"
        assert abs(summary["slope_gap"] - 0.5) < 1e-10

    def test_temporal_envelope_flag(self, tmp_path):
        cfg = RunConfig(
            axis="temporal", sweep_steps=[10, 20, 40, 80], qubits_per_axis=4, splitting="strang"
        )
        summary = run_convergence(cfg, tmp_path / "t")
        assert (tmp_path / "t" / "temporal.csv").read_text().splitlines()[0] == "eps,rmse,yb_error"
        assert isinstance(summary["envelope_nonincreasing_toward_small_eps"], bool)

    @pytest.mark.parametrize(
        "overrides, sizes",
        # The series is evaluated on the 2D cell edges and centers, once a point.
        [
            ({"axis": "spatial", "sweep_qubits": [2, 3, 4]}, [8, 16, 32]),
            ({"axis": "temporal", "qubits_per_axis": 3, "sweep_steps": [5, 10]}, [16, 16]),
        ],
    )
    def test_one_series_call_per_sweep_point(self, tmp_path, monkeypatch, overrides, sizes):
        calls = []
        series = experiments_mod.box_exact_density

        def counting(points, spec):
            calls.append(points)
            return series(points, spec)

        monkeypatch.setattr(experiments_mod, "box_exact_density", counting)
        run_convergence(RunConfig(steps=5, **overrides), tmp_path / "c")
        assert calls == sizes

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        cfg = RunConfig(axis="spatial", sweep_qubits=[3, 4, 5], steps=30)
        monkeypatch.setenv("WZ_THREADS", "1")
        run_convergence(cfg, tmp_path / "one")
        monkeypatch.setenv("WZ_THREADS", "4")
        run_convergence(cfg, tmp_path / "four")
        assert (tmp_path / "one" / "spatial.csv").read_bytes() == (
            tmp_path / "four" / "spatial.csv"
        ).read_bytes()


class TestSampleRunner:
    def test_histogram_counts_and_determinism(self, tmp_path):
        cfg = RunConfig(qubits_per_axis=4, steps=20, shots=5000, seed=11)
        a = run_sample(cfg, tmp_path / "a")
        run_sample(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "histogram.csv").read_bytes() == (
            tmp_path / "b" / "histogram.csv"
        ).read_bytes()
        lines = (tmp_path / "a" / "histogram.csv").read_text().splitlines()[1:]
        counts = [int(line.split(",")[1]) for line in lines]
        assert sum(counts) == 5000
        assert 0.0 <= a["tv_distance"] <= 1.0

    def test_zero_time_skips_evolution(self, tmp_path):
        cfg = RunConfig(qubits_per_axis=3, total_time=0.0, shots=100, seed=3)
        summary = run_sample(cfg, tmp_path / "z")
        assert summary["dim"] == 8

    def test_shots_validated(self, tmp_path):
        cfg = RunConfig(shots=0)
        with pytest.raises(ValidationError):
            run_sample(cfg, tmp_path / "x")


class TestMoleculeRunner:
    def config(self, **overrides):
        base = dict(
            qubits_per_axis=3,
            steps=5,
            total_time=1e-2,
            particles=[
                {"mass": 1.0, "charge": -1.0},
                {"mass": 1836.0, "charge": 1.0, "kind": "clamped", "clamped_cell": [4, 4]},
            ],
            reflection_centers=[4, 4],
        )
        base.update(overrides)
        return RunConfig(**base)

    def test_marginals_and_symmetry(self, tmp_path):
        summary = run_molecule2d(self.config(), tmp_path / "m")
        entry = summary["electrons"][0]
        assert entry["marginal_sum"] == pytest.approx(1.0, abs=1e-12)
        assert max(entry["reflection_asymmetry"]) < 1e-10
        lines = (tmp_path / "m" / "marginal_e0.csv").read_text().splitlines()
        assert lines[0] == "ix,iy,x,y,probability"
        assert len(lines) == 1 + 64

    def test_quantum_nucleus_rejected(self, tmp_path):
        cfg = self.config(
            particles=[
                {"mass": 1.0, "charge": -1.0},
                {"mass": 1836.0, "charge": 1.0},
            ]
        )
        with pytest.raises(ValidationError):
            run_molecule2d(cfg, tmp_path / "x")

    def test_electron_box_count_checked(self, tmp_path):
        cfg = self.config(electron_boxes=[[[0, 3], [0, 3]], [[4, 7], [4, 7]]])
        with pytest.raises(ValidationError):
            run_molecule2d(cfg, tmp_path / "x")

    def test_two_electron_boxes(self, tmp_path):
        cfg = self.config(
            particles=[
                {"mass": 1.0, "charge": -1.0},
                {"mass": 1.0, "charge": -1.0},
                {"mass": 1836.0, "charge": 2.0, "kind": "clamped", "clamped_cell": [4, 4]},
            ],
            terms=["T_e", "U_ee", "U_en"],
            electron_boxes=[[[0, 3], [0, 7]], [[4, 7], [0, 7]]],
            reflection_centers=None,
        )
        summary = run_molecule2d(cfg, tmp_path / "m2")
        assert len(summary["electrons"]) == 2
        for entry in summary["electrons"]:
            assert entry["marginal_sum"] == pytest.approx(1.0, abs=1e-12)

    def thread_config(self, **overrides):
        """Two electrons in 2D, with a clamped proton either side."""
        return self.config(
            particles=[
                {"mass": 1.0, "charge": -1.0},
                {"mass": 1.0, "charge": -1.0},
                {"mass": 1836.0, "charge": 1.0, "kind": "clamped", "clamped_cell": [2, 4]},
                {"mass": 1836.0, "charge": 1.0, "kind": "clamped", "clamped_cell": [5, 4]},
            ],
            terms=["T_e", "U_ee", "U_en"],
            splitting="strang",
            electron_boxes=[[[0, 3], [1, 6]], [[4, 7], [2, 5]]],
            **overrides,
        )

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        # Two electrons in 2D: four registers, so every transform and scan
        # but the last runs along a strided axis. A 16 KiB cap cuts each
        # Trotter factor into 8 one-cell slabs.
        monkeypatch.setattr(grid_mod, "SLAB_BYTES", 1 << 14)
        for method in ("spectral", "trotter"):
            outputs = []
            for threads in ("1", "2", "4"):
                monkeypatch.setenv("WZ_THREADS", threads)
                out = tmp_path / method / threads
                run_molecule2d(self.thread_config(kinetic_method=method), out)
                outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
            assert "marginal_e1.csv" in outputs[0]
            assert outputs[0] == outputs[1] == outputs[2]


class TestSynthReportRunner:
    def test_counts_and_circuits(self, tmp_path):
        cfg = RunConfig(count_particles=[1, 2], count_qubits=[1, 2, 3])
        summary = run_synth_report(cfg, tmp_path / "r")
        assert summary["pattern_phase_gates"] == 2
        assert summary["multiplexed_phase_gates"] == 4
        assert summary["max_reconstruction_error"]["compressed"] < 1e-12
        assert summary["max_reconstruction_error"]["multiplexed"] < 1e-12

        text = (tmp_path / "r" / "pattern_circuit.txt").read_text()
        circ = circuit_from_text(text, width=3)
        angles = [0.25, 0.85, 1.55, 2.35]
        t1, t2, t3, t4 = angles
        target = np.exp(1j * np.array([t1, t2, t3, t4, t3, t4, t1, t2]))
        assert np.max(np.abs(np.diag(circuit_unitary(circ)) - target)) < 1e-12

        lines = (tmp_path / "r" / "gate_counts.csv").read_text().splitlines()
        assert lines[0] == "particles,qubits_per_axis,trotter,spectral"
        assert len(lines) == 1 + 2 * 3
        assert lines[1] == "1,1,6,9"

    def test_pattern_angles_validated(self, tmp_path):
        cfg = RunConfig(pattern_angles=[0.1, 0.2])
        with pytest.raises(ValidationError):
            run_synth_report(cfg, tmp_path / "x")


ELECTRON = {"mass": 1.0, "charge": -1.0}
PROTON = {"mass": 1836.0, "charge": 1.0, "kind": "clamped", "clamped_cell": [4, 4]}

# Each of these exits 1 with a traceback, or 0 after running something the
# manifest does not record, unless the schema rejects it.
MALFORMED = [
    ("box-evolve", {"qubits_per_axis": "5"}),
    ("box-evolve", {"evolve_times": []}),
    ("box-evolve", {"evolve_times": 3}),
    ("box-evolve", {"evolve_times": [10**400]}),
    ("box-evolve", {"steps": True}),
    ("box-evolve", {"series_terms": 2.5}),
    ("box-evolve", {"particles": [{"mass": "x"}]}),
    ("box-evolve", {"interior_only": "no"}),
    ("box-evolve", {"terms": ["bogus"]}),
    ("box-evolve", {"box_length": 5e-324}),
    ("box-evolve", {"box_length": 1e308}),
    ("box-evolve", {"kinetic_method": "trotter", "particles": [{"mass": 5e-324}]}),
    # A positive charge is moved by T_n, which the box terms do not run.
    ("box-evolve", {"particles": [{"mass": 1.0, "charge": 1.0}], "qubits_per_axis": 5, "steps": 50}),
    (
        "convergence",
        {"axis": "spatial", "sweep_qubits": [1, 2], "steps": 5, "particles": [{"charge": 1.0}]},
    ),
    ("convergence", {"axis": "spatial", "sweep_qubits": [1, "2"]}),
    ("convergence", {"axis": "spatial", "sweep_qubits": [1, 2], "steps": 5, "terms": ["bogus"]}),
    ("convergence", {"axis": "temporal", "qubits_per_axis": 3, "sweep_steps": [2, 3.5]}),
    ("convergence", {"axis": "temporal", "steps": -3}),
    ("convergence", {"axis": "spatial", "sweep_qubits": [3]}),
    ("convergence", {"axis": "spatial", "sweep_qubits": []}),
    ("convergence", {"axis": "spatial", "sweep_qubits": [3, 3]}),
    ("convergence", {"axis": "temporal", "sweep_steps": [50, 50]}),
    # eps = 0 has no logarithm: refused before the sweep writes temporal.csv.
    ("convergence", {"axis": "temporal", "total_time": 0, "qubits_per_axis": 4, "sweep_steps": [10, 20]}),
    # Two cells have no interior: refused before any grid evolves.
    ("box-evolve", {"interior_only": True, "qubits_per_axis": 1}),
    ("convergence", {"axis": "spatial", "interior_only": True, "sweep_qubits": [3, 1], "steps": 10}),
    ("sample", {"interior_only": True, "qubits_per_axis": 1}),
    ("box-evolve", {"evolve_times": [1e-3], "total_time": -1.0}),
    ("sample", {"seed": -1}),
    ("sample", {"seed": 1.5}),
    ("sample", {"shots": "10"}),
    ("sample", {"particles": [{"mass": 1.0, "charge": None}]}),
    ("sample", {"steps": -3}),
    ("sample", {"steps": 0}),
    ("sample", {"total_time": -1.0}),
    ("molecule2d", {"qubits_per_axis": "5"}),
    ("molecule2d", {"electron_boxes": 5}),
    ("molecule2d", {"reflection_centers": 4}),
    ("molecule2d", {"steps": 2, "particles": [ELECTRON, {**PROTON, "clamped_cell": "88"}]}),
    ("synth-report", {"pattern_angles": [1, 2, 3, "x"]}),
    ("synth-report", {"count_qubits": [1, "2"]}),
    ("synth-report", {"count_qubits": [15000]}),
    ("synth-report", {"count_qubits": [0, 3]}),
    ("synth-report", {"count_particles": [0]}),
    # Evolution settings an experiment never reads are still recorded.
    (
        "synth-report",
        {"kinetic_method": "bogus", "splitting": "nope", "terms": ["X"], "wall_height": -5},
    ),
    ("sample", {"kinetic_method": "bogus", "total_time": 0}),
    ("molecule2d", {"wall_height": -1}),
    # Non-finite potential sums, rejected before the first step.
    ("molecule2d", {"terms": ["T_e", "U_en", "wall"], "wall_height": 1e308}),
    ("molecule2d", {"particles": [{**ELECTRON, "charge": -1e308}, {**PROTON, "charge": 1e308}]}),
    # Two electrons: each one's own table is finite, at 1.4e308 in its
    # corner, but not the four-register corner; and an overflowing U_ee.
    (
        "molecule2d",
        {
            "qubits_per_axis": 3,
            "steps": 2,
            "particles": [ELECTRON, ELECTRON, PROTON],
            "terms": ["T_e", "U_en", "wall"],
            "wall_height": 7e307,
        },
    ),
    (
        "molecule2d",
        {
            "qubits_per_axis": 3,
            "steps": 2,
            "particles": [{**ELECTRON, "charge": -1e155}, {**ELECTRON, "charge": -1e155}, PROTON],
        },
    ),
]

# Bad grids, step counts and times, among them later sweep points and a
# step count whose drift series would not fit in memory. They fail before
# the first point runs: with evolve patched to raise, the exit code shows
# that nothing evolved.
CHECKED_BEFORE_EVOLVE = [
    ("convergence", {"axis": "spatial", "sweep_qubits": [10, 25]}, 3),
    ("convergence", {"axis": "spatial", "sweep_qubits": [3, 0]}, 2),
    ("convergence", {"axis": "spatial", "interior_only": True, "sweep_qubits": [3, 1]}, 2),
    ("convergence", {"axis": "temporal", "sweep_steps": [10, 0]}, 2),
    ("convergence", {"axis": "temporal", "sweep_steps": [10, MAX_STEPS + 1]}, 3),
    ("box-evolve", {"qubits_per_axis": 21}, 3),
    ("box-evolve", {"qubits_per_axis": 3, "evolve_times": [1e-3, -1.0]}, 2),
    ("sample", {"qubits_per_axis": 0}, 2),
    ("sample", {"steps": MAX_STEPS + 1}, 3),
    ("molecule2d", {"steps": 10**12}, 3),
]

# Small valid configs, one per experiment, for the single-key fuzz test.
FUZZ_BASES = {
    "box-evolve": {"qubits_per_axis": 3, "steps": 2},
    "convergence": {"axis": "spatial", "sweep_qubits": [1, 2], "steps": 2},
    "molecule2d": {"qubits_per_axis": 3, "steps": 2, "reflection_centers": [4, 4]},
    "sample": {"qubits_per_axis": 3, "steps": 2, "shots": 10},
    "synth-report": {"count_particles": [1], "count_qubits": [1, 2]},
}

# Integers stay small because a config may legitimately ask for a long run
# or a large grid (e.g. steps=10**9); the two huge ones leave the double range.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 8)
    | st.sampled_from([10**400, -(10**400)])
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


class TestCli:
    @pytest.mark.parametrize(
        "command, payload", MALFORMED, ids=[f"{c}-{json.dumps(p)[:60]}" for c, p in MALFORMED]
    )
    def test_malformed_config_exits_two(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("inside", [None, "notes.txt"])
    def test_refused_run_keeps_a_directory_it_did_not_make(self, tmp_path, capsys, inside):
        # molecule2d refuses a non-finite potential sum after it makes the
        # directory: one that was there before the run stays, as it was.
        payload = {"terms": ["T_e", "U_en", "wall"], "wall_height": 1e308}
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        out.mkdir()
        if inside:
            (out / inside).write_text("kept")
        assert main(["molecule2d", "--config", cfg, "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ([inside] if inside else [])

    @pytest.mark.parametrize(
        "command, payload, code",
        CHECKED_BEFORE_EVOLVE,
        ids=[f"{c}-{json.dumps(p)[:60]}" for c, p, _ in CHECKED_BEFORE_EVOLVE],
    )
    def test_every_run_is_checked_before_the_first_evolves(
        self, tmp_path, capsys, monkeypatch, command, payload, code
    ):
        def evolve(*args, **kwargs):
            raise AssertionError("evolve was called")

        monkeypatch.setattr(experiments_mod, "evolve", evolve)
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(FUZZ_BASES))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(key=st.sampled_from([f.name for f in dataclasses.fields(RunConfig)]), value=JSON_VALUES)
    def test_single_key_fuzz_exits_cleanly(self, command, key, value):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp) / "c.json", {**FUZZ_BASES[command], key: value})
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--config", cfg, "--out", str(Path(tmp) / "out")])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()

    def test_qubit_guard_runs_before_allocation(self, tmp_path, capsys):
        # Two electrons in 2D at n=8 are 32 qubits: a 64 GiB state.
        payload = {"qubits_per_axis": 8, "steps": 2, "particles": [ELECTRON, ELECTRON, PROTON]}
        cfg = write_config(tmp_path / "c.json", payload)
        tracemalloc.start()
        try:
            code = main(["molecule2d", "--config", cfg, "--out", str(tmp_path / "out")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "32 total qubits exceed the limit of 30" in capsys.readouterr().err
        assert peak < 2**20

    def test_splitting_checked_before_allocation(self, tmp_path, capsys):
        # Two electrons in 2D at n=5: a 16 MiB state.
        payload = {
            "qubits_per_axis": 5, "steps": 2, "splitting": "nope",
            "particles": [ELECTRON, ELECTRON, PROTON],
        }
        cfg = write_config(tmp_path / "c.json", payload)
        tracemalloc.start()
        try:
            code = main(["molecule2d", "--config", cfg, "--out", str(tmp_path / "out")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "splitting must be one of" in capsys.readouterr().err
        assert peak < 2**20

    def test_synth_report_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {})
        assert main(["synth-report", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "manifest.json").is_file()

    @pytest.mark.parametrize("name", ["nope.json", "."])
    def test_unreadable_config_exits_two(self, tmp_path, capsys, name):
        code = main(["sample", "--config", str(tmp_path / name)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "raw",
        # Not JSON; not UTF-8; an integer over Python's 4300-digit limit;
        # arrays nested past the recursion limit.
        [b"{not json", b"\xff\xfe{}", b"1" * 4301, b"[" * 100000],
        ids=["not-json", "not-utf8", "long-int", "deep-nesting"],
    )
    def test_undecodable_config_exits_two(self, tmp_path, capsys, raw):
        p = tmp_path / "c.json"
        p.write_bytes(raw)
        assert main(["sample", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("command", sorted(FUZZ_BASES))
    def test_out_naming_a_file_exits_two_before_evolving(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def evolve(*args, **kwargs):
            raise AssertionError("evolve was called")

        monkeypatch.setattr(experiments_mod, "evolve", evolve)
        cfg = write_config(tmp_path / "c.json", FUZZ_BASES[command])
        out = tmp_path / "taken"
        out.write_text("a file")
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "cannot create output directory" in err and "Traceback" not in err
        assert out.read_text() == "a file"

    def test_unknown_key_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"qubits": 4})
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    def test_resource_limit_exits_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {})
        code = main(
            [
                "box-evolve",
                "--config",
                cfg,
                "--qubits",
                "21",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 3

    def test_series_terms_guard_exits_three(self, tmp_path, capsys):
        # Checked before the evolution, so the run fails at once.
        payload = {"qubits_per_axis": 3, "steps": 2, "series_terms": 2**21 + 1}
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["box-evolve", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "series terms exceed" in capsys.readouterr().err

    def test_total_qubit_guard_exits_three(self, tmp_path, capsys, monkeypatch):
        # The limit is lowered to show that the guard reads
        # MAX_TOTAL_QUBITS when the run starts.
        import wzsim.grid as grid_mod

        monkeypatch.setattr(grid_mod, "MAX_TOTAL_QUBITS", 10)
        electron = {"mass": 1.0, "charge": -1.0}
        proton = {"mass": 1836.0, "charge": 1.0, "kind": "clamped", "clamped_cell": [4, 4]}
        payload = {"qubits_per_axis": 3, "steps": 2, "particles": [electron, electron, proton]}
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["molecule2d", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "12 total qubits exceed the limit of 10" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["trotter", "spectral"])
    @pytest.mark.parametrize(
        "command, payload",
        [
            ("box-evolve", {"qubits_per_axis": 3, "steps": 5}),
            ("convergence", {"axis": "spatial", "sweep_qubits": [2, 3], "steps": 5}),
        ],
    )
    def test_malformed_thread_count_exits_two(
        self, tmp_path, capsys, monkeypatch, command, payload, method
    ):
        monkeypatch.setenv("WZ_THREADS", "many")
        cfg = write_config(tmp_path / "c.json", payload)
        argv = [command, "--config", cfg, "--method", method, "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "WZ_THREADS" in err and "Traceback" not in err

    def test_norm_drift_exits_four(self, tmp_path, capsys, monkeypatch):
        import wzsim.cli as cli_mod

        def explode(cfg, out):
            raise NormDriftError("norm fell apart")

        monkeypatch.setattr(cli_mod, "run_sample", explode)
        cfg = write_config(tmp_path / "c.json", {})
        code = main(["sample", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 4
        assert "norm fell apart" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["box-evolve", "molecule2d", "sample"])
    def test_nan_norm_exits_four(self, tmp_path, capsys, command):
        # eps = 1e307 makes every phase NaN: the run aborts after one step
        # and writes nothing. The box series of one term stays finite.
        cfg = write_config(
            tmp_path / "c.json", {"total_time": 1e307, "steps": 1, "series_terms": 1}
        )
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nan" in err and "Traceback" not in err
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("box-evolve", {"total_time": 1e303, "steps": 200000, "qubits_per_axis": 4}),
            ("box-evolve", {"evolve_times": [1e-3, 1e303], "qubits_per_axis": 4}),
            ("convergence", {"axis": "temporal", "total_time": 1e303, "qubits_per_axis": 4}),
        ],
    )
    def test_overflowing_series_phase_is_refused_before_evolve(
        self, tmp_path, capsys, monkeypatch, command, payload
    ):
        # The series' top mode phase E t / hbar overflows at t = 1e303.
        calls = []
        monkeypatch.setattr(experiments_mod, "evolve", lambda *a, **k: calls.append(a))
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "the phase E t / hbar of mode 1999 is inf" in err and "Traceback" not in err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("name", ["histogram.csv", "summary.json", "manifest.json"])
    def test_output_path_that_is_a_directory_exits_two(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path / "c.json", {"qubits_per_axis": 3, "steps": 2, "shots": 10})
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cannot write output" in err
        assert "Traceback" not in err
        assert not (out / "manifest.json").is_file()

    def test_cli_overrides_reach_config(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", {"qubits_per_axis": 4, "steps": 20})
        out = tmp_path / "out"
        assert (
            main(
                [
                    "sample",
                    "--config",
                    cfg_path,
                    "--shots",
                    "500",
                    "--seed",
                    "9",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        summary = json.loads((out / "summary.json").read_text())
        assert summary["shots"] == 500
        assert summary["seed"] == 9

    def test_axis_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"axis": "temporal", "sweep_qubits": [3, 4], "steps": 20})
        out = tmp_path / "out"
        assert main(["convergence", "--config", cfg, "--axis", "spatial", "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["axis"] == "spatial"

    def test_temporal_interior_only_keeps_the_unused_sweep_grids(self, tmp_path):
        # A temporal sweep builds only the qubits_per_axis grid, so its
        # default sweep_qubits, which start at one qubit, are not refused.
        payload = {"axis": "temporal", "interior_only": True, "qubits_per_axis": 3, "sweep_steps": [5, 10]}
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["axis"] == "temporal"

    def test_spectral_runs_do_not_load_scipy(self, tmp_path):
        # The spectral route runs on numpy.fft, so neither the import nor a
        # spectral run, threaded or not, loads scipy. A fresh interpreter
        # reports sys.modules after the import and after each run.
        runs = [
            ("molecule2d", {"qubits_per_axis": 2, "steps": 2}),
            ("box-evolve", {"qubits_per_axis": 3, "steps": 2}),
        ]
        lines = ["import sys", "from wzsim.cli import main", "print('scipy' in sys.modules)"]
        for i, (command, payload) in enumerate(runs):
            cfg = write_config(tmp_path / f"{i}.json", {**payload, "kinetic_method": "spectral"})
            argv = [command, "--config", cfg, "--out", str(tmp_path / f"out{i}")]
            lines += [f"assert main({argv!r}) == 0", "print('scipy' in sys.modules)"]
        src = Path(wzsim.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), WZ_THREADS="2")
        code = "\n".join(lines)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False"] * 3, out.stdout

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("4", "4")])
    def test_import_pins_blas_threads_unless_set(self, preset, expected):
        # A fresh interpreter, as OpenBLAS reads the variable when numpy
        # loads it: unset, importing wzsim sets it to 1; set, it is kept.
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(wzsim.__file__).resolve().parents[1])
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = "import os, wzsim; print(os.environ['OPENBLAS_NUM_THREADS'])"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == expected

    def test_load_config_roundtrip(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", {"steps": 12})
        assert load_config(cfg_path).steps == 12

    def test_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", {})
        assert main(["synth-report", "--config", cfg]) == 0
        assert (tmp_path / "out" / "summary.json").is_file()
