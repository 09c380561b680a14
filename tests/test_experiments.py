import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wzsim
from wzsim.circuits import circuit_from_text, circuit_unitary
from wzsim.cli import load_config, main
from wzsim.errors import NormDriftError, ValidationError
from wzsim.experiments import (
    BOX_TERMS,
    MOLECULE_TERMS,
    TEMPORAL_STEPS,
    RunConfig,
    _fmt,
    _sha256,
    box_initial_state,
    box_run,
    particles_from_config,
    run_box_evolve,
    run_convergence,
    run_molecule2d,
    run_sample,
    run_synth_report,
)
from wzsim.grid import ParticleSpec, build_grid
from wzsim.kinetic import _worker_count, make_spectral_plan


def write_config(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


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
        assert _worker_count() == 1
        monkeypatch.setenv("WZ_THREADS", "4")
        assert _worker_count() == 4
        monkeypatch.setenv("WZ_THREADS", "0")
        assert _worker_count() == 1
        monkeypatch.setenv("WZ_THREADS", "many")
        with pytest.raises(ValidationError):
            _worker_count()

    def test_spectral_plan_takes_fft_workers_from_env(self, monkeypatch):
        monkeypatch.setenv("WZ_THREADS", "3")
        assert make_spectral_plan(8, 0.125, 1.0, 1e-3).workers == 3
        monkeypatch.delenv("WZ_THREADS")
        assert make_spectral_plan(8, 0.125, 1.0, 1e-3).workers == 1


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

    def test_box_run_sanity(self):
        result = box_run(
            length=1.0,
            n=4,
            steps=50,
            total_time=1e-3,
            kinetic_method="spectral",
            splitting="first-order",
            wall_height=1e6,
            interior_only=False,
            series_terms=1000,
            particle=ParticleSpec(mass=1.0, charge=-1.0),
        )
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
            assert _sha256(out / name) == digest
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

    def test_axis_argument_overrides(self, tmp_path):
        cfg = RunConfig(sweep_qubits=[3, 4], steps=20)
        summary = run_convergence(cfg, tmp_path / "o", axis="spatial")
        assert summary["axis"] == "spatial"

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

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        # Two electrons in 2D: four registers, so every transform but the
        # last runs along a strided axis.
        cfg = self.config(
            particles=[
                {"mass": 1.0, "charge": -1.0},
                {"mass": 1.0, "charge": -1.0},
                {"mass": 1836.0, "charge": 1.0, "kind": "clamped", "clamped_cell": [2, 4]},
                {"mass": 1836.0, "charge": 1.0, "kind": "clamped", "clamped_cell": [5, 4]},
            ],
            terms=["T_e", "U_ee", "U_en"],
            splitting="strang",
            electron_boxes=[[[0, 3], [1, 6]], [[4, 7], [2, 5]]],
        )
        outputs = []
        for threads in ("1", "2", "4"):
            monkeypatch.setenv("WZ_THREADS", threads)
            run_molecule2d(cfg, tmp_path / threads)
            outputs.append({f.name: f.read_bytes() for f in (tmp_path / threads).iterdir()})
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


class TestCli:
    def test_synth_report_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {})
        assert main(["synth-report", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "manifest.json").is_file()

    def test_missing_config_exits_two(self, tmp_path, capsys):
        code = main(["sample", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_json_exits_two(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        assert main(["sample", "--config", str(p)]) == 2

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

    def test_norm_drift_exits_four(self, tmp_path, capsys, monkeypatch):
        import wzsim.cli as cli_mod

        def explode(cfg, out):
            raise NormDriftError("norm fell apart")

        monkeypatch.setattr(cli_mod, "run_sample", explode)
        cfg = write_config(tmp_path / "c.json", {})
        code = main(["sample", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 4
        assert "norm fell apart" in capsys.readouterr().err

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

    def test_import_does_not_load_scipy(self):
        # scipy.fft is imported on the first spectral step only, so the
        # Trotter route never pays for it.
        code = "import sys, wzsim.cli; print('scipy' in sys.modules)"
        src = Path(wzsim.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert out.stdout.strip() == "False", out.stderr

    def test_load_config_roundtrip(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", {"steps": 12})
        assert load_config(cfg_path).steps == 12

    def test_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", {})
        assert main(["synth-report", "--config", cfg]) == 0
        assert (tmp_path / "out" / "summary.json").is_file()
