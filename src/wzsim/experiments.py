"""Experiment drivers behind the CLI subcommands.

Every run resolves its config to explicit values, writes CSV/JSON outputs
at full float precision, and drops a manifest.json with the resolved
config and content hashes so a run can be reproduced byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .analytic import BoxSeriesSpec, box_exact_density, loglog_slope, rmse, yb_error
from .circuits import (
    CPHASE,
    PHASE,
    circuit_to_text,
    circuit_unitary,
    count_kinetic_gates,
    synthesize_diagonal,
)
from .errors import ValidationError
from .evolution import EvolutionPlan, evolve, sample_configurations
from .grid import (
    GridSpec,
    ParticleSpec,
    StateVector,
    build_grid,
    density,
    marginal_density,
    quantum_particles,
)

BOX_TERMS = ["T_e", "wall"]
MOLECULE_TERMS = ["T_e", "U_ee", "U_en"]

# Log-spaced default N_t sweep for the temporal axis.
TEMPORAL_STEPS = [10, 13, 18, 24, 32, 42, 56, 75, 100, 133, 178, 237, 316, 422, 562, 750, 1000]

EXPERIMENTS = ("box-evolve", "convergence", "molecule2d", "sample", "synth-report")

_UNSET = None


@dataclass
class RunConfig:
    """Declarative description of one experiment run. Unset fields take
    experiment-specific defaults during resolve()."""

    experiment: str | None = None
    box_length: float | None = None
    qubits_per_axis: int | None = None
    dims: int | None = None
    particles: list | None = None
    total_time: float | None = None
    evolve_times: list | None = None
    steps: int | None = None
    kinetic_method: str | None = None
    splitting: str | None = None
    terms: list | None = None
    wall_height: float | None = None
    interior_only: bool | None = None
    series_terms: int | None = None
    seed: int | None = None
    shots: int | None = None
    axis: str | None = None
    sweep_qubits: list | None = None
    sweep_steps: list | None = None
    electron_boxes: list | None = None
    reflection_centers: list | None = None
    pattern_angles: list | None = None
    count_particles: list | None = None
    count_qubits: list | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValidationError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def resolved(self, experiment: str) -> "RunConfig":
        if experiment not in EXPERIMENTS:
            raise ValidationError(f"unknown experiment {experiment!r}")
        if self.experiment is not None and self.experiment != experiment:
            raise ValidationError(
                f"config names experiment {self.experiment!r} but {experiment!r} was requested"
            )
        cfg = dataclasses.replace(self, experiment=experiment)

        def put(name, value):
            if getattr(cfg, name) is None:
                setattr(cfg, name, value)

        put("box_length", 1.0)
        put("kinetic_method", "spectral")
        put("splitting", "first-order")
        put("wall_height", 1e6)
        put("interior_only", False)
        put("series_terms", 1000)
        put("seed", 0)
        put("shots", 100000)
        if experiment in ("box-evolve", "convergence", "sample"):
            put("dims", 1)
            put("total_time", 1e-3)
            put("terms", list(BOX_TERMS))
            put("particles", [{"mass": 1.0, "charge": -1.0, "kind": "quantum"}])
        if experiment == "box-evolve":
            put("qubits_per_axis", 10)
            put("evolve_times", [cfg.total_time])
        if experiment == "convergence":
            if cfg.axis not in ("spatial", "temporal"):
                raise ValidationError("convergence needs axis 'spatial' or 'temporal'")
            put("sweep_qubits", list(range(1, 11)))
            put("sweep_steps", list(TEMPORAL_STEPS))
            put("qubits_per_axis", 6)
        if experiment == "sample":
            put("qubits_per_axis", 6)
            put("steps", 100)
        if experiment == "molecule2d":
            put("dims", 2)
            put("qubits_per_axis", 4)
            put("total_time", 1.0)
            put("terms", list(MOLECULE_TERMS))
            half = 2 ** (cfg.qubits_per_axis or 4) // 2
            put(
                "particles",
                [
                    {"mass": 1.0, "charge": -1.0, "kind": "quantum"},
                    {"mass": 1836.0, "charge": 1.0, "kind": "clamped", "clamped_cell": [half, half]},
                ],
            )
        if experiment == "synth-report":
            put("pattern_angles", [0.25, 0.85, 1.55, 2.35])
            put("count_particles", [1, 2, 3])
            put("count_qubits", list(range(1, 9)))
        put("steps", 1000)
        return cfg


def particles_from_config(cfg: RunConfig) -> tuple[ParticleSpec, ...]:
    out = []
    for entry in cfg.particles or []:
        if not isinstance(entry, dict):
            raise ValidationError("each particle must be a JSON object")
        allowed = {"mass", "charge", "kind", "clamped_cell"}
        unknown = set(entry) - allowed
        if unknown:
            raise ValidationError(f"unknown particle keys: {sorted(unknown)}")
        out.append(
            ParticleSpec(
                mass=float(entry.get("mass", 1.0)),
                charge=float(entry.get("charge", 0.0)),
                kind=entry.get("kind", "quantum"),
                clamped_cell=tuple(entry["clamped_cell"]) if "clamped_cell" in entry else None,
            )
        )
    if not out:
        raise ValidationError("config defines no particles")
    return tuple(out)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, cfg: RunConfig, files: Sequence[Path]) -> Path:
    manifest = {
        "artifact_version": __version__,
        "config": cfg.to_dict(),
        "outputs": {p.name: _sha256(p) for p in files},
    }
    path = out_dir / "manifest.json"
    _write_json(path, manifest)
    return path


def box_initial_state(grid: GridSpec, particle: ParticleSpec, interior_only: bool) -> StateVector:
    """Uniform superposition over every cell, or over interior cells only."""
    dim = grid.cells_per_axis**grid.d
    amps = np.ones(dim, dtype=np.complex128)
    if interior_only:
        top = grid.cells_per_axis - 1
        codec_dim = dim
        idx = np.arange(codec_dim)
        keep = np.ones(codec_dim, dtype=bool)
        for a in range(grid.d):
            shift = (grid.d - 1 - a) * grid.n
            cells = (idx >> shift) & (grid.cells_per_axis - 1)
            keep &= (cells != 0) & (cells != top)
        amps[~keep] = 0.0
    state = StateVector(amplitudes=amps, grid=grid, particles=(particle,))
    return state.normalized()


def box_run(
    length: float,
    n: int,
    steps: int,
    total_time: float,
    kinetic_method: str,
    splitting: str,
    wall_height: float,
    interior_only: bool,
    series_terms: int,
    particle: ParticleSpec,
) -> dict:
    """One 1D box evolution compared against the truncated exact series."""
    grid = build_grid(length, n, 1)
    state = box_initial_state(grid, particle, interior_only)
    plan = EvolutionPlan(
        T=total_time,
        N_t=steps,
        kinetic_method=kinetic_method,
        terms=frozenset({"T_e", "wall"}),
        splitting=splitting,
        v_wall=wall_height,
    )
    report = evolve(state, plan, snapshot_steps=[])
    sim = density(report.final_state)
    centers = grid.delta * (np.arange(grid.cells_per_axis) + 0.5)
    series = BoxSeriesSpec(length=length, mass=particle.mass, t=total_time, terms=series_terms)
    exact = box_exact_density(centers, series) * grid.delta
    # The error metric compares density-scale values at the cell coordinates
    # x_i = i*delta; the exact density vanishes identically at the x_0 = 0 wall.
    edges = grid.delta * np.arange(grid.cells_per_axis)
    exact_at_edges = np.concatenate([[0.0], box_exact_density(edges[1:], series)])
    err = rmse(sim / grid.delta, exact_at_edges)
    return {
        "grid": grid,
        "centers": centers,
        "simulated": sim,
        "exact": exact,
        "rmse": err,
        "yb_error": yb_error(err, n),
        "max_norm_drift": report.max_norm_drift,
    }


def _box_particle(cfg: RunConfig) -> ParticleSpec:
    particles = particles_from_config(cfg)
    quantum = quantum_particles(particles)
    if len(quantum) != 1:
        raise ValidationError("box experiments use exactly one quantum particle")
    return quantum[0]


def run_box_evolve(cfg: RunConfig, out_dir) -> dict:
    cfg = cfg.resolved("box-evolve")
    if cfg.dims != 1:
        raise ValidationError("box-evolve is one-dimensional")
    particle = _box_particle(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    runs = []
    for i, t_total in enumerate(cfg.evolve_times):
        result = box_run(
            cfg.box_length,
            cfg.qubits_per_axis,
            cfg.steps,
            float(t_total),
            cfg.kinetic_method,
            cfg.splitting,
            cfg.wall_height,
            cfg.interior_only,
            cfg.series_terms,
            particle,
        )
        name = f"density_{i:02d}.csv"
        rows = zip(
            range(result["centers"].size),
            result["centers"],
            result["simulated"],
            result["exact"],
        )
        _write_csv(
            out / name,
            ["cell_index", "cell_center", "simulated_probability", "exact_probability"],
            list(rows),
        )
        files.append(out / name)
        runs.append(
            {
                "T": float(t_total),
                "file": name,
                "rmse": result["rmse"],
                "yb_error": result["yb_error"],
                "max_norm_drift": result["max_norm_drift"],
            }
        )
    summary = {
        "experiment": "box-evolve",
        "kinetic_method": cfg.kinetic_method,
        "splitting": cfg.splitting,
        "qubits_per_axis": cfg.qubits_per_axis,
        "steps": cfg.steps,
        "runs": runs,
    }
    _write_json(out / "summary.json", summary)
    files.append(out / "summary.json")
    _write_manifest(out, cfg, files)
    return summary


def run_convergence(cfg: RunConfig, out_dir, axis: str | None = None) -> dict:
    if axis is not None:
        cfg = dataclasses.replace(cfg, axis=axis)
    cfg = cfg.resolved("convergence")
    if cfg.dims != 1:
        raise ValidationError("convergence sweeps are one-dimensional")
    particle = _box_particle(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if cfg.axis == "spatial":
        ns = [int(n) for n in cfg.sweep_qubits]

        def point(n: int) -> dict:
            r = box_run(
                cfg.box_length,
                n,
                cfg.steps,
                cfg.total_time,
                cfg.kinetic_method,
                cfg.splitting,
                cfg.wall_height,
                cfg.interior_only,
                cfg.series_terms,
                particle,
            )
            return {"x": r["grid"].delta, "rmse": r["rmse"], "yb": r["yb_error"]}

        points = [point(n) for n in ns]
        csv_name, x_name = "spatial.csv", "delta"
    else:
        step_list = [int(s) for s in cfg.sweep_steps]

        def point(steps: int) -> dict:
            r = box_run(
                cfg.box_length,
                cfg.qubits_per_axis,
                steps,
                cfg.total_time,
                cfg.kinetic_method,
                cfg.splitting,
                cfg.wall_height,
                cfg.interior_only,
                cfg.series_terms,
                particle,
            )
            return {"x": cfg.total_time / steps, "rmse": r["rmse"], "yb": r["yb_error"]}

        points = [point(steps) for steps in step_list]
        csv_name, x_name = "temporal.csv", "eps"

    rows = [(p["x"], p["rmse"], p["yb"]) for p in points]
    _write_csv(out / csv_name, [x_name, "rmse", "yb_error"], rows)
    rmse_slope = loglog_slope([(p["x"], p["rmse"]) for p in points])
    yb_slope = loglog_slope([(p["x"], p["yb"]) for p in points])
    summary = {
        "experiment": "convergence",
        "axis": cfg.axis,
        "kinetic_method": cfg.kinetic_method,
        "points": len(points),
        "rmse_slope": rmse_slope,
        "yb_slope": yb_slope,
        "slope_gap": yb_slope - rmse_slope,
    }
    if cfg.axis == "temporal":
        # Envelope check only: no per-point monotonicity is asserted.
        by_eps = sorted(points, key=lambda p: p["x"])
        half = len(by_eps) // 2
        small = max(p["rmse"] for p in by_eps[:half])
        large = max(p["rmse"] for p in by_eps[half:])
        summary["envelope_nonincreasing_toward_small_eps"] = bool(small <= large)
    _write_json(out / "summary.json", summary)
    _write_manifest(out, cfg, [out / csv_name, out / "summary.json"])
    return summary


def _electron_indicator(grid: GridSpec, box: list | None) -> np.ndarray:
    """Indicator amplitudes over one electron's 2^(d*n) cells."""
    D = grid.cells_per_axis
    per_particle = D**grid.d
    if box is None:
        return np.ones(per_particle, dtype=np.complex128)
    if len(box) != grid.d:
        raise ValidationError(f"sub-box needs {grid.d} axis ranges")
    keep = np.ones(per_particle, dtype=bool)
    idx = np.arange(per_particle)
    for a, rng in enumerate(box):
        lo, hi = int(rng[0]), int(rng[1])
        if not 0 <= lo <= hi < D:
            raise ValidationError(f"sub-box range [{lo}, {hi}] outside [0, {D})")
        shift = (grid.d - 1 - a) * grid.n
        cells = (idx >> shift) & (D - 1)
        keep &= (cells >= lo) & (cells <= hi)
    if not keep.any():
        raise ValidationError("empty electron sub-box")
    return keep.astype(np.complex128)


def run_molecule2d(cfg: RunConfig, out_dir) -> dict:
    cfg = cfg.resolved("molecule2d")
    if cfg.dims != 2:
        raise ValidationError("molecule2d runs on a two-dimensional grid")
    particles = particles_from_config(cfg)
    for p in particles:
        if p.is_nucleus and p.is_quantum:
            raise ValidationError("molecule2d expects clamped nuclei")
    electrons = quantum_particles(particles)
    if not electrons or any(not p.is_electron for p in electrons):
        raise ValidationError("molecule2d needs quantum electrons")
    grid = build_grid(cfg.box_length, cfg.qubits_per_axis, 2)
    for p in particles:
        if p.clamped_cell is not None and len(p.clamped_cell) != 2:
            raise ValidationError("clamped cells need one index per axis")

    boxes = cfg.electron_boxes or [None] * len(electrons)
    if len(boxes) != len(electrons):
        raise ValidationError("need one sub-box entry per electron")
    parts = [_electron_indicator(grid, b) for b in boxes]
    amps = parts[0]
    for part in parts[1:]:
        amps = np.multiply.outer(amps, part).reshape(-1)
    # Normalized in place and wrapped once: no second state-sized array
    # stays live through evolve.
    amps /= np.linalg.norm(amps)
    state = StateVector(amplitudes=amps, grid=grid, particles=electrons)
    del amps, parts

    plan = EvolutionPlan(
        T=cfg.total_time,
        N_t=cfg.steps,
        kinetic_method=cfg.kinetic_method,
        terms=frozenset(cfg.terms),
        splitting=cfg.splitting,
        v_wall=cfg.wall_height,
    )
    report = evolve(state, plan, particles=particles, snapshot_steps=[])

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    D = grid.cells_per_axis
    files = []
    electrons_summary = []
    for e in range(len(electrons)):
        marg = marginal_density(report.final_state, e).reshape(D, D)
        rows = []
        for ix in range(D):
            for iy in range(D):
                rows.append(
                    (ix, iy, grid.delta * (ix + 0.5), grid.delta * (iy + 0.5), marg[ix, iy])
                )
        name = f"marginal_e{e}.csv"
        _write_csv(out / name, ["ix", "iy", "x", "y", "probability"], rows)
        files.append(out / name)
        entry = {"file": name, "marginal_sum": float(marg.sum())}
        if cfg.reflection_centers is not None:
            if len(cfg.reflection_centers) != 2:
                raise ValidationError("reflection_centers needs one cell per axis")
            asym = []
            for a, c in enumerate(cfg.reflection_centers):
                mirror = (2 * int(c) - np.arange(D)) % D
                reflected = marg[mirror, :] if a == 0 else marg[:, mirror]
                asym.append(float(np.abs(marg - reflected).sum() / marg.sum()))
            entry["reflection_asymmetry"] = asym
        electrons_summary.append(entry)

    summary = {
        "experiment": "molecule2d",
        "kinetic_method": cfg.kinetic_method,
        "steps": cfg.steps,
        "T": cfg.total_time,
        "max_norm_drift": report.max_norm_drift,
        "electrons": electrons_summary,
    }
    _write_json(out / "summary.json", summary)
    files.append(out / "summary.json")
    _write_manifest(out, cfg, files)
    return summary


def run_sample(cfg: RunConfig, out_dir) -> dict:
    cfg = cfg.resolved("sample")
    if cfg.dims != 1:
        raise ValidationError("sample runs on the one-dimensional box")
    if cfg.shots < 1:
        raise ValidationError("shots must be >= 1")
    particle = _box_particle(cfg)
    grid = build_grid(cfg.box_length, cfg.qubits_per_axis, 1)
    state = box_initial_state(grid, particle, cfg.interior_only)
    if cfg.total_time > 0 and cfg.steps > 0:
        plan = EvolutionPlan(
            T=cfg.total_time,
            N_t=cfg.steps,
            kinetic_method=cfg.kinetic_method,
            terms=frozenset(cfg.terms),
            splitting=cfg.splitting,
            v_wall=cfg.wall_height,
        )
        state = evolve(state, plan, snapshot_steps=[]).final_state
    counts = sample_configurations(state, cfg.shots, cfg.seed)
    p = density(state)
    tv = 0.5 * float(np.abs(counts / cfg.shots - p).sum())

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    nz = np.nonzero(counts)[0]
    _write_csv(out / "histogram.csv", ["configuration_index", "count"], [(int(i), int(counts[i])) for i in nz])
    summary = {
        "experiment": "sample",
        "dim": int(state.dim),
        "shots": int(cfg.shots),
        "seed": int(cfg.seed),
        "tv_distance": tv,
    }
    _write_json(out / "summary.json", summary)
    _write_manifest(out, cfg, [out / "histogram.csv", out / "summary.json"])
    return summary


def run_synth_report(cfg: RunConfig, out_dir) -> dict:
    cfg = cfg.resolved("synth-report")
    if len(cfg.pattern_angles) != 4:
        raise ValidationError("pattern_angles needs exactly four entries")
    t1, t2, t3, t4 = (float(a) for a in cfg.pattern_angles)
    phases = np.array([t1, t2, t3, t4, t3, t4, t1, t2])

    compressed = synthesize_diagonal(phases, strategy="auto")
    blind = synthesize_diagonal(phases, strategy="naive")
    target = np.exp(1j * phases)
    errs = {
        "compressed": float(np.max(np.abs(np.diag(circuit_unitary(compressed)) - target))),
        "multiplexed": float(np.max(np.abs(np.diag(circuit_unitary(blind)) - target))),
    }

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "pattern_circuit.txt").write_text(circuit_to_text(compressed))
    (out / "multiplexed_circuit.txt").write_text(circuit_to_text(blind))

    rows = []
    for n_particles in cfg.count_particles:
        for n in cfg.count_qubits:
            rows.append(
                (
                    int(n_particles),
                    int(n),
                    count_kinetic_gates(int(n_particles), int(n), "trotter"),
                    count_kinetic_gates(int(n_particles), int(n), "spectral"),
                )
            )
    _write_csv(out / "gate_counts.csv", ["particles", "qubits_per_axis", "trotter", "spectral"], rows)

    summary = {
        "experiment": "synth-report",
        "pattern_phase_gates": compressed.count(PHASE, CPHASE),
        "multiplexed_phase_gates": blind.count(PHASE, CPHASE),
        "pattern_gate_total": len(compressed.gates),
        "multiplexed_gate_total": len(blind.gates),
        "max_reconstruction_error": errs,
    }
    _write_json(out / "summary.json", summary)
    _write_manifest(
        out,
        cfg,
        [
            out / "pattern_circuit.txt",
            out / "multiplexed_circuit.txt",
            out / "gate_counts.csv",
            out / "summary.json",
        ],
    )
    return summary
