"""Experiment drivers behind the CLI subcommands.

Every run resolves its config to explicit values and then opens its
output directory, before any state is built. Each output file (CSV at
full float precision, circuit text, summary.json) is written through one
_Outputs object, which streams CSV rows in blocks of CSV_BLOCK_ROWS and
takes each file's SHA-256 from the bytes as they are written. Last comes
a manifest.json with the resolved config and those hashes, so a run can
be reproduced byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import sys
import types
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

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
from .evolution import EvolutionPlan, check_steps, evolve, sample_configurations
from .grid import (
    GridSpec,
    ParticleSpec,
    StateVector,
    build_grid,
    cell_centers,
    density,
    marginal_density,
    quantum_particles,
    register_views,
    total_qubits,
    vector_norm,
)

BOX_TERMS = ["T_e", "wall"]
MOLECULE_TERMS = ["T_e", "U_ee", "U_en"]

# Log-spaced default N_t sweep for the temporal axis.
TEMPORAL_STEPS = [10, 13, 18, 24, 32, 42, 56, 75, 100, 133, 178, 237, 316, 422, 562, 750, 1000]

EXPERIMENTS = ("box-evolve", "convergence", "molecule2d", "sample", "synth-report")

# Python writes an int of at most 4300 digits (its default int-to-str
# limit); every int below 2^14284 has at most 4300.
MAX_COUNT_BITS = 14284


@dataclass
class RunConfig:
    """Declarative description of one experiment run. The annotations are
    the config schema: resolved() checks every field against them, fills
    unset fields with experiment-specific defaults and then checks the
    ranges and shapes the experiment reads."""

    experiment: str | None = None
    box_length: float | None = None
    qubits_per_axis: int | None = None
    dims: int | None = None
    particles: list[dict] | None = None
    total_time: float | None = None
    evolve_times: list[float] | None = None
    steps: int | None = None
    kinetic_method: str | None = None
    splitting: str | None = None
    terms: list[str] | None = None
    wall_height: float | None = None
    interior_only: bool | None = None
    series_terms: int | None = None
    seed: int | None = None
    shots: int | None = None
    axis: str | None = None
    sweep_qubits: list[int] | None = None
    sweep_steps: list[int] | None = None
    electron_boxes: list[list[list[int]] | None] | None = None
    reflection_centers: list[int] | None = None
    pattern_angles: list[float] | None = None
    count_particles: list[int] | None = None
    count_qubits: list[int] | None = None

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
        # Types come first: the defaults below compute with other fields.
        for name, hint in _FIELD_TYPES.items():
            _check_type(name, getattr(self, name), hint)
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
            if not cfg.evolve_times:
                raise ValidationError("box-evolve needs at least one evolve time")
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
            # The grid checks qubits_per_axis before 2**n is taken.
            D = build_grid(cfg.box_length, cfg.qubits_per_axis, 2).cells_per_axis
            put(
                "particles",
                [
                    {"mass": 1.0, "charge": -1.0, "kind": "quantum"},
                    {"mass": 1836.0, "charge": 1.0, "kind": "clamped", "clamped_cell": [D // 2] * 2},
                ],
            )
        if experiment == "synth-report":
            put("pattern_angles", [0.25, 0.85, 1.55, 2.35])
            put("count_particles", [1, 2, 3])
            put("count_qubits", list(range(1, 9)))
        put("steps", 1000)

        if experiment in ("box-evolve", "convergence", "sample"):
            if cfg.dims != 1:
                raise ValidationError(f"{experiment} runs on the one-dimensional box")
            if len(quantum_particles(particles_from_config(cfg))) != 1:
                raise ValidationError("box experiments use exactly one quantum particle")
            # Every grid the run builds, before the first one evolves.
            for n in [cfg.qubits_per_axis, *(cfg.sweep_qubits or [])]:
                build_grid(cfg.box_length, n, 1)
            # Two cells have no interior. A temporal sweep builds no sweep_qubits grid.
            spatial = experiment == "convergence" and cfg.axis == "spatial"
            if cfg.interior_only and 1 in (cfg.sweep_qubits if spatial else [cfg.qubits_per_axis]):
                raise ValidationError("interior_only needs 2 or more qubits per axis")
        if experiment in ("box-evolve", "convergence"):
            if set(cfg.terms) != set(BOX_TERMS):
                raise ValidationError(f"{experiment} runs the terms {BOX_TERMS}, got {cfg.terms}")
            (particle,) = quantum_particles(particles_from_config(cfg))
            if particle.kinetic_term not in cfg.terms:
                raise ValidationError(f"{experiment} runs no {particle.kinetic_term} for its particle")
        # Checked whether or not the experiment reads them: the manifest
        # records every resolved value. Every sweep point is checked, so
        # none fails after an earlier one has run.
        times = [t for t in [cfg.total_time, *(cfg.evolve_times or [])] if t is not None]
        if any(t < 0 for t in times):
            raise ValidationError(f"{experiment} needs times >= 0, got {times}")
        if experiment in ("box-evolve", "convergence"):
            for t in times:
                BoxSeriesSpec(cfg.box_length, particle.mass, t, cfg.series_terms).check_phases()
        for steps in [cfg.steps, *(cfg.sweep_steps or [])]:
            check_steps(steps)
        # The method, splitting, terms and wall height, before any state.
        _evolution_plan(cfg, 0.0, cfg.steps)
        for name in ("count_particles", "count_qubits"):
            if any(c < 1 for c in getattr(cfg, name) or []):
                raise ValidationError(f"{name} needs entries >= 1, got {getattr(cfg, name)}")
        if experiment == "convergence":
            swept = cfg.sweep_qubits if cfg.axis == "spatial" else cfg.sweep_steps
            if len(set(swept)) < 2:
                raise ValidationError(
                    f"a {cfg.axis} sweep needs at least two distinct values, got {swept}"
                )
            # eps = 0 has no logarithm for the log-log fit.
            if cfg.axis == "temporal" and cfg.total_time == 0:
                raise ValidationError("a temporal sweep needs total_time > 0")
        if experiment == "sample" and (cfg.shots < 1 or cfg.seed < 0):
            raise ValidationError("sample needs shots >= 1 and seed >= 0")
        if experiment == "synth-report":
            if len(cfg.pattern_angles) != 4:
                raise ValidationError("pattern_angles needs exactly four entries")
            # count_kinetic_gates(p, n) < 3 p 2^(n+1).
            n = max(cfg.count_qubits, default=1)
            p = max(cfg.count_particles, default=1)
            if (3 * p).bit_length() + n + 1 > MAX_COUNT_BITS:
                raise ValidationError(
                    f"count_particles {p} with count_qubits {n}: gate counts over 4300 digits"
                )
        if experiment == "molecule2d":
            if cfg.dims != 2:
                raise ValidationError("molecule2d runs on a two-dimensional grid")
            particles = particles_from_config(cfg)
            electrons = quantum_particles(particles)
            if not electrons or not all(p.is_electron for p in electrons):
                raise ValidationError("molecule2d needs quantum electrons and clamped nuclei")
            # Before any state-sized array is built.
            total_qubits(cfg.qubits_per_axis, 2, len(electrons))

            def on_grid(cells) -> bool:
                return len(cells) == 2 and all(0 <= c < D for c in cells)

            if not all(on_grid(p.clamped_cell) for p in particles if not p.is_quantum):
                raise ValidationError(f"clamped cells need one index per axis in [0, {D})")
            if cfg.reflection_centers is not None and not on_grid(cfg.reflection_centers):
                raise ValidationError(f"reflection_centers needs one cell per axis in [0, {D})")
            boxes = cfg.electron_boxes or [None] * len(electrons)
            if len(boxes) != len(electrons):
                raise ValidationError("need one sub-box entry per electron")
            for box in boxes:
                if box is not None and not (
                    len(box) == 2 and all(len(r) == 2 and 0 <= r[0] <= r[1] < D for r in box)
                ):
                    raise ValidationError(f"a sub-box needs one [lo, hi] per axis, 0 <= lo <= hi < {D}")
        return cfg


_FIELD_TYPES = typing.get_type_hints(RunConfig)


def _check_type(where: str, value, hint) -> None:
    """Raise unless a config value matches its annotation. JSON true/false
    is not a number, a number must be finite as a double, and an int may
    stand for a float."""

    def fits(value, hint) -> bool:
        if isinstance(hint, types.UnionType):
            return any(fits(value, h) for h in typing.get_args(hint))
        if typing.get_origin(hint) is list:
            return isinstance(value, list) and all(fits(v, typing.get_args(hint)[0]) for v in value)
        if hint is bool or isinstance(value, bool):
            return hint is bool and isinstance(value, bool)
        if hint in (int, float):
            kinds = (int, float) if hint is float else int
            return isinstance(value, kinds) and abs(value) <= sys.float_info.max
        return isinstance(value, hint)

    if not fits(value, hint):
        name = hint.__name__ if isinstance(hint, type) else hint
        raise ValidationError(f"{where} must be {name}, got {value!r:.40}")


_PARTICLE_KEYS = {"mass": float, "charge": float, "kind": str, "clamped_cell": list[int]}


def particles_from_config(cfg: RunConfig) -> tuple[ParticleSpec, ...]:
    out = []
    for entry in cfg.particles or []:
        if not isinstance(entry, dict):
            raise ValidationError("each particle must be a JSON object")
        unknown = set(entry) - set(_PARTICLE_KEYS)
        if unknown:
            raise ValidationError(f"unknown particle keys: {sorted(unknown)}")
        for key, value in entry.items():
            _check_type(f"particle {key}", value, _PARTICLE_KEYS[key])
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


# Rows formatted and written at a time: the writer holds one block, however
# many rows a file has.
CSV_BLOCK_ROWS = 4096


class _Outputs:
    """One run's output directory, created when this is built. Every file
    goes through _write, which hashes the bytes it writes, so finish()
    writes the manifest without reading back any file it wrote. An OSError from
    the directory or any file raises ValidationError."""

    def __init__(self, out_dir) -> None:
        self.dir = Path(out_dir)
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"cannot create output directory {out_dir}: {exc}") from exc
        self.digests: dict[str, str] = {}

    def _write(self, name: str, chunks: Iterable[str]) -> str:
        """Write chunks to the file name and return their SHA-256."""
        digest = hashlib.sha256()
        try:
            with open(self.dir / name, "wb") as fh:
                for chunk in chunks:
                    data = chunk.encode()
                    fh.write(data)
                    digest.update(data)
        except OSError as exc:
            raise ValidationError(f"cannot write output {self.dir / name}: {exc}") from exc
        return digest.hexdigest()

    def text(self, name: str, text: str) -> None:
        self.digests[name] = self._write(name, [text])

    def csv(self, name: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
        """A header line, then one line of _fmt values per row."""

        def blocks():
            yield ",".join(header) + "\n"
            rest = iter(rows)
            # Each row makes at least its newline, so only the end is empty.
            while block := "".join(
                ",".join(map(_fmt, row)) + "\n" for row in itertools.islice(rest, CSV_BLOCK_ROWS)
            ):
                yield block

        self.digests[name] = self._write(name, blocks())

    def finish(self, cfg: RunConfig, summary: dict) -> None:
        """summary.json; then the deletion of each plain file that the
        directory's earlier manifest (if it parses) lists and this run did
        not write; then manifest.json over every file written."""
        self.text("summary.json", _json(summary))
        try:
            earlier = json.loads((self.dir / "manifest.json").read_bytes())["outputs"]
            stale = set(earlier if isinstance(earlier, dict) else ()) - self.digests.keys()
        except (OSError, ValueError, TypeError, KeyError, RecursionError):
            stale = set()
        for name in stale - {"manifest.json"}:
            path = self.dir / name
            try:
                if Path(name).name == name and path.is_file():
                    path.unlink()
            except OSError as exc:
                raise ValidationError(f"cannot remove stale output {path}: {exc}") from exc
        manifest = {"artifact_version": __version__, "config": cfg.to_dict(), "outputs": self.digests}
        self._write("manifest.json", [_json(manifest)])


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cell_indicator(grid: GridSpec, ranges: Sequence[Sequence[int]]) -> np.ndarray:
    """Indicator amplitudes over one particle's 2^(d*n) cells: 1 where the
    index on every axis a lies in the inclusive range ranges[a]."""
    cells = np.arange(grid.cells_per_axis)
    keep = np.ones((grid.cells_per_axis,) * grid.d, dtype=bool)
    for a, (lo, hi) in enumerate(ranges):
        keep &= register_views((cells >= lo) & (cells <= hi), grid.d)[a]
    return keep.reshape(-1).astype(np.complex128)


def box_initial_state(grid: GridSpec, particle: ParticleSpec, interior_only: bool) -> StateVector:
    """Uniform superposition over every cell, or over interior cells only."""
    top = grid.cells_per_axis - 1
    amps = cell_indicator(grid, [(1, top - 1) if interior_only else (0, top)] * grid.d)
    state = StateVector(amplitudes=amps, grid=grid, particles=(particle,))
    return state.normalized()


def _evolution_plan(cfg: RunConfig, total_time: float, steps: int) -> EvolutionPlan:
    """The EvolutionPlan of a resolved config over total_time in steps."""
    return EvolutionPlan(
        T=total_time,
        N_t=steps,
        kinetic_method=cfg.kinetic_method,
        terms=cfg.terms or (),
        splitting=cfg.splitting,
        v_wall=cfg.wall_height,
    )


def box_run(cfg: RunConfig, n: int, steps: int, total_time: float) -> dict:
    """One 1D box evolution of a resolved box config at n qubits, compared
    against the truncated exact series, which is evaluated once, on the
    lattice of cell edges and centers. The state is built here and
    evolved in place.

    Returns grid, simulated (the per-cell probabilities), exact (the
    series' probabilities at the cell centers, density times delta),
    rmse and yb_error (of the density at the cell edges) and
    max_norm_drift."""
    particle = quantum_particles(particles_from_config(cfg))[0]
    grid = build_grid(cfg.box_length, n, 1)
    series = BoxSeriesSpec(
        length=cfg.box_length, mass=particle.mass, t=total_time, terms=cfg.series_terms
    )
    state = box_initial_state(grid, particle, cfg.interior_only)
    report = evolve(state, _evolution_plan(cfg, total_time, steps))
    sim = density(report.final_state)
    # The series at x_j = j*delta/2. The even points are the cell edges
    # x_i = i*delta, where the error metric compares density-scale values
    # (the series is exactly 0 at the x_0 = 0 wall); the odd points are
    # the cell centers.
    exact = box_exact_density(2 * grid.cells_per_axis, series)
    err = rmse(sim / grid.delta, exact[::2])
    return {
        "grid": grid,
        "simulated": sim,
        "exact": exact[1::2] * grid.delta,
        "rmse": err,
        "yb_error": yb_error(err, n),
        "max_norm_drift": report.max_norm_drift,
    }


def run_box_evolve(cfg: RunConfig, out_dir) -> dict:
    cfg = cfg.resolved("box-evolve")
    out = _Outputs(out_dir)
    runs = []
    for i, t_total in enumerate(cfg.evolve_times):
        result = box_run(cfg, cfg.qubits_per_axis, cfg.steps, float(t_total))
        centers = cell_centers(result["grid"])
        name = f"density_{i:02d}.csv"
        out.csv(
            name,
            ["cell_index", "cell_center", "simulated_probability", "exact_probability"],
            zip(range(centers.size), centers, result["simulated"], result["exact"]),
        )
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
    out.finish(cfg, summary)
    return summary


def run_convergence(cfg: RunConfig, out_dir) -> dict:
    cfg = cfg.resolved("convergence")
    out = _Outputs(out_dir)

    spatial = cfg.axis == "spatial"
    if spatial:
        pairs = [(n, cfg.steps) for n in cfg.sweep_qubits]
        csv_name, x_name = "spatial.csv", "delta"
    else:
        pairs = [(cfg.qubits_per_axis, steps) for steps in cfg.sweep_steps]
        csv_name, x_name = "temporal.csv", "eps"
    points = []
    for n, steps in pairs:
        r = box_run(cfg, n, steps, cfg.total_time)
        x = r["grid"].delta if spatial else cfg.total_time / steps
        points.append({"x": x, "rmse": r["rmse"], "yb": r["yb_error"]})

    out.csv(csv_name, [x_name, "rmse", "yb_error"], ((p["x"], p["rmse"], p["yb"]) for p in points))
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
    out.finish(cfg, summary)
    return summary


def run_molecule2d(cfg: RunConfig, out_dir) -> dict:
    cfg = cfg.resolved("molecule2d")
    out = _Outputs(out_dir)
    particles = particles_from_config(cfg)
    electrons = quantum_particles(particles)
    grid = build_grid(cfg.box_length, cfg.qubits_per_axis, 2)
    everywhere = [(0, grid.cells_per_axis - 1)] * 2
    boxes = cfg.electron_boxes or [None] * len(electrons)
    parts = [cell_indicator(grid, everywhere if b is None else b) for b in boxes]
    amps = parts[0]
    for part in parts[1:]:
        amps = np.multiply.outer(amps, part).reshape(-1)
    # Normalized in place and wrapped once, and evolve steps this array
    # itself: no second state-sized array is made.
    amps /= vector_norm(amps)
    state = StateVector(amplitudes=amps, grid=grid, particles=electrons)
    del amps, parts

    plan = _evolution_plan(cfg, cfg.total_time, cfg.steps)
    report = evolve(state, plan, particles=particles)

    D = grid.cells_per_axis
    x = cell_centers(grid)
    electrons_summary = []
    for e in range(len(electrons)):
        marg = marginal_density(report.final_state, e).reshape(D, D)
        name = f"marginal_e{e}.csv"
        out.csv(
            name,
            ["ix", "iy", "x", "y", "probability"],
            ((ix, iy, x[ix], x[iy], marg[ix, iy]) for ix in range(D) for iy in range(D)),
        )
        entry = {"file": name, "marginal_sum": float(marg.sum())}
        if cfg.reflection_centers is not None:
            asym = []
            for a, c in enumerate(cfg.reflection_centers):
                mirror = (2 * c - np.arange(D)) % D
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
    out.finish(cfg, summary)
    return summary


def run_sample(cfg: RunConfig, out_dir) -> dict:
    cfg = cfg.resolved("sample")
    out = _Outputs(out_dir)
    particle = quantum_particles(particles_from_config(cfg))[0]
    grid = build_grid(cfg.box_length, cfg.qubits_per_axis, 1)
    state = box_initial_state(grid, particle, cfg.interior_only)
    if cfg.total_time > 0:
        evolve(state, _evolution_plan(cfg, cfg.total_time, cfg.steps))
    counts = sample_configurations(state, cfg.shots, cfg.seed)
    p = density(state)
    tv = 0.5 * float(np.abs(counts / cfg.shots - p).sum())

    nz = np.nonzero(counts)[0]
    out.csv("histogram.csv", ["configuration_index", "count"], zip(nz, counts[nz]))
    summary = {
        "experiment": "sample",
        "dim": int(state.dim),
        "shots": int(cfg.shots),
        "seed": int(cfg.seed),
        "tv_distance": tv,
    }
    out.finish(cfg, summary)
    return summary


def run_synth_report(cfg: RunConfig, out_dir) -> dict:
    cfg = cfg.resolved("synth-report")
    out = _Outputs(out_dir)
    t1, t2, t3, t4 = (float(a) for a in cfg.pattern_angles)
    phases = np.array([t1, t2, t3, t4, t3, t4, t1, t2])

    compressed = synthesize_diagonal(phases, strategy="auto")
    blind = synthesize_diagonal(phases, strategy="naive")
    target = np.exp(1j * phases)
    errs = {
        "compressed": float(np.max(np.abs(np.diag(circuit_unitary(compressed)) - target))),
        "multiplexed": float(np.max(np.abs(np.diag(circuit_unitary(blind)) - target))),
    }

    out.text("pattern_circuit.txt", circuit_to_text(compressed))
    out.text("multiplexed_circuit.txt", circuit_to_text(blind))
    out.csv(
        "gate_counts.csv",
        ["particles", "qubits_per_axis", "trotter", "spectral"],
        (
            (p, n, count_kinetic_gates(p, n, "trotter"), count_kinetic_gates(p, n, "spectral"))
            for p in cfg.count_particles
            for n in cfg.count_qubits
        ),
    )

    summary = {
        "experiment": "synth-report",
        "pattern_phase_gates": compressed.count(PHASE, CPHASE),
        "multiplexed_phase_gates": blind.count(PHASE, CPHASE),
        "pattern_gate_total": len(compressed.gates),
        "multiplexed_gate_total": len(blind.gates),
        "max_reconstruction_error": errs,
    }
    out.finish(cfg, summary)
    return summary
