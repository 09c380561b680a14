"""The benchmark's workloads and the checks every run's outputs must pass.

Each workload is one wzsim CLI command with a config. Only
``mol2d_2e_n5_strang`` draws its inputs from the workload seed;
``conv_spatial_trotter`` has fixed inputs, so the seed does not change what it
computes.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

MAX_NORM_DRIFT = 1e-10
REFERENCE_RTOL = 1e-9
MARGINAL_SUM_TOL = 1e-12

MOL2D_EPS = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]
    config: Callable[[int, bool], dict]
    """(seed, tiny) -> config; tiny gives the smoke test's small version."""
    reference: dict = field(default_factory=dict)
    """Summary values of the full-size run, checked to REFERENCE_RTOL."""
    seeded: bool = False


def conv_config(seed: int, tiny: bool) -> dict:
    cfg = {"kinetic_method": "trotter"}
    if tiny:
        cfg.update(sweep_qubits=[1, 2, 3], steps=20)
    return cfg


def mol2d_config(seed: int, tiny: bool) -> dict:
    """Two electrons and two clamped protons in 2D. The seed draws the proton
    cells, mirror-symmetric about the grid's middle column and 4-8 cells
    apart, and each electron's starting sub-box."""
    n = 4 if tiny else 5
    steps = 2 if tiny else 20
    D = 2**n
    c = D // 2
    rng = random.Random(seed)
    half = rng.choice([2, 3, 4])
    row = c + rng.randint(-(D // 8), D // 8)
    protons = [
        {"mass": 1836.0, "charge": 1.0, "kind": "clamped", "clamped_cell": [c - half, row]},
        {"mass": 1836.0, "charge": 1.0, "kind": "clamped", "clamped_cell": [c + half, row]},
    ]
    boxes = []
    for _ in range(2):
        box = []
        for _axis in range(2):
            width = rng.randint(D // 8, D // 4)
            lo = rng.randint(0, D - width)
            box.append([lo, lo + width - 1])
        boxes.append(box)
    return {
        "qubits_per_axis": n,
        "box_length": 8.0,
        "kinetic_method": "spectral",
        "splitting": "strang",
        "terms": ["T_e", "U_ee", "U_en"],
        "steps": steps,
        "total_time": MOL2D_EPS * steps,
        "particles": [{"mass": 1.0, "charge": -1.0}, {"mass": 1.0, "charge": -1.0}, *protons],
        "electron_boxes": boxes,
        "reflection_centers": [c, c],
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "conv_spatial_trotter", ("convergence", "--axis", "spatial"), conv_config,
            reference={"rmse_slope": 0.10543827133335074},
        ),
        Workload("mol2d_2e_n5_strang", ("molecule2d",), mol2d_config, seeded=True),
    )
}


def output_hashes(out_dir: Path) -> dict:
    """The manifest's output hashes, after checking each against the bytes on disk."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    hashes = manifest["outputs"]
    for name, digest in hashes.items():
        actual = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        if actual != digest:
            raise ValueError(f"{name}: manifest hash {digest[:12]} but bytes hash {actual[:12]}")
    return hashes


def _close(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= REFERENCE_RTOL * abs(expected)


def check_outputs(workload: Workload, out_dir: Path, probe: dict, tiny: bool) -> list[str]:
    """Problems with one run's outputs; an empty list means the run passed."""
    problems = []
    if probe.get("exit_code") != 0:
        return [f"exit code {probe.get('exit_code')}"]
    summary = json.loads((out_dir / "summary.json").read_text())
    drifts = [probe["max_norm_drift"]]
    drifts += [r["max_norm_drift"] for r in summary.get("runs", [])]
    if "max_norm_drift" in summary:
        drifts.append(summary["max_norm_drift"])
    if not all(d <= MAX_NORM_DRIFT for d in drifts):
        problems.append(f"norm drift {max(drifts):.3e} above {MAX_NORM_DRIFT}")
    values = dict(summary)
    if summary.get("runs"):
        values.update(summary["runs"][0])
    for key, expected in ({} if tiny else workload.reference).items():
        if not _close(values[key], expected):
            problems.append(f"{key} = {values[key]!r}, reference {expected!r}")
    for e, entry in enumerate(summary.get("electrons", [])):
        if abs(entry["marginal_sum"] - 1.0) > MARGINAL_SUM_TOL:
            problems.append(f"electron {e} marginal sum {entry['marginal_sum']!r}")
        for a in entry["reflection_asymmetry"]:
            if not (math.isfinite(a) and 0.0 <= a <= 2.0):
                problems.append(f"electron {e} reflection asymmetry {a!r}")
    if summary.get("experiment") == "molecule2d" and not summary.get("electrons"):
        problems.append("no electron marginals")
    return problems
