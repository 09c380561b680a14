"""Print the output hashes of a fixed set of CLI runs as one JSON object.

Each run goes through wzsim.cli.main into a temporary directory, and its
manifest's "outputs" map (file name to SHA-256) is collected under the
run's name. Every file in the directory is hashed again from disk, and
the script exits non-zero unless those hashes equal the manifest's, so a
manifest that misreports what was written fails. It also exits non-zero
if a run's summary.json or manifest.json holds NaN or Infinity, which
Python's json writes for a non-finite float. The JSON is sorted, so
two prints compare with diff: run it under two WZ_THREADS values, or on
two commits, to check that outputs are byte-identical.

    PYTHONPATH=src WZ_THREADS=1 python3 scripts/manifest_hashes.py > a.json
    PYTHONPATH=src WZ_THREADS=3 python3 scripts/manifest_hashes.py > b.json
    diff a.json b.json

With --keep DIR the run directories are written under DIR and kept, so
that scripts/output_deviation.py can measure how far the outputs of two
trees moved where their hashes differ.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from wzsim.cli import main as cli_main


def nucleus(cell):
    return {"mass": 1836.0, "charge": 1.0, "kind": "clamped", "clamped_cell": cell}


ELECTRON = {"mass": 1.0, "charge": -1.0}

# Two electrons and two protons on a 16x16 grid, with every molecule
# term: a 1 MiB state, so the kinetic factors are cut into several slabs.
TWO_ELECTRONS = {
    "qubits_per_axis": 4,
    "steps": 50,
    "particles": [ELECTRON, ELECTRON, nucleus([5, 8]), nucleus([10, 8])],
    "terms": ["T_e", "U_ee", "U_en", "U_nn", "wall"],
    "wall_height": 50.0,
    "electron_boxes": [[[0, 7], [2, 13]], None],
    "reflection_centers": [8, 8],
}

# Three electrons and one proton on an 8x8 grid, 4 steps: a 4 MiB state,
# over grid.SLAB_BYTES per thread at up to 3 threads, so the kinetic
# factors run on the slab pool when WZ_THREADS > 1.
THREE_ELECTRONS = {
    "qubits_per_axis": 3,
    "steps": 4,
    "total_time": 0.1,
    "particles": [ELECTRON, ELECTRON, ELECTRON, nucleus([4, 4])],
}

# The same with every molecule term and Strang splitting: the state is
# over grid.SLAB_BYTES per thread at up to 3 threads, so the potential's
# phase tables, one per electron and one per pair, are multiplied in on
# the slab pool too: the first half tables in a cell pass of their own
# before the first step, then each next step's tables, and the last
# step's half tables, in the cell pass of the step before, after the
# kinetic factors of registers 1 and up and the norm.
THREE_ELECTRONS_ALL_TERMS = {
    **THREE_ELECTRONS,
    "terms": ["T_e", "U_ee", "U_en", "U_nn", "wall"],
    "splitting": "strang",
}

# The series at a box length and mass other than 1, at two times.
BOX_SCALED = {
    "box_length": 8.0,
    "qubits_per_axis": 7,
    "particles": [{"mass": 2.5, "charge": -1.0}],
    "evolve_times": [0.05, 0.4],
}

# One electron on a 512x512 grid: its 2 MiB table against a clamped
# nucleus is over grid.SLAB_BYTES, so it is added in blocks of rows; and
# two nuclei in one cell, whose constant takes one cell width for r.
ROW_BLOCKS = {
    "qubits_per_axis": 9,
    "steps": 2,
    "total_time": 0.01,
    "particles": [
        ELECTRON,
        nucleus([200, 256]),
        {**nucleus([200, 256]), "charge": 2.0},
    ],
    "terms": ["T_e", "U_en", "U_nn", "wall"],
    "wall_height": 50.0,
}

# The same on the Trotter route: two registers of 512 cells, above
# kinetic.DENSE_MAX_CELLS, so the scan runs on a state of more than one
# register, on register 0 and in the cell pass. Its pole |p| is 0.459,
# and the scan ends at the pole power floor two of its eight strides
# early.
ROW_BLOCKS_TROTTER = {**ROW_BLOCKS, "kinetic_method": "trotter"}

TROTTER_STRANG = {"kinetic_method": "trotter", "splitting": "strang"}

# 8192 density rows: the CSV writer streams them in more than one block.
BOX_MANY_ROWS = {"qubits_per_axis": 13, "steps": 100}

# One register of 2^17 cells: a 2 MiB state, over grid.SLAB_BYTES, so
# the one-register pass that multiplies in the first half phase is cut
# into slabs, and on the slab pool when WZ_THREADS > 1.
SAMPLE_SLABS = {"qubits_per_axis": 17, "splitting": "strang", "steps": 2, "shots": 1000}

RUNS = {
    "box-evolve": ("box-evolve", {}),
    "box-evolve-trotter": ("box-evolve", {"kinetic_method": "trotter"}),
    "box-evolve-strang": ("box-evolve", {"splitting": "strang"}),
    "box-evolve-trotter-strang": ("box-evolve", TROTTER_STRANG),
    "box-evolve-scaled": ("box-evolve", BOX_SCALED),
    "box-evolve-8192-rows": ("box-evolve", BOX_MANY_ROWS),
    "convergence-spatial": ("convergence", {"axis": "spatial"}),
    "convergence-spatial-trotter": ("convergence", {"axis": "spatial", "kinetic_method": "trotter"}),
    "convergence-temporal": ("convergence", {"axis": "temporal"}),
    "molecule2d": ("molecule2d", {}),
    "molecule2d-trotter": ("molecule2d", {"kinetic_method": "trotter"}),
    "molecule2d-strang": ("molecule2d", {"splitting": "strang"}),
    "molecule2d-trotter-strang": ("molecule2d", TROTTER_STRANG),
    "molecule2d-2e-spectral": ("molecule2d", TWO_ELECTRONS),
    "molecule2d-2e-trotter": ("molecule2d", {**TWO_ELECTRONS, "kinetic_method": "trotter"}),
    "molecule2d-3e-spectral": ("molecule2d", THREE_ELECTRONS),
    "molecule2d-3e-trotter": ("molecule2d", {**THREE_ELECTRONS, "kinetic_method": "trotter"}),
    "molecule2d-3e-strang-all-terms": ("molecule2d", THREE_ELECTRONS_ALL_TERMS),
    "molecule2d-row-blocks": ("molecule2d", ROW_BLOCKS),
    "molecule2d-row-blocks-trotter": ("molecule2d", ROW_BLOCKS_TROTTER),
    "sample": ("sample", {}),
    "sample-slabs": ("sample", SAMPLE_SLABS),
    "synth-report": ("synth-report", {}),
}


def load_finite(path: Path, run: str) -> dict:
    """The JSON object in path; exits non-zero if it holds NaN or Infinity."""

    def reject(constant):
        raise SystemExit(f"{run}: {path.name} holds {constant}")

    return json.loads(path.read_text(), parse_constant=reject)


def run_hashes(root: Path) -> dict:
    """Every run's output hashes; run NAME writes into root / NAME."""
    hashes = {}
    for name, (command, payload) in RUNS.items():
        config = root / f"{name}.json"
        config.write_text(json.dumps(payload))
        out = root / name
        code = cli_main([command, "--config", str(config), "--out", str(out)])
        if code != 0:
            raise SystemExit(f"{name}: {command} exited {code}")
        load_finite(out / "summary.json", name)
        recorded = load_finite(out / "manifest.json", name)["outputs"]
        on_disk = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir()
            if p.name != "manifest.json"
        }
        if on_disk != recorded:
            raise SystemExit(f"{name}: the manifest's hashes differ from the files on disk")
        hashes[name] = recorded
    return hashes


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--keep", metavar="DIR", type=Path, help="keep the run directories under DIR")
    args = ap.parse_args()
    if args.keep:
        args.keep.mkdir(parents=True, exist_ok=True)
        hashes = run_hashes(args.keep)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            hashes = run_hashes(Path(tmp))
    json.dump(hashes, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
