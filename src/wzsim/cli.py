"""Command line front end.

Exit codes: 0 success, 2 invalid config or arguments, 3 resource limits
exceeded, 4 norm drift abort.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from pathlib import Path

from .errors import NormDriftError, ResourceLimitError, ValidationError
from .evolution import KINETIC_METHODS, SPLITTINGS
from .experiments import (
    RunConfig,
    run_box_evolve,
    run_convergence,
    run_molecule2d,
    run_sample,
    run_synth_report,
)
from .kinetic import _worker_count


def load_config(path: str) -> RunConfig:
    """The RunConfig in a UTF-8 JSON file. A file that cannot be read or
    decoded raises ValidationError."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    # ValueError also covers bytes that are not UTF-8, malformed JSON and
    # integers of over 4300 digits; RecursionError, nesting too deep.
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    return RunConfig.from_dict(data)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to a JSON run config")
    p.add_argument("--out", default="./out", help="output directory (default ./out)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wzsim",
        description="State-vector simulator for discretized Schrodinger dynamics in a box",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("box-evolve", help="evolve the 1D box and compare to the exact series")
    _add_common(p)
    p.add_argument("--qubits", dest="qubits_per_axis", type=int, help="override qubits per axis")
    p.add_argument("--steps", type=int, help="override time step count")
    p.add_argument("--method", dest="kinetic_method", choices=sorted(KINETIC_METHODS), help="override kinetic method")
    p.add_argument("--splitting", choices=sorted(SPLITTINGS), help="override operator splitting")

    p = sub.add_parser("convergence", help="error scaling sweeps")
    _add_common(p)
    p.add_argument("--axis", choices=["spatial", "temporal"], help="sweep axis")
    p.add_argument("--method", dest="kinetic_method", choices=sorted(KINETIC_METHODS), help="override kinetic method")

    p = sub.add_parser("molecule2d", help="2D electrons around clamped nuclei")
    _add_common(p)
    p.add_argument("--steps", type=int, help="override time step count")

    p = sub.add_parser("sample", help="draw configuration samples from the final state")
    _add_common(p)
    p.add_argument("--shots", type=int, help="override shot count")
    p.add_argument("--seed", type=int, help="override sampler seed")

    p = sub.add_parser("synth-report", help="diagonal circuit synthesis and gate counts")
    _add_common(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Looked up when main runs, so a replaced module attribute is the one called.
    runners = {
        "box-evolve": run_box_evolve,
        "convergence": run_convergence,
        "molecule2d": run_molecule2d,
        "sample": run_sample,
        "synth-report": run_synth_report,
    }
    # Each flag's dest is the RunConfig field it overrides.
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    out_existed = os.path.lexists(args.out)
    try:
        # Validated on every run, not only where a Trotter or spectral plan reads it.
        _worker_count()
        cfg = dataclasses.replace(load_config(args.config), **overrides)
        runners[args.command](cfg, args.out)
    except (ValidationError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if not out_existed:
            # A refused run leaves no directory it made; rmdir keeps one
            # that holds anything.
            with contextlib.suppress(OSError):
                os.rmdir(args.out)
        return 2 if isinstance(exc, ValidationError) else 3
    except NormDriftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
