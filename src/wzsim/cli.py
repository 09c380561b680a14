"""Command line front end.

Exit codes: 0 success, 2 invalid config or arguments, 3 resource limits
exceeded, 4 norm drift abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
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
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"config file not found: {path}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
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
    p.add_argument("--qubits", type=int, help="override qubits per axis")
    p.add_argument("--steps", type=int, help="override time step count")
    p.add_argument("--method", choices=sorted(KINETIC_METHODS), help="override kinetic method")
    p.add_argument("--splitting", choices=sorted(SPLITTINGS), help="override operator splitting")

    p = sub.add_parser("convergence", help="error scaling sweeps")
    _add_common(p)
    p.add_argument("--axis", choices=["spatial", "temporal"], help="sweep axis")
    p.add_argument("--method", choices=sorted(KINETIC_METHODS), help="override kinetic method")

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


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    mapping = {
        "qubits": "qubits_per_axis",
        "steps": "steps",
        "method": "kinetic_method",
        "splitting": "splitting",
        "shots": "shots",
        "seed": "seed",
        "axis": "axis",
    }
    updates = {}
    for arg_name, field in mapping.items():
        value = getattr(args, arg_name, None)
        if value is not None:
            updates[field] = value
    return dataclasses.replace(cfg, **updates) if updates else cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Validated on every run, not only where a spectral plan reads it.
        _worker_count()
        cfg = _apply_overrides(load_config(args.config), args)
        if args.command == "box-evolve":
            run_box_evolve(cfg, args.out)
        elif args.command == "convergence":
            run_convergence(cfg, args.out)
        elif args.command == "molecule2d":
            run_molecule2d(cfg, args.out)
        elif args.command == "sample":
            run_sample(cfg, args.out)
        elif args.command == "synth-report":
            run_synth_report(cfg, args.out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NormDriftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
