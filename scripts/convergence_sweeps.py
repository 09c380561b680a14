"""Run the spatial and temporal error-scaling sweeps.

The spatial sweep varies the grid resolution at a fixed step count; the
temporal sweep varies the step count at a fixed grid. Sweep points run
one after another. The box has one register, so its spectral transforms
run on one thread whatever WZ_THREADS says.
"""

import argparse

from wzsim.experiments import RunConfig, run_convergence


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/convergence", help="output directory")
    ap.add_argument(
        "--axis",
        choices=["spatial", "temporal", "both"],
        default="both",
        help="which sweep to run",
    )
    ap.add_argument("--method", default="spectral", choices=["trotter", "spectral"])
    args = ap.parse_args()

    axes = ["spatial", "temporal"] if args.axis == "both" else [args.axis]
    for axis in axes:
        cfg = RunConfig(kinetic_method=args.method, axis=axis)
        summary = run_convergence(cfg, f"{args.out}/{axis}")
        print(
            f"{axis}: rmse slope {summary['rmse_slope']:.4f}, "
            f"yb slope {summary['yb_slope']:.4f}"
        )


if __name__ == "__main__":
    main()
