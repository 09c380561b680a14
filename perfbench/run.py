"""wzsim benchmark: runs one workload through the wzsim CLI for a fixed time.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run of the workload is a fresh process (probe.py) that calls
``wzsim.cli.main`` once, so its peak RSS is its own. Runs repeat until
``--seconds`` is spent; every run's outputs are checked. With ``--trace 0``
the last line of output holds the medians of the end-to-end metrics over the
runs. With ``--trace 1`` untraced and traced runs alternate, and the last
line holds the medians of the per-layer metrics of the traced runs. The
line before it records the machine and software the numbers came from.
Metric names and units are the ones BENCHMARK.json lists. Scratch files go
to ``.perfbench-work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, check_outputs, output_hashes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench-work"

# Every invocation ends within this many seconds, however long runs take.
DEADLINE_S = 170.0
# One sweep thread per vCPU of the 2-vCPU machine the benchmark was sized on.
# Only the convergence sweep uses them.
WZ_THREADS = "2"
# Threads for BLAS and OpenMP are pinned, so WZ_THREADS is the only knob.
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COPY_REPEATS = 3


def cache_sizes() -> dict:
    """Total bytes per cache level, summed over distinct cache instances."""
    seen = {}
    for index in Path("/sys/devices/system/cpu").glob("cpu[0-9]*/cache/index[0-9]*"):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        factor = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
        seen[(level, shared)] = int(size.rstrip("KM")) * factor
    sizes = {}
    for (level, _), size in seen.items():
        sizes[f"L{level}"] = sizes.get(f"L{level}", 0) + size
    return sizes


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_hash() -> str:
    """SHA-256 over the package sources, which names the code when there is no commit."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wzsim").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(child_env: dict) -> dict:
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "commit": git_commit(),
        "source_sha256": source_hash(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "cache_bytes": cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "thread_env": {k: child_env.get(k) for k in ("WZ_THREADS", *PINNED_THREADS)},
    }


def copy_bandwidth(llc_bytes: int) -> tuple[float, int]:
    """(GB/s, bytes per array) of a numpy copy over arrays of 4x the last-level cache.

    GB/s counts the bytes read plus the bytes written."""
    n = max(4 * llc_bytes, 64 * 1024**2) // 8
    src = np.ones(n)
    dst = np.zeros(n)
    times = []
    for _ in range(COPY_REPEATS):
        t = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t)
    return 2 * src.nbytes / statistics.median(times) / 1e9, src.nbytes


def median(values):
    values = list(values)
    if not values or any(v is None for v in values):
        return None
    return statistics.median(values)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run the workload repeatedly for ``seconds`` and collect checked samples.

    ``tiny`` runs the smoke test's small version, which skips the reference values."""
    workload = WORKLOADS[name]
    work = WORK_DIR / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps(workload.config(seed, tiny), indent=2))
    env = dict(os.environ, WZ_THREADS=WZ_THREADS, **dict.fromkeys(PINNED_THREADS, "1"))
    record = {
        "workload": name,
        "seed": seed,
        "seed_used": workload.seeded,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(env),
        "runs": [],
    }
    start = time.monotonic()
    durations = []
    first_hashes = None
    for k in itertools.count():
        traced = trace and k % 2 == 1
        result = work / f"run-{k}.json"
        out_dir = work / f"out-{k}"
        cmd = [sys.executable, str(HERE / "probe.py"), str(result)]
        cmd += ["--trace"] if traced else []
        cmd += ["--", *workload.command, "--config", str(config), "--out", str(out_dir)]
        t = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(1.0, DEADLINE_S - (t - start)),
            )
            stderr = proc.stderr
        except subprocess.TimeoutExpired:
            stderr = "timed out"
        durations.append(time.monotonic() - t)
        run = {"traced": traced}
        try:
            probe = json.loads(result.read_text())
            problems = check_outputs(workload, out_dir, probe, tiny)
            if not problems:
                hashes = output_hashes(out_dir)
                first_hashes = first_hashes or hashes
                if hashes != first_hashes:
                    problems.append("outputs differ from the first run with this seed")
                run["output_bytes"] = sum(p.stat().st_size for p in out_dir.iterdir())
            run.update(probe)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            run["problems"] = problems
            run["stderr"] = stderr[-2000:]
            print(f"run {k} failed: {problems}", file=sys.stderr)
        record["runs"].append(run)
        shutil.rmtree(out_dir, ignore_errors=True)
        if traced and result.with_suffix(".spans.jsonl").exists():
            result.with_suffix(".spans.jsonl").replace(work / "spans.jsonl")

        elapsed = time.monotonic() - start
        have_both = any(not r["traced"] for r in record["runs"]) and any(
            r["traced"] for r in record["runs"]
        )
        if elapsed + statistics.median(durations) > seconds:
            if not trace or have_both or elapsed + max(durations) > DEADLINE_S / 2:
                break
    return record


def summarize(record: dict, metric_names) -> dict:
    """The benchmark's result: medians over the passed runs of the given metrics.

    Untraced runs give the end-to-end metrics, traced runs the per-layer ones."""
    runs = record["runs"]
    passed = [r for r in runs if "problems" not in r]
    plain = [r for r in passed if not r["traced"]]
    if record["trace"]:
        traced = [r for r in passed if r["traced"]]
        values = {m: median(r["layers"].get(m) for r in traced) for m in metric_names}
        walls = median(r["wall_s"] for r in traced), median(r["wall_s"] for r in plain)
        values["trace.overhead_s"] = None if None in walls else walls[0] - walls[1]
        values["experiments.output_bytes"] = median(r["output_bytes"] for r in traced)
    else:
        values = {m: median(r.get(m) for r in plain) for m in metric_names}
    return {
        "correct": bool(runs) and len(passed) == len(runs),
        "attempted": len(runs),
        "failed": len(runs) - len(passed),
        "values": values,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "wzsim" / "cli.py").is_file():
        print(f"error: no wzsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    summary = summarize(record, [m["name"] for m in metrics])
    if args.trace:
        gbps, array_bytes = copy_bandwidth(record["environment"]["cache_bytes"].get("L3", 0))
        summary["values"]["machine.copy_gbps"] = gbps
        record["environment"]["copy_array_bytes"] = array_bytes
    record["summary"] = summary
    (WORK_DIR / args.workload / "result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"environment": record["environment"]}))
    print(
        json.dumps(
            {
                "correct": summary["correct"],
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": {
                    m["name"]: {"value": summary["values"].get(m["name"]), "unit": m["unit"]}
                    for m in metrics
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
