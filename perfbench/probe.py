"""One benchmark run: a fresh process that calls ``wzsim.cli.main`` once and times it.

Usage: python3 perfbench/probe.py RESULT.json [--trace] -- <wzsim CLI arguments>

Untraced, it records two timestamps per ``evolve`` call and one per
``prepare_operators`` return, and nothing per step. With ``--trace`` it
records a span around each public function of every wzsim module instead
(see spans.py). The measurements go to RESULT.json; the exit code is the
CLI's.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import wzsim.cli  # noqa: E402
from wzsim import evolution, experiments  # noqa: E402

import spans  # noqa: E402

RSS_IMPORT = spans.current_rss_bytes()


class EvolveTimer:
    """Timestamps of every evolve call and the prepare_operators it makes."""

    def __init__(self):
        self.calls = []
        self.prepared = []
        self._current = threading.local()
        evolve, prepare = experiments.evolve, evolution.prepare_operators

        def timed_evolve(state, plan, *args, **kwargs):
            call = {"start": time.perf_counter(), "amplitudes": state.dim,
                    "state_bytes": state.amplitudes.nbytes, "steps": plan.N_t}
            self._current.call = call
            report = evolve(state, plan, *args, **kwargs)
            call["end"] = time.perf_counter()
            call["max_norm_drift"] = report.max_norm_drift
            self.calls.append(call)
            return report

        def timed_prepare(*args, **kwargs):
            ops = prepare(*args, **kwargs)
            now = time.perf_counter()
            self.prepared.append(now)
            self._current.call["prepared"] = now
            return ops

        experiments.evolve, evolution.prepare_operators = timed_evolve, timed_prepare


def end_to_end(timer: EvolveTimer, t_end: float) -> dict:
    calls = timer.calls
    stepping = sum(c["end"] - c["prepared"] for c in calls)
    amp_steps = sum(c["amplitudes"] * c["steps"] for c in calls)
    peak = spans.peak_rss_bytes()
    state_bytes = max(c["state_bytes"] for c in calls)
    return {
        "wall_s": t_end - T0,
        "setup_s": min(timer.prepared) - T0,
        "ns_per_amp_step": 1e9 * stepping / amp_steps,
        "peak_rss_mib": peak / spans.MIB,
        "mem_ratio": (peak - RSS_IMPORT) / state_bytes,
        "state_bytes": state_bytes,
        "max_norm_drift": max(c["max_norm_drift"] for c in calls),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("result")
    ap.add_argument("--trace", action="store_true")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = ap.parse_args(argv[:split])
    cli_args = argv[split + 1 :]

    if args.trace:
        tracer = spans.Tracer()
        root = tracer.open("cli", start=T0)
        spans.instrument(tracer)
    # The evolve timer wraps outermost, so its drift and size records come
    # from the same calls in both modes.
    timer = EvolveTimer()
    rc = wzsim.cli.main(cli_args)
    t_end = time.perf_counter()

    result = {"exit_code": rc}
    if rc == 0:
        result.update(end_to_end(timer, t_end))
    if args.trace:
        tracer.close(root, end=t_end)
        result["layers"] = spans.layer_metrics(tracer)
        result["missing"] = tracer.missing
    Path(args.result).write_text(json.dumps(result))
    if args.trace:
        result_path = Path(args.result)
        spans.write_spans(tracer, result_path.with_suffix(".spans.jsonl"), result_path.stem)
    return rc


if __name__ == "__main__":
    sys.exit(main())
