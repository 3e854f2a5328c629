"""The measured process: set-up, repeated units, checks, one JSON result.

Started by ``run.py`` in a fresh interpreter after the inputs exist, so
peak RSS and timings cover the program's work only. Takes one argument,
a JSON object with ``spec``, ``manifest``, ``seed``, ``seconds``,
``trace`` and ``trace_path``; the program is imported from ``src/`` of
the checkout this file belongs to.

With tracing off it reports the end-to-end metrics. With tracing on it
alternates an untraced and a traced pass of set-up plus one unit,
checks that both give the same metrics stream, and reports the
per-layer metrics of the traced passes.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import machine  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import Spec, check_unit, run_unit, setup  # noqa: E402

# Set-ups timed before each unit; ``setup_s`` is the median of all of them.
SETUP_REPEATS = 4


def load_program(root: str) -> tuple[type, ...]:
    """Import mome from ``root/src`` and nowhere else; return the exception
    types that count a sample as failed."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import mome
    from mome.errors import MomeError
    from mome.training import TrainingAbort

    if not os.path.abspath(mome.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported mome from {mome.__file__}, expected under {src}")
    return (MomeError, TrainingAbort)


def timed_units(spec, manifest, capture, seconds, out_dir, failures):
    """Repeat set-up plus the unit while another round fits in ``seconds``
    (at least one round).

    Each round times ``SETUP_REPEATS`` set-ups and runs the unit on
    the last one, so the set-ups are spread over the whole run and meet
    the same machine conditions as the units, rather than one short
    window at its start.
    """
    units, setup_times, problems, failed = [], [], [], 0
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        for _ in range(SETUP_REPEATS):
            prepared = None  # free the previous cohort before loading the next
            setup_began = time.perf_counter()
            prepared = setup(spec, manifest)
            setup_times.append(time.perf_counter() - setup_began)
        try:
            unit = run_unit(spec, prepared, capture, out_dir)
        except failures as err:
            problems.append(f"{type(err).__name__}: {err}")
            failed += 1
            break
        units.append(unit)
        problems += check_unit(spec, prepared, unit)
        if units[0].stream != unit.stream:
            problems.append(f"unit {len(units) - 1} metrics stream differs from unit 0")
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    return units, setup_times, problems, failed


def end_to_end(spec, manifest, seconds, out_dir, failures):
    with tr.Capture() as capture:
        units, setup_times, problems, failed = timed_units(
            spec, manifest, capture, seconds, out_dir, failures)
    attempted = sum(u.train_samples + u.eval_samples for u in units) + failed
    if not units:
        return problems, attempted, failed, {}, {}

    print("each unit's fold_epoch_s: " + " ".join(f"{u.epoch_s:.4f}" for u in units))
    print("each set-up's setup_s: " + " ".join(f"{t:.4f}" for t in setup_times))

    def median(get):
        return statistics.median(get(u) for u in units)

    eval_rate = median(lambda u: u.eval_samples / u.eval_s)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "samples_per_s": (
            median(lambda u: u.train_samples / u.train_s) if spec.training else eval_rate, "1/s"),
        "fold_epoch_s": (median(lambda u: u.epoch_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # Printed but not gated: the validation pass of a training unit is too
    # short to time steadily on its own, the losses vary with the seed's
    # cohort, and the error rate is zero on these workloads.
    info = {
        "units": (len(units), "count"),
        "eval_samples_per_s": (eval_rate, "1/s"),
        "eval_loss": (units[0].eval_loss, "nats"),
        "error_rate": (failed / attempted if attempted else 0.0, "ratio"),
    }
    if spec.training:
        info["train_samples_per_s"] = metrics["samples_per_s"]
        info["final_train_loss"] = (units[0].train_loss, "nats")
    return problems, attempted, failed, metrics, info


def untraced_pass(spec, manifest, capture, out_dir):
    began = time.perf_counter()
    unit = run_unit(spec, setup(spec, manifest), capture, out_dir)
    return unit, time.perf_counter() - began


def traced(spec, manifest, seconds, out_dir, trace_path, failures):
    tracer = tr.Tracer()
    passes, histograms, problems = [], [], []
    untraced_s = traced_s = 0.0
    attempted = failed = 0
    start = time.perf_counter()
    with tr.Capture() as capture:
        while True:
            began = time.perf_counter()
            try:
                # Alternate which pass goes first, so warm-up does not
                # bias the overhead ratio one way.
                if len(passes) % 2 == 0:
                    plain, plain_s = untraced_pass(spec, manifest, capture, out_dir)
                tracer.clear()
                with tracer:
                    wall_start = time.perf_counter_ns()
                    prepared = setup(spec, manifest)
                    unit = run_unit(spec, prepared, capture, out_dir)
                    wall_end = time.perf_counter_ns()
                if len(passes) % 2 == 1:
                    plain, plain_s = untraced_pass(spec, manifest, capture, out_dir)
            except failures as err:
                problems.append(f"{type(err).__name__}: {err}")
                failed += 1
                break
            untraced_s += plain_s
            traced_s += (wall_end - wall_start) / 1e9
            attempted += 2 * (unit.train_samples + unit.eval_samples)
            problems += check_unit(spec, prepared, plain) + check_unit(spec, prepared, unit)
            if plain.stream != unit.stream:
                problems.append("traced metrics stream differs from the untraced one")
            passes.append(tr.summarize_pass(tracer, wall_end - wall_start))
            histograms.append(unit.histogram.tolist())
            tracer.write(trace_path, len(passes) - 1, (wall_start, wall_end))
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                break
    attempted += failed
    if not passes:
        return problems, attempted, failed, {}
    return problems, attempted, failed, tr.per_layer_metrics(
        passes, histograms, traced_s / untraced_s)


def emit(name, value, unit):
    print(f"{name:40s} {value:>16.6g} {unit}")


def main(argv) -> int:
    args = json.loads(argv[1])
    failures = load_program(ROOT)
    spec = Spec(**{k: tuple(v) if isinstance(v, list) else v for k, v in args["spec"].items()})
    seed, seconds = args["seed"], args["seconds"]
    print("machine " + json.dumps(machine.record(ROOT), sort_keys=True))
    with tempfile.TemporaryDirectory(dir=os.path.dirname(args["manifest"])) as out_dir:
        if args["trace"]:
            problems, attempted, failed, metrics = traced(
                spec, args["manifest"], seconds, out_dir, args["trace_path"], failures)
            info = {}
        else:
            problems, attempted, failed, metrics, info = end_to_end(
                spec, args["manifest"], seconds, out_dir, failures)
    print(f"workload {spec.name} seed {seed} trace {int(args['trace'])}")
    for name, (value, unit) in {**metrics, **info}.items():
        emit(name, value, unit)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems and failed == 0 and bool(metrics)
    if not all(math.isfinite(v) for v, _ in metrics.values()):
        correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
