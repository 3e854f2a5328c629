"""Command-line entry points: gen-data, train, eval, gradcheck, route-stats.

Configuration precedence is flags over config file over defaults. The
``train`` flags and the config-file keys are both generated from the
``RunConfig`` fields, and so is the ``--key-chunk`` flag of ``eval`` and
``route-stats``, which ``RunConfig`` checks before the checkpoint is read.
The config file is UTF-8 ``key=value`` lines
(``#`` comments allowed); a key is a field name or its flag name with
underscores, and an unknown key or a bad value is a configuration error.
The environment variable ``MOME_SEED`` is the seed fallback when neither
a flag nor the config file sets one.

Exit codes: 0 success, 1 a failed gradient check; an error exits with its
class's ``exit_code`` (see :mod:`mome.errors`), an ``OSError`` with the
base class's.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import Field, fields
from typing import get_type_hints

from .bpe import load_checkpoint
from .data import synthesize_cohort
from .errors import ConfigError, MetricError, MomeError
from .experts import ExpertId
from .gradcheck import DEFAULT_TOLERANCE, run_suite
from .training import (
    METRICS_HEADER,
    ROUTING_LOG_HEADER,
    RunConfig,
    check_scorable,
    evaluate,
    format_metrics_record,
    format_routing_record,
    load_cohort,
    routing_statistics,
    train_cohort,
)

EXIT_OK = 0
EXIT_TOLERANCE = 1


_TRAIN_FIELDS = fields(RunConfig)
_TYPES = get_type_hints(RunConfig)


def _flag(f: Field) -> str:
    return f.metadata.get("flag", "--" + f.name.replace("_", "-"))


def _resolve_seed(seed: int | None) -> int:
    """An explicit seed, else ``MOME_SEED``, else 0."""
    if seed is not None:
        return seed
    raw = os.environ.get("MOME_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"MOME_SEED must be an integer, got '{raw}'")


def _add_run_options(parser: argparse.ArgumentParser, names=None) -> None:
    """One flag per RunConfig field (those in ``names``, if given), built
    from the field metadata."""
    for f in _TRAIN_FIELDS:
        if names is not None and f.name not in names:
            continue
        shown = f.metadata.get("shown", f.default)
        parser.add_argument(_flag(f), dest=f.name, type=f.metadata.get("parse", _TYPES[f.name]),
                            choices=f.metadata.get("choices"), default=argparse.SUPPRESS,
                            help=f"{f.metadata['help']} (default: {shown})")


def _flag_values(args: argparse.Namespace) -> dict[str, object]:
    """The RunConfig fields set by a flag."""
    return {f.name: getattr(args, f.name) for f in _TRAIN_FIELDS if f.name in args}


def _config_value(f: Field, text: str):
    """Convert one config-file value."""
    if "parse" in f.metadata:
        return f.metadata["parse"](text)
    kind = _TYPES[f.name]
    try:
        value = kind(text)
    except ValueError:
        raise ConfigError(f"expected {kind.__name__}, got '{text}'")
    choices = f.metadata.get("choices")
    if choices and value not in choices:
        raise ConfigError(f"expected one of {choices}, got '{text}'")
    return value


def _read_config_file(path: str) -> dict[str, object]:
    """RunConfig field values from ``key=value`` lines.

    A key is a field name or its flag without the dashes (``n_b`` or
    ``nb``); dashes and underscores are interchangeable.
    """
    keys = {key: f for f in _TRAIN_FIELDS
            for key in (_flag(f).lstrip("-").replace("-", "_"), f.name)}
    values: dict[str, object] = {}
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        lines = raw.decode("utf-8").splitlines()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}")
    except UnicodeDecodeError as err:
        lineno = raw.count(b"\n", 0, err.start) + 1
        raise ConfigError(f"{path}:{lineno}: byte {raw[err.start]:#04x} is not UTF-8")
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got '{line}'")
        key, text = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        f = keys[key]
        try:
            values[f.name] = _config_value(f, text)
        except ConfigError as err:
            raise ConfigError(f"{path}:{lineno}: bad value for '{key}': {err}")
    return values


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults < config file < explicit flags into a RunConfig."""
    values = _read_config_file(args.config) if args.config else {}
    values.update(_flag_values(args))
    values["seed"] = _resolve_seed(values.get("seed"))
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args: argparse.Namespace) -> int:
    manifest = synthesize_cohort(
        n_samples=args.n,
        n_patches=args.patches,
        dim=args.dim,
        signal=args.signal,
        censor_rate=args.censor_rate,
        seed=_resolve_seed(args.seed),
        out_dir=args.out,
        folds=args.folds,
    )
    print(manifest)
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    """Train and stream ``metrics.csv``; the file (and ``--out``) is created
    at the first record, so a run rejected before it writes nothing."""
    run = _build_run_config(args)
    metrics_path = os.path.join(args.out, "metrics.csv")
    with contextlib.ExitStack() as stack:
        metrics = None

        def emit(record):
            nonlocal metrics
            if metrics is None:
                os.makedirs(args.out, exist_ok=True)
                metrics = stack.enter_context(open(metrics_path, "w"))
                metrics.write(METRICS_HEADER + "\n")
            line = format_metrics_record(record)
            metrics.write(line + "\n")
            print(line)

        summary = train_cohort(run, args.manifest, args.out, emit)
    for result in summary.fold_results:
        print(
            f"fold {result.fold} best_val_c_index={result.best_c_index:.6f} "
            f"(epoch {result.best_epoch}) checkpoint={result.checkpoint_path}"
        )
    print(f"c_index {summary.mean_c_index:.6f}±{summary.std_c_index:.6f}")
    print(f"metrics written to {metrics_path}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    key_chunk = RunConfig(**_flag_values(args)).key_chunk
    model = load_checkpoint(args.checkpoint)
    cohort = load_cohort(args.manifest, model.config.time_bins)
    if args.fold is not None:
        indices = [i for i, r in enumerate(cohort.rows) if r.fold == args.fold]
        check_scorable(cohort, indices, f"fold {args.fold} of {args.manifest}")
    else:
        indices = list(range(len(cohort.rows)))
    loss, score, _ = evaluate(model, cohort, indices, key_chunk=key_chunk)
    print(f"samples={len(indices)} loss={loss:.6f} c_index={score:.6f}")
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    components = [args.component] if args.component else None
    results = run_suite(components, seeds=args.seeds, tolerance=args.tolerance)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        note = ""
        if r.name == "dropf2" and r.max_error == 0.0:
            note = " (reference-modality gradient exactly zero)"
        print(
            f"{r.name:24s} max_rel_err={r.max_error:.3e} seeds={r.seeds} "
            f"{status}{note} [{r.wall_seconds:.2f}s]"
        )
        failed = failed or not r.passed
    return EXIT_TOLERANCE if failed else EXIT_OK


def cmd_route_stats(args: argparse.Namespace) -> int:
    key_chunk = RunConfig(**_flag_values(args)).key_chunk
    model = load_checkpoint(args.checkpoint)
    cohort = load_cohort(args.manifest, model.config.time_bins)
    stats = routing_statistics(model, cohort, key_chunk=key_chunk)
    n = len(cohort.rows)
    names = [e.name.lower() for e in ExpertId]
    print("layer," + ",".join(names))
    for layer, counts in enumerate(stats.histogram):
        if int(counts.sum()) != n:
            raise MetricError(f"layer {layer} routed {int(counts.sum())} samples, cohort has {n}")
        print(f"{layer}," + ",".join(str(int(c)) for c in counts))
    print(f"sample_level_diversity={'yes' if stats.sample_level_diversity else 'no'}")
    print(f"layer_level_diversity={'yes' if stats.layer_level_diversity else 'no'}")
    if args.log_out:
        with open(args.log_out, "w") as fh:
            fh.write(ROUTING_LOG_HEADER + "\n")
            for record in stats.records:
                fh.write(format_routing_record(record) + "\n")
        print(f"routing log written to {args.log_out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mome",
        description="Multimodal mixture-of-experts survival model: data synthesis, "
        "training, evaluation, gradient checking, and routing analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="synthesize a multimodal cohort")
    gen.add_argument("--n", type=int, default=64, help="number of samples (default: 64)")
    gen.add_argument("--patches", type=int, default=128,
                     help="patch tokens per sample (default: 128)")
    gen.add_argument("--dim", type=int, default=64, help="patch feature width (default: 64)")
    gen.add_argument("--signal", choices=("patho", "geno", "cross"), default="cross",
                     help="where the risk signal is planted (default: cross)")
    gen.add_argument("--censor-rate", type=float, default=0.3,
                     help="target censoring fraction (default: 0.3)")
    gen.add_argument("--folds", type=int, default=5,
                     help="cross-validation folds to assign (default: 5)")
    gen.add_argument("--seed", type=int, default=None,
                     help="generator seed (default: MOME_SEED or 0)")
    gen.add_argument("--out", required=True, help="output directory (required)")
    gen.set_defaults(func=cmd_gen_data)

    train = sub.add_parser("train", help="cross-validated training with metrics stream")
    train.add_argument("--manifest", required=True, help="cohort manifest path")
    train.add_argument("--out", required=True, help="directory for checkpoints and metrics")
    _add_run_options(train)
    train.add_argument("--config", help="key=value config file (flags override it)")
    train.set_defaults(func=cmd_train)

    evl = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    evl.add_argument("--checkpoint", required=True)
    evl.add_argument("--manifest", required=True)
    evl.add_argument("--fold", type=int, default=None, help="restrict to one fold")
    _add_run_options(evl, ["key_chunk"])
    evl.set_defaults(func=cmd_eval)

    grad = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    grad.add_argument("--component", default=None,
                      help="check one named component instead of all")
    grad.add_argument("--seeds", type=int, default=100,
                      help="random instances per component (default: 100)")
    grad.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                      help=f"max relative error allowed (default: {DEFAULT_TOLERANCE})")
    grad.set_defaults(func=cmd_gradcheck)

    route = sub.add_parser("route-stats", help="expert routing histogram for a checkpoint")
    route.add_argument("--checkpoint", required=True)
    route.add_argument("--manifest", required=True)
    _add_run_options(route, ["key_chunk"])
    route.add_argument("--log-out", default=None, help="also write the full routing log CSV")
    route.set_defaults(func=cmd_route_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except MomeError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return MomeError.exit_code


if __name__ == "__main__":
    sys.exit(main())
