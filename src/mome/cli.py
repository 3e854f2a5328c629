"""Command-line entry points: gen-data, train, eval, gradcheck, route-stats.

Configuration precedence is flags over config file over defaults. The
``train`` flags and the config-file keys are both generated from the
``RunConfig`` fields. The config file is plain ``key=value`` lines
(``#`` comments allowed); a key is a field name or its flag name with
underscores, and an unknown key or a bad value is a configuration error.
The environment variable ``MOME_SEED`` is the seed fallback when neither
a flag nor the config file sets one.

Exit codes: 0 success, 1 validation or tolerance failure, 2 usage or
configuration error, 3 data or file-format error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import Field, fields
from typing import get_type_hints

from .bpe import load_checkpoint
from .data import synthesize_cohort
from .errors import ConfigError, DataError, MetricError, MomeError, NumericError, UsageError
from .experts import ROUTING_LOG_HEADER, ExpertId, format_routing_record
from .gradcheck import DEFAULT_TOLERANCE, run_suite
from .training import (
    METRICS_HEADER,
    RunConfig,
    TrainingAbort,
    evaluate,
    format_metrics_record,
    load_cohort,
    routing_statistics,
    train_cohort,
)

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_DATA = 3


_TRAIN_FIELDS = fields(RunConfig)
_TYPES = get_type_hints(RunConfig)
_BOOL_SPELLINGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


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


def _positive_int(text: str) -> int:
    """``type=`` of the ``--key-chunk`` flags that are not generated from RunConfig."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got '{text}'")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_train_options(parser: argparse.ArgumentParser) -> None:
    """One flag per RunConfig field, built from the field metadata."""
    for f in _TRAIN_FIELDS:
        help_text = f.metadata["help"]
        if _TYPES[f.name] is bool:
            parser.add_argument(_flag(f), dest=f.name, action="store_const",
                                const=not f.default, default=argparse.SUPPRESS, help=help_text)
            continue
        shown = f.metadata.get("shown", f.default)
        parser.add_argument(_flag(f), dest=f.name, type=f.metadata.get("parse", _TYPES[f.name]),
                            choices=f.metadata.get("choices"), default=argparse.SUPPRESS,
                            help=f"{help_text} (default: {shown})")
    parser.add_argument("--config", help="key=value config file (flags override it)")


def _config_value(f: Field, text: str, switch: bool):
    """Convert one config-file value; ``switch`` marks a bool key spelled as its flag."""
    kind = _TYPES[f.name]
    if kind is bool:
        if text.lower() not in _BOOL_SPELLINGS:
            raise ConfigError(f"expected one of {'/'.join(_BOOL_SPELLINGS)}, got '{text}'")
        on = _BOOL_SPELLINGS[text.lower()]
        return (not f.default if on else f.default) if switch else on
    if "parse" in f.metadata:
        return f.metadata["parse"](text)
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
    keys: dict[str, tuple[Field, bool]] = {}
    for f in _TRAIN_FIELDS:
        keys[_flag(f).lstrip("-").replace("-", "_")] = (f, _TYPES[f.name] is bool)
        keys[f.name] = (f, False)
    values: dict[str, object] = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got '{line}'")
                key, text = (part.strip() for part in line.split("=", 1))
                key = key.replace("-", "_")
                if key not in keys:
                    raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
                f, switch = keys[key]
                try:
                    values[f.name] = _config_value(f, text, switch)
                except ConfigError as err:
                    raise ConfigError(f"{path}:{lineno}: bad value for '{key}': {err}")
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}")
    return values


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults < config file < explicit flags into a RunConfig."""
    values = _read_config_file(args.config) if args.config else {}
    values.update((f.name, getattr(args, f.name)) for f in _TRAIN_FIELDS if f.name in args)
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
    run = _build_run_config(args)
    os.makedirs(args.out, exist_ok=True)
    metrics_path = os.path.join(args.out, "metrics.csv")
    with open(metrics_path, "w") as metrics:
        metrics.write(METRICS_HEADER + "\n")

        def emit(record):
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
    model = load_checkpoint(args.checkpoint)
    cohort = load_cohort(args.manifest, model.config.time_bins)
    if args.fold is not None:
        indices = [i for i, r in enumerate(cohort.rows) if r.fold == args.fold]
        if not indices:
            raise DataError(f"manifest has no rows in fold {args.fold}")
    else:
        indices = list(range(len(cohort.rows)))
    loss, score, _ = evaluate(model, cohort, indices, key_chunk=args.key_chunk)
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
    model = load_checkpoint(args.checkpoint)
    cohort = load_cohort(args.manifest, model.config.time_bins)
    stats = routing_statistics(model, cohort, key_chunk=args.key_chunk)
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
    _add_train_options(train)
    train.set_defaults(func=cmd_train)

    evl = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    evl.add_argument("--checkpoint", required=True)
    evl.add_argument("--manifest", required=True)
    evl.add_argument("--fold", type=int, default=None, help="restrict to one fold")
    evl.add_argument("--key-chunk", type=_positive_int, default=RunConfig().key_chunk,
                     help=f"attention key-block size (default: {RunConfig().key_chunk})")
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
    route.add_argument("--key-chunk", type=_positive_int, default=RunConfig().key_chunk,
                       help=f"attention key-block size (default: {RunConfig().key_chunk})")
    route.add_argument("--log-out", default=None, help="also write the full routing log CSV")
    route.set_defaults(func=cmd_route_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except TrainingAbort as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (ConfigError, UsageError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, MetricError) as err:  # FormatError is a DataError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_TOLERANCE
    except MomeError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
