"""Self-test of the benchmark: BENCHMARK.json format, tiny smoke runs, trace accounting.

    python3 -m pytest -q perfbench/tests

Each workload runs once with tracing off and once with it on, at a tiny
shape, through the same generator / fresh-worker path as a real run.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import SPECS, c_index_oracle, tiny  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    CONFIG = json.load(fh)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Metrics the documentation promises; each must be defined in BENCHMARK.json.
NAMED_END_TO_END = {"setup_s", "samples_per_s", "fold_epoch_s", "peak_rss_mb"}
# Printed with a unit by every untraced run but not gated (see README.md);
# the training ones only by the training workloads.
PRINTED_END_TO_END = {"eval_samples_per_s", "eval_loss", "error_rate"}
PRINTED_TRAINING = {"train_samples_per_s", "final_train_loss"}
NAMED_PER_LAYER = {
    "numcore.graph_nodes_per_sample", "numcore.mean_rows_ms", "numcore.mean_rows_calls",
    "numcore.backward_ms", "numcore.adam_step_ms", "experts.gate_ms", "experts.gate_calls",
    "experts.tf_ms", "experts.btf_ms", "experts.snn_ms", "experts.df_ms",
    "attention.self_attention_ms", "attention.self_attention_calls",
    "attention.kernel_fwd_ms", "attention.key_blocks", "attention.score_flops",
    "attention.kernel_fwd_gflops", "bpe.readout_ms", "bpe.embed_patches_ms",
    "bpe.embed_genomics_ms", "bpe.forward_self_ms", "bpe.save_checkpoint_ms",
    "bpe.load_checkpoint_ms", "data.read_manifest_ms", "data.read_feature_file_ms",
    "data.read_genomic_file_ms", "data.files_read", "data.bytes_read", "survival.head_ms",
    "survival.c_index_ms", "survival.c_index_pairs", "training.step_ms_p50",
    "training.step_ms_p90", "training.loop_self_ms", "trace.unattributed_ms",
    "trace.overhead_ratio",
} | {f"experts.L{layer}.{e}.calls" for layer in range(4) for e in ("tf", "btf", "snn", "df")}


def test_benchmark_json_is_well_formed():
    assert set(CONFIG) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                           "per_layer"}
    assert CONFIG["paths"] == ["perfbench"]
    assert CONFIG["command"][1] == "perfbench/run.py"
    assert isinstance(CONFIG["run_seconds"], int) and 1 <= CONFIG["run_seconds"] <= 60
    assert [w["name"] for w in CONFIG["workloads"]] == list(SPECS)
    for w in CONFIG["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in CONFIG[group]]
    names += [w["name"] for w in CONFIG["workloads"]]
    assert len(names) == len(set(names))
    for m in CONFIG["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in CONFIG["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in CONFIG["end_to_end"] + CONFIG["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    setup = [m for m in CONFIG["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in CONFIG["end_to_end"])
    assert NAMED_END_TO_END <= {m["name"] for m in CONFIG["end_to_end"]}
    assert NAMED_PER_LAYER <= {m["name"] for m in CONFIG["per_layer"]}
    assert {f"{layer}.self_ms" for layer in LAYERS} <= {m["name"] for m in CONFIG["per_layer"]}
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def run_tiny(name, trace, tmp_path, capfd):
    status = run.run(tiny(SPECS[name]), seed=5, seconds=0.5, trace=trace,
                     work_root=str(tmp_path))
    out = capfd.readouterr().out
    assert status == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = CONFIG["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert "machine {" in out
    # Metric lines read "<name> <value> <unit>"; keep name -> unit.
    printed = dict(line.split()[::2] for line in out.splitlines() if len(line.split()) == 3)
    return {k: v["value"] for k, v in result["metrics"].items()}, printed


@pytest.mark.parametrize("name", list(SPECS))
def test_tiny_untraced_run_reports_every_end_to_end_metric(name, tmp_path, capfd):
    metrics, printed = run_tiny(name, False, tmp_path, capfd)
    expected = NAMED_END_TO_END | PRINTED_END_TO_END
    if SPECS[name].training:
        expected |= PRINTED_TRAINING
    assert expected <= printed.keys()
    assert all(v > 0 for v in metrics.values())
    assert not os.listdir(os.path.join(tmp_path, ".bench_work"))


@pytest.mark.parametrize("name", list(SPECS))
def test_tiny_traced_run_accounts_for_its_wall_time(name, tmp_path, capfd):
    metrics, _ = run_tiny(name, True, tmp_path, capfd)
    layer_self = sum(metrics[f"{layer}.self_ms"] for layer in LAYERS)
    assert layer_self + metrics["trace.unattributed_ms"] == pytest.approx(
        metrics["trace.wall_ms"], rel=1e-9)
    assert metrics["trace.overhead_ratio"] > 0
    assert metrics["numcore.graph_nodes_per_sample"] > 0
    spec = tiny(SPECS[name])
    routed = [metrics[f"experts.L{layer}.{e}.calls"]
              for layer in range(4) for e in ("tf", "btf", "snn", "df")]
    assert sum(routed) == 4 * metrics["trace.samples"]
    if spec.training:
        assert metrics["numcore.adam_step_ms"] > 0
    else:
        assert metrics["bpe.load_checkpoint_ms"] > 0
    trace_file = os.path.join(tmp_path, ".bench_out", f"trace_{name}_seed5.csv.gz")
    assert os.path.getsize(trace_file) > 0


def test_c_index_oracle_matches_the_program():
    from mome.survival import SurvivalTarget, c_index

    rng = np.random.default_rng(3)
    times = rng.integers(1, 15, size=80).astype(float)  # ties on purpose
    events = rng.random(80) < 0.7
    risks = np.round(rng.standard_normal(80), 1)  # risk ties too
    targets = [SurvivalTarget(bin=0, censored=not e, raw_time=t) for t, e in zip(times, events)]
    assert c_index_oracle(risks, times, events) == pytest.approx(c_index(risks, targets),
                                                                 abs=1e-15)


def test_run_without_program_source_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "acceptance_train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
