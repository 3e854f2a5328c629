# End to end at toy scale: synthesize a cohort whose risk lives only in
# the interaction between the two modalities, train a couple of folds,
# and look at how the trained gate routes samples.
#
# The full acceptance-scale run (200 samples, 128 patches, width 64,
# 5 folds x 20 epochs) is what tests/test_acceptance.py executes; this
# demo uses a small cohort so it finishes in about a minute.

import tempfile
from pathlib import Path

from mome.bpe import load_checkpoint
from mome.data import synthesize_cohort
from mome.training import RunConfig, load_cohort, routing_statistics, train_cohort

with tempfile.TemporaryDirectory(prefix="mome_demo_") as tmp:
    workdir = Path(tmp)
    manifest = synthesize_cohort(
        n_samples=60, n_patches=32, dim=16, signal="cross", censor_rate=0.25,
        seed=7, out_dir=workdir / "cohort", folds=2,
    )
    print("cohort at", manifest)

    run = RunConfig(d=16, epochs=8, seed=7, time_bins=4)
    summary = train_cohort(run, manifest, workdir / "run")
    for result in summary.fold_results:
        print(f"fold {result.fold}: best val C-index {result.best_c_index:.3f} "
              f"at epoch {result.best_epoch}")
    print(f"mean {summary.mean_c_index:.3f} +/- {summary.std_c_index:.3f}")

    # Routing after training: different samples take different experts, and
    # the same sample can take different experts at different layers.
    model = load_checkpoint(summary.fold_results[0].checkpoint_path)
    cohort = load_cohort(manifest, run.time_bins)
    stats = routing_statistics(model, cohort)
    print("\nper-layer expert histogram (tf, btf, snn, df):")
    for layer, counts in enumerate(stats.histogram):
        print(f"  layer {layer}: {[int(c) for c in counts]}")
    print("sample-level diversity:", stats.sample_level_diversity)
    print("layer-level diversity: ", stats.layer_level_diversity)
