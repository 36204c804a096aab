"""The benchmark's per-layer trace still finds what it wraps.

perfbench/tracing.py wraps package functions by the names their callers look
them up under.  A rename or move in the package leaves the benchmark
running, with the per-layer metrics of the lost names reading zero; this
test fails instead.  The tracing module is imported from its file and not modified.
"""

import importlib.util
import json
import os

import snnbounds
from snnbounds.cli import main

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                       "tracing.py")
# names the trace plan still lists that the package no longer has
KNOWN_MISSING = {"bounds.measure_report", "bounds.spectral_norm"}


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_of_train_counts_the_trainer(tmp_path, mnist_dir):
    tracing = _tracing_module()
    out = str(tmp_path / "run")
    tracer = tracing.Tracer()
    tracer.install(snnbounds)
    try:
        assert main(["train", "--mnist-dir", mnist_dir, "--out", out,
                     "--widths", "4", "--seeds", "0", "--max-epochs", "2",
                     "--target-train-error", "0"]) == 0
    finally:
        tracer.uninstall()
    assert set(tracer.missing) <= KNOWN_MISSING
    assert not tracer.hook_errors
    with open(os.path.join(out, "manifest.json")) as f:
        (cell,) = json.load(f)["cells"]
    assert tracer.counts["trainer.epochs"] == cell["epochs"] == 2
    metrics = tracing.layer_metrics(tracer)
    assert metrics["trainer.batches"] == 2  # 40 examples, batches of 256
    assert metrics["model.forward_calls"] == 2  # one full-data pass an epoch
    assert metrics["trainer.gflop"] > 0
    assert metrics["trainer.eval_calls"] > 0
