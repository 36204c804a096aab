"""Per-layer tracing by wrapping snnbounds functions from outside.

Each wrapped name records a span (name, start, end, parent) and the counters
its hook derives from the call's arguments and result.  A name is wrapped in
the module where its caller looks it up, so ``cli.sgd_train`` is wrapped in
``snnbounds.cli`` and the trainer's ``forward`` in ``snnbounds.trainer``.
Nothing in the package is edited; :meth:`Tracer.uninstall` restores it.

Work the tracer does for its own bookkeeping (the exact eigensolve behind
``linalg.spectral_rel_err_max``) runs on a paused clock, so it shows in no
span and in no traced wall time.
"""

import hashlib
import importlib
import inspect
import math
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.paused = 0.0
        self.exact_cache = {}
        self.hook_errors = Counter()
        self.missing = []
        self._installed = []
        self.reset()

    def reset(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def now(self):
        return time.perf_counter() - self.paused

    def enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.now(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def exit(self):
        self.spans[self._stack.pop()][2] = self.now()

    def untimed(self, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.paused += time.perf_counter() - start

    def install(self, sb):
        self.missing = []
        for module_name, attr, span, hook in PLAN:
            module = importlib.import_module(f"{sb.__name__}.{module_name}")
            orig = getattr(module, attr, None)
            if orig is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(orig, span, hook))
            self._installed.append((module, attr, orig))

    def uninstall(self):
        for module, attr, orig in reversed(self._installed):
            setattr(module, attr, orig)
        self._installed = []

    def _wrap(self, orig, span, hook):
        sig = inspect.signature(orig)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.enter(span)
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                tracer.counts[f"{span}:{type(exc).__name__}"] += 1
                raise
            finally:
                tracer.exit()
            if hook is not None:
                tracer.untimed(tracer._run_hook, hook, span, sig, args,
                               kwargs, result)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _run_hook(self, hook, span, sig, args, kwargs, result):
        try:
            a = sig.bind(*args, **kwargs)
            a.apply_defaults()
            hook(self, a.arguments, result)
        except (AttributeError, KeyError, TypeError, ValueError, OSError) as exc:
            if not self.hook_errors[span]:
                print(f"trace hook for {span} failed: {exc!r}", file=sys.stderr)
            self.hook_errors[span] += 1

    def exact_spectral(self, M):
        M = np.ascontiguousarray(M, dtype=float)
        key = (M.shape, hashlib.sha256(M.data).hexdigest())
        if key not in self.exact_cache:
            A = M if M.shape[0] <= M.shape[1] else M.T
            top = np.linalg.eigvalsh(A @ A.T)[-1]
            self.exact_cache[key] = math.sqrt(max(float(top), 0.0))
        return self.exact_cache[key]


def _after_train(tr, a, report):
    m, d, n = a["params"].m, a["params"].d, a["ds"].n
    tr.counts["trainer.epochs"] += report.epochs_run
    tr.counts["trainer.batches"] += report.epochs_run * math.ceil(
        n / a["cfg"].batch_size)
    tr.counts["trainer.flop"] += 4 * m * d * n * report.epochs_run


def _after_forward(tr, a, out):
    p, X = a["params"], a["X"]
    tr.counts["trainer.flop"] += 2 * p.m * p.d * X.shape[1]


def _after_checkpoint_io(tr, a, _):
    tr.counts["model.checkpoint_bytes"] += os.path.getsize(a["path"])


def _after_spectral(tr, a, res):
    tr.counts["linalg.spectral_iterations"] += res.iterations
    tr.counts["linalg.spectral_unconverged"] += not res.converged
    exact = tr.exact_spectral(a["M"])
    if exact > 0:
        rel = abs(res.value - exact) / exact
        tr.counts["linalg.spectral_rel_err_max"] = max(
            tr.counts["linalg.spectral_rel_err_max"], rel)


def _after_rad(tr, a, est):
    d, n = a["X"].shape
    m = a["W0"].shape[0]
    cfg = a["cfg"]
    evals = est.samples * cfg.pga_restarts * cfg.pga_steps
    tr.counts["rademacher.sigma_vectors"] += est.samples
    tr.counts["rademacher.pga_evals"] += evals
    tr.counts["rademacher.flop"] += 4 * m * d * n * evals


def _after_figure(tr, a, _):
    for key in ("out_csv", "out_svg"):
        tr.counts["figures.bytes"] += os.path.getsize(a[key])


# (module of the caller, name looked up there, span name, hook)
PLAN = [
    ("cli", "load_task_dataset", "datasets.load", None),
    ("cli", "sgd_train", "trainer.sgd_train", _after_train),
    ("trainer", "zero_one_error", "trainer.eval", None),
    ("trainer", "ramp_risk", "trainer.eval", None),
    ("trainer", "forward", "model.forward", _after_forward),
    ("cli", "checkpoint_save", "model.checkpoint_save", _after_checkpoint_io),
    ("cli", "checkpoint_load", "model.checkpoint_load", _after_checkpoint_io),
    ("cli", "measure_report", "measures.measure_report", None),
    ("bounds", "measure_report", "measures.measure_report", None),
    ("measures", "init_activation_term", "measures.init_activation_term", None),
    ("measures", "spectral_norm", "linalg.spectral_norm", _after_spectral),
    ("bounds", "spectral_norm", "linalg.spectral_norm", _after_spectral),
    ("bounds", "all_bound_values", "bounds.all_bound_values", None),
    ("bounds", "class_bound_inputs", "bounds.class_bound_inputs", None),
    ("cli", "mc_rad_estimate", "rademacher.mc_rad_estimate", _after_rad),
    ("figures", "emit_figure", "figures.emit_figure", _after_figure),
]


def span_totals(spans):
    """Per span name: total seconds, self seconds (minus direct children), calls."""
    total, self_s, calls = defaultdict(float), defaultdict(float), Counter()
    for name, start, end, parent in spans:
        dur = end - start
        total[name] += dur
        self_s[name] += dur
        calls[name] += 1
        if parent >= 0:
            self_s[spans[parent][0]] -= dur
    return total, self_s, calls


def layer_metrics(tracer):
    """Per-layer metric values of one traced repetition (see README.md)."""
    total, self_s, calls = span_totals(tracer.spans)
    c = tracer.counts
    sgd = total["trainer.sgd_train"]
    rad = total["rademacher.mc_rad_estimate"]
    return {
        "trainer.sgd_train_s": sgd,
        "trainer.step_s": self_s["trainer.sgd_train"],
        "trainer.eval_s": total["trainer.eval"],
        "trainer.eval_calls": calls["trainer.eval"],
        "trainer.epochs": c["trainer.epochs"],
        "trainer.batches": c["trainer.batches"],
        "trainer.gflop": c["trainer.flop"] / 1e9,
        "trainer.gflops": c["trainer.flop"] / 1e9 / sgd if sgd else 0.0,
        "trainer.diverged": c["trainer.sgd_train:TrainingDiverged"],
        "model.forward_calls": calls["model.forward"],
        "model.forward_s": total["model.forward"],
        "model.checkpoint_save_s": total["model.checkpoint_save"],
        "model.checkpoint_load_s": total["model.checkpoint_load"],
        "model.checkpoint_load_calls": calls["model.checkpoint_load"],
        "model.checkpoint_bytes": c["model.checkpoint_bytes"],
        "datasets.load_calls": calls["datasets.load"],
        "datasets.load_s": total["datasets.load"],
        "measures.measure_report_calls": calls["measures.measure_report"],
        "measures.measure_report_s": total["measures.measure_report"],
        "measures.init_activation_term_s": total["measures.init_activation_term"],
        "measures.self_s": self_s["measures.measure_report"],
        "linalg.spectral_norm_calls": calls["linalg.spectral_norm"],
        "linalg.spectral_norm_s": total["linalg.spectral_norm"],
        "linalg.spectral_iterations": c["linalg.spectral_iterations"],
        "linalg.spectral_unconverged": c["linalg.spectral_unconverged"],
        "linalg.spectral_rel_err_max": float(c["linalg.spectral_rel_err_max"]),
        "bounds.all_bound_values_s": total["bounds.all_bound_values"],
        "bounds.self_s": self_s["bounds.all_bound_values"]
        + self_s["bounds.class_bound_inputs"],
        "bounds.class_bound_inputs_s": total["bounds.class_bound_inputs"],
        "rademacher.mc_rad_estimate_s": rad,
        "rademacher.sigma_vectors": c["rademacher.sigma_vectors"],
        "rademacher.pga_evals": c["rademacher.pga_evals"],
        "rademacher.gflop": c["rademacher.flop"] / 1e9,
        "rademacher.gflops": c["rademacher.flop"] / 1e9 / rad if rad else 0.0,
        "figures.emit_figure_s": total["figures.emit_figure"],
        "figures.bytes": c["figures.bytes"],
    }
