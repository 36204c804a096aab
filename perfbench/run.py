"""Benchmark of the snnbounds pipeline: one workload per run, one closed-loop client.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

A run sets up its inputs from the seed and runs the workload on them, both
repeated until ``--seconds`` are used and at least twice; the outputs are
checked after every repetition.  With ``--trace 1`` every second
repetition is traced and the per-layer metrics replace the end-to-end ones.
The workloads and metrics are documented in perfbench/README.md.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  The package is imported from ``src/`` next to this directory.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import checks as checks_mod  # noqa: E402  (siblings of this file)
import inputs  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("sweep", "analyze")
# Set-up is timed before every repetition, so that its samples spread over
# the run like the repetitions' and a short burst of machine load moves few.
SETUPS_PER_REP = 3
MIN_REPS = 2  # the determinism check compares repetitions of one run
# The CLI's model seed is fixed so that power iteration on W0 does the same
# work in every run; the workload seed draws the data (and perturbations).
MODEL_SEED = 0
SWEEP_WIDTHS = [64, 128, 256, 512, 1024]
ANALYZE_WIDTHS = [1024, 2048]
STAGES = ("train", "measure", "bounds", "figure", "rad")
# per-layer metrics that come from the output checks, not from spans
CHECK_LAYER_METRICS = ("rademacher.violations", "rademacher.tightness_mean",
                       "rademacher.tightness_min")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "tightness": "ratio"}
PER_LAYER = {
    "trainer.sgd_train_s": "s", "trainer.step_s": "s", "trainer.eval_s": "s",
    "trainer.eval_calls": "count", "trainer.epochs": "count",
    "trainer.batches": "count", "trainer.gflop": "GFLOP",
    "trainer.gflops": "GFLOP/s", "trainer.diverged": "count",
    "model.forward_calls": "count", "model.forward_s": "s",
    "model.checkpoint_save_s": "s", "model.checkpoint_load_s": "s",
    "model.checkpoint_load_calls": "count", "model.checkpoint_bytes": "bytes",
    "datasets.load_calls": "count", "datasets.load_s": "s",
    "measures.measure_report_calls": "count", "measures.measure_report_s": "s",
    "measures.init_activation_term_s": "s", "measures.self_s": "s",
    "linalg.spectral_norm_calls": "count", "linalg.spectral_norm_s": "s",
    "linalg.spectral_iterations": "count",
    "linalg.spectral_unconverged": "count",
    "linalg.spectral_rel_err_max": "ratio",
    "bounds.all_bound_values_s": "s", "bounds.self_s": "s",
    "bounds.class_bound_inputs_s": "s",
    "rademacher.mc_rad_estimate_s": "s", "rademacher.sigma_vectors": "count",
    "rademacher.pga_evals": "count", "rademacher.gflop": "GFLOP",
    "rademacher.gflops": "GFLOP/s", "rademacher.violations": "count",
    "rademacher.tightness_mean": "ratio", "rademacher.tightness_min": "ratio",
    "figures.emit_figure_s": "s", "figures.bytes": "bytes",
    "cli.train_s": "s", "cli.measure_s": "s", "cli.bounds_s": "s",
    "cli.figure_s": "s", "cli.rad_s": "s", "cli.configs_per_s": "1/s",
    "trace.wall_s": "s", "trace.overhead_frac": "ratio",
    "check.failed_frac": "ratio",
}


class Sweep:
    """train -> measure -> bounds -> figure, as a user runs the pipeline."""

    widths = SWEEP_WIDTHS

    def __init__(self, sb, seed, work):
        self.sb, self.seed = sb, seed
        self.data = os.path.join(work, "data")
        self.out = os.path.join(work, "out")

    def setup(self):
        inputs.write_mnist_dir(self.data, self.seed)

    def flags(self):
        return ["--dataset", "mnist", "--mnist-dir", self.data, "--out", self.out,
                "--widths", ",".join(map(str, self.widths)),
                "--seeds", str(MODEL_SEED)]

    def stages(self):
        shutil.rmtree(self.out, ignore_errors=True)
        flags = self.flags()
        # target error 0 never stops early, so every run trains 3 epochs per cell
        return [("train", ["train", *flags, "--max-epochs", "3",
                           "--target-train-error", "0"]),
                ("measure", ["measure", *flags]),
                ("bounds", ["bounds", *flags]),
                ("figure", ["figure", "--out", self.out])]

    def check(self, checks):
        manifest = os.path.join(self.out, "manifest.json")
        if checks.check(os.path.exists(manifest), "train wrote no manifest.json"):
            with open(manifest) as f:
                failures = json.load(f)["failures"]
            checks.check(not failures, f"training failures: {failures}")
        return self.check_cells(checks)

    def check_cells(self, checks):
        hashes, tightness = checks_mod.check_cells(
            checks, self.out, "mnist", MODEL_SEED, self.widths)
        return hashes, {"tightness": tightness}


class Analyze(Sweep):
    """measure -> bounds -> figure on checkpoints written by set-up, then the
    ``rad`` probes; no training."""

    widths = ANALYZE_WIDTHS

    def __init__(self, sb, seed, work):
        super().__init__(sb, seed, work)
        self.rad = RadProbes(sb, seed, work)

    def setup(self):
        inputs.write_mnist_dir(self.data, self.seed)
        inputs.write_checkpoints(self.sb, self.out, self.seed, MODEL_SEED,
                                 self.widths)
        self.rad.setup()

    def stages(self):
        for name in ("measures.csv", "bounds.csv", "fig*.csv", "fig*.svg"):
            for path in glob.glob(os.path.join(self.out, name)):
                os.remove(path)
        flags = self.flags()
        return [("measure", ["measure", *flags]),
                ("bounds", ["bounds", *flags]),
                ("figure", ["figure", "--out", self.out]),
                *self.rad.stages()]

    def check(self, checks):
        hashes, extra = self.check_cells(checks)
        rad_hashes, rad_extra = self.rad.check(checks)
        return {**hashes, **rad_hashes}, {**extra, **rad_extra}


class RadProbes:
    """One ``rad`` probe per seeded tiny instance, default PGA budget."""

    def __init__(self, sb, seed, work):
        self.sb, self.seed, self.work = sb, seed, work
        self.out = os.path.join(work, "rad")

    def setup(self):
        self.configs = inputs.rad_configs(self.seed)
        os.makedirs(self.work, exist_ok=True)
        # one small probe lets numpy's first-call costs land in set-up
        self.sb.cli.main(["rad", "--n", "2", "--d", "1", "--m", "1",
                          "--out-csv", os.path.join(self.work, "warmup.csv")])

    def paths(self):
        return [os.path.join(self.out, f"rad{i:02d}.csv")
                for i in range(len(self.configs))]

    def stages(self):
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        return [("rad", ["rad", "--n", str(c["n"]), "--d", str(c["d"]),
                         "--m", str(c["m"]), "--rw", repr(c["rw"]),
                         "--rv", repr(c["rv"]), "--seed", str(c["seed"]),
                         "--out-csv", path])
                for c, path in zip(self.configs, self.paths())]

    def check(self, checks):
        hashes, ratios, violations = checks_mod.check_rad(checks, self.paths())
        nan = float("nan")
        return hashes, {
            "rademacher.tightness_mean": statistics.fmean(ratios) if ratios else nan,
            "rademacher.tightness_min": min(ratios, default=nan),
            "rademacher.violations": violations}


WORKLOAD_CLASSES = {"sweep": Sweep, "analyze": Analyze}


def run_stages(cli, stages, tracer):
    """Run the stages in order; returns (wall seconds, seconds per stage, exit codes)."""
    clock = tracer.now if tracer else time.perf_counter
    seconds, codes = dict.fromkeys(STAGES, 0.0), []
    begin = clock()
    for name, argv in stages:
        start = clock()
        if tracer:
            tracer.enter(f"cli.{name}")
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed stage; the run goes on to report it
            traceback.print_exc()
            rc = "exception"
        finally:
            if tracer:
                tracer.exit()
        seconds[name] += clock() - start
        codes.append((name, rc))
    return clock() - begin, seconds, codes


def measure(sb, workload, seconds, trace, checks):
    """Repeat set-up and workload until ``seconds`` are used.

    Returns (repetitions, set-up seconds, tracer).
    """
    tracer = tracing.Tracer() if trace else None
    reps, setup_s = [], []
    begin = time.perf_counter()
    while True:
        for _ in range(SETUPS_PER_REP):
            start = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - start)
        traced = trace and len(reps) % 2 == 1
        stages = workload.stages()
        if traced:
            tracer.reset()
            tracer.install(sb)
        try:
            wall, stage_s, codes = run_stages(sb.cli, stages, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        for name, rc in codes:
            checks.check(rc == 0, f"{name} exited with {rc}")
        hashes, extra = workload.check(checks)
        if reps:
            checks.check(hashes == reps[0]["hashes"],
                         f"repetition {len(reps)}: outputs differ from repetition 0")
        rep = {"traced": traced, "wall_s": wall, "stage_s": stage_s,
               "hashes": hashes, "extra": extra}
        if traced:
            rep["layers"] = tracing.layer_metrics(tracer)
            rep["layers"].update({k: extra.get(k, 0) for k in CHECK_LAYER_METRICS})
            rep["spans"] = tracer.spans
        reps.append(rep)
        elapsed = time.perf_counter() - begin
        typical = statistics.median(r["wall_s"] for r in reps)
        if len(reps) >= MIN_REPS and elapsed + typical > seconds:
            return reps, setup_s, tracer


def end_to_end_metrics(reps, setup_s):
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "tightness": reps[0]["extra"]["tightness"],
    }


def per_layer_metrics(reps, checks, n_configs):
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    metrics = {k: statistics.median(r["layers"][k] for r in traced)
               for k in traced[0]["layers"]}
    for name in STAGES:
        metrics[f"cli.{name}_s"] = statistics.median(r["stage_s"][name] for r in plain)
    rad_s = metrics["cli.rad_s"]
    metrics["cli.configs_per_s"] = n_configs / rad_s if rad_s else 0.0
    metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / statistics.median(
        r["wall_s"] for r in plain) - 1.0
    metrics["check.failed_frac"] = checks.failed / checks.attempted
    return metrics


def blas_info():
    """(OpenBLAS config string, BLAS thread count) of the loaded library, or Nones."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f
                       if "openblas" in line.rsplit("/", 1)[-1].lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads and config:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    return config().decode(), threads()
    return None, None


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_sha256():
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def provenance(args, np):
    blas_config, blas_threads = blas_info()
    return {"git_commit": git_commit(), "src_sha256": src_sha256(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "numpy": np.__version__, "openblas": blas_config,
            "blas_threads": blas_threads,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}


def import_package():
    if not os.path.isfile(os.path.join(SRC, "snnbounds", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import numpy as np
    import snnbounds
    import snnbounds.cli
    if os.path.dirname(os.path.abspath(snnbounds.__file__)) != os.path.join(SRC, "snnbounds"):
        return None
    return snnbounds, np


def run_one(args):
    found = import_package()
    if found is None:
        print(f"snnbounds sources not found under {SRC}", file=sys.stderr)
        return 2
    sb, np = found
    work = os.path.join(HERE, "_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        workload = WORKLOAD_CLASSES[args.workload](sb, args.seed, work)
        checks = checks_mod.Checks()
        reps, setup_s, tracer = measure(sb, workload, args.seconds, args.trace,
                                        checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run still uses it
            pass
    if args.trace:
        n_rad = len(workload.rad.configs) if isinstance(workload, Analyze) else 0
        metrics = per_layer_metrics(reps, checks, n_rad)
        units = PER_LAYER
        if tracer.missing:
            print(f"not traced, names absent: {', '.join(tracer.missing)}", file=sys.stderr)
    else:
        metrics = end_to_end_metrics(reps, setup_s)
        units = END_TO_END
    prov = provenance(args, np)
    write_record(args, prov, reps, setup_s, metrics)
    print(f"{args.workload}: {len(reps)} repetitions, {checks.attempted} checks, "
          f"{checks.failed} failed, failed_frac {checks.failed / checks.attempted:.6g}")
    for name, unit in units.items():
        print(f"{args.workload} {name} {metrics[name]:.6g} {unit}")
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed,
                      "metrics": {k: {"value": metrics[k], "unit": u}
                                  for k, u in units.items()}}))
    return 0


def write_record(args, prov, reps, setup_s, metrics):
    """Full record of the run (spans included) under perfbench/results/."""
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"provenance": prov, "setup_s": setup_s, "metrics": metrics,
                   "reps": reps}, f, indent=1, sort_keys=True)


def run_all(args):
    """Each workload in its own process, so that peak RSS is per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
