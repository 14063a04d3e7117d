#!/usr/bin/env python3
"""Benchmark for the gatedfusion package.

    python3 bench/run.py --workload ablation_train --seed 1 --seconds 40 --trace 0

Runs one workload in this process against the package source in `src/` and
prints a report; its last line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones (END_TO_END), measured untraced. With `--trace 1` untraced
and traced iterations alternate, and the metrics are the per-layer ones
(PER_LAYER) from the traced iterations plus the tracing overhead. Without
`--workload` every workload runs, each in a fresh process.

Full results, and in traced runs every span, go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# numpy, and the package through it, is imported only inside functions:
# main() has to pin the BLAS threads before numpy loads
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# BENCHMARK.json lists the first two; wide_train is run by hand (see README.md)
WORKLOAD_NAMES = ("ablation_train", "cli_pipeline", "wide_train")
# set-up repeats: at least SETUP_MIN_REPEATS, and more while under SETUP_MIN_S
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 50
SETUP_MIN_S = 1.5

# name -> unit; emitted on every workload with --trace 0
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# tape op kinds of gatedfusion.tensor
OP_KINDS = ("matmul", "add", "mul", "scale", "row_scale", "sigmoid", "relu", "concat_cols",
            "slice_cols", "transpose", "softmax_rows", "layernorm_rows", "row_broadcast_mul",
            "sum_all", "cross_entropy")
CLI_SUBCOMMANDS = ("generate", "evaluate", "analyze-gating", "gradcheck")

# name -> unit; emitted on every workload with --trace 1 (0 where a layer is not entered)
PER_LAYER = {
    "tensor.ops_per_sample": "count",
    "tensor.tapes_per_sample": "count",
    **{f"tensor.ops_by_kind.{k}": "count" for k in OP_KINDS},
    "tensor.backward_ms_per_sample": "ms",
    "model.forward_ms_per_sample": "ms",
    "model.self_ms_per_sample": "ms",
    "gating.gate_ms_per_sample": "ms",
    "encoder.forward_ms_per_sample": "ms",
    "sequence.pool_ms_per_sample": "ms",
    "sequence.valid_row_ratio": "ratio",
    "trainer.optimizer_ms_per_step": "ms",
    "trainer.evaluate_ms_per_sample": "ms",
    "synth.generate_ms_per_sample": "ms",
    "synth.oracle_ms_per_sample": "ms",
    "corpus_io.write_ms": "ms",
    "corpus_io.read_ms": "ms",
    "corpus_io.bytes": "bytes",
    "checkpoint.save_ms": "ms",
    "checkpoint.load_ms": "ms",
    "checkpoint.bytes": "bytes",
    "analysis.collect_traces_ms_per_sample": "ms",
    "analysis.gate_studies_ms": "ms",
    "analysis.metrics_ms": "ms",
    "plots.svg_ms_per_trace": "ms",
    "plots.svg_bytes_per_trace": "bytes",
    **{f"cli.{c}.self_ms": "ms" for c in CLI_SUBCOMMANDS},
    "diagnostics.loss_evals": "count",
    "diagnostics.ms_per_loss_eval": "ms",
    "trace_overhead_pct": "%",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: run every workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0, help="length of the timed part")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def named_metrics(stats, setup_s, iter_s, rss_mb) -> dict[str, tuple[float, str, str]]:
    """The end-to-end metrics a workload has, by their user-facing names:
    name -> (value, unit, how it was aggregated)."""
    n_iter = len(iter_s)
    out = {
        "setup_s": (statistics.median(setup_s), "s", f"median of {len(setup_s)} set-ups"),
        # slow spells on a shared host outlast an iteration, so the whole timed
        # region per iteration varies less from run to run than the median iteration
        "wall_s": (sum(iter_s) / n_iter, "s", f"timed region over {n_iter} iterations"),
    }
    if "train" in stats.work:
        samples, seconds = stats.work["train"]
        out["train_samples_per_s"] = (samples / seconds, "1/s", f"{samples} samples")
        steps = [s * 1e3 for s in stats.step_s]
        out["step_ms_p50"] = (percentile(steps, 50), "ms", f"n={len(steps)} steps")
        out["step_ms_p90"] = (percentile(steps, 90), "ms", f"n={len(steps)} steps")
    if "eval" in stats.work:
        samples, seconds = stats.work["eval"]
        out["eval_samples_per_s"] = (samples / seconds, "1/s", f"{samples} samples")
    if "gradcheck" in stats.work:
        calls, seconds = stats.work["gradcheck"]
        out["gradcheck_s"] = (seconds / calls, "s", f"mean of {calls} gradcheck subcommands")
    out["peak_rss_mb"] = (rss_mb, "MB", "whole process")
    out["ops_attempted"] = (stats.attempted, "count", "whole run")
    out["ops_failed_ratio"] = (stats.failed / max(stats.attempted, 1), "ratio", "whole run")
    return out


def layer_metrics(tr, setup_tr, overhead_pct: float) -> dict[str, float]:
    """PER_LAYER values from the traced iterations (and the traced set-up)."""
    agg, facts = tr.summary(), tr.facts

    def calls(name, source=agg):
        return source.get(name, {}).get("calls", 0)

    def ms(name, key="total_s", source=agg):
        return source.get(name, {}).get(key, 0.0) * 1e3

    def per(x, n):
        return x / n if n else 0.0

    samples = calls("model.forward")
    if facts.get("pad_batch.rows_fed"):
        valid, fed = facts["pad_batch.valid_rows"], facts["pad_batch.rows_fed"]
    else:
        valid, fed = facts.get("forward.valid_rows", 0), facts.get("forward.rows_fed", 0)
    setup_agg = setup_tr.summary()
    gradchecks = agg.get("diagnostics.gradcheck", {})
    return {
        "tensor.ops_per_sample": per(tr.ops, samples),
        "tensor.tapes_per_sample": per(tr.tapes, samples),
        **{f"tensor.ops_by_kind.{k}": per(tr.op_kinds[k], samples) for k in OP_KINDS},
        "tensor.backward_ms_per_sample": per(ms("tensor.backward"), samples),
        "model.forward_ms_per_sample": per(ms("model.forward"), samples),
        "model.self_ms_per_sample": per(ms("model.forward", "self_s"), samples),
        "gating.gate_ms_per_sample": per(ms("gating.gate") + ms("gating.refine"), samples),
        "encoder.forward_ms_per_sample": per(ms("encoder.forward"), samples),
        "sequence.pool_ms_per_sample": per(ms("sequence.pool"), samples),
        "sequence.valid_row_ratio": per(valid, fed),
        "trainer.optimizer_ms_per_step": per(ms("trainer.optimizer"), calls("trainer.optimizer")),
        "trainer.evaluate_ms_per_sample": per(ms("trainer.evaluate"), facts.get("evaluate.samples", 0)),
        "synth.generate_ms_per_sample": per(ms("synth.generate"), facts.get("generate.samples", 0)),
        "synth.oracle_ms_per_sample": per(ms("synth.oracle"), facts.get("oracle.samples", 0)),
        "corpus_io.write_ms": per(ms("corpus_io.write"), calls("corpus_io.write")),
        "corpus_io.read_ms": per(ms("corpus_io.read"), calls("corpus_io.read")),
        "corpus_io.bytes": per(facts.get("corpus_io.bytes", 0), calls("corpus_io.write")),
        "checkpoint.save_ms": per(ms("checkpoint.save", source=setup_agg),
                                  calls("checkpoint.save", setup_agg)),
        "checkpoint.load_ms": per(ms("checkpoint.load"), calls("checkpoint.load")),
        "checkpoint.bytes": per(setup_tr.facts.get("checkpoint.save_bytes", 0),
                                calls("checkpoint.save", setup_agg)),
        "analysis.collect_traces_ms_per_sample": per(ms("analysis.collect_traces"),
                                                     facts.get("collect_traces.samples", 0)),
        "analysis.gate_studies_ms": per(ms("analysis.gate_studies"), calls("cli.analyze-gating")),
        "analysis.metrics_ms": per(ms("analysis.metrics"), calls("analysis.metrics")),
        "plots.svg_ms_per_trace": per(ms("plots.svg"), calls("plots.svg")),
        "plots.svg_bytes_per_trace": per(facts.get("svg.bytes", 0), calls("plots.svg")),
        **{f"cli.{c}.self_ms": per(ms(f"cli.{c}", "self_s"), calls(f"cli.{c}")) for c in CLI_SUBCOMMANDS},
        "diagnostics.loss_evals": per(gradchecks.get("tapes", 0), gradchecks.get("calls", 0)),
        "diagnostics.ms_per_loss_eval": per(ms("diagnostics.gradcheck"), gradchecks.get("tapes", 0)),
        "trace_overhead_pct": overhead_pct,
    }


def run_workload(args, workdir: Path) -> tuple[dict, list[str]]:
    """Set up, warm up, time and verify one workload; returns (result, report lines)."""
    from tracer import Tracer
    from workloads import WORKLOADS, Stats

    wl = WORKLOADS[args.workload]()
    stats = Stats()
    setup_tracer = Tracer()
    setup_s = []
    while len(setup_s) < SETUP_MIN_REPEATS or (sum(setup_s) < SETUP_MIN_S
                                                and len(setup_s) < SETUP_MAX_REPEATS):
        gc.collect()
        t0 = perf_counter()
        wl.setup(args.seed, workdir)
        setup_s.append(perf_counter() - t0)
    if args.trace:
        # one more, traced, so set-up times stay clean
        setup_tracer.install()
        try:
            wl.setup(args.seed, workdir)
        finally:
            setup_tracer.uninstall()

    reference = wl.warmup(stats)
    stats.reset_timings()

    tracer = Tracer()
    iter_s = {False: [], True: []}
    start = perf_counter()
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        # the same collector state at every start keeps iterations comparable
        gc.collect()
        if traced:
            tracer.iteration = i
            tracer.install()
        t0 = perf_counter()
        try:
            sig = wl.iterate(stats)
        finally:
            tracer.uninstall()
        iter_s[traced].append(perf_counter() - t0)
        if reference is None:
            reference = sig
        elif repr(sig) != repr(reference):
            bad = sum(repr(a) != repr(b) for a, b in zip(sig, reference))
            stats.fail(max(bad, 1), f"iteration {i} results differ from the first iteration "
                                    f"(traced={traced}): {sig!r} vs {reference!r}")
        i += 1
        elapsed = perf_counter() - start
        # stop once another iteration would end over half an iteration late
        if elapsed + 0.5 * elapsed / i >= args.seconds and (not args.trace or iter_s[True]):
            break

    for check, ok, detail in wl.verify():
        stats.attempted += 1
        if not ok:
            stats.fail(1, f"{check}: {detail}")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "setup_s": setup_s, "iteration_s": iter_s[False], "traced_iteration_s": iter_s[True],
              "problems": stats.problems}
    if args.trace:
        overhead = 100.0 * (statistics.median(iter_s[True]) / statistics.median(iter_s[False]) - 1.0)
        metrics = layer_metrics(tracer, setup_tracer, overhead)
        result["trace"] = tracer.dump()
        result["setup_trace"] = setup_tracer.summary()
        lines = [f"  {name:<40s} {value:>14.6g} {PER_LAYER[name]}" for name, value in metrics.items()]
        n = len(iter_s[True])
        lines.append("  spans, per traced iteration:")
        for name, agg in sorted(result["trace"]["by_name"].items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"    {name:<28s} self {1e3 * agg['self_s'] / n:10.2f} ms  "
                         f"total {1e3 * agg['total_s'] / n:10.2f} ms  calls {agg['calls'] / n:g}")
    else:
        named = named_metrics(stats, setup_s, iter_s[False], rss_mb)
        result["named"] = {k: {"value": v, "unit": u, "aggregate": h} for k, (v, u, h) in named.items()}
        lines = [f"  {name:<22s} {value:>14.6g} {unit:<6s} {how}" for name, (value, unit, how) in named.items()]
        samples, seconds = stats.work[wl.rate]
        metrics = {
            "setup_s": named["setup_s"][0],
            "wall_s": named["wall_s"][0],
            "samples_per_s": samples / seconds,
            "peak_rss_mb": rss_mb,
        }
    result["metrics"] = {k: {"value": v, "unit": (END_TO_END | PER_LAYER)[k]} for k, v in metrics.items()}
    result["attempted"], result["failed"] = stats.attempted, stats.failed
    result["correct"] = stats.failed == 0 and not stats.problems
    return result, lines


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    rc = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        rc |= subprocess.run(cmd, check=False).returncode
    return rc


def main(argv=None) -> int:
    args = parse_args(argv)
    # one BLAS thread, set before numpy loads, so BLAS threading adds no run-to-run noise
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.workload is None:
        return run_all(args)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gatedfusion
    except ImportError as e:
        print(f"cannot import gatedfusion from {src}: {e}", file=sys.stderr)
        return 2
    if not Path(gatedfusion.__file__).resolve().is_relative_to(src):
        print(f"gatedfusion imported from {gatedfusion.__file__}, not from {src}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        result, lines = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(result))

    env = result["environment"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print("\n".join(lines))
    for problem in result["problems"]:
        print("problem: " + problem.rstrip().replace("\n", "\n  "))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
