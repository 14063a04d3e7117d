"""Command-line entry point: generate / train / evaluate / analyze-gating / gradcheck.

Configuration comes from JSON files mirroring the config dataclasses; unknown
keys are rejected. Flags override file values, and the effective config is
echoed into the output directory for provenance. Every subcommand is
deterministic given config + seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .analysis import (
    collect_traces,
    gate_diagnostic_alignment,
    gate_energy_correlation,
    kfold,
    metrics,
)
from .atomic import atomic_write
from .checkpoint import load_model, save_model
from .corpus_io import read_corpus, write_corpus
from .diagnostics import full_model_gradcheck
from .errors import ConfigError, GatedFusionError, ManifestError, from_dict
from .gating import GatingMode
from .model import FusionModel, ModelConfig
from .plots import export_trace_plot
from .synth import SynthSpec, bayes_oracle_accuracy, generate, model_inputs
from .trainer import TrainConfig, evaluate as eval_pairs, make_optimizer, train


def _load_json(path: str) -> dict:
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return data


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {path}: {e}") from e


def _write_json(path: str, payload: dict) -> None:
    with atomic_write(path) as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with atomic_write(path, newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def cmd_generate(args) -> int:
    if args.oracle < 0:
        raise ConfigError(f"--oracle must be >= 0, got {args.oracle}")
    spec_dict = _load_json(args.spec) if args.spec else {}
    if args.seed is not None:
        spec_dict["seed"] = args.seed
    spec = from_dict(SynthSpec, spec_dict, "synth spec")
    corpus = generate(spec)
    write_corpus(corpus, args.out)
    _write_json(os.path.join(args.out, "effective_config.json"), {"synth": spec.to_dict()})

    with open(os.path.join(args.out, "manifest.json")) as f:
        checksum = json.load(f)["blob_sha256"]
    counts = np.bincount(corpus.labels(), minlength=corpus.n_classes)
    lens_a = [len(s.acoustic) for s in corpus.samples]
    lens_t = [len(s.textual) for s in corpus.samples]
    print(f"wrote corpus of {len(corpus.samples)} samples to {args.out}")
    print(f"blob sha256: {checksum}")
    for name, c in zip(corpus.class_names, counts):
        print(f"  class {name}: {c} samples")
    print(f"  acoustic length: min {min(lens_a)} max {max(lens_a)} mean {np.mean(lens_a):.1f}")
    print(f"  textual length:  min {min(lens_t)} max {max(lens_t)} mean {np.mean(lens_t):.1f}")
    if args.oracle:
        report = bayes_oracle_accuracy(spec, n_eval=args.oracle)
        print(f"bayes oracle accuracy: revealed {report.revealed:.4f} "
              f"marginalized {report.marginalized:.4f} (n={report.n_eval})")
    return 0


def _configs(args, corpus) -> tuple[ModelConfig, TrainConfig]:
    """Model and train configs: the --config file, the corpus widths, then flag overrides."""
    cfg = _load_json(args.config) if args.config else {}
    unknown = sorted(set(cfg) - {"model", "train"})
    if unknown:
        raise ConfigError(f"config file: unknown top-level keys {unknown}; expected 'model'/'train'")
    model_dict, train_dict = cfg.get("model", {}), cfg.get("train", {})
    if not (isinstance(model_dict, dict) and isinstance(train_dict, dict)):
        raise ConfigError("config file: 'model' and 'train' must be JSON objects")
    model_dict.setdefault("d_a", corpus.d_a)
    model_dict.setdefault("d_t", corpus.d_t)
    model_dict.setdefault("n_classes", corpus.n_classes)
    if args.gating_mode:
        model_dict["gating_mode"] = args.gating_mode
    if args.seed is not None:
        model_dict["seed"] = args.seed
        train_dict["seed"] = args.seed
    return (from_dict(ModelConfig, model_dict, "model config"),
            from_dict(TrainConfig, train_dict, "train config"))


def cmd_train(args) -> int:
    corpus = read_corpus(args.corpus)
    model_cfg, train_cfg = _configs(args, corpus)

    start_epoch = 0
    if args.resume:
        model, ckpt = load_model(args.resume)
        if model.cfg.to_dict() != model_cfg.to_dict():
            raise ConfigError("resume checkpoint config does not match requested config")
        saved = ckpt.meta.get("train")
        if isinstance(saved, dict) and saved.get("optimizer", train_cfg.optimizer) != train_cfg.optimizer:
            raise ConfigError(f"resume checkpoint was trained with optimizer {saved['optimizer']!r}, "
                              f"not {train_cfg.optimizer!r}")
        optimizer = make_optimizer(model, train_cfg)
        opt_state = {k[len("opt."):]: v for k, v in ckpt.arrays.items() if k.startswith("opt.")}
        if opt_state:
            optimizer.load_state(opt_state)
        start_epoch = ckpt.meta.get("epochs_done", 0)
        if type(start_epoch) is not int or not 0 <= start_epoch <= train_cfg.epochs:
            raise ManifestError(f"{args.resume}: meta.epochs_done must be an integer in "
                                f"[0, {train_cfg.epochs}], got {start_epoch!r}")
    else:
        model = FusionModel(model_cfg)
        optimizer = make_optimizer(model, train_cfg)

    _make_out_dir(args.out)
    pairs = [model_inputs(s) for s in corpus.samples]
    result = train(model, pairs, train_cfg, start_epoch=start_epoch, optimizer=optimizer)

    ckpt_path = os.path.join(args.out, "checkpoint.gfck")
    save_model(model, ckpt_path, optimizer_state=optimizer.state_arrays(),
               meta={"epochs_done": train_cfg.epochs, "train": train_cfg.to_dict()})
    _write_csv(
        os.path.join(args.out, "history.csv"),
        ["epoch", "train_loss"],
        [[h["epoch"], repr(h["train_loss"])] for h in result.history],
    )
    _write_json(os.path.join(args.out, "effective_config.json"),
                {"model": model_cfg.to_dict(), "train": train_cfg.to_dict()})
    final = result.history[-1]["train_loss"] if result.history else float("nan")
    print(f"trained {train_cfg.epochs - start_epoch} epochs; final train loss {final:.4f}")
    print(f"checkpoint: {ckpt_path}")
    return 0


def cmd_evaluate(args) -> int:
    if args.kfold is not None:
        mode, unused = "--kfold", {"--checkpoint": args.checkpoint}
    elif args.checkpoint:
        mode, unused = "--checkpoint", {"--config": args.config, "--gating-mode": args.gating_mode,
                                        "--seed": args.seed}
    else:
        raise ConfigError("evaluate needs --checkpoint or --kfold K")
    for flag, value in unused.items():
        if value is not None:
            raise ConfigError(f"evaluate {mode} does not use {flag}")
    corpus = read_corpus(args.corpus)
    if args.kfold is not None:
        model_cfg, train_cfg = _configs(args, corpus)
        _make_out_dir(args.out)
        report = kfold(corpus, args.kfold, train_cfg, model_cfg)
        _write_json(os.path.join(args.out, "report.json"), report.to_dict())
        _write_csv(
            os.path.join(args.out, "folds.csv"),
            ["fold", "accuracy", "macro_f1", "macro_precision", "macro_recall"],
            [[f.fold, repr(f.metrics.accuracy), repr(f.metrics.macro_f1),
              repr(f.metrics.macro_precision), repr(f.metrics.macro_recall)]
             for f in report.folds],
        )
        _write_json(os.path.join(args.out, "effective_config.json"),
                    {"model": model_cfg.to_dict(), "train": train_cfg.to_dict(),
                     "kfold": args.kfold})
        print(f"{args.kfold}-fold accuracy: {report.mean_accuracy:.4f} "
              f"+/- {report.std_accuracy:.4f} (macro F1 {report.mean_macro_f1:.4f})")
    else:
        model, _ = load_model(args.checkpoint)
        if model.cfg.n_classes != corpus.n_classes:
            raise ConfigError(f"checkpoint {args.checkpoint} has {model.cfg.n_classes} classes, "
                              f"corpus {args.corpus} has {corpus.n_classes}")
        _make_out_dir(args.out)
        _, _, preds = eval_pairs(model, [model_inputs(s) for s in corpus.samples])
        m = metrics(preds, corpus.labels(), corpus.n_classes)
        _write_json(os.path.join(args.out, "report.json"), m.to_dict())
        _write_csv(
            os.path.join(args.out, "report.csv"),
            ["class", "precision", "recall", "f1", "support"],
            [[c["class"], repr(c["precision"]), repr(c["recall"]), repr(c["f1"]), c["support"]]
             for c in m.per_class],
        )
        print(f"accuracy {m.accuracy:.4f} macro F1 {m.macro_f1:.4f}")
    return 0


def cmd_analyze_gating(args) -> int:
    if args.samples < 0:
        raise ConfigError(f"--samples must be >= 0, got {args.samples}")
    corpus = read_corpus(args.corpus)
    model, _ = load_model(args.checkpoint)
    _make_out_dir(args.out)
    traces = collect_traces(model, corpus.samples)

    corr = gate_energy_correlation(traces)
    rows = [
        [corpus.class_names[c] if c < len(corpus.class_names) else str(c),
         "" if r is None else repr(r)]
        for c, r in sorted(corr.per_class.items())
    ]
    rows.append(["overall", "" if corr.overall is None else repr(corr.overall)])
    _write_csv(os.path.join(args.out, "gate_energy_correlation.csv"), ["class", "pearson_r"], rows)
    for name, r in rows:
        print(f"gate-energy r [{name}]: {r if r else 'undefined (zero variance)'}")

    if any(t.diag_a is not None for t in traces):
        alignment = gate_diagnostic_alignment(traces)
        _write_json(os.path.join(args.out, "gate_alignment.json"), alignment.to_dict())
        a, t = ("undefined" if r is None else f"{r:.4f}" for r in (alignment.auroc_a, alignment.auroc_t))
        print(f"gate-vs-diagnostic AUROC: acoustic {a} textual {t}")

    for trace in traces[: args.samples]:
        export_trace_plot(trace, os.path.join(args.out, f"trace_{trace.sample_id:05d}.svg"))
    print(f"wrote {min(args.samples, len(traces))} trace plots to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    modes = ([GatingMode(args.mode)] if args.mode != "all"
             else [GatingMode.NONE, GatingMode.UNIMODAL, GatingMode.CROSS_MODAL])
    ok = True
    for mode in modes:
        report = full_model_gradcheck(mode, step=args.step, tol=args.tol)
        print(f"== gating mode: {mode.value} ==")
        print(report)
        print(f"worst relative error: {report.worst:.3e} (tol {args.tol:g})")
        ok = ok and report.passed
    print("gradcheck PASSED" if ok else "gradcheck FAILED")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gatedfusion")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic corpus")
    p.add_argument("--spec", help="JSON file with SynthSpec fields")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--oracle", type=int, default=0,
                   help="also report bayes oracle accuracy over N fresh samples")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a model on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--config", help="JSON file with 'model' and 'train' sections")
    p.add_argument("--out", required=True)
    p.add_argument("--gating-mode", choices=[m.value for m in GatingMode])
    p.add_argument("--seed", type=int)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint or run k-fold")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--kfold", type=int)
    p.add_argument("--config", help="JSON config (k-fold mode only)")
    p.add_argument("--gating-mode", choices=[m.value for m in GatingMode], help="k-fold mode only")
    p.add_argument("--seed", type=int, help="k-fold mode only")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze-gating", help="gate/energy correlation and trace plots")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, default=4, help="number of SVG traces to emit")
    p.set_defaults(func=cmd_analyze_gating)

    p = sub.add_parser("gradcheck", help="finite-difference check of all parameter groups")
    p.add_argument("--mode", default="all",
                   choices=["all"] + [m.value for m in GatingMode])
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--step", type=float, default=1e-5)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GatedFusionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
