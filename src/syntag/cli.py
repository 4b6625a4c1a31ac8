"""Command-line interface.

Exit codes: 0 on success, 1 on usage errors, 2 on data or contract errors,
3 when a numerical abort stops a run.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .data import (decode_label_spans, encode_label_spans, parse_corpus,
                   write_corpus)
from .errors import ContractError, NumericalError, SyntagError
from .evaluation import entity_f1, gate_histogram, gate_mean, histogram_csv
from .gradcheck import check_model_variant
from .model import DROPS, VARIANTS, ModelConfig
from .recurrent import GATE_NAMES
from .synthetic import generate_corpus
from .training import (build_model, load_checkpoint, prepare_corpus,
                       save_checkpoint, train)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this tool reserves 2 for
    data errors, so usage problems are remapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="syntag",
                     description="Train and analyze syntax-aware taggers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and save a checkpoint")
    p.add_argument("--config", required=True, help="model configuration file")
    p.add_argument("--train", required=True, dest="train_file",
                   help="training corpus (TSV)")
    p.add_argument("--dev", required=True, help="development corpus (TSV)")
    p.add_argument("--out", required=True, help="checkpoint output path")

    p = sub.add_parser("eval", help="score a checkpoint on a corpus")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="corpus to score (TSV)")
    p.add_argument("--report", help="also write the breakdown as CSV here")

    p = sub.add_parser("predict", help="tag a corpus with a checkpoint")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="corpus to tag (TSV)")
    p.add_argument("--out", required=True, help="output corpus path")

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of every variant")
    p.add_argument("--config", required=True, help="model configuration file")
    p.add_argument("--tol", type=float, default=1e-4,
                   help="maximum relative error allowed (default 1e-4)")

    p = sub.add_parser("analyze-gates",
                       help="histogram one gate's activations over a corpus")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="corpus to trace (TSV)")
    p.add_argument("--gate", default="m", choices=GATE_NAMES,
                   help="gate to histogram (default m)")
    p.add_argument("--out", required=True, help="CSV output path")

    p = sub.add_parser("compare-trees",
                       help="train per tree source and compare test scores")
    p.add_argument("--config", required=True, help="model configuration file")
    p.add_argument("--data", required=True,
                   help="corpus to split 80/10/10 (TSV)")
    p.add_argument("--sources", required=True,
                   help="comma list: given, random, predicted=PATH")

    p = sub.add_parser("ablate", help="train with one component removed")
    p.add_argument("--config", required=True, help="model configuration file")
    p.add_argument("--data", required=True,
                   help="corpus to split 80/10/10 (TSV)")
    p.add_argument("--drop", required=True, choices=DROPS,
                   help="component to remove")

    p = sub.add_parser("make-synthetic",
                       help="generate the synthetic benchmark corpus")
    p.add_argument("--out", required=True, help="corpus output path")
    p.add_argument("--sentences", type=int, required=True,
                   help="number of sentences")
    p.add_argument("--seed", type=int, required=True, help="generator seed")

    return parser


def _split_corpus(corpus):
    """Deterministic 80/10/10 split by corpus order."""
    count = len(corpus)
    n_train = (count * 8) // 10
    n_dev = (count * 9) // 10 - n_train
    if n_train < 1 or n_dev < 1 or count - n_train - n_dev < 1:
        raise SyntagError(
            f"corpus of {count} sentences is too small for an 80/10/10 split"
        )
    return (corpus[:n_train], corpus[n_train:n_train + n_dev],
            corpus[n_train + n_dev:])


def _load_for_data(args):
    """Load --model, parse --data: (checkpoint, model, corpus, prepared)."""
    ckpt = load_checkpoint(args.model)
    model = build_model(ckpt)
    corpus = parse_corpus(args.data, ckpt.config.label_scheme)
    return ckpt, model, corpus, prepare_corpus(corpus, ckpt.config)


def _normalized_predictions(model, corpus, scheme):
    """Predict, then re-encode through spans so output labels are valid."""
    raw = model.predict(corpus)
    out = []
    for labels in raw:
        spans = decode_label_spans(labels, "bioes", drop_malformed=True)
        out.append(encode_label_spans(spans, len(labels), scheme))
    return out


def _cmd_train(args):
    config = ModelConfig.from_file(args.config)
    train_corpus = parse_corpus(args.train_file, config.label_scheme)
    dev_corpus = parse_corpus(args.dev, config.label_scheme)
    result = train(config, train_corpus, dev_corpus)
    for epoch, (loss, f1) in enumerate(
            zip(result.epoch_losses, result.dev_f1s[1:]), start=1):
        print(f"epoch {epoch:3d}  loss {loss:.4f}  dev f1 {f1:.4f}")
    ckpt = result.checkpoint
    save_checkpoint(ckpt, args.out)
    print(f"best dev f1 {ckpt.best_dev_f1:.4f} at epoch {ckpt.best_epoch}; "
          f"saved to {args.out}")
    return 0


def _cmd_eval(args):
    _, model, _, prepared = _load_for_data(args)
    pred = model.predict(prepared)
    report = entity_f1([s.labels for s in prepared], pred)
    print(report.to_text(), end="")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
        print(f"breakdown written to {args.report}")
    return 0


def _cmd_predict(args):
    ckpt, model, corpus, prepared = _load_for_data(args)
    labels = _normalized_predictions(model, prepared,
                                     ckpt.config.label_scheme)
    tagged = []
    for sentence, new_labels in zip(corpus, labels):
        c = sentence.copy()
        c.labels = new_labels
        tagged.append(c)
    write_corpus(tagged, args.out)
    print(f"tagged {len(tagged)} sentences into {args.out}")
    return 0


def _cmd_gradcheck(args):
    config = ModelConfig.from_file(args.config)
    worst = 0.0
    for variant in VARIANTS:
        report = check_model_variant(variant, seed=config.seed)
        worst = max(worst, report.max_rel_err)
        print(f"{variant:24s} max rel err {report.max_rel_err:.3e}  "
              f"({report.seconds:.1f}s, worst {report.worst_param()})")
    print(f"overall max rel err {worst:.3e} (tolerance {args.tol:g})")
    if worst >= args.tol:
        raise NumericalError(
            f"gradient check failed: {worst:.3e} >= {args.tol:g}"
        )
    return 0


def _cmd_analyze_gates(args):
    ckpt, model, _, prepared = _load_for_data(args)
    if args.gate not in model.cell_fwd.gates:
        has = ", ".join(g for g in GATE_NAMES if g in model.cell_fwd.gates)
        raise ContractError(f"gate {args.gate!r} exists only in syn-lstm-crf; this "
                            f"{ckpt.config.variant} checkpoint has {has}")
    if not prepared:
        raise ContractError(f"{args.data} holds no sentences")
    gates = {}
    model.predict(prepared, gates=gates)
    counts = gate_histogram(gates, args.gate)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(histogram_csv(counts))
    print(f"{int(counts.sum())} activations histogrammed into {args.out}; "
          f"mean {args.gate} gate {gate_mean(gates, args.gate):.4f}")
    return 0


def _train_and_score(cfg, train_corpus, dev_corpus, test_corpus):
    """Train on ``cfg``, then decode and score the prepared test split.

    Returns (TrainResult, the test EvalReport, the gate activations of the
    same decoding pass).
    """
    result = train(cfg, train_corpus, dev_corpus)
    model = build_model(result.checkpoint)
    test_t = prepare_corpus(test_corpus, cfg)
    gates = {}
    report = entity_f1([s.labels for s in test_t],
                       model.predict(test_t, gates=gates))
    return result, report, gates


def _cmd_compare_trees(args):
    """Train once per tree source and score each on the test split.

    A source is "given", "random", or "predicted=PATH" where PATH is a
    corpus file whose heads and relations override the gold trees. Only
    "predicted" takes "=PATH", no source may be listed twice, and every
    source, a tree file's coverage of all three splits included, is checked
    before the first one trains. Evaluation data passes through the same
    tree transformation as training data, so a model trained on random
    trees is also decoded with random trees. Nothing is printed until every
    source has been scored.
    """
    config = ModelConfig.from_file(args.config)
    corpus = parse_corpus(args.data, config.label_scheme)
    train_c, dev_c, test_c = _split_corpus(corpus)
    sources = [s.strip() for s in args.sources.split(",") if s.strip()]
    if not sources:
        raise SyntagError("no tree sources given")
    configs = {}
    for source in sources:
        name, eq, path = source.partition("=")
        if source in configs:
            raise ContractError(f"tree source {source!r} is listed twice")
        if eq and name != "predicted":
            raise ContractError(f"tree source {source!r}: only predicted takes =PATH")
        cfg = dataclasses.replace(
            config, tree_source=name, tree_file=path or config.tree_file).validate()
        for split in (train_c, dev_c, test_c):
            prepare_corpus(split, cfg)  # reads a predicted tree file
        configs[source] = cfg
    f1 = {}
    lines = []
    for source, cfg in configs.items():
        result, report, gates = _train_and_score(cfg, train_c, dev_c, test_c)
        f1[source] = report.f1
        gate = (f"{gate_mean(gates, 'm'):.4f}"
                if cfg.variant == "syn-lstm-crf" else "n/a")
        lines.append(f"{source:12s} f1 {report.f1:.4f}  mean graph gate {gate}"
                     f"  best epoch {result.checkpoint.best_epoch}")
    for i, a in enumerate(sources):
        for b in sources[i + 1:]:
            lines.append(f"delta {a} vs {b}: {f1[a] - f1[b]:+.4f}")
    print("\n".join(lines))
    return 0


def _cmd_ablate(args):
    config = ModelConfig.from_file(args.config)
    corpus = parse_corpus(args.data, config.label_scheme)
    train_c, dev_c, test_c = _split_corpus(corpus)
    result, report, _ = _train_and_score(
        dataclasses.replace(config, drop=args.drop), train_c, dev_c, test_c)
    print(f"ablation {args.drop}: test f1 {report.f1:.4f} "
          f"(best epoch {result.checkpoint.best_epoch})")
    print(report.to_text(), end="")
    return 0


def _cmd_make_synthetic(args):
    corpus = generate_corpus(args.sentences, args.seed)
    write_corpus(corpus, args.out)
    print(f"wrote {len(corpus)} sentences to {args.out}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "gradcheck": _cmd_gradcheck,
    "analyze-gates": _cmd_analyze_gates,
    "compare-trees": _cmd_compare_trees,
    "ablate": _cmd_ablate,
    "make-synthetic": _cmd_make_synthetic,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except (SyntagError, OSError, MemoryError) as exc:
        if isinstance(exc, MemoryError):  # sized past what can be allocated
            sized_by = vars(args).get("model") or vars(args).get("config")
            exc = f"{sized_by}: {exc}" if sized_by else exc
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
