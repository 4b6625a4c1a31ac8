"""Span-level scoring, gate statistics, and the experiment driver.

Scoring is exact-match on (start, end, type) spans. Gold label sequences
must be valid; predicted sequences are decoded leniently, dropping
malformed fragments, so a model that emits a stray continuation tag loses
that span instead of crashing the evaluation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .data import decode_label_spans
from .errors import ContractError, DataIntegrityError

SENTENCE_BUCKETS = (("<=14", 1, 14), ("15-29", 15, 29), ("30-44", 30, 44),
                    ("45-59", 45, 59), (">=60", 60, None))
ENTITY_BUCKETS = ("1", "2", "3", "4", "5", ">=6")

GATE_BUCKET_EDGES = (0.0, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def sentence_bucket(n):
    for name, lo, hi in SENTENCE_BUCKETS:
        if n >= lo and (hi is None or n <= hi):
            return name
    raise ContractError(f"no sentence bucket for length {n}")


def entity_bucket(length):
    if length < 1:
        raise ContractError(f"no entity bucket for length {length}")
    return str(length) if length <= 5 else ">=6"


def _prf(tp, fp, fn):
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall > 0.0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
    return precision, recall, f1


class _Counter:
    __slots__ = ("tp", "fp", "fn")

    def __init__(self):
        self.tp = 0
        self.fp = 0
        self.fn = 0

    def prf(self):
        return _prf(self.tp, self.fp, self.fn)


@dataclass
class EvalReport:
    """Exact-match span scores, overall and broken down."""

    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    per_type: dict
    sentence_length: dict
    entity_length: dict

    def to_text(self):
        lines = [
            f"precision {self.precision:.4f}  recall {self.recall:.4f}  "
            f"f1 {self.f1:.4f}  (tp {self.tp}  fp {self.fp}  fn {self.fn})",
            "",
            "by entity type:",
        ]
        for name in sorted(self.per_type):
            row = self.per_type[name]
            lines.append(
                f"  {name:12s} p {row['precision']:.4f}  r {row['recall']:.4f}"
                f"  f1 {row['f1']:.4f}  gold {row['gold']}"
            )
        lines.append("")
        lines.append("f1 by sentence length:")
        for name, _, _ in SENTENCE_BUCKETS:
            row = self.sentence_length[name]
            lines.append(f"  {name:6s} f1 {row['f1']:.4f}  gold {row['gold']}")
        lines.append("")
        lines.append("f1 by entity length:")
        for name in ENTITY_BUCKETS:
            row = self.entity_length[name]
            lines.append(f"  {name:4s} f1 {row['f1']:.4f}  gold {row['gold']}")
        return "\n".join(lines) + "\n"

    def to_csv(self):
        rows = ["metric,bucket,value"]
        rows.append(f"precision,overall,{self.precision:.6f}")
        rows.append(f"recall,overall,{self.recall:.6f}")
        rows.append(f"f1,overall,{self.f1:.6f}")
        for name in sorted(self.per_type):
            row = self.per_type[name]
            rows.append(f"precision,type:{name},{row['precision']:.6f}")
            rows.append(f"recall,type:{name},{row['recall']:.6f}")
            rows.append(f"f1,type:{name},{row['f1']:.6f}")
        for name, _, _ in SENTENCE_BUCKETS:
            rows.append(
                f"f1,sentence_length:{name},"
                f"{self.sentence_length[name]['f1']:.6f}")
        for name in ENTITY_BUCKETS:
            rows.append(
                f"f1,entity_length:{name},"
                f"{self.entity_length[name]['f1']:.6f}")
        return "\n".join(rows) + "\n"


def entity_f1(gold_corpus, pred_corpus):
    """Score predicted label sequences against gold, span by span.

    Both arguments are lists of per-sentence BIOES label lists of equal shape.
    """
    if len(gold_corpus) != len(pred_corpus):
        raise ContractError(
            f"gold has {len(gold_corpus)} sentences, "
            f"predictions have {len(pred_corpus)}"
        )
    overall = _Counter()
    per_type = {}
    by_sentence = {name: _Counter() for name, _, _ in SENTENCE_BUCKETS}
    by_entity = {name: _Counter() for name in ENTITY_BUCKETS}
    for i, (gold_labels, pred_labels) in enumerate(
            zip(gold_corpus, pred_corpus)):
        if len(gold_labels) != len(pred_labels):
            raise ContractError(
                f"sentence {i}: gold has {len(gold_labels)} labels, "
                f"prediction has {len(pred_labels)}"
            )
        gold = set(decode_label_spans(gold_labels, "bioes"))
        pred = set(decode_label_spans(pred_labels, "bioes", drop_malformed=True))
        s_bucket = by_sentence[sentence_bucket(len(gold_labels))]
        for span in gold | pred:
            start, end, etype = span
            counter = per_type.setdefault(etype, _Counter())
            e_bucket = by_entity[entity_bucket(end - start + 1)]
            if span in gold and span in pred:
                for c in (overall, counter, s_bucket, e_bucket):
                    c.tp += 1
            elif span in pred:
                for c in (overall, counter, s_bucket, e_bucket):
                    c.fp += 1
            else:
                for c in (overall, counter, s_bucket, e_bucket):
                    c.fn += 1
    precision, recall, f1 = overall.prf()

    def row(counter, gold_count):
        p, r, f = counter.prf()
        return {"precision": p, "recall": r, "f1": f,
                "gold": gold_count, "predicted": counter.tp + counter.fp}

    return EvalReport(
        precision, recall, f1, overall.tp, overall.fp, overall.fn,
        per_type={k: row(c, c.tp + c.fn) for k, c in per_type.items()},
        sentence_length={k: row(c, c.tp + c.fn)
                         for k, c in by_sentence.items()},
        entity_length={k: row(c, c.tp + c.fn) for k, c in by_entity.items()},
    )


# ----- gate statistics ------------------------------------------------------

def _gate_arrays(gates, gate):
    """The per-batch arrays of ``gate`` in a ``predict(..., gates=...)`` dict."""
    if gate not in gates:
        raise ContractError(f"no activations of gate {gate!r} were collected")
    return gates[gate]


def gate_histogram(gates, gate):
    """Count gate activations per bucket across a corpus.

    Buckets are [0, 0.4), [0.4, 0.5), ..., [0.9, 1.0]; every dimension of
    every token in every direction contributes one count. Returns a (7,)
    int64 array.
    """
    inner = np.asarray(GATE_BUCKET_EDGES[1:-1])
    counts = np.zeros(len(GATE_BUCKET_EDGES) - 1, dtype=np.int64)
    for values in _gate_arrays(gates, gate):
        values = values.ravel()
        if values.size and (values.min() < 0.0 or values.max() > 1.0):
            raise DataIntegrityError(
                f"gate {gate!r} has activations outside [0, 1]"
            )
        counts += np.bincount(np.digitize(values, inner),
                              minlength=counts.size)
    return counts


def gate_mean(gates, gate):
    """Mean activation of one gate over all tokens, dims and directions."""
    arrays = _gate_arrays(gates, gate)
    count = sum(arr.size for arr in arrays)
    if count == 0:
        raise ContractError("no tokens to average over")
    return sum(float(arr.sum()) for arr in arrays) / count


def histogram_csv(counts):
    rows = ["bucket_low,bucket_high,count"]
    for i, c in enumerate(counts):
        lo = GATE_BUCKET_EDGES[i]
        hi = GATE_BUCKET_EDGES[i + 1]
        rows.append(f"{lo},{hi},{int(c)}")
    return "\n".join(rows) + "\n"


# ----- experiments ----------------------------------------------------------

def train_and_score(cfg, train_corpus, dev_corpus, test_corpus):
    """Train on ``cfg``, then decode and score the prepared test split.

    Returns (TrainResult, the test EvalReport, the gate activations of the
    same decoding pass).
    """
    from .training import build_model, prepare_corpus, train

    result = train(cfg, train_corpus, dev_corpus)
    model = build_model(result.checkpoint)
    test_t = prepare_corpus(test_corpus, cfg)
    gates = {}
    report = entity_f1([s.labels for s in test_t],
                       model.predict(test_t, gates=gates))
    return result, report, gates


@dataclass
class TreeComparisonReport:
    sources: list
    f1: dict
    mean_gate: dict
    deltas: dict
    best_epochs: dict

    def to_text(self):
        lines = []
        for s in self.sources:
            gate = self.mean_gate[s]
            gate_text = f"{gate:.4f}" if gate is not None else "n/a"
            lines.append(
                f"{s:12s} f1 {self.f1[s]:.4f}  mean graph gate {gate_text}"
                f"  best epoch {self.best_epochs[s]}"
            )
        for pair, d in self.deltas.items():
            lines.append(f"delta {pair}: {d:+.4f}")
        return "\n".join(lines) + "\n"


def compare_tree_sources(config, train_corpus, dev_corpus, test_corpus,
                         sources=("given", "random")):
    """Train once per tree source and score each on the test split.

    A source is "given", "random", or "predicted=PATH" where PATH is a
    corpus file whose heads and relations override the gold trees. Only
    "predicted" takes "=PATH", no source may be listed twice, and every
    source is checked before the first one trains. Evaluation data passes
    through the same tree transformation as training data, so a model
    trained on random trees is also decoded with random trees.
    """
    configs = {}
    for source in sources:
        name, eq, path = source.partition("=")
        if source in configs:
            raise ContractError(f"tree source {source!r} is listed twice")
        if eq and name != "predicted":
            raise ContractError(f"tree source {source!r}: only predicted takes =PATH")
        configs[source] = dataclasses.replace(
            config, tree_source=name, tree_file=path or config.tree_file).validate()
    f1 = {}
    mean_gate = {}
    best_epochs = {}
    for source, cfg in configs.items():
        result, report, gates = train_and_score(
            cfg, train_corpus, dev_corpus, test_corpus)
        f1[source] = report.f1
        mean_gate[source] = (gate_mean(gates, "m")
                             if cfg.variant == "syn-lstm-crf" else None)
        best_epochs[source] = result.checkpoint.best_epoch
    deltas = {}
    names = list(sources)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            deltas[f"{a} vs {b}"] = f1[a] - f1[b]
    return TreeComparisonReport(names, f1, mean_gate, deltas, best_epochs)

