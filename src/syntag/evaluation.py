"""Span-level scoring and gate statistics.

Scoring is exact-match on (start, end, type) spans. Gold label sequences
must be valid; predicted sequences are decoded leniently, dropping
malformed fragments, so a model that emits a stray continuation tag loses
that span instead of crashing the evaluation.
"""

from __future__ import annotations

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
    # Each counter is a [tp, fp, fn] list.
    overall = [0, 0, 0]
    per_type = {}
    by_sentence = {name: [0, 0, 0] for name, _, _ in SENTENCE_BUCKETS}
    by_entity = {name: [0, 0, 0] for name in ENTITY_BUCKETS}
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
            k = (0 if span in gold else 1) if span in pred else 2
            for counts in (overall, per_type.setdefault(etype, [0, 0, 0]),
                           s_bucket, by_entity[entity_bucket(end - start + 1)]):
                counts[k] += 1

    def row(counts):
        p, r, f = _prf(*counts)
        tp, fp, fn = counts
        return {"precision": p, "recall": r, "f1": f,
                "gold": tp + fn, "predicted": tp + fp}

    return EvalReport(
        *_prf(*overall), *overall,
        per_type={k: row(c) for k, c in per_type.items()},
        sentence_length={k: row(c) for k, c in by_sentence.items()},
        entity_length={k: row(c) for k, c in by_entity.items()},
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
