"""Tests of the benchmark's own code: the traced composition, the Zipf
corpus generator and the metric names."""

import json
import re
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from syntag.autodiff import Tape, backward  # noqa: E402
from syntag.data import (build_vocab, parse_corpus, validate_labels,  # noqa: E402
                         validate_tree, write_corpus)
from syntag.model import SequenceTagger  # noqa: E402
from syntag.synthetic import experiment_config, generate_corpus  # noqa: E402
from syntag.training import clip_gradients, sgd_step  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from zipf import block_lengths, corpus_stats, generate_zipf_corpus  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

TINY = dict(hidden=8, word_dim=6, char_dim=4, char_hidden=4, deprel_dim=4,
            pos_dim=4, batch_size=4, dropout=0.3)
CASES = [
    ("syn-lstm-crf", {}),
    ("bilstm-crf", {}),
    ("gcn-concat-bilstm-crf", {}),
    ("syn-lstm-crf", {"drop": "gcn-all"}),
    ("syn-lstm-crf", {"self_only_gcn": True, "drop": "pos-embedding"}),
]


def _model(corpus, variant, extra):
    cfg = experiment_config(variant, seed=3, **TINY, **extra)
    return SequenceTagger(cfg, build_vocab(corpus),
                          rng=np.random.default_rng(11))


def _same_arrays(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


@pytest.mark.parametrize("variant,extra", CASES)
def test_traced_composition_is_bitwise_identical(variant, extra):
    corpus = generate_corpus(40, seed=7)
    batch = corpus[:4]
    plain, traced = _model(corpus, variant, extra), _model(corpus, variant, extra)
    tracer = tracing.Tracer()

    em_plain = plain.forward_batch(batch, train=True,
                                   rng=np.random.default_rng(5)).emissions.data
    em_traced, _, _ = tracing.forward(traced, batch, tracer, train=True,
                                      rng=np.random.default_rng(5))
    assert np.array_equal(em_plain, em_traced.data)

    with Tape():
        loss = plain.loss_batch(batch, train=True, rng=np.random.default_rng(9))
        value = loss.item()
        backward(loss)
    grads = {n: p.grad.copy() for n, p in plain.parameters().items()}
    clip_gradients(plain.parameters(), plain.config.clip_norm)
    sgd_step(plain.parameters(), 0.2, plain.config.l2)

    traced_grads = {}
    traced_value, nodes = tracing.train_step(traced, batch,
                                             np.random.default_rng(9), 0.2,
                                             tracer, traced_grads)
    assert traced_value == value
    assert nodes > 0
    assert _same_arrays(traced_grads, grads)
    assert _same_arrays({n: p.data for n, p in traced.parameters().items()},
                        {n: p.data for n, p in plain.parameters().items()})

    emissions = []
    preds = tracing.predict(traced, corpus, tracer, "d", emissions)
    assert preds == plain.predict(corpus)
    assert len(emissions) == 2
    assert np.array_equal(emissions[0],
                          plain.forward_batch(corpus[:32]).emissions.data)


class _TinyWorkload:
    main = "s"

    def __init__(self, corpus):
        self.corpus = corpus

    def warm_up(self, st):
        pass

    def sessions(self, st):
        return [workloads.Session(_model(self.corpus, v, {}), self.corpus,
                                  self.corpus[:12], seed=3)
                for v, _ in CASES[:3]]


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    corpus = generate_corpus(12, seed=2)
    table, attempted, failed, tracer = workloads.run_traced(
        _TinyWorkload(corpus), None, 0.0, tmp_path / "roundtrip.tsv")
    assert failed == 0 and attempted > 0
    assert set(table) == {m["name"] for m in spec["per_layer"]}
    assert table["autodiff.tape_nodes"] > 0
    assert table["crf.viterbi_calls"] == 12
    assert sum(table[f"{layer}.share"] for layer in tracing.SHARE_LAYERS) \
        == pytest.approx(1.0)
    assert tracer.spans and all(end >= start for _, start, end, _, _ in tracer.spans)


def test_comparisons_hold_in_both_orders(tmp_path):
    corpus = generate_corpus(12, seed=2)
    sess = workloads.Session(_model(corpus, "syn-lstm-crf", {}), corpus,
                             corpus, seed=3)
    tracer = tracing.Tracer()
    log = defaultdict(list)
    for k in (0, 1):   # even rounds run untraced first, odd rounds traced first
        assert workloads.compare_step(sess, tracer, k, log)
        assert workloads.compare_decode(sess, tracer, k, tmp_path / "rt.tsv",
                                        log) == (True, 1)
    assert len(log["step_traced"]) == len(log["pass_untraced"]) == 2


def test_zipf_corpus_is_deterministic_and_valid(tmp_path):
    a = generate_zipf_corpus(40, seed=5, block=8)
    assert a == generate_zipf_corpus(40, seed=5, block=8)
    assert a != generate_zipf_corpus(40, seed=6, block=8)
    lengths = block_lengths(8)
    for lo in range(0, 40, 8):
        assert sorted(len(s) for s in a[lo: lo + 8]) == sorted(lengths)
    for i, s in enumerate(a):
        validate_tree(s.heads, sentence_index=i)
        validate_labels(s.labels, "bioes")
    write_corpus(a, tmp_path / "zipf.tsv")
    assert parse_corpus(tmp_path / "zipf.tsv") == a
    stats = corpus_stats(a, 8)
    assert stats["tokens"] == 5 * sum(lengths)
    assert stats["length_quantiles"]["max"] == max(lengths)
    assert 0.0 < stats["pad_waste"] < 1.0


def test_metric_names_and_units_are_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = []
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            assert NAME.fullmatch(metric["name"]), metric
            assert UNIT.fullmatch(metric["unit"]), metric
            names.append(metric["name"])
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
