"""Span timing for the traced run, and the traced model composition.

The traced run drives one training step and one decode pass through the
same public layer functions that ``SequenceTagger.forward_batch``,
``loss_batch`` and ``predict`` (and the step in ``training.train``) call, in
the same order and with the same random draws, wrapping each layer call in a
``time.perf_counter`` span. Nothing in the package is patched. Because the
composition is a copy of the package's wiring, the benchmark checks that its
losses, gradients, emissions and predictions equal the untraced ones bit for
bit; when the package's wiring changes, that check fails loudly here.
"""

from __future__ import annotations

import time
from collections import defaultdict
from statistics import median

import numpy as np

from syntag import crf as crf_mod
from syntag.autodiff import Tape, backward, concat, constant, rows
from syntag.embeddings import scatter_token_rows
from syntag.gcn import batch_normalized_adjacency, encode_batch
from syntag.recurrent import (run_graph_bidirectional_batch,
                              run_plain_bidirectional_batch)
from syntag.training import clip_gradients, sgd_step

PREDICT_BATCH = 32  # SequenceTagger.predict's default, which train() uses


class Tracer:
    """In-memory spans ``[name, start, end, parent index, batch id]``.

    ``batch`` is the identifier stamped on spans opened from now on; spans of
    one training step or one predict batch share it. ``forwards`` holds one
    count record per forward pass.
    """

    def __init__(self):
        self.spans = []
        self.forwards = []
        self.batch = None
        self._open = []

    def span(self, name):
        return _Span(self, name)

    def to_json(self):
        keys = ("name", "start", "end", "parent", "batch")
        return {"spans": [dict(zip(keys, s)) for s in self.spans],
                "forwards": self.forwards}


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._open[-1] if t._open else None
        t._open.append(len(t.spans))
        self.record = [self.name, 0.0, 0.0, parent, t.batch]
        t.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.record[2] = time.perf_counter()
        self.tracer._open.pop()
        return False


# ----- the composition ------------------------------------------------------

def forward(model, sentences, tracer, train=False, rng=None):
    """Traced twin of ``forward_batch``: returns (emissions, lengths, n_max)."""
    cfg = model.config
    with tracer.span("model.forward"):
        (batch, lengths, n_max, word_ids, pos_ids, deprel_ids, position_of,
         char_rows) = model._batch_arrays(sentences)
        total = batch * n_max
        tracer.forwards.append({
            "batch": tracer.batch,
            "tokens": sum(lengths),
            "padded": total,
            "timesteps": 2 * n_max,
            "distinct_forms": len({tok for s in sentences for tok in s.tokens}),
        })
        word_rows = rows(model.tables.word, word_ids)
        with tracer.span("embeddings.char"):
            char_vecs = model.char_encoder.encode_batch(model.tables.char,
                                                        char_rows)
            char_flat = scatter_token_rows(char_vecs, position_of, total)
        parts = [word_rows, char_flat]
        if model.use_deprel:
            parts.append(rows(model.tables.deprel, deprel_ids))
        x_parts = list(parts)
        if model.use_pos:
            x_parts.append(rows(model.tables.pos, pos_ids))
        x = concat(x_parts, axis=1) if len(x_parts) > 1 else x_parts[0]
        if train:
            x = model._dropout(x, rng)

        g_flat = None
        if model.use_graph:
            if model.zero_graph:
                g_flat = constant(np.zeros((total, cfg.hidden)))
            else:
                g0 = concat(parts, axis=1) if len(parts) > 1 else parts[0]
                if train:
                    g0 = model._dropout(g0, rng)
                with tracer.span("gcn.adj"):
                    adj = batch_normalized_adjacency(
                        [s.heads for s in sentences], n_max)
                with tracer.span("gcn.encode"):
                    g_flat = encode_batch(g0, adj, model.gcn,
                                          self_only=cfg.self_only_gcn)

        with tracer.span("recurrent"):
            if cfg.variant == "syn-lstm-crf":
                h = run_graph_bidirectional_batch(x, g_flat, lengths,
                                                  model.cell_fwd,
                                                  model.cell_bwd)
            elif cfg.variant == "bilstm-crf":
                h = run_plain_bidirectional_batch(x, lengths, model.cell_fwd,
                                                  model.cell_bwd)
            else:
                xg = concat([x, g_flat], axis=1)
                h = run_plain_bidirectional_batch(xg, lengths, model.cell_fwd,
                                                  model.cell_bwd)
        if train:
            h = model._dropout(h, rng)
        with tracer.span("crf.emit"):
            emissions = crf_mod.emissions_from_hidden(h, model.crf)
    return emissions, lengths, n_max


def train_step(model, batch, rng, rate, tracer, grads_out=None):
    """One step of ``train()``'s loop; returns (loss value, tape nodes).

    ``grads_out``, when given, receives copies of the pre-clip gradients;
    the copy happens between spans, so it is not timed.
    """
    cfg = model.config
    with Tape() as tape:
        with tracer.span("model.train_step"):
            emissions, lengths, n_max = forward(model, batch, tracer,
                                                train=True, rng=rng)
            gold = model.gold_ids(batch, n_max)
            with tracer.span("crf.nll"):
                trans = model.crf.effective_transitions()
                loss = crf_mod.nll_batch(emissions, lengths, trans, gold)
            value = loss.item()
            if np.isfinite(value):
                with tracer.span("autodiff.backward"):
                    backward(loss)
        # The tape keeps its nodes in a private list; reading its length is
        # the only way to count them from outside.
        nodes = len(tape._nodes)
    if not np.isfinite(value):
        return value, nodes
    if grads_out is not None:
        grads_out.update({n: p.grad.copy()
                          for n, p in model.parameters().items()})
    with tracer.span("training.clip"):
        clip_gradients(model.parameters(), cfg.clip_norm)
    with tracer.span("training.sgd"):
        sgd_step(model.parameters(), rate, cfg.l2)
    return value, nodes


def predict(model, sentences, tracer, prefix, emissions_out=None):
    """Traced twin of ``SequenceTagger.predict`` at its default batch size.

    Each batch gets the batch id ``f"{prefix}.{j}"``.
    """
    out = []
    for j, lo in enumerate(range(0, len(sentences), PREDICT_BATCH)):
        chunk = sentences[lo: lo + PREDICT_BATCH]
        tracer.batch = f"{prefix}.{j}"
        with tracer.span("model.predict_batch"):
            emissions, lengths, n_max = forward(model, chunk, tracer)
            trans = model.crf.effective_transitions()
            em = emissions.data
            for b in range(len(chunk)):
                n = lengths[b]
                lattice = crf_mod.TagLattice(
                    n, constant(em[b * n_max: b * n_max + n]))
                with tracer.span("crf.viterbi"):
                    ids, _ = crf_mod.viterbi(lattice, trans)
                out.append([model.vocab.label_names[i] for i in ids])
        if emissions_out is not None:
            emissions_out.append(em)
    return out


# ----- the per-layer table ----------------------------------------------------

FORWARD_LAYERS = {
    "embeddings.char": "embeddings.char_ms",
    "gcn.adj": "gcn.adj_ms",
    "gcn.encode": "gcn.encode_ms",
    "recurrent": "recurrent.ms",
    "crf.emit": "crf.emit_ms",
}
ANY_OP_SPANS = {
    "crf.nll": "crf.nll_ms",
    "crf.viterbi": "crf.viterbi_ms",
    "autodiff.backward": "autodiff.backward_ms",
    "training.clip": "training.clip_ms",
    "training.sgd": "training.sgd_ms",
    "training.dev_eval": "training.dev_eval_ms",
    "evaluation.f1": "evaluation.f1_ms",
    "data.parse": "data.parse_ms",
    "data.write": "data.write_ms",
}
SHARE_LAYERS = ("embeddings", "gcn", "recurrent", "crf", "autodiff", "model",
                "training")


def _ms(values):
    return 1000.0 * median(values) if values else 0.0


def layer_table(tracer, main):
    """Per-layer metrics from the spans.

    ``main`` is the batch-id prefix of the workload's main operation (``s``
    for training steps, ``d`` for predict batches). Layers inside the
    forward pass are timed over main-operation calls only; the other spans
    over every call. Shares are each layer's self time summed over main
    operations, over their summed duration.
    """
    spans = tracer.spans
    child_time = defaultdict(float)
    for name, start, end, parent, batch in spans:
        if parent is not None:
            child_time[parent] += end - start
    in_main = [b is not None and b.startswith(main) for *_, b in spans]

    calls_main = defaultdict(list)
    calls_all = defaultdict(list)
    forward_self = []
    layer_self = defaultdict(float)
    op_total = 0.0
    for i, (name, start, end, parent, batch) in enumerate(spans):
        dur = end - start
        calls_all[name].append(dur)
        if not in_main[i]:
            continue
        calls_main[name].append(dur)
        own = dur - child_time[i]
        layer_self[name.split(".")[0]] += own
        if name == "model.forward":
            forward_self.append(own)
        if parent is None or not in_main[parent]:
            op_total += dur

    table = {metric: _ms(calls_main[name])
             for name, metric in FORWARD_LAYERS.items()}
    table.update({metric: _ms(calls_all[name])
                  for name, metric in ANY_OP_SPANS.items()})
    table["model.self_ms"] = _ms(forward_self)
    for layer in SHARE_LAYERS:
        table[f"{layer}.share"] = layer_self[layer] / op_total

    main_forwards = [f for f in tracer.forwards
                     if f["batch"].startswith(main)]
    tokens = sum(f["tokens"] for f in main_forwards)
    table["recurrent.timesteps"] = median(f["timesteps"] for f in main_forwards)
    table["recurrent.pad_waste"] = 1.0 - tokens / sum(
        f["padded"] for f in main_forwards)
    table["embeddings.distinct_form_ratio"] = sum(
        f["distinct_forms"] for f in main_forwards) / tokens
    return table
