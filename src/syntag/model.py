"""Model configuration and the sequence tagger.

Three variants share one code path:

- ``syn-lstm-crf``: a graph encoder feeds a graph-gated LSTM cell whose
  extra gate mixes graph context into the cell state.
- ``bilstm-crf``: a plain bidirectional LSTM over token features only;
  heads and relation labels are never read.
- ``gcn-concat-bilstm-crf``: the graph encoder output is concatenated to
  the token features and a plain bidirectional LSTM runs on top.

All variants end in the same linear projection and CRF layer. Batches are
laid out sentence-major: row ``b * n_max + t`` of every flat matrix holds
sentence b, position t, with padded positions masked out of the recurrence,
the CRF, and the loss.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import crf as crf_mod
from .autodiff import concat, constant, rows
from .data import Vocabulary
from .embeddings import CharEncoder, EmbeddingTables, scatter_token_rows
from .errors import ContractError, FormatError
from .gcn import GcnParams, batch_normalized_adjacency, encode_batch
from .recurrent import (LstmParams, extract_traces,
                        run_graph_bidirectional_batch,
                        run_plain_bidirectional_batch)

VARIANTS = ("syn-lstm-crf", "bilstm-crf", "gcn-concat-bilstm-crf")
DROPS = ("gcn-1-layer", "gcn-all", "deprel-embedding", "pos-embedding",
         "original-dependency")
TREE_SOURCES = ("given", "random", "predicted")

_INT_FIELDS = frozenset({"hidden", "gcn_layers", "word_dim", "char_dim",
                         "char_hidden", "deprel_dim", "pos_dim", "batch_size",
                         "epochs", "seed", "min_count"})
_FLOAT_FIELDS = frozenset({"dropout", "lr", "decay", "l2", "clip_norm"})
_BOOL_FIELDS = frozenset({"crf_constraints", "fine_tune_words",
                          "self_only_gcn"})
_OPT_STR_FIELDS = frozenset({"tree_file", "drop", "embeddings"})


@dataclass
class ModelConfig:
    """Every knob of the model and its training run, with defaults."""

    variant: str = "syn-lstm-crf"
    hidden: int = 200
    gcn_layers: int = 2
    word_dim: int = 100
    char_dim: int = 30
    char_hidden: int = 50
    deprel_dim: int = 50
    pos_dim: int = 50
    dropout: float = 0.5
    lr: float = 0.2
    decay: float = 0.1
    l2: float = 1e-8
    batch_size: int = 100
    epochs: int = 50
    seed: int = 42
    label_scheme: str = "bioes"
    tree_source: str = "given"
    tree_file: str | None = None
    min_count: int = 1
    clip_norm: float = 5.0
    crf_constraints: bool = False
    fine_tune_words: bool = True
    self_only_gcn: bool = False
    drop: str | None = None
    embeddings: str | None = None

    def validate(self):
        if self.variant not in VARIANTS:
            raise ContractError(f"unknown variant {self.variant!r}")
        if self.drop is not None and self.drop not in DROPS:
            raise ContractError(f"unknown drop target {self.drop!r}")
        if self.tree_source not in TREE_SOURCES:
            raise ContractError(f"unknown tree source {self.tree_source!r}")
        if self.tree_source == "predicted" and not self.tree_file:
            raise ContractError("tree_source 'predicted' needs tree_file")
        if self.label_scheme not in ("bio", "bioes"):
            raise ContractError(f"unknown label scheme {self.label_scheme!r}")
        for name in ("hidden", "gcn_layers", "word_dim", "char_dim",
                     "char_hidden", "deprel_dim", "pos_dim", "batch_size"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ContractError("dropout must be in [0, 1)")
        if self.lr <= 0.0:
            raise ContractError("lr must be positive")
        if self.decay < 0.0 or self.l2 < 0.0 or self.clip_norm < 0.0:
            raise ContractError("decay, l2 and clip_norm must be >= 0")
        if self.epochs < 0:
            raise ContractError("epochs must be >= 0")
        if self.min_count < 1:
            raise ContractError("min_count must be >= 1")
        return self

    def to_text(self):
        lines = []
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if v is None:
                v = "none"
            elif isinstance(v, bool):
                v = "true" if v else "false"
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_file(cls, path):
        kwargs = {}
        names = {f.name for f in dataclasses.fields(cls)}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise FormatError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if key not in names:
                    raise FormatError(f"{path}:{lineno}: unknown option {key!r}")
                try:
                    kwargs[key] = _convert_option(key, value)
                except ValueError:
                    raise FormatError(
                        f"{path}:{lineno}: bad value {value!r} for {key!r}"
                    ) from None
        return cls(**kwargs).validate()


def _convert_option(key, value):
    if key in _INT_FIELDS:
        return int(value)
    if key in _FLOAT_FIELDS:
        return float(value)
    if key in _BOOL_FIELDS:
        low = value.lower()
        if low not in ("true", "false"):
            raise ValueError(value)
        return low == "true"
    if key in _OPT_STR_FIELDS and value.lower() == "none":
        return None
    return value


@dataclass
class BatchForward:
    """Everything the loss and decoder need from one forward pass."""

    emissions: object          # (B * n_max, L) tensor
    lengths: list
    n_max: int
    traces: list | None = None


class SequenceTagger:
    """A configured model instance holding all learnable tensors."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary, rng=None,
                 word_matrix=None):
        config.validate()
        if rng is None:
            rng = np.random.default_rng(config.seed)
        self.config = config
        self.vocab = vocab
        self.use_graph = config.variant != "bilstm-crf"
        self.use_deprel = self.use_graph and config.drop != "deprel-embedding"
        self.use_pos = config.drop != "pos-embedding"
        self.zero_graph = self.use_graph and config.drop == "gcn-all"

        self.tables = EmbeddingTables(
            vocab, rng, config.word_dim, config.char_dim,
            deprel_dim=config.deprel_dim if self.use_deprel else None,
            pos_dim=config.pos_dim if self.use_pos else None,
            word_matrix=word_matrix,
        )
        if not config.fine_tune_words:
            self.tables.word.requires_grad = False
        self.char_encoder = CharEncoder(config.char_dim, config.char_hidden,
                                        rng)
        word_dim = self.tables.word.data.shape[1]
        token_dim = word_dim + self.char_encoder.output_dim
        if self.use_deprel:
            token_dim += config.deprel_dim
        x_dim = token_dim + (config.pos_dim if self.use_pos else 0)
        self.x_dim = x_dim
        self.g0_dim = token_dim

        self.gcn = None
        if self.use_graph and not self.zero_graph:
            layers = 1 if config.drop == "gcn-1-layer" else config.gcn_layers
            self.gcn = GcnParams(self.g0_dim, config.hidden, layers, rng)

        if config.variant == "syn-lstm-crf":
            cell_in, graph_dim = x_dim, config.hidden
        elif config.variant == "bilstm-crf":
            cell_in, graph_dim = x_dim, None
        else:
            cell_in, graph_dim = x_dim + config.hidden, None
        self.cell_fwd = LstmParams(cell_in, config.hidden, rng, graph_dim)
        self.cell_bwd = LstmParams(cell_in, config.hidden, rng, graph_dim)

        self.crf = crf_mod.CrfParams(
            len(vocab.labels), 2 * config.hidden, rng,
            label_names=vocab.label_names,
            constrain_scheme="bioes" if config.crf_constraints else None,
        )

    # ----- parameter access -------------------------------------------

    def named_tensors(self):
        """Every tensor in the model, trainable or not, in a stable order."""
        out = dict(self.tables.parameters())
        out.update(self.char_encoder.parameters())
        if self.gcn is not None:
            for name, t in self.gcn.parameters().items():
                out[f"gcn.{name}"] = t
        for side, cell in (("fwd", self.cell_fwd), ("bwd", self.cell_bwd)):
            for name, t in cell.parameters().items():
                out[f"cell_{side}.{name}"] = t
        out["crf.transitions"] = self.crf.transitions
        out["crf.emit_w"] = self.crf.emit_w
        out["crf.emit_b"] = self.crf.emit_b
        return out

    def parameters(self):
        """Trainable tensors only (the frozen word table is excluded)."""
        out = self.named_tensors()
        if not self.config.fine_tune_words:
            del out["word_table"]
        return out

    # ----- forward ----------------------------------------------------

    def _batch_arrays(self, sentences):
        vocab = self.vocab
        batch = len(sentences)
        lengths = [len(s) for s in sentences]
        n_max = max(lengths)
        total = batch * n_max
        word_ids = np.zeros(total, dtype=np.intp)
        pos_ids = np.zeros(total, dtype=np.intp)
        deprel_ids = np.zeros(total, dtype=np.intp)
        position_of = np.full(total, -1, dtype=np.intp)
        # One char row per distinct form; repeats gather the same row, and
        # ``rows`` scatter-adds their gradients back into it.
        char_rows = []
        form_row = {}
        for b, s in enumerate(sentences):
            for t, tok in enumerate(s.tokens):
                r = b * n_max + t
                word_ids[r] = vocab.word_id(tok)
                pos_ids[r] = vocab.pos_id(s.pos_tags[t])
                deprel_ids[r] = vocab.deprel_id(s.deprels[t])
                if tok not in form_row:
                    form_row[tok] = len(char_rows)
                    char_rows.append([vocab.char_id(c) for c in tok])
                position_of[r] = form_row[tok]
        return (batch, lengths, n_max, word_ids, pos_ids, deprel_ids,
                position_of, char_rows)

    def forward_batch(self, sentences, train=False, rng=None,
                      want_traces=False):
        """Run the full encoder over a batch; returns a BatchForward."""
        if not sentences:
            raise ContractError("empty batch")
        if train and self.config.dropout > 0.0 and rng is None:
            raise ContractError("training forward pass needs a dropout rng")
        (batch, lengths, n_max, word_ids, pos_ids, deprel_ids, position_of,
         char_rows) = self._batch_arrays(sentences)
        total = batch * n_max

        word_rows = rows(self.tables.word, word_ids)
        char_vecs = self.char_encoder.encode_batch(self.tables.char, char_rows)
        char_rows_flat = scatter_token_rows(char_vecs, position_of, total)
        parts = [word_rows, char_rows_flat]
        if self.use_deprel:
            parts.append(rows(self.tables.deprel, deprel_ids))
        x_parts = list(parts)
        if self.use_pos:
            x_parts.append(rows(self.tables.pos, pos_ids))
        x = concat(x_parts, axis=1) if len(x_parts) > 1 else x_parts[0]
        if train:
            x = self._dropout(x, rng)

        g_flat = None
        if self.use_graph:
            if self.zero_graph:
                g_flat = constant(np.zeros((total, self.config.hidden)))
            else:
                g0 = concat(parts, axis=1) if len(parts) > 1 else parts[0]
                if train:
                    g0 = self._dropout(g0, rng)
                adj = batch_normalized_adjacency(
                    [s.heads for s in sentences], n_max)
                g_flat = encode_batch(g0, adj, self.gcn,
                                      self_only=self.config.self_only_gcn)

        sink = {} if want_traces else None
        if self.config.variant == "syn-lstm-crf":
            h = run_graph_bidirectional_batch(x, g_flat, lengths,
                                              self.cell_fwd, self.cell_bwd,
                                              trace_sink=sink)
        elif self.config.variant == "bilstm-crf":
            h = run_plain_bidirectional_batch(x, lengths, self.cell_fwd,
                                              self.cell_bwd, trace_sink=sink)
        else:
            xg = concat([x, g_flat], axis=1)
            h = run_plain_bidirectional_batch(xg, lengths, self.cell_fwd,
                                              self.cell_bwd, trace_sink=sink)
        if train:
            h = self._dropout(h, rng)
        emissions = crf_mod.emissions_from_hidden(h, self.crf)
        traces = extract_traces(sink, lengths) if want_traces else None
        return BatchForward(emissions, lengths, n_max, traces)

    def _dropout(self, x, rng):
        p = self.config.dropout
        if p == 0.0:
            return x
        mask = (rng.random(x.data.shape) >= p).astype(np.float64) / (1.0 - p)
        return x * constant(mask)

    # ----- objectives and decoding -------------------------------------

    def gold_ids(self, sentences, n_max):
        out = np.zeros((len(sentences), n_max), dtype=np.intp)
        for b, s in enumerate(sentences):
            for t, lab in enumerate(s.labels):
                out[b, t] = self.vocab.label_id(lab)
        return out

    def loss_batch(self, sentences, train=False, rng=None):
        """Mean per-sentence negative log likelihood as a scalar tensor."""
        fw = self.forward_batch(sentences, train=train, rng=rng)
        gold = self.gold_ids(sentences, fw.n_max)
        trans = self.crf.effective_transitions()
        return crf_mod.nll_batch(fw.emissions, fw.lengths, trans, gold)

    def predict(self, sentences, batch_size=32):
        """Viterbi label sequences (raw label names) for each sentence.

        Sentences are run in batches of similar length to cut padding: a
        stable sort by length, ``batch_size`` consecutive sentences per
        forward pass, results written back in input order. A sentence's
        labels do not depend on which sentences share its batch.
        """
        order = sorted(range(len(sentences)), key=lambda i: len(sentences[i]))
        trans = self.crf.effective_transitions()
        names = self.vocab.label_names
        out = [None] * len(sentences)
        for lo in range(0, len(order), batch_size):
            chunk = order[lo: lo + batch_size]
            fw = self.forward_batch([sentences[i] for i in chunk])
            em = fw.emissions.data.reshape(len(chunk), fw.n_max, -1)
            paths, _ = crf_mod.viterbi_batch(em, fw.lengths, trans)
            for i, ids in zip(chunk, paths):
                out[i] = [names[k] for k in ids]
        return out

    def gate_traces(self, sentences, batch_size=32):
        """GateTrace per sentence from inference-mode forward passes."""
        traces = []
        for lo in range(0, len(sentences), batch_size):
            fw = self.forward_batch(sentences[lo: lo + batch_size],
                                    want_traces=True)
            traces.extend(fw.traces)
        return traces

    def mean_gate(self, sentences, gate="m", batch_size=32):
        """Mean activation of one gate over all tokens, dims, directions."""
        if self.config.variant != "syn-lstm-crf":
            raise ContractError(
                f"variant {self.config.variant!r} has no {gate!r} gate trace"
            )
        total = 0.0
        count = 0
        for trace in self.gate_traces(sentences, batch_size=batch_size):
            if gate not in trace.arrays:
                raise ContractError(f"no trace for gate {gate!r}")
            arr = trace.arrays[gate]
            total += float(arr.sum())
            count += arr.size
        if count == 0:
            raise ContractError("no tokens to average over")
        return total / count
