"""Model configuration and the sequence tagger.

Three variants share one code path:

- ``syn-lstm-crf``: a graph encoder feeds a graph-gated LSTM cell whose
  extra gate mixes graph context into the cell state.
- ``bilstm-crf``: a plain bidirectional LSTM over token features only;
  heads and relation labels are never read.
- ``gcn-concat-bilstm-crf``: the graph encoder output is concatenated to
  the token features and a plain bidirectional LSTM runs on top.

All variants end in the same linear projection and CRF layer. From the
embedding gathers through the recurrence a batch is its real positions only,
sentence b's rows after sentence b - 1's. Padded, with row ``b * n_max + t``
for sentence b, position t, are the dropout draws (a mask covers every
padded row and keeps the real ones'), the emissions and the CRF.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import math
import platform
from dataclasses import dataclass

import numpy as np

from . import crf as crf_mod
from .autodiff import Tensor, concat, constant, record, rows
from .data import SCHEMES, Vocabulary, read_lines
from .embeddings import CharEncoder, EmbeddingTables, scatter_token_rows
from .errors import ContractError, FormatError
from .gcn import GcnParams, batch_normalized_adjacency, encode_batch
from .recurrent import LstmParams, bidirectional

VARIANTS = ("syn-lstm-crf", "bilstm-crf", "gcn-concat-bilstm-crf")
DROPS = ("gcn-1-layer", "gcn-all", "deprel-embedding", "pos-embedding",
         "original-dependency")
TREE_SOURCES = ("given", "random", "predicted")
# Padded char positions (forms times the longest form) per char-encoder call
# in ``predict``; a longer form is a call of its own. At the paper's char_dim
# of 30 a call's char embeddings take at most 2 MB. On predict-zipf's 1,718
# forms one call (2^15) raised peak RSS by 3 MB and this value by 1.6 MB, at
# the same speed: each large call still runs its directions on two threads.
_CHAR_BLOCK = 1 << 13


@functools.cache
def _keep_freed_memory():
    """Keep the memory each step frees in glibc's heap; the mallopt results.

    By default glibc unmaps freed large arrays and trims the heap top, so
    every training step faults its pages in again; and it gives the thread
    that runs a recurrence's reverse direction an arena of its own, whose
    pages fault in anew. Once per process; a no-op off glibc.
    """
    if platform.libc_ver()[0] != "glibc":
        return ()
    mallopt = ctypes.CDLL(None).mallopt
    return (mallopt(-3, 32 << 20),  # M_MMAP_THRESHOLD at its 64-bit maximum
            mallopt(-1, 1 << 30),   # M_TRIM_THRESHOLD
            mallopt(-8, 1))         # M_ARENA_MAX: every thread shares one heap


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
        if self.label_scheme not in SCHEMES:
            raise ContractError(f"unknown label scheme {self.label_scheme!r}")
        for name in ("hidden", "gcn_layers", "word_dim", "char_dim",
                     "char_hidden", "deprel_dim", "pos_dim", "batch_size"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ContractError("dropout must be in [0, 1)")
        for name in ("lr", "decay", "l2", "clip_norm"):
            if not math.isfinite(getattr(self, name)):
                raise ContractError(f"{name} must be finite")
        if self.lr <= 0.0:
            raise ContractError("lr must be positive")
        if self.decay < 0.0 or self.l2 < 0.0 or self.clip_norm < 0.0:
            raise ContractError("decay, l2 and clip_norm must be >= 0")
        if self.epochs < 0:
            raise ContractError("epochs must be >= 0")
        if self.min_count < 1:
            raise ContractError("min_count must be >= 1")
        if self.seed < 0:
            raise ContractError("seed must be >= 0")
        return self

    @classmethod
    def from_file(cls, path):
        kwargs, first_line = {}, {}
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        for lineno, raw in enumerate(read_lines(path, FormatError), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in types:
                raise FormatError(f"{path}:{lineno}: unknown option {key!r}")
            if key in first_line:
                raise FormatError(f"{path}:{lineno}: option {key!r} repeats "
                                  f"line {first_line[key]}")
            first_line[key] = lineno
            try:
                kwargs[key] = _FIELD_TYPES[types[key]][0](value)
            except ValueError:
                raise FormatError(
                    f"{path}:{lineno}: bad value {value!r} for {key!r}"
                ) from None
        return cls(**kwargs).validate()


def _parse_bool(value):
    low = value.lower()
    if low not in ("true", "false"):
        raise ValueError(value)
    return low == "true"


# Each config field annotation (a string here): the parser of its text value
# in a config file, and the JSON types its value may have in a checkpoint.
_FIELD_TYPES = {
    "int": (int, int),
    "float": (float, (int, float)),
    "bool": (_parse_bool, bool),
    "str": (str, str),
    "str | None": (lambda value: None if value.lower() == "none" else value,
                   (str, type(None))),
}


def typed_value(name, value, annotation):
    """``value`` if its type fits a config field annotation, else TypeError.

    A bool fits only ``bool``, though Python counts it as an int.
    """
    want = _FIELD_TYPES[annotation][1]
    if not isinstance(value, want) or (isinstance(value, bool) and want is not bool):
        raise TypeError(f"{name} is {value!r}, expected {annotation}")
    return value


def _form_rows(sentences):
    """Each distinct form's row, numbered in order of first appearance."""
    return {tok: i for i, tok in enumerate(
        dict.fromkeys(tok for s in sentences for tok in s.tokens))}


def _word_ids(vocab, forms):
    """Each form's word id, then the 0 that a padded position reads."""
    return np.array([vocab.word_id(tok) for tok in forms] + [0], dtype=np.intp)


@dataclass
class _Forms:
    """Distinct forms encoded once: ``row`` maps each form to its row of
    ``word_ids`` and ``char_vecs``; ``word_ids`` ends in the 0 that padded
    positions read in ``_batch_arrays``."""

    row: dict
    word_ids: np.ndarray
    char_vecs: object


@dataclass
class BatchForward:
    """Everything the loss and decoder need from one forward pass."""

    emissions: object          # (B * n_max, L) tensor
    lengths: list
    n_max: int


class SequenceTagger:
    """A configured model instance holding all learnable tensors."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary, rng=None,
                 word_matrix=None):
        _keep_freed_memory()
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

        self.gcn = None
        if self.use_graph and not self.zero_graph:
            layers = 1 if config.drop == "gcn-1-layer" else config.gcn_layers
            self.gcn = GcnParams(token_dim, config.hidden, layers, rng)

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
            bioes_labels=vocab.label_names if config.crf_constraints else None)

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
        for name, t in self.crf.parameters().items():
            out[f"crf.{name}"] = t
        return out

    def parameters(self):
        """Trainable tensors only (the frozen word table is excluded)."""
        out = self.named_tensors()
        if not self.config.fine_tune_words:
            del out["word_table"]
        return out

    # ----- forward ----------------------------------------------------

    def _batch_arrays(self, sentences, forms=None):
        """Index arrays of a padded batch.

        ``position_of`` indexes the batch's distinct forms, first seen
        first, whose char ids ``char_rows`` holds; or the rows of a
        ``_Forms`` table, and ``char_rows`` is None. A padded position holds
        the number of forms: the index of the zero row and the 0 word id
        that follow the forms' rows.
        """
        vocab = self.vocab
        batch = len(sentences)
        lengths = [len(s) for s in sentences]
        n_max = max(lengths)
        total = batch * n_max
        pos_ids = np.zeros(total, dtype=np.intp)
        deprel_ids = np.zeros(total, dtype=np.intp)
        # One char row per distinct form; repeats gather the same row, and
        # ``rows`` scatter-adds their gradients back into it.
        form_row = _form_rows(sentences) if forms is None else forms.row
        position_of = np.full(total, len(form_row), dtype=np.intp)
        for b, s in enumerate(sentences):
            for t, tok in enumerate(s.tokens):
                r = b * n_max + t
                pos_ids[r] = vocab.pos_id(s.pos_tags[t])
                deprel_ids[r] = vocab.deprel_id(s.deprels[t])
                position_of[r] = form_row[tok]
        if forms is None:
            char_rows = [[vocab.char_id(c) for c in tok] for tok in form_row]
            word_of = _word_ids(vocab, form_row)
        else:
            char_rows, word_of = None, forms.word_ids
        word_ids = word_of[position_of]
        return (batch, lengths, n_max, word_ids, pos_ids, deprel_ids,
                position_of, char_rows)

    def _encode_forms(self, sentences):
        """A ``_Forms`` table of every distinct form in ``sentences``.

        The forms are encoded shortest first, in calls whose padded char
        positions (forms times the longest form) stay within
        ``_CHAR_BLOCK``. A form's row equals the one a call over its
        batch's forms gives, up to rounding: BLAS may round a row
        differently in a matrix of another size.
        """
        row = _form_rows(sentences)
        forms = sorted(row, key=len)
        vecs = np.empty((len(forms), self.char_encoder.output_dim))
        lo = 0
        while lo < len(forms):
            hi = lo + 1
            while hi < len(forms) and (hi + 1 - lo) * len(forms[hi]) <= _CHAR_BLOCK:
                hi += 1
            chunk = forms[lo:hi]
            vecs[[row[tok] for tok in chunk]] = self.char_encoder.encode_batch(
                self.tables.char,
                [[self.vocab.char_id(c) for c in tok] for tok in chunk]).data
            lo = hi
        return _Forms(row, _word_ids(self.vocab, row), constant(vecs))

    def forward_batch(self, sentences, train=False, rng=None, gates=None,
                      forms=None):
        """Run the full encoder over a batch; returns a BatchForward.

        A ``gates`` dict collects the recurrent layer's gate activations
        (see ``recurrent.bidirectional``). Without ``forms`` the char
        encoder runs over the batch's distinct forms; a ``_Forms`` table
        (from ``_encode_forms``) that holds every form of the batch
        supplies their rows instead.
        """
        if not sentences:
            raise ContractError("empty batch")
        if train and self.config.dropout > 0.0 and rng is None:
            raise ContractError("training forward pass needs a dropout rng")
        (batch, lengths, n_max, word_ids, pos_ids, deprel_ids, position_of,
         char_rows) = self._batch_arrays(sentences, forms)
        real = (np.arange(n_max) < np.array(lengths)[:, None]).ravel()
        tokens = int(real.sum())

        char_vecs = (self.char_encoder.encode_batch(self.tables.char, char_rows)
                     if forms is None else forms.char_vecs)
        parts = [rows(self.tables.word, word_ids[real]),
                 rows(char_vecs, position_of[real])]
        if self.use_deprel:
            parts.append(rows(self.tables.deprel, deprel_ids[real]))
        x_parts = list(parts)
        if self.use_pos:
            x_parts.append(rows(self.tables.pos, pos_ids[real]))
        x = concat(x_parts, axis=1)
        if train:
            x = self._dropout(x, rng, real)
        # The gathered rows go once both concats exist; no closure reads them.
        g0 = concat(parts, axis=1) if self.gcn is not None else None
        del char_vecs, parts, x_parts

        g_flat = None
        if self.use_graph:
            if self.zero_graph:
                g_flat = constant(np.zeros((tokens, self.config.hidden)))
            else:
                if train:
                    g0 = self._dropout(g0, rng, real)
                adj = batch_normalized_adjacency(
                    [s.heads for s in sentences], n_max)
                g_flat = encode_batch(g0, adj, self.gcn,
                                      self_only=self.config.self_only_gcn)
                del g0
        if self.config.variant == "gcn-concat-bilstm-crf":
            x, g_flat = concat([x, g_flat], axis=1), None

        h = bidirectional(x, g_flat, lengths, self.cell_fwd, self.cell_bwd,
                          gates=gates)
        if train:
            h = self._dropout(h, rng, real)
        # Emissions stay padded, at the bias on padded rows: BLAS groups the
        # sums of the emission weights' gradient by the GEMM's row count.
        h = scatter_token_rows(h, np.where(real, np.cumsum(real) - 1, tokens),
                               len(real))
        emissions = crf_mod.emissions_from_hidden(h, self.crf)
        return BatchForward(emissions, lengths, n_max)

    def _dropout(self, x, rng, real=None):
        """With ``real``, a padded batch's mask of real rows, x holds those
        rows: the draw covers every padded row and keeps theirs."""
        p = self.config.dropout
        if p == 0.0:
            return x
        shape = x.data.shape if real is None else (len(real), x.data.shape[1])
        # keep * scale is bitwise keep.astype(float) / (1 - p), held as bools
        keep, scale = rng.random(shape) >= p, 1.0 / (1.0 - p)
        keep = keep if real is None else keep[real]
        return record(Tensor(x.data * (keep * scale)), (x,),
                      lambda g: (g * (keep * scale),))

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

    def predict(self, sentences, batch_size=32, gates=None):
        """Viterbi label sequences (raw label names) for each sentence.

        Sentences are run in batches of similar length to cut padding: a
        stable sort by length, ``batch_size`` consecutive sentences per
        forward pass, results written back in input order. A sentence's
        labels do not depend on which sentences share its batch. The char
        encoder runs once per call over its distinct forms, shortest first
        in calls of bounded size (see ``_encode_forms``), and each batch
        gathers its forms' rows from that table; each form's word id is
        looked up once per call too. A ``gates`` dict collects every
        batch's gate activations in the same pass, in batch order rather
        than input order (see ``recurrent.bidirectional``).
        """
        if batch_size < 1:
            raise ContractError(f"batch_size must be >= 1, got {batch_size}")
        forms = self._encode_forms(sentences)
        order = sorted(range(len(sentences)), key=lambda i: len(sentences[i]))
        trans = self.crf.effective_transitions()
        names = self.vocab.label_names
        out = [None] * len(sentences)
        for lo in range(0, len(order), batch_size):
            chunk = order[lo: lo + batch_size]
            fw = self.forward_batch([sentences[i] for i in chunk],
                                    gates=gates, forms=forms)
            em = fw.emissions.data.reshape(len(chunk), fw.n_max, -1)
            paths, _ = crf_mod.viterbi_batch(em, fw.lengths, trans)
            for i, ids in zip(chunk, paths):
                out[i] = [names[k] for k in ids]
        return out
