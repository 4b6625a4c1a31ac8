"""Training loop, SGD with decay, checkpoints, and tree randomization."""

from __future__ import annotations

import contextlib
import dataclasses
import heapq
import io
import json
import os
import struct
import zlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, backward
from .data import (Vocabulary, build_vocab, convert_label_scheme,
                   corpus_alignment_check, load_embeddings, parse_corpus)
from .errors import ContractError, FormatError, NumericalError
from .model import ModelConfig, SequenceTagger

CHECKPOINT_MAGIC = b"SYNL"
CHECKPOINT_VERSION = 2


def epoch_lr(epoch, lr, decay):
    """Learning rate for a 1-based epoch: lr / (1 + decay * (epoch - 1))."""
    if epoch < 1:
        raise ContractError(f"epochs are 1-based, got {epoch}")
    return lr / (1.0 + decay * (epoch - 1))


def sgd_step(params, rate, l2=0.0):
    """In-place SGD update with L2 penalty; clears gradients afterwards.

    Every parameter must carry a gradient: a missing one means the forward
    pass never touched it, which is a wiring bug worth failing loudly on.
    """
    for name, p in params.items():
        if p.grad is None:
            raise ContractError(f"parameter {name!r} has no gradient")
    for p in params.values():
        p.data -= rate * (p.grad + l2 * p.data)
        p.grad = None


def clip_gradients(params, max_norm):
    """Scale all gradients so their global L2 norm is at most max_norm.

    Returns the norm before clipping. max_norm of 0 disables clipping.
    A norm that is not finite raises NumericalError before any gradient is
    touched, naming the parameter with a non-finite gradient (or, if every
    gradient is finite and only the sum overflows, the largest one).
    """
    squares = {name: float((p.grad * p.grad).sum())
               for name, p in params.items() if p.grad is not None}
    norm = float(np.sqrt(sum(squares.values())))
    if not np.isfinite(norm):
        bad = next((name for name, sq in squares.items() if not np.isfinite(sq)),
                   max(squares, key=squares.get))
        raise NumericalError(f"gradient norm {norm!r}", parameter=bad)
    if max_norm > 0.0 and norm > max_norm:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


# ----- random trees ------------------------------------------------------

def _prufer_decode(seq, n):
    """Edges of the labeled tree encoded by a Prufer sequence of length n-2."""
    degree = np.ones(n, dtype=np.intp)
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, int(v)))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, int(v))
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return edges


def random_tree_heads(n, rng):
    """Heads of a uniformly random rooted tree over n tokens.

    Cayley's formula gives n^(n-1) rooted labeled trees; drawing a uniform
    Prufer sequence (n^(n-2) unrooted trees) and then a uniform root makes
    every rooted tree equally likely. Heads follow the corpus convention:
    1-based, 0 for the root.
    """
    if n < 1:
        raise ContractError("a tree needs at least one token")
    if n == 1:
        return [0]
    if n == 2:
        edges = [(0, 1)]
    else:
        seq = rng.integers(0, n, size=n - 2)
        edges = _prufer_decode(seq, n)
    root = int(rng.integers(0, n))
    adjacent = [[] for _ in range(n)]
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    heads = [0] * n
    seen = [False] * n
    seen[root] = True
    queue = deque([root])
    while queue:
        cur = queue.popleft()
        for nxt in adjacent[cur]:
            if not seen[nxt]:
                seen[nxt] = True
                heads[nxt] = cur + 1
                queue.append(nxt)
    return heads


def randomize_trees(corpus, seed):
    """Replace every tree with a uniform random one, relations included.

    Relation labels are drawn uniformly from the set observed in the
    corpus, so their marginal distribution carries no syntax either.
    """
    rng = np.random.default_rng(seed)
    rel_names = []
    seen = set()
    for s in corpus:
        for r in s.deprels:
            if r not in seen:
                seen.add(r)
                rel_names.append(r)
    if not rel_names:
        raise ContractError("corpus has no relation labels to sample from")
    out = []
    for s in corpus:
        c = s.copy()
        c.heads = random_tree_heads(len(s), rng)
        c.deprels = [rel_names[int(rng.integers(0, len(rel_names)))]
                     for _ in range(len(s))]
        out.append(c)
    return out


def graft_trees(corpus, tree_corpus):
    """Copy heads and relations from an aligned corpus onto this one."""
    corpus_alignment_check(corpus, tree_corpus)
    out = []
    for s, t in zip(corpus, tree_corpus):
        c = s.copy()
        c.heads = list(t.heads)
        c.deprels = list(t.deprels)
        out.append(c)
    return out


def apply_tree_source(corpus, config, seed=None):
    """Produce the corpus the model actually sees, trees included.

    Honors config.tree_source and the original-dependency ablation (which
    behaves like tree_source 'random'). The same transformation must be
    applied to any corpus the model touches, evaluation data included.
    """
    source = config.tree_source
    if config.drop == "original-dependency":
        source = "random"
    if source == "given":
        return list(corpus)
    if source == "random":
        return randomize_trees(corpus, config.seed if seed is None else seed)
    trees = parse_corpus(config.tree_file, label_scheme=config.label_scheme)
    return graft_trees(corpus, trees)


def prepare_corpus(corpus, config, seed=None):
    """Tree-source transformation plus conversion to the internal tagging

    scheme; the model always trains and decodes over bioes labels.
    """
    out = apply_tree_source(corpus, config, seed=seed)
    if config.label_scheme != "bioes":
        converted = []
        for s in out:
            c = s.copy()
            c.labels = convert_label_scheme(s.labels, config.label_scheme,
                                            "bioes")
            converted.append(c)
        out = converted
    return out


# ----- checkpoints --------------------------------------------------------

@dataclass
class Checkpoint:
    config: ModelConfig
    vocab: Vocabulary
    params: dict
    best_dev_f1: float
    best_epoch: int


def snapshot_params(model):
    return {name: t.data.copy() for name, t in model.named_tensors().items()}


def save_checkpoint(ckpt, path):
    """Write a checkpoint in the binary container format.

    Layout (little-endian): 4-byte magic, u16 version, u32 CRC32 of
    everything after it, u64 metadata length, UTF-8 JSON metadata, then one
    record per tensor: u16 name length, name, u16 rank, rank u64 dims, and
    the row-major float64 payload.

    The file is written beside ``path`` under a temporary name and renamed
    over it only once complete, so a save that fails or is interrupted
    leaves any previous checkpoint at ``path`` untouched.
    """
    meta = {
        "config": dataclasses.asdict(ckpt.config),
        "vocab": ckpt.vocab.to_dict(),
        "best_dev_f1": ckpt.best_dev_f1,
        "best_epoch": ckpt.best_epoch,
    }
    blob = json.dumps(meta, ensure_ascii=False).encode("utf-8")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<HI", CHECKPOINT_VERSION, 0))  # CRC32 below
            crc = 0

            def write(data):
                nonlocal crc
                crc = zlib.crc32(data, crc)
                fh.write(data)

            write(struct.pack("<Q", len(blob)))
            write(blob)
            for name, arr in ckpt.params.items():
                nb = name.encode("utf-8")
                write(struct.pack("<H", len(nb)))
                write(nb)
                a = np.ascontiguousarray(arr, dtype=np.float64)
                write(struct.pack("<H", a.ndim))
                write(struct.pack(f"<{a.ndim}Q", *a.shape))
                write(a.astype("<f8", copy=False).tobytes())
            fh.seek(len(CHECKPOINT_MAGIC) + 2)
            fh.write(struct.pack("<I", crc))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _read_exact(fh, count, what):
    data = fh.read(count)
    if len(data) != count:
        raise FormatError(f"checkpoint truncated while reading {what}")
    return data


def load_checkpoint(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    with io.BytesIO(raw) as fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise FormatError("not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<H", _read_exact(fh, 2, "version"))
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        (stored,) = struct.unpack("<I", _read_exact(fh, 4, "checksum"))
        crc = zlib.crc32(memoryview(raw)[fh.tell():])
        if crc != stored:
            raise FormatError(f"checkpoint checksum mismatch (stored {stored:08x}, "
                              f"computed {crc:08x}): the file is damaged or truncated")
        (meta_len,) = struct.unpack("<Q", _read_exact(fh, 8, "metadata size"))
        try:
            meta = json.loads(_read_exact(fh, meta_len, "metadata"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"bad checkpoint metadata: {exc}") from None
        try:
            config = ModelConfig(**meta["config"])
            vocab = Vocabulary.from_dict(meta["vocab"])
            best_f1 = float(meta["best_dev_f1"])
            best_epoch = int(meta["best_epoch"])
        except (KeyError, TypeError) as exc:
            raise FormatError(f"bad checkpoint metadata: {exc}") from None
        params = {}
        while True:
            head = fh.read(2)
            if len(head) == 0:
                break
            if len(head) != 2:
                raise FormatError("checkpoint truncated while reading a record")
            (name_len,) = struct.unpack("<H", head)
            name = _read_exact(fh, name_len, "tensor name").decode("utf-8")
            (rank,) = struct.unpack("<H", _read_exact(fh, 2, f"rank of {name}"))
            shape = struct.unpack(
                f"<{rank}Q", _read_exact(fh, 8 * rank, f"shape of {name}"))
            data = np.empty(shape, dtype="<f8")
            if fh.readinto(data) != data.nbytes:
                raise FormatError(f"checkpoint truncated while reading data of {name}")
            params[name] = data.astype(np.float64, copy=False)
    return Checkpoint(config, vocab, params, best_f1, best_epoch)


def build_model(ckpt):
    """Reconstruct a model from a checkpoint, loading every tensor."""
    model = SequenceTagger(ckpt.config, ckpt.vocab,
                           rng=np.random.default_rng(ckpt.config.seed))
    named = model.named_tensors()
    missing = sorted(set(named) - set(ckpt.params))
    extra = sorted(set(ckpt.params) - set(named))
    if missing or extra:
        raise FormatError(
            f"checkpoint tensors do not match the model: "
            f"missing {missing}, unexpected {extra}"
        )
    for name, arr in ckpt.params.items():
        if named[name].data.shape != arr.shape:
            raise FormatError(
                f"tensor {name!r} has shape {arr.shape}, model expects "
                f"{named[name].data.shape}"
            )
        named[name].data = arr.copy()
    return model


# ----- the loop ------------------------------------------------------------

@dataclass
class TrainResult:
    checkpoint: Checkpoint
    epoch_losses: list
    dev_f1s: list


def _dev_f1(model, dev):
    from .evaluation import entity_f1
    pred = model.predict(dev)
    return entity_f1([s.labels for s in dev], pred).f1


def train(config, train_corpus, dev_corpus):
    """Full training run; returns the best checkpoint by dev F1.

    The initial model (epoch 0) takes part in model selection, later
    epochs replace it only on a strictly better dev F1, so ties resolve
    to the earlier epoch. Seeding is split into independent streams for
    initialization, batch order, and dropout, which makes runs bitwise
    reproducible for a given seed.
    """
    config.validate()
    if not train_corpus:
        raise ContractError("training corpus is empty")
    if not dev_corpus:
        raise ContractError("dev corpus is empty")
    train_c = prepare_corpus(train_corpus, config)
    dev_c = prepare_corpus(dev_corpus, config)
    vocab = build_vocab(train_c, config.min_count)

    seed_seq = np.random.SeedSequence(config.seed)
    init_ss, order_ss, drop_ss = seed_seq.spawn(3)
    init_rng = np.random.default_rng(init_ss)
    order_rng = np.random.default_rng(order_ss)
    drop_rng = np.random.default_rng(drop_ss)

    cfg = config
    word_matrix = None
    if config.embeddings:
        word_matrix = load_embeddings(config.embeddings, vocab, init_rng)
        if word_matrix.shape[1] != config.word_dim:
            cfg = dataclasses.replace(config,
                                      word_dim=int(word_matrix.shape[1]))
    model = SequenceTagger(cfg, vocab, rng=init_rng, word_matrix=word_matrix)

    best_f1 = _dev_f1(model, dev_c)
    best_params = snapshot_params(model)
    best_epoch = 0
    dev_f1s = [best_f1]
    epoch_losses = []
    count = len(train_c)

    for epoch in range(1, cfg.epochs + 1):
        rate = epoch_lr(epoch, cfg.lr, cfg.decay)
        order = order_rng.permutation(count)
        total_nll = 0.0
        for batch_index, lo in enumerate(range(0, count, cfg.batch_size)):
            batch = [train_c[i] for i in order[lo: lo + cfg.batch_size]]
            with Tape():
                loss = model.loss_batch(batch, train=True, rng=drop_rng)
                value = loss.item()
                if not np.isfinite(value):
                    raise NumericalError(
                        f"non-finite loss {value!r}",
                        epoch=epoch, batch=batch_index,
                    )
                backward(loss)
            try:
                clip_gradients(model.parameters(), cfg.clip_norm)
            except NumericalError as exc:
                exc.epoch, exc.batch = epoch, batch_index
                raise
            sgd_step(model.parameters(), rate, cfg.l2)
            total_nll += value * len(batch)
        epoch_losses.append(total_nll / count)
        f1 = _dev_f1(model, dev_c)
        dev_f1s.append(f1)
        if f1 > best_f1:
            best_f1 = f1
            best_params = snapshot_params(model)
            best_epoch = epoch

    ckpt = Checkpoint(cfg, vocab, best_params, best_f1, best_epoch)
    return TrainResult(ckpt, epoch_losses, dev_f1s)
