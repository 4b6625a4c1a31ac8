"""Training loop, SGD with decay, checkpoints, and tree randomization."""

from __future__ import annotations

import contextlib
import dataclasses
import heapq
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, backward
from .data import (Vocabulary, build_vocab, convert_label_scheme,
                   load_embeddings, parse_corpus)
from .errors import ContractError, DataIntegrityError, FormatError, NumericalError
from .evaluation import entity_f1
from .model import ModelConfig, SequenceTagger, typed_value

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


def random_tree(n, rng):
    """Uniform random unrooted labeled tree over n nodes as adjacency lists."""
    edges = _prufer_decode(rng.integers(0, n, size=n - 2), n) if n > 1 else []
    adjacent = [[] for _ in range(n)]
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    return adjacent


def orient(adjacent, root):
    """Parent of every node when the tree hangs from ``root`` (-1 for the root)."""
    parent = [-1] * len(adjacent)
    stack = [root]
    while stack:
        cur = stack.pop()
        for nxt in adjacent[cur]:
            if nxt != parent[cur]:  # in a tree, the only neighbour already seen
                parent[nxt] = cur
                stack.append(nxt)
    return parent


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
    adjacent = random_tree(n, rng)
    root = int(rng.integers(0, n))
    return [p + 1 for p in orient(adjacent, root)]


def prepare_corpus(corpus, config):
    """The corpus the model sees: trees from config.tree_source, bioes labels.

    The original-dependency ablation behaves like tree_source 'random': one
    generator seeded with config.seed draws each sentence's heads, then its
    relations, uniformly from the relation labels the corpus holds, so their
    marginal distribution carries no syntax either. 'predicted' copies heads
    and relations from config.tree_file, which must align sentence by
    sentence. Every corpus the model touches, evaluation data included,
    passes through here. Each sentence is copied once; a 'given' bioes
    corpus comes back as a new list of the same sentences.
    """
    source = config.tree_source
    if config.drop == "original-dependency":
        source = "random"
    convert = config.label_scheme != "bioes"
    if source == "given" and not convert:
        return list(corpus)
    if source == "random":
        rng = np.random.default_rng(config.seed)
        relations = list(dict.fromkeys(r for s in corpus for r in s.deprels))
        if not relations:
            raise ContractError("corpus has no relation labels to sample from")
    elif source == "predicted":
        trees = parse_corpus(config.tree_file, label_scheme=config.label_scheme)
        if len(trees) != len(corpus):
            raise DataIntegrityError(
                f"corpora differ in sentence count: {len(corpus)} vs {len(trees)}")
    out = []
    for i, s in enumerate(corpus):
        c = s.copy()
        if source == "random":
            c.heads = random_tree_heads(len(s), rng)
            c.deprels = [relations[int(rng.integers(0, len(relations)))]
                         for _ in range(len(s))]
        elif source == "predicted":
            if len(trees[i]) != len(s):
                raise DataIntegrityError(
                    f"sentence {i} differs in length: {len(s)} vs {len(trees[i])}")
            c.heads, c.deprels = list(trees[i].heads), list(trees[i].deprels)
        if convert:
            c.labels = convert_label_scheme(s.labels, config.label_scheme, "bioes")
        out.append(c)
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


class _ChecksumReader:
    """Reads a checkpoint's body from the file, folding every byte into a CRC32.

    Every read is checked against the bytes left in the file first, so a
    corrupt size field cannot ask for more memory than the file holds.
    """

    def __init__(self, fh):
        self.fh = fh
        self.left = os.fstat(fh.fileno()).st_size - fh.tell()
        self.crc = 0

    def need(self, count, what):
        if count > self.left:
            raise FormatError(f"checkpoint truncated while reading {what}")

    def read(self, count, what):
        self.need(count, what)
        return self.read_into(bytearray(count), what)

    def read_into(self, buf, what):
        view = memoryview(buf).cast("B")
        if self.fh.readinto(view) != len(view):
            raise FormatError(f"checkpoint truncated while reading {what}")
        self.crc = zlib.crc32(view, self.crc)
        self.left -= len(view)
        return buf

    def check(self, stored):
        """Fold in the rest of the file and compare the CRC with ``stored``."""
        while chunk := self.fh.read(1 << 16):
            self.crc = zlib.crc32(chunk, self.crc)
        if self.crc != stored:
            raise FormatError(f"checkpoint checksum mismatch (stored {stored:08x}, "
                              f"computed {self.crc:08x}): the file is damaged or truncated")


def load_checkpoint(path):
    """Read a checkpoint written by ``save_checkpoint``.

    Tensors are read straight from the file into their arrays. When the
    body fails to parse, the rest of the file is read and its checksum
    checked first, so a damaged file raises a checksum mismatch.
    """
    with open(path, "rb") as fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise FormatError("not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<H", _read_exact(fh, 2, "version"))
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        (stored,) = struct.unpack("<I", _read_exact(fh, 4, "checksum"))
        body = _ChecksumReader(fh)
        try:
            ckpt = _parse_checkpoint_body(body)
        except Exception:
            body.check(stored)
            raise
        body.check(stored)
    return ckpt


def _parse_checkpoint_body(body):
    (meta_len,) = struct.unpack("<Q", body.read(8, "metadata size"))
    try:
        meta = json.loads(body.read(meta_len, "metadata"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"bad checkpoint metadata: {exc}") from None
    try:
        types = {f.name: f.type for f in dataclasses.fields(ModelConfig)}
        config = ModelConfig(**{name: typed_value(f"config.{name}", value, types[name])
                                for name, value in meta["config"].items()}).validate()
        vocab = Vocabulary.from_dict(meta["vocab"])
        best_f1 = float(typed_value("best_dev_f1", meta["best_dev_f1"], "float"))
        best_epoch = typed_value("best_epoch", meta["best_epoch"], "int")
    except (KeyError, TypeError, AttributeError, ContractError) as exc:
        raise FormatError(f"bad checkpoint metadata: {exc}") from None
    params = {}
    while body.left:
        record = f"tensor record {len(params)}"  # each earlier one added a name
        (name_len,) = struct.unpack("<H", body.read(2, record))
        try:
            name = body.read(name_len, f"name of {record}").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{record}: the name is not UTF-8") from None
        if name in params:
            raise FormatError(f"{record} repeats tensor {name!r}")
        (rank,) = struct.unpack("<H", body.read(2, f"rank of {name}"))
        shape = struct.unpack(f"<{rank}Q", body.read(8 * rank, f"shape of {name}"))
        body.need(8 * math.prod(shape), f"data of {name}")
        data = np.empty(shape, dtype="<f8")
        body.read_into(data.reshape(-1), f"data of {name}")
        params[name] = data.astype(np.float64, copy=False)
    return Checkpoint(config, vocab, params, best_f1, best_epoch)


class _NoDraw:
    """Stands in for the seeded generator when every tensor is then loaded."""

    @staticmethod
    def uniform(low, high, size):
        return np.empty(size)


def build_model(ckpt):
    """Reconstruct a model from a checkpoint, loading every tensor."""
    model = SequenceTagger(ckpt.config, ckpt.vocab, rng=_NoDraw())
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
        np.copyto(named[name].data, arr)
    return model


# ----- the loop ------------------------------------------------------------

@dataclass
class TrainResult:
    checkpoint: Checkpoint
    epoch_losses: list
    dev_f1s: list


def _dev_f1(model, dev):
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
