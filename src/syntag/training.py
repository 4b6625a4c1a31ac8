"""Training loop, SGD with decay, checkpoints, and tree randomization."""

from __future__ import annotations

import contextlib
import dataclasses
import heapq
import io
import json
import math
import os
import zipfile
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, backward
from .data import (Vocabulary, build_vocab, convert_label_scheme,
                   load_embeddings, parse_corpus)
from .errors import ContractError, DataIntegrityError, FormatError, NumericalError
from .evaluation import entity_f1
from .model import ModelConfig, SequenceTagger, typed_value

CHECKPOINT_VERSION = 3
META_MEMBER = "meta.json"


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
        # rate * (grad + l2 * data), in that order, in one temporary.
        t = p.data * l2
        t += p.grad
        t *= rate
        p.data -= t
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
    seq = seq.tolist()
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
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
    and relations from the config.tree_file sentence with the same tokens,
    so one file in any order can serve train, dev and test; a sentence with
    no such entry raises DataIntegrityError. Every corpus the model
    touches, evaluation data included, passes through here. Each sentence
    is copied once; a 'given' bioes corpus comes back as a new list of the
    same sentences.
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
        trees = _trees_by_tokens(config.tree_file, config.label_scheme)
    out = []
    for i, s in enumerate(corpus):
        c = s.copy()
        if source == "random":
            c.heads = random_tree_heads(len(s), rng)
            c.deprels = [relations[r] for r in
                         rng.integers(0, len(relations), size=len(s)).tolist()]
        elif source == "predicted":
            tree = trees.get(tuple(s.tokens))
            if tree is None:
                start = " ".join(s.tokens[:5]) + (" ..." if len(s) > 5 else "")
                raise DataIntegrityError(
                    f"sentence {i} ({start}) has no tree in {config.tree_file}")
            c.heads, c.deprels = list(tree.heads), list(tree.deprels)
        if convert:
            c.labels = convert_label_scheme(s.labels, config.label_scheme, "bioes")
        out.append(c)
    return out


def _trees_by_tokens(path, label_scheme):
    """Each sentence of a tree file, keyed by its token tuple.

    A token tuple may repeat only with the same heads and relations.
    """
    trees = {}
    for j, t in enumerate(parse_corpus(path, label_scheme=label_scheme)):
        i, seen = trees.setdefault(tuple(t.tokens), (j, t))
        if (seen.heads, seen.deprels) != (t.heads, t.deprels):
            raise DataIntegrityError(f"{path}: sentences {i} and {j} have the "
                                     "same tokens but different trees")
    return {key: t for key, (_, t) in trees.items()}


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
    """Write a checkpoint as an uncompressed zip, the container of ``np.savez``.

    ``meta.json`` holds the format version, config, vocabulary, best dev F1
    and best epoch; each tensor is a C-order ``<f8`` member ``<name>.npy``.
    Every member carries its own CRC-32. The file is written and synced
    beside ``path``, renamed over it only once complete, and the directory
    synced after, so a failed save leaves any previous checkpoint untouched
    and a finished one survives a crash.
    """
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(ckpt.config),
        "vocab": ckpt.vocab.to_dict(),
        "best_dev_f1": ckpt.best_dev_f1,
        "best_epoch": ckpt.best_epoch,
    }
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as zf:
                zf.writestr(zipfile.ZipInfo(META_MEMBER), json.dumps(meta))
                for name, arr in ckpt.params.items():
                    a = np.ascontiguousarray(arr, dtype="<f8")
                    with zf.open(zipfile.ZipInfo(f"{name}.npy"), "w",
                                 force_zip64=True) as member:  # over 2 GiB, as np.savez
                        np.lib.format.write_array(member, a)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    directory = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def load_checkpoint(path):
    """Read a checkpoint written by ``save_checkpoint``.

    A bad CRC-32, a truncated file, a repeated, compressed or stray member
    and a ``.npy`` header that does not describe the bytes after it each
    raise FormatError naming the member. Every FormatError starts with the
    path, as ``data.parse_corpus``'s errors do. Tensors are read-only views
    of their members' bytes; ``build_model`` copies them into the model.
    """
    try:
        return _read_checkpoint(path)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _read_checkpoint(path):
    with open(path, "rb") as fh:
        head = fh.read(6)
        if head[:4] == b"SYNL":  # the hand-rolled container of versions 1 and 2
            version = int.from_bytes(head[4:], "little")
            raise FormatError(f"unsupported checkpoint version {version} "
                              "(there is no converter; retrain the model)")
        where, params = "zip directory", {}
        try:
            with zipfile.ZipFile(fh) as zf:
                for info in zf.infolist():
                    where = f"member {info.filename!r}"
                    if zf.getinfo(info.filename) is not info:  # a later one has the name
                        raise ValueError("the name is repeated")
                    if info.compress_type != zipfile.ZIP_STORED:
                        raise ValueError("the member is compressed")
                    if info.filename.endswith(".npy"):
                        params[info.filename[:-len(".npy")]] = _npy_tensor(zf.read(info))
                    elif info.filename != META_MEMBER:
                        raise ValueError(f"neither {META_MEMBER} nor a .npy tensor")
                where = f"member {META_MEMBER!r}"
                meta = json.loads(zf.read(META_MEMBER))
        except (zipfile.BadZipFile, EOFError, ValueError, KeyError, RuntimeError) as exc:
            raise FormatError(f"bad checkpoint {where}: {exc}") from None
    try:
        if meta["version"] != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {meta['version']!r}")
        types = {f.name: f.type for f in dataclasses.fields(ModelConfig)}
        config = ModelConfig(**{name: typed_value(f"config.{name}", value, types[name])
                                for name, value in meta["config"].items()}).validate()
        vocab = Vocabulary.from_dict(meta["vocab"])
        best_f1 = float(typed_value("best_dev_f1", meta["best_dev_f1"], "float"))
        best_epoch = typed_value("best_epoch", meta["best_epoch"], "int")
    except (KeyError, TypeError, AttributeError, ContractError) as exc:
        raise FormatError(f"bad checkpoint metadata: {exc}") from None
    return Checkpoint(config, vocab, params, best_f1, best_epoch)


def _npy_tensor(data):
    """The ``<f8`` array a ``.npy`` member's bytes hold, as a view of them.

    The header is checked against the bytes after it before the array
    exists, so a forged shape allocates nothing.
    """
    stream = io.BytesIO(data)
    if np.lib.format.read_magic(stream) != (1, 0):
        raise ValueError("not a version 1.0 .npy header")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(stream)
    size = len(data) - stream.tell()
    if dtype != np.dtype("<f8") or fortran_order or 8 * math.prod(shape) != size:
        raise ValueError(f"header says {dtype.str}, {'Fortran' if fortran_order else 'C'}"
                         f" order, shape {shape}; a tensor must be C-order <f8 filling"
                         f" the {size} data bytes that follow")
    return np.frombuffer(data, "<f8", offset=stream.tell()).reshape(shape)


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
