"""The benchmark's workloads: inputs, set-up, the timed operation, checks.

Every workload writes its generated inputs to files first, in a child
process and not timed, so that set-up goes through the package's own entry points: ``parse_corpus``,
``build_vocab`` and ``SequenceTagger`` for training, ``load_checkpoint`` and
``build_model`` for tagging. The timed operation is ``train()`` for the
training workloads and ``predict`` plus ``write_corpus`` for tagging.

- ``train-grid``: one seed-row of the acceptance grid (given trees, random
  trees, plain BiLSTM) on the synthetic corpus. Small shapes, 19 word
  forms: steps are dominated by Python and tape overhead, and this row
  stands in for the wall time of the nine-run grid in the test suite.
- ``train-paper``: the paper's default configuration on a Zipf corpus.
  Steps are matmul-bound, padding waste is high, and the char encoder sees
  many distinct forms.
- ``predict-zipf``: a seeded paper-default checkpoint tags a Zipf corpus.
  The same layers with no tape: Viterbi per sentence, padding in
  ``predict`` and char encoding of many forms.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from syntag.autodiff import Tape, backward
from syntag.data import (build_vocab, decode_label_spans, encode_label_spans,
                         parse_corpus, write_corpus)
from syntag.evaluation import entity_f1
from syntag.model import ModelConfig, SequenceTagger
from syntag.synthetic import experiment_config, generate_splits
from syntag.training import (Checkpoint, build_model, clip_gradients,
                             epoch_lr, load_checkpoint, prepare_corpus,
                             save_checkpoint, sgd_step, snapshot_params,
                             train)

import tracing
from zipf import corpus_stats, generate_zipf_corpus

SAMPLE = 8            # sentences re-predicted one per batch as a check
GRID_EPOCHS = 2       # enough for the falling-loss check
# train-paper trains on one 16-sentence length block, so each epoch is one
# padded batch of 16 at the length cap. A batch of 100 such sentences needs
# over 4 GB of tape and is too large to run beside other work.
PAPER_BLOCK = 16
PAPER_EPOCHS = 3
PREDICT_SIZE = 320    # ten predict batches of 32
PREDICT_EVAL = 128    # sentences per decode pass in the traced run


@dataclass
class OpResult:
    tokens: int
    steps: int        # train steps or predict batches: the counted ops
    seconds: float
    failures: list


def normalized(raw):
    """Re-encode raw Viterbi output through spans, as ``syntag predict`` does."""
    return [encode_label_spans(decode_label_spans(labels, "bioes",
                                                  drop_malformed=True),
                               len(labels), "bioes")
            for labels in raw]


def tag(corpus, labels):
    out = []
    for s, new in zip(corpus, labels):
        c = s.copy()
        c.labels = new
        out.append(c)
    return out


def label_digest(raw):
    text = "\n".join(" ".join(labels) for labels in raw)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_predictions(model, prepared, raw, tagged, path):
    """Checks on one model's predictions; returns failure messages.

    ``tagged`` must already be written to ``path`` with ``write_corpus``.
    """
    failures = []
    single = model.predict(prepared[:SAMPLE], batch_size=1)
    if single != raw[:SAMPLE]:
        failures.append("predictions differ when run one sentence per batch")
    if parse_corpus(path) != tagged:
        failures.append("predictions do not round-trip through the corpus format")
    return failures


def check_training(result):
    losses = result.epoch_losses
    failures = []
    if not all(math.isfinite(v) for v in losses):
        failures.append(f"non-finite epoch loss in {losses}")
    elif not losses[-1] < losses[0]:
        failures.append(f"epoch losses did not fall: {losses}")
    if not all(0.0 <= f <= 1.0 for f in result.dev_f1s):
        failures.append(f"dev F1 out of range: {result.dev_f1s}")
    return failures


class Session:
    """One model stepped on train()'s batches with train()'s random streams."""

    def __init__(self, model, train_c, eval_c, seed):
        _, order_ss, drop_ss = np.random.SeedSequence(seed).spawn(3)
        self.model = model
        self.train_c = train_c
        self.eval_c = eval_c
        self.order_rng = np.random.default_rng(order_ss)
        self.drop_rng = np.random.default_rng(drop_ss)
        self.epoch = 0
        self.pending = []

    def next_batch(self):
        """The next batch in train()'s order, and its learning rate."""
        cfg = self.model.config
        if not self.pending:
            self.epoch += 1
            order = self.order_rng.permutation(len(self.train_c))
            self.pending = [[self.train_c[i] for i in order[lo: lo + cfg.batch_size]]
                            for lo in range(0, len(order), cfg.batch_size)]
        return self.pending.pop(0), epoch_lr(self.epoch, cfg.lr, cfg.decay)


def _save_inputs(workdir, stats):
    with open(workdir / "inputs.json", "w", encoding="utf-8") as fh:
        json.dump(stats, fh)


def _load_inputs(workdir):
    with open(workdir / "inputs.json", encoding="utf-8") as fh:
        return json.load(fh)


class TrainWorkload:
    """``train()`` on written corpora; one operation trains every config once.

    Subclasses give ``make_splits(seed)`` (train, dev, test corpora) and
    ``make_configs(seed)`` ((label, ModelConfig) pairs).
    """

    main = "s"   # traced main operation: the training step
    tok_name = "train_tok_s"
    SPLITS = ("train", "dev", "test")

    @classmethod
    def write_inputs(cls, seed, workdir):
        splits = cls.make_splits(seed)
        for name, corpus in zip(cls.SPLITS, splits):
            write_corpus(corpus, workdir / f"{name}.tsv")
        _save_inputs(workdir, corpus_stats(
            splits[0], cls.make_configs(seed)[0][1].batch_size))

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.configs = self.make_configs(seed)
        self.paths = {name: workdir / f"{name}.tsv" for name in self.SPLITS}
        self.inputs = _load_inputs(workdir)
        self.first_losses = {}
        self.quality = {}

    def setup(self):
        st = {name: parse_corpus(path) for name, path in self.paths.items()}
        for _, cfg in self.configs:
            vocab = build_vocab(prepare_corpus(st["train"], cfg), cfg.min_count)
            SequenceTagger(cfg, vocab)
        return st

    def warm_up(self, st):
        _, cfg = self.configs[0]
        train(dataclasses.replace(cfg, epochs=1), st["train"][:16], st["dev"][:8])

    def expected_steps(self, st):
        return sum(cfg.epochs * math.ceil(len(st["train"]) / cfg.batch_size)
                   for _, cfg in self.configs)

    def op(self, st):
        tokens = sum(len(s) for s in st["train"])
        res = OpResult(0, 0, 0.0, [])
        for label, cfg in self.configs:
            start = time.perf_counter()
            result = train(cfg, st["train"], st["dev"])
            res.seconds += time.perf_counter() - start
            res.tokens += cfg.epochs * tokens
            res.steps += cfg.epochs * math.ceil(len(st["train"]) / cfg.batch_size)
            res.failures += [f"{label}: {m}" for m in self._check(label, cfg, result, st)]
        return res

    def _check(self, label, cfg, result, st):
        failures = check_training(result)
        if label in self.first_losses:
            if result.epoch_losses != self.first_losses[label]:
                failures.append("a rerun of the same config is not bitwise identical")
            return failures
        self.first_losses[label] = result.epoch_losses
        model = build_model(result.checkpoint)
        prepared = prepare_corpus(st["test"], cfg)
        raw = model.predict(prepared)
        tagged = tag(st["test"], normalized(raw))
        path = self.workdir / f"tagged-{label}.tsv"
        write_corpus(tagged, path)
        failures += check_predictions(model, prepared, raw, tagged, path)
        self.quality[label] = {
            "final_loss": result.epoch_losses[-1],
            "dev_f1": result.checkpoint.best_dev_f1,
            "test_labels_sha256": label_digest(raw),
        }
        return failures

    def sessions(self, st):
        out = []
        for _, cfg in self.configs:
            train_c = prepare_corpus(st["train"], cfg)
            init_ss = np.random.SeedSequence(cfg.seed).spawn(3)[0]
            model = SequenceTagger(cfg, build_vocab(train_c, cfg.min_count),
                                   rng=np.random.default_rng(init_ss))
            out.append(Session(model, train_c, prepare_corpus(st["dev"], cfg),
                               cfg.seed))
        return out


class TrainGrid(TrainWorkload):
    """One seed-row of the acceptance grid on the synthetic corpus."""

    @staticmethod
    def make_splits(seed):
        return generate_splits(200, 50, 50, seed=seed)

    @staticmethod
    def make_configs(seed):
        return [
            ("given", experiment_config("syn-lstm-crf", seed=seed,
                                        tree_source="given", epochs=GRID_EPOCHS)),
            ("random", experiment_config("syn-lstm-crf", seed=seed,
                                         tree_source="random", epochs=GRID_EPOCHS)),
            ("bilstm", experiment_config("bilstm-crf", seed=seed,
                                         epochs=GRID_EPOCHS)),
        ]


class TrainPaper(TrainWorkload):
    """Paper defaults on one Zipf length block per split."""

    @staticmethod
    def make_splits(seed):
        n = PAPER_BLOCK
        corpus = generate_zipf_corpus(3 * n, seed, block=n)
        return corpus[:n], corpus[n:2 * n], corpus[2 * n:]

    @staticmethod
    def make_configs(seed):
        return [("paper", ModelConfig(epochs=PAPER_EPOCHS, seed=seed))]


class PredictZipf:
    """A seeded, untrained paper-default checkpoint tags a Zipf corpus.

    The vocabulary comes from a first half of the generated text and the
    second half is tagged, so some forms are unknown words, as in use.
    """

    main = "d"   # traced main operation: the predict batch
    tok_name = "predict_tok_s"

    @staticmethod
    def write_inputs(seed, workdir):
        corpus = generate_zipf_corpus(2 * PREDICT_SIZE, seed)
        known, tagged = corpus[:PREDICT_SIZE], corpus[PREDICT_SIZE:]
        cfg = ModelConfig(seed=seed)
        model = SequenceTagger(cfg, build_vocab(prepare_corpus(known, cfg)))
        save_checkpoint(Checkpoint(cfg, model.vocab, snapshot_params(model),
                                   0.0, 0), workdir / "model.ckpt")
        write_corpus(tagged, workdir / "corpus.tsv")
        _save_inputs(workdir, corpus_stats(tagged, tracing.PREDICT_BATCH))

    def __init__(self, seed, workdir):
        self.ckpt_path = workdir / "model.ckpt"
        self.data_path = workdir / "corpus.tsv"
        self.out_path = workdir / "tagged.tsv"
        self.inputs = _load_inputs(workdir)
        self.digest = None
        self.quality = {}

    def setup(self):
        ckpt = load_checkpoint(self.ckpt_path)
        model = build_model(ckpt)
        corpus = parse_corpus(self.data_path, ckpt.config.label_scheme)
        return {"model": model, "corpus": corpus,
                "prepared": prepare_corpus(corpus, ckpt.config)}

    def warm_up(self, st):
        st["model"].predict(st["prepared"][:2 * tracing.PREDICT_BATCH])

    def expected_steps(self, st):
        return math.ceil(len(st["prepared"]) / tracing.PREDICT_BATCH)

    def op(self, st):
        start = time.perf_counter()
        raw = st["model"].predict(st["prepared"])
        tagged = tag(st["corpus"], normalized(raw))
        write_corpus(tagged, self.out_path)
        seconds = time.perf_counter() - start
        failures = []
        digest = label_digest(raw)
        if self.digest is None:
            self.digest = digest
            failures = check_predictions(st["model"], st["prepared"], raw,
                                         tagged, self.out_path)
            gold = [s.labels for s in st["prepared"]]
            self.quality["checkpoint"] = {
                "f1": entity_f1(gold, raw).f1, "labels_sha256": digest}
        elif digest != self.digest:
            failures.append("a repeated predict pass changed its labels")
        return OpResult(sum(len(s) for s in st["prepared"]),
                        self.expected_steps(st), seconds, failures)

    def sessions(self, st):
        model = st["model"]
        return [Session(model, st["prepared"][:PAPER_BLOCK],
                        st["prepared"][:PREDICT_EVAL], model.config.seed)]


WORKLOADS = {
    "train-grid": TrainGrid,
    "train-paper": TrainPaper,
    "predict-zipf": PredictZipf,
}


def write_inputs(name, seed, workdir):
    """Generate a workload's input files; run in a child process, so that the
    generator's memory does not count in the measured run's peak RSS."""
    WORKLOADS[name].write_inputs(seed, Path(workdir))


# ----- the traced run -----------------------------------------------------------

def _bitwise_equal(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def _op_seconds(tracer, first, batch_prefix):
    """Summed duration of the top-level spans of matching batches."""
    total = 0.0
    for name, start, end, parent, batch in tracer.spans[first:]:
        if batch is None or not batch.startswith(batch_prefix):
            continue
        if parent is None or not tracer.spans[parent][4].startswith(batch_prefix):
            total += end - start
    return total


def compare_step(sess, tracer, k, log):
    """Untraced and traced runs of one training step from the same state.

    The two alternate in order from step to step, so that neither always
    runs on the caches and heap the other left behind. A tape and its
    tensors form a reference cycle, so each run starts after a
    ``gc.collect()`` that frees the previous run's tape outside the timing.
    """
    model = sess.model
    cfg = model.config
    batch, rate = sess.next_batch()
    params = model.parameters()
    before = {n: p.data.copy() for n, p in params.items()}
    ref_rng = copy.deepcopy(sess.drop_rng)

    def untraced():
        start = time.perf_counter()
        with Tape():
            loss = model.loss_batch(batch, train=True, rng=ref_rng)
            value = loss.item()
            backward(loss)
        seconds = time.perf_counter() - start
        grads = {n: p.grad.copy() for n, p in params.items()}
        start = time.perf_counter()
        clip_gradients(model.parameters(), cfg.clip_norm)
        sgd_step(model.parameters(), rate, cfg.l2)
        return value, grads, seconds + time.perf_counter() - start

    def traced():
        first = len(tracer.spans)
        tracer.batch = f"s{k}"
        grads = {}
        value, nodes = tracing.train_step(model, batch, sess.drop_rng, rate,
                                          tracer, grads)
        log["tape_nodes"].append(nodes)
        return value, grads, _op_seconds(tracer, first, f"s{k}")

    results = {}
    for run in ((untraced, traced) if k % 2 == 0 else (traced, untraced)):
        if results:
            for n, p in params.items():
                p.data[...] = before[n]
                p.grad = None
        gc.collect()
        value, grads, seconds = run()
        results[run] = (value, grads, seconds,
                        {n: p.data.copy() for n, p in params.items()})
    u, t = results[untraced], results[traced]
    log["step_untraced"].append(u[2])
    log["step_traced"].append(t[2])
    return u[0] == t[0] and _bitwise_equal(u[1], t[1]) and _bitwise_equal(u[3], t[3])


def compare_decode(sess, tracer, k, path, log):
    """Untraced and traced decode passes, alternating in order and each
    after a ``gc.collect()`` as above, plus the data-layer round trip.
    Returns (ok, predict batches)."""
    model = sess.model
    step = tracing.PREDICT_BATCH

    def untraced():
        start = time.perf_counter()
        preds = model.predict(sess.eval_c)
        log["pass_untraced"].append(time.perf_counter() - start)
        emissions = [model.forward_batch(sess.eval_c[lo: lo + step]).emissions.data
                     for lo in range(0, len(sess.eval_c), step)]
        return preds, emissions

    def traced():
        first = len(tracer.spans)
        emissions = []
        tracer.batch = f"e{k}"
        with tracer.span("training.dev_eval"):
            preds = tracing.predict(model, sess.eval_c, tracer, f"d{k}",
                                    emissions)
            tracer.batch = f"e{k}"
            with tracer.span("evaluation.f1"):
                entity_f1([s.labels for s in sess.eval_c], preds)
        log["pass_traced"].append(_op_seconds(tracer, first, f"d{k}."))
        log["viterbi_calls"].append(sum(
            1 for s in tracer.spans[first:] if s[0] == "crf.viterbi"))
        return preds, emissions

    def collected(run):
        gc.collect()
        return run()

    if k % 2 == 0:
        (ref, ref_em), (preds, emissions) = collected(untraced), collected(traced)
    else:
        (preds, emissions), (ref, ref_em) = collected(traced), collected(untraced)

    tagged = tag(sess.eval_c, normalized(preds))
    tracer.batch = f"w{k}"
    with tracer.span("data.write"):
        write_corpus(tagged, path)
    with tracer.span("data.parse"):
        back = parse_corpus(path)
    ok = (preds == ref and back == tagged and len(emissions) == len(ref_em)
          and all(np.array_equal(a, b) for a, b in zip(emissions, ref_em)))
    return ok, len(ref_em)


def _overhead(traced, untraced):
    """Traced over untraced time, minus 1.

    Even rounds run untraced first and odd rounds traced first; the first
    run of a round is slower (it refills the heap the previous phase freed),
    so the two halves get equal weight.
    """
    ratios = [t / u for t, u in zip(traced, untraced)]
    halves = [median(ratios[i::2]) for i in (0, 1) if ratios[i::2]]
    return sum(halves) / len(halves) - 1.0


def run_traced(workload, st, seconds, path):
    """Alternate compared training steps and decode passes for ``seconds``.

    Returns (per-layer table, attempted ops, failed ops, tracer).
    """
    workload.warm_up(st)
    tracer = tracing.Tracer()
    sessions = workload.sessions(st)
    log = {k: [] for k in ("step_untraced", "step_traced", "tape_nodes",
                           "pass_untraced", "pass_traced", "viterbi_calls")}
    attempted = failed = 0
    batches = 1
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        sess = sessions[k % len(sessions)]
        ok = compare_step(sess, tracer, k, log)
        attempted += 1
        failed += not ok
        ok, batches = compare_decode(sess, tracer, k, path, log)
        attempted += batches
        failed += 0 if ok else batches
        k += 1

    table = tracing.layer_table(tracer, workload.main)
    if workload.main == "s":
        traced, untraced = log["step_traced"], log["step_untraced"]
        table["trace.op_ms"] = 1000.0 * median(untraced)
    else:
        traced, untraced = log["pass_traced"], log["pass_untraced"]
        table["trace.op_ms"] = 1000.0 * median(untraced) / batches
    table["trace.overhead"] = _overhead(traced, untraced)
    table["autodiff.tape_nodes"] = median(log["tape_nodes"])
    table["crf.viterbi_calls"] = median(log["viterbi_calls"])
    return table, attempted, failed, tracer
