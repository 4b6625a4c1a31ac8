"""Acceptance suite: one test per binding behavioural guarantee.

Each test prints a single PASS line with its measured numbers, so a
plain ``pytest -v -s tests/test_acceptance.py`` doubles as a report.
The synthetic training grid (nine runs) is built once and shared.
"""

import statistics
import time

import numpy as np
import pytest

import reference
from syntag import autodiff as ad
from syntag import crf
from syntag import gcn
from syntag import recurrent as rc
from syntag.gradcheck import check_model_variant
from syntag.model import VARIANTS, SequenceTagger
from syntag.evaluation import entity_f1, gate_mean
from syntag.synthetic import experiment_config, generate_corpus, generate_splits
from syntag.training import (build_model, epoch_lr, load_checkpoint,
                             prepare_corpus, save_checkpoint, train)


def _corpus_f1(model, prepared, gates=None):
    pred = model.predict(prepared, gates=gates)
    return entity_f1([s.labels for s in prepared], pred).f1


@pytest.fixture(scope="module")
def synthetic_grid():
    """Nine training runs: {given, random, bilstm} x seeds {1, 2, 3}."""
    start = time.perf_counter()
    train_c, dev_c, test_c = generate_splits(200, 50, 50, seed=0)
    rows = {}
    for seed in (1, 2, 3):
        for kind in ("given", "random", "bilstm"):
            if kind == "bilstm":
                cfg = experiment_config("bilstm-crf", seed=seed)
            else:
                cfg = experiment_config("syn-lstm-crf", seed=seed,
                                        tree_source=kind)
            result = train(cfg, train_c, dev_c)
            model = build_model(result.checkpoint)
            train_t = prepare_corpus(train_c, cfg)
            test_t = prepare_corpus(test_c, cfg)
            gates = {}
            row = {
                "train_f1": _corpus_f1(model, train_t),
                "test_f1": _corpus_f1(model, test_t, gates),
                "best_epoch": result.checkpoint.best_epoch,
            }
            if kind != "bilstm":
                row["mean_gate"] = gate_mean(gates, "m")
            rows[kind, seed] = row
    rows["elapsed"] = time.perf_counter() - start
    return rows


def test_gradient_suite_every_variant():
    start = time.perf_counter()
    worst = {}
    for variant in VARIANTS:
        report = check_model_variant(variant, seed=5, count=5, length=3,
                                     hidden=8, step=1e-5)
        worst[variant] = report.max_rel_err
    elapsed = time.perf_counter() - start
    for variant, err in worst.items():
        assert err < 1e-4, f"{variant}: max relative error {err:.3e}"
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
    top = max(worst.values())
    print(f"PASS gradient suite: 3 variants, 5 sentences each, "
          f"max rel err {top:.3e} < 1e-4, {elapsed:.1f}s < 120s")


def test_cell_state_expansion_identity():
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        hid = int(rng.integers(1, 9))
        dx = int(rng.integers(1, 6))
        dg = int(rng.integers(1, 6))
        params = rc.LstmParams(dx, hid, rng, graph_dim=dg)
        x = ad.constant(rng.uniform(-2, 2, (n, dx)))
        g = ad.constant(rng.uniform(-2, 2, (n, dg)))
        refs = reference.cell_states(x, g, params)
        for t in range(n):
            expanded = reference.expand_cell_state(x, g, params, t)
            worst = max(worst, float(np.max(np.abs(expanded - refs[t]))))
    assert worst <= 1e-10, f"expansion mismatch {worst:.3e}"
    print(f"PASS expansion identity: 100 instances, every position, "
          f"max abs diff {worst:.2e} <= 1e-10")


def test_crf_matches_enumeration():
    rng = np.random.default_rng(30)
    worst_z, worst_m = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        labels = int(rng.integers(1, 6))
        em = 2.0 * rng.normal(size=(n, labels))
        trans = rng.normal(size=(labels + 2, labels + 2))

        with ad.Tape():
            e = ad.Tensor(em, requires_grad=True)
            lattice = crf.TagLattice(n, e)
            log_z = reference.log_partition(lattice, ad.constant(trans))
            ad.backward(log_z)

        ref_z, ref_path, marg = reference.brute_force(lattice, trans)
        worst_z = max(worst_z, abs(float(log_z.data) - ref_z))
        path, _ = crf.viterbi(lattice, trans)
        assert path == ref_path
        worst_m = max(worst_m, float(np.max(np.abs(e.grad - marg))))
    assert worst_z < 1e-8, f"logZ off by {worst_z:.3e}"
    assert worst_m < 1e-6, f"marginals off by {worst_m:.3e}"
    print(f"PASS crf oracle: 100 instances, |logZ diff| {worst_z:.2e} < 1e-8, "
          f"viterbi exact, marginal diff {worst_m:.2e} < 1e-6")


def test_graph_encoder_structural_properties():
    rng = np.random.default_rng(40)

    # permutation equivariance
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 9))
        heads = [0] + [int(rng.integers(0, i) + 1) for i in range(1, n)]
        adj = reference.build_adjacency(heads)
        params = gcn.GcnParams(4, 3, 2, rng)
        for b in params.biases:
            b.data[...] = 0.5
        g0 = rng.uniform(-1, 1, (n, 4))
        out = reference.encode(ad.constant(g0), adj, params).data
        perm = rng.permutation(n)
        adj_p = reference.AdjacencyMatrix(n=n, a=adj.a[np.ix_(perm, perm)],
                                          degrees=adj.degrees[perm])
        out_p = reference.encode(ad.constant(g0[perm]), adj_p, params).data
        worst = max(worst, float(np.max(np.abs(out_p - out[perm]))))
    assert worst < 1e-12, f"equivariance violated by {worst:.3e}"

    # receptive field: L layers never see past L hops on a chain
    chain = [0, 1, 2, 3, 4]
    adj = reference.build_adjacency(chain)
    g0 = rng.uniform(-1, 1, (5, 4))
    bump = np.zeros((5, 4))
    bump[0, 2] = 0.3
    for layers in (1, 2, 3):
        params = gcn.GcnParams(4, 3, layers, rng)
        for b in params.biases:
            b.data[...] = 0.5
        base = reference.encode(ad.constant(g0), adj, params).data
        moved = reference.encode(ad.constant(g0 + bump), adj, params).data
        far = np.abs(moved - base).max(axis=1)
        assert np.all(far[layers + 1:] == 0.0), \
            f"{layers}-layer output leaked beyond {layers} hops"
        # positive control in the all-positive regime, where relu is the
        # identity and the perturbation provably reaches exactly L hops
        for w in params.weights:
            w.data[...] = np.abs(w.data) + 0.1
        g0_pos = ad.constant(np.abs(g0) + 0.2)
        moved_pos = ad.constant(np.abs(g0) + 0.2 + bump)
        base = reference.encode(g0_pos, adj, params).data
        moved = reference.encode(moved_pos, adj, params).data
        far = np.abs(moved - base).max(axis=1)
        assert np.all(far[layers + 1:] == 0.0)
        assert far[layers] > 0.0

    # degree normalization: averaging all-ones through identity weights
    adj = reference.build_adjacency([0, 1, 1, 2])
    ones = ad.constant(np.ones((4, 4)))
    out = reference.gcn_layer(ones, adj, ad.constant(np.eye(4)),
                              ad.constant(np.zeros(4))).data
    np.testing.assert_array_equal(out, 1.0)

    print(f"PASS graph encoder: equivariance {worst:.2e} < 1e-12, "
          f"receptive field sharp at 1/2/3 layers, normalization exact")


def test_synthetic_tree_signal(synthetic_grid):
    grid = synthetic_grid
    for seed in (1, 2, 3):
        row = grid["given", seed]
        assert row["train_f1"] >= 0.99, \
            f"seed {seed}: given-tree train f1 {row['train_f1']:.4f}"
    given = statistics.median(grid["given", s]["test_f1"] for s in (1, 2, 3))
    rand = statistics.median(grid["random", s]["test_f1"] for s in (1, 2, 3))
    plain = statistics.median(grid["bilstm", s]["test_f1"] for s in (1, 2, 3))
    assert given > plain, f"given {given:.4f} vs bilstm {plain:.4f}"
    assert given > rand, f"given {given:.4f} vs random trees {rand:.4f}"
    assert grid["elapsed"] < 600.0, f"grid took {grid['elapsed']:.0f}s"
    print(f"PASS synthetic signal: median test f1 given {given:.4f} > "
          f"bilstm {plain:.4f} and random {rand:.4f}; train f1 >= 0.99 on "
          f"all seeds; grid {grid['elapsed']:.0f}s < 600s")


def test_graph_gate_regulation(synthetic_grid):
    grid = synthetic_grid
    given = statistics.median(grid["given", s]["mean_gate"] for s in (1, 2, 3))
    rand = statistics.median(grid["random", s]["mean_gate"] for s in (1, 2, 3))
    assert given > rand, f"mean gate given {given:.4f} vs random {rand:.4f}"
    print(f"PASS gate regulation: median mean m-gate given {given:.4f} > "
          f"random {rand:.4f}")


def test_determinism_and_round_trip(tmp_path):
    corpus = generate_corpus(40, seed=11)
    train_c, dev_c = corpus[:32], corpus[32:]
    cfg = experiment_config("syn-lstm-crf", seed=4, epochs=4, batch_size=8)
    first = train(cfg, train_c, dev_c)
    second = train(cfg, train_c, dev_c)
    assert first.epoch_losses == second.epoch_losses
    assert first.dev_f1s == second.dev_f1s

    path = tmp_path / "round.ckpt"
    ckpt = first.checkpoint
    save_checkpoint(ckpt, path)
    model = build_model(load_checkpoint(path))
    dev_t = prepare_corpus(dev_c, cfg)
    dev_f1 = _corpus_f1(model, dev_t)
    assert dev_f1 == ckpt.best_dev_f1

    # The dev F1 alone cannot tell a faithful reload from a broken one when
    # it is 0, so compare the weights and what they compute, bit for bit.
    reloaded = model.named_tensors()
    assert reloaded.keys() == ckpt.params.keys()
    for name, arr in ckpt.params.items():
        assert reloaded[name].data.tobytes() == arr.tobytes(), name
    emissions = model.forward_batch(dev_t).emissions.data
    in_memory = build_model(ckpt).forward_batch(dev_t).emissions.data
    fresh = SequenceTagger(ckpt.config, ckpt.vocab,
                           rng=np.random.default_rng(ckpt.config.seed))
    assert emissions.tobytes() == in_memory.tobytes()
    assert not np.array_equal(emissions,
                              fresh.forward_batch(dev_t).emissions.data)
    print(f"PASS determinism: identical loss curves over 4 epochs; "
          f"reloaded dev f1 {dev_f1:.4f} matches saved value exactly; "
          f"{len(ckpt.params)} tensors and the dev emissions reload bit for bit")


def test_learning_rate_schedule():
    assert epoch_lr(1, 0.2, 0.1) == 0.2
    for epoch in range(1, 101):
        assert epoch_lr(epoch, 0.2, 0.1) == 0.2 / (1.0 + 0.1 * (epoch - 1))
    print("PASS learning rate: 0.2 at epoch 1, exact 1/(1+0.1(e-1)) decay "
          "through epoch 100")
