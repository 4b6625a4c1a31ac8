"""Golden fixture: every variant's numbers on one fixed padded batch.

``tests/golden.npz`` holds, for each model variant, the training loss with
dropout, every parameter gradient, the inference emissions at real
positions, the Viterbi predictions and the f/i/m/o gate traces of a fixed
4-sentence batch of unequal lengths. Refactors of the numerics must
reproduce it to 1e-10, with identical predictions. Regenerate it only on
purpose, from code whose numbers are trusted:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import numpy as np
import pytest

from syntag.autodiff import Tape, backward
from syntag.data import build_vocab
from syntag.model import VARIANTS
from syntag.model import SequenceTagger
from syntag.synthetic import experiment_config, generate_corpus

FIXTURE = Path(__file__).with_name("golden.npz")
TOLERANCE = 1e-10
SMALL = dict(hidden=6, word_dim=5, char_dim=3, char_hidden=4, deprel_dim=3,
             pos_dim=3, dropout=0.3)


def golden_batch():
    """Four synthetic sentences of different lengths (padded in a batch)."""
    corpus = generate_corpus(12, seed=5)
    by_length = {}
    for s in corpus:
        by_length.setdefault(len(s), s)
    batch = [by_length[n] for n in sorted(by_length)[:4]]
    assert len({len(s) for s in batch}) == 4
    return batch


def variant_numbers(variant):
    """Flat dict of every recorded array for one variant."""
    batch = golden_batch()
    cfg = experiment_config(variant, seed=2, **SMALL)
    model = SequenceTagger(cfg, build_vocab(batch),
                           rng=np.random.default_rng(3))
    out = {}
    with Tape():
        loss = model.loss_batch(batch, train=True,
                                rng=np.random.default_rng(4))
        backward(loss)
    out["loss"] = loss.data
    cells = {"char_fwd": model.char_encoder.fwd, "char_bwd": model.char_encoder.bwd,
             "cell_fwd": model.cell_fwd, "cell_bwd": model.cell_bwd}
    for name, p in model.parameters().items():
        owner, _, tensor = name.partition(".")
        if owner not in cells:
            out[f"grad/{name}"] = p.grad
            continue
        # One key per (stream, gate) block, e.g. cell_fwd.x_f: the fixture
        # predates stacked storage, and per-block keys show where a drift is.
        cell, stream = cells[owner], tensor[-1]  # W_x -> x, ..., b -> b
        for gate in cell.feeds(stream):
            cols = cell.columns(stream, gate)
            out[f"grad/{owner}.{stream}_{gate}"] = p.grad[..., cols]
    fw = model.forward_batch(batch, want_traces=True)
    out["emissions"] = np.concatenate(
        [fw.emissions.data[b * fw.n_max: b * fw.n_max + n]
         for b, n in enumerate(fw.lengths)])
    ids = {name: i for i, name in enumerate(model.vocab.label_names)}
    out["pred"] = np.array([ids[lab] for labels in model.predict(batch)
                            for lab in labels])
    for gate in sorted(fw.traces[0].arrays):
        out[f"trace/{gate}"] = np.concatenate(
            [tr.values(gate) for tr in fw.traces])
    return out


def write_fixture(path=FIXTURE):
    arrays = {f"{variant}/{key}": value for variant in VARIANTS
              for key, value in variant_numbers(variant).items()}
    np.savez_compressed(path, **arrays)


@pytest.fixture(scope="module")
def golden():
    with np.load(FIXTURE) as data:
        return {key: data[key] for key in data.files}


@pytest.mark.parametrize("variant", VARIANTS)
def test_matches_golden_fixture(golden, variant):
    want = {key.split("/", 1)[1]: value for key, value in golden.items()
            if key.startswith(variant + "/")}
    got = variant_numbers(variant)
    assert sorted(got) == sorted(want)
    np.testing.assert_array_equal(got["pred"], want["pred"])
    for key in sorted(want):
        assert got[key].shape == want[key].shape, key
        worst = float(np.max(np.abs(got[key] - want[key]), initial=0.0))
        assert worst <= TOLERANCE, f"{variant} {key}: off by {worst:.3e}"


if __name__ == "__main__":
    write_fixture()
