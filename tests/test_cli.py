"""End-to-end command-line tests, all run in process."""

import copy
import dataclasses
import re
import zipfile

import numpy as np
import pytest

import reference
from syntag import cli
from syntag.cli import _split_corpus, main
from syntag.data import parse_corpus, serialize_corpus, validate_labels
from syntag.model import ModelConfig, SequenceTagger
from syntag.errors import FormatError
from syntag.training import load_checkpoint, random_tree_heads, save_checkpoint


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A corpus, a config, and a trained checkpoint shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["make-synthetic", "--out", str(root / "train.tsv"),
                 "--sentences", "40", "--seed", "1"]) == 0
    assert main(["make-synthetic", "--out", str(root / "dev.tsv"),
                 "--sentences", "10", "--seed", "2"]) == 0
    config = ModelConfig(variant="syn-lstm-crf", hidden=8, word_dim=8,
                         char_dim=4, char_hidden=4, deprel_dim=4, pos_dim=4,
                         dropout=0.1, batch_size=8, epochs=2, seed=3)
    (root / "model.conf").write_text(reference.config_text(config))
    code = main(["train", "--config", str(root / "model.conf"),
                 "--train", str(root / "train.tsv"),
                 "--dev", str(root / "dev.tsv"),
                 "--out", str(root / "model.ckpt")])
    assert code == 0
    return root


class TestMakeSynthetic:
    def test_writes_parseable_corpus(self, tmp_path):
        out = tmp_path / "corpus.tsv"
        assert main(["make-synthetic", "--out", str(out),
                     "--sentences", "12", "--seed", "9"]) == 0
        corpus = parse_corpus(out)
        assert len(corpus) == 12

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        main(["make-synthetic", "--out", str(a), "--sentences", "5",
              "--seed", "7"])
        main(["make-synthetic", "--out", str(b), "--sentences", "5",
              "--seed", "7"])
        assert a.read_text() == b.read_text()


class TestTrainEval:
    def test_checkpoint_written(self, workdir):
        ckpt = load_checkpoint(workdir / "model.ckpt")
        assert ckpt.config.hidden == 8
        assert ckpt.best_epoch >= 0

    def test_train_prints_epochs(self, workdir, capsys):
        # retrain into a scratch file to observe output
        code = main(["train", "--config", str(workdir / "model.conf"),
                     "--train", str(workdir / "train.tsv"),
                     "--dev", str(workdir / "dev.tsv"),
                     "--out", str(workdir / "scratch.ckpt")])
        out = capsys.readouterr().out
        assert code == 0
        assert "epoch   1" in out
        assert "best dev f1" in out

    def test_eval_prints_report(self, workdir, capsys):
        code = main(["eval", "--model", str(workdir / "model.ckpt"),
                     "--data", str(workdir / "dev.tsv")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("precision ")
        assert "by entity type:" in out

    def test_eval_writes_csv(self, workdir):
        report = workdir / "report.csv"
        code = main(["eval", "--model", str(workdir / "model.ckpt"),
                     "--data", str(workdir / "dev.tsv"),
                     "--report", str(report)])
        assert code == 0
        lines = report.read_text().strip().split("\n")
        assert lines[0] == "metric,bucket,value"
        assert any(line.startswith("f1,overall,") for line in lines)


class TestPredict:
    def test_output_reparses_and_is_valid(self, workdir):
        out = workdir / "tagged.tsv"
        code = main(["predict", "--model", str(workdir / "model.ckpt"),
                     "--data", str(workdir / "dev.tsv"), "--out", str(out)])
        assert code == 0
        tagged = parse_corpus(out)
        original = parse_corpus(workdir / "dev.tsv")
        assert len(tagged) == len(original)
        for s, o in zip(tagged, original):
            assert s.tokens == o.tokens
            assert s.heads == o.heads
            validate_labels(s.labels, "bioes")

    def test_eval_on_own_predictions_is_perfect(self, workdir, capsys):
        out = workdir / "tagged2.tsv"
        main(["predict", "--model", str(workdir / "model.ckpt"),
              "--data", str(workdir / "dev.tsv"), "--out", str(out)])
        capsys.readouterr()
        code = main(["eval", "--model", str(workdir / "model.ckpt"),
                     "--data", str(out)])
        text = capsys.readouterr().out
        assert code == 0
        assert "f1 1.0000" in text


class TestAnalyzeGates:
    def test_histogram_counts_all_activations(self, workdir):
        out = workdir / "gates.csv"
        code = main(["analyze-gates", "--model", str(workdir / "model.ckpt"),
                     "--data", str(workdir / "dev.tsv"),
                     "--gate", "m", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "bucket_low,bucket_high,count"
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        corpus = parse_corpus(workdir / "dev.tsv")
        tokens = sum(len(s) for s in corpus)
        assert total == tokens * 2 * 8  # directions * hidden


    def test_runs_the_model_once_per_batch(self, workdir, monkeypatch):
        calls = []
        forward = SequenceTagger.forward_batch

        def counting(self, *args, **kwargs):
            calls.append(len(args[0]))
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(SequenceTagger, "forward_batch", counting)
        code = main(["analyze-gates", "--model", str(workdir / "model.ckpt"),
                     "--data", str(workdir / "train.tsv"),
                     "--gate", "m", "--out", str(workdir / "gates2.csv")])
        assert code == 0
        sentences = len(parse_corpus(workdir / "train.tsv"))
        assert sentences > 32
        assert len(calls) == -(-sentences // 32)
        assert sum(calls) == sentences


    @pytest.fixture(scope="class")
    def plain_ckpt(self, workdir, tmp_path_factory):
        """A one-epoch bilstm-crf checkpoint, which has no m gate."""
        root = tmp_path_factory.mktemp("plain")
        config = ModelConfig.from_file(workdir / "model.conf")
        config.variant, config.epochs = "bilstm-crf", 1
        (root / "plain.conf").write_text(reference.config_text(config))
        assert main(["train", "--config", str(root / "plain.conf"),
                     "--train", str(workdir / "dev.tsv"),
                     "--dev", str(workdir / "dev.tsv"),
                     "--out", str(root / "plain.ckpt")]) == 0
        return root / "plain.ckpt"

    def test_plain_checkpoint_names_its_gates(self, workdir, plain_ckpt, tmp_path,
                                              capsys):
        capsys.readouterr()
        code = main(["analyze-gates", "--model", str(plain_ckpt),
                     "--data", str(workdir / "dev.tsv"),
                     "--out", str(tmp_path / "gates.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert ("gate 'm' exists only in syn-lstm-crf; this bilstm-crf "
                "checkpoint has f, i, o") in err
        assert not (tmp_path / "gates.csv").exists()

    def test_plain_checkpoint_gate_has_a_mean(self, workdir, plain_ckpt, tmp_path,
                                              capsys):
        capsys.readouterr()
        code = main(["analyze-gates", "--model", str(plain_ckpt),
                     "--data", str(workdir / "dev.tsv"),
                     "--gate", "f", "--out", str(tmp_path / "gates.csv")])
        out = capsys.readouterr().out
        assert code == 0
        assert re.search(r"; mean f gate 0\.\d{4}$", out.strip()), out

    def test_empty_corpus_says_so(self, workdir, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        code = main(["analyze-gates", "--model", str(workdir / "model.ckpt"),
                     "--data", str(empty), "--out", str(tmp_path / "gates.csv")])
        assert code == 2
        assert "holds no sentences" in capsys.readouterr().err


class TestExperimentCommands:
    def test_compare_trees(self, workdir, capsys):
        code = main(["compare-trees", "--config", str(workdir / "model.conf"),
                     "--data", str(workdir / "train.tsv"),
                     "--sources", "given,random"])
        out = capsys.readouterr().out
        assert code == 0
        assert "given" in out and "random" in out
        assert "delta given vs random:" in out

    def test_compare_trees_decodes_the_test_split_once(self, workdir,
                                                       monkeypatch, capsys):
        _, _, test_c = _split_corpus(parse_corpus(workdir / "train.tsv"))
        test_forms = {tuple(s.tokens) for s in test_c}
        decoded = []
        forward = SequenceTagger.forward_batch

        def counting(self, sentences, *args, **kwargs):
            decoded.extend(tuple(s.tokens) for s in sentences
                           if tuple(s.tokens) in test_forms)
            return forward(self, sentences, *args, **kwargs)

        monkeypatch.setattr(SequenceTagger, "forward_batch", counting)
        code = main(["compare-trees", "--config", str(workdir / "model.conf"),
                     "--data", str(workdir / "train.tsv"),
                     "--sources", "given,random"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert all("mean graph gate 0." in line for line in lines[:2])
        # One pass per source yields both the F1 and the mean m-gate.
        assert sorted(decoded) == sorted(2 * [tuple(s.tokens) for s in test_c])

    def test_compare_trees_with_a_predicted_tree_file(self, workdir, tmp_path,
                                                      capsys):
        # One tree file, in reverse order, covers all three splits.
        rng = np.random.default_rng(4)
        trees = {}
        for s in parse_corpus(workdir / "train.tsv"):
            if tuple(s.tokens) not in trees:
                s.heads = random_tree_heads(len(s), rng)
                trees[tuple(s.tokens)] = s
        path = tmp_path / "trees.tsv"
        path.write_text(serialize_corpus(list(trees.values())[::-1]))
        code = main(["compare-trees", "--config", str(workdir / "model.conf"),
                     "--data", str(workdir / "train.tsv"),
                     "--sources", f"given,random,predicted={path}"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert [line.split()[0] for line in lines[:3]] == [
            "given", "random", f"predicted={path}"]
        assert all(" f1 " in line for line in lines[:3])

    def test_ablate(self, workdir, capsys):
        code = main(["ablate", "--config", str(workdir / "model.conf"),
                     "--data", str(workdir / "train.tsv"),
                     "--drop", "gcn-all"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ablation gcn-all: test f1" in out


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert main(["make-synthetic", "--bogus", "1"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_no_subcommand(self):
        assert main([]) == 1

    def test_bad_choice_flag(self, workdir):
        assert main(["ablate", "--config", str(workdir / "model.conf"),
                     "--data", str(workdir / "train.tsv"),
                     "--drop", "everything"]) == 1

    def test_missing_files_are_data_errors(self, workdir, tmp_path):
        assert main(["eval", "--model", str(tmp_path / "nope.ckpt"),
                     "--data", str(workdir / "dev.tsv")]) == 2
        assert main(["train", "--config", str(tmp_path / "nope.conf"),
                     "--train", str(workdir / "train.tsv"),
                     "--dev", str(workdir / "dev.tsv"),
                     "--out", str(tmp_path / "x.ckpt")]) == 2

    def test_corrupt_corpus_is_data_error(self, workdir, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("1\tonly_two_columns\n")
        assert main(["eval", "--model", str(workdir / "model.ckpt"),
                     "--data", str(bad)]) == 2

    def test_corpus_that_is_not_utf8_is_data_error(self, workdir, tmp_path, capsys):
        raw = (workdir / "dev.tsv").read_bytes()
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(raw[:100] + b"\xff" + raw[100:])
        capsys.readouterr()
        assert main(["eval", "--model", str(workdir / "model.ckpt"),
                     "--data", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: byte 100: not UTF-8" in err
        assert "Traceback" not in err

    def test_corrupt_checkpoint_is_data_error(self, workdir, tmp_path, capsys):
        raw = bytearray((workdir / "model.ckpt").read_bytes())
        with zipfile.ZipFile(workdir / "model.ckpt") as zf:
            info = zf.infolist()[-1]
            end = raw.index(zf.read(info), info.header_offset) + info.file_size
        raw[end - 8] ^= 1  # the lowest mantissa bit of the last float
        bad = tmp_path / "bad.ckpt"
        for contents, named in ((b"not a checkpoint", "File is not a zip file"),
                                (raw, f"member '{info.filename}': Bad CRC-32")):
            bad.write_bytes(bytes(contents))
            capsys.readouterr()
            assert main(["eval", "--model", str(bad),
                         "--data", str(workdir / "dev.tsv")]) == 2
            assert named in capsys.readouterr().err

    def test_wrongly_typed_checkpoint_metadata_is_data_error(self, workdir, tmp_path,
                                                             capsys):
        ckpt = load_checkpoint(workdir / "model.ckpt")

        def with_config(**changes):
            return dataclasses.replace(
                ckpt, config=dataclasses.replace(ckpt.config, **changes))

        bad = [("config.hidden", with_config(hidden="4")),
               ("config.dropout", with_config(dropout=True)),  # a bool is no float
               ("hidden must be positive", with_config(hidden=0)),
               ("best_dev_f1", dataclasses.replace(ckpt, best_dev_f1="high"))]
        for k, (field, broken) in enumerate(bad):
            path = tmp_path / f"bad{k}.ckpt"
            save_checkpoint(broken, path)
            with pytest.raises(FormatError, match=f"bad checkpoint metadata: {field}"):
                load_checkpoint(path)
        capsys.readouterr()
        assert main(["eval", "--model", str(tmp_path / "bad0.ckpt"),
                     "--data", str(workdir / "dev.tsv")]) == 2
        assert (f"error: {tmp_path / 'bad0.ckpt'}: bad checkpoint metadata: "
                "config.hidden is '4'") in capsys.readouterr().err

    def test_truncated_checkpoint_is_named_data_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "cut.ckpt"
        bad.write_bytes((workdir / "model.ckpt").read_bytes()[:-100])
        capsys.readouterr()
        assert main(["predict", "--model", str(bad), "--data",
                     str(workdir / "dev.tsv"), "--out", str(tmp_path / "p.tsv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: bad checkpoint zip directory: ")
        assert "Traceback" not in err
        assert not (tmp_path / "p.tsv").exists()

    def _train(self, workdir, config_path):
        return main(["train", "--config", str(config_path),
                     "--train", str(workdir / "train.tsv"),
                     "--dev", str(workdir / "dev.tsv"),
                     "--out", str(config_path.with_suffix(".ckpt"))])

    def test_bad_config_values_are_data_errors(self, workdir, tmp_path, capsys):
        text = (workdir / "model.conf").read_text()
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("fill1 1.0 2.0 3.0 4.0\nfill2 nan inf 1.0 2.0\n")
        bad = [("seed must be >= 0", re.sub(r"(?m)^seed = .*$", "seed = -1", text)),
               ("lr must be finite", re.sub(r"(?m)^lr = .*$", "lr = nan", text)),
               ("'hidden' repeats line 2", text + "hidden = 9\n"),
               ("line 2: non-finite vector value",
                re.sub(r"(?m)^embeddings = .*$", f"embeddings = {vectors}", text))]
        for k, (message, conf) in enumerate(bad):
            path = tmp_path / f"bad{k}.conf"
            path.write_text(conf)
            capsys.readouterr()
            assert self._train(workdir, path) == 2, message
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err, err

    def test_config_too_large_to_allocate_is_data_error(self, workdir, tmp_path,
                                                          capsys):
        # 10^13 hidden units make the GCN's first weight alone over a PiB, past
        # a 47-bit address space, so it fails at once under any overcommit.
        path = tmp_path / "huge.conf"
        path.write_text(re.sub(r"(?m)^hidden = .*$", f"hidden = {10 ** 13}",
                               (workdir / "model.conf").read_text()))
        capsys.readouterr()
        assert self._train(workdir, path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert not path.with_suffix(".ckpt").exists()

    def test_checkpoint_too_large_to_allocate_is_named_data_error(self, workdir,
                                                                  tmp_path, capsys):
        ckpt = load_checkpoint(workdir / "model.ckpt")
        path, out = tmp_path / "huge.ckpt", tmp_path / "tagged.tsv"
        save_checkpoint(dataclasses.replace(ckpt, config=dataclasses.replace(
            ckpt.config, hidden=10 ** 13)), path)
        data = ["--data", str(workdir / "dev.tsv")]
        for argv in (["predict", "--model", str(path), *data, "--out", str(out)],
                     ["eval", "--model", str(path), *data]):
            capsys.readouterr()
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
            assert "Unable to allocate" in err and "Traceback" not in err
        assert not out.exists()

    def test_config_and_embeddings_errors_name_their_file(self, workdir, tmp_path,
                                                          capsys):
        text = (workdir / "model.conf").read_text()
        vectors = [tmp_path / "not_utf8.txt", tmp_path / "short.txt"]
        vectors[0].write_bytes(b"fill1 1.0 2.0\n\xff 3.0 4.0\n")
        vectors[1].write_text("fill1 1.0 2.0\nfill2 1.0\n")
        confs = [(text + "# \xff\n").encode("latin-1")] + [
            re.sub(r"(?m)^embeddings = .*$", f"embeddings = {path}", text).encode()
            for path in vectors]
        says = [f"byte {len(text) + 2}: not UTF-8", "byte 14: not UTF-8",
                "line 2: expected 2 values, got 1"]
        for k, (conf, named, message) in enumerate(
                zip(confs, [None] + vectors, says)):
            path = tmp_path / f"bad{k}.conf"
            path.write_bytes(conf)
            capsys.readouterr()
            assert self._train(workdir, path) == 2, message
            err = capsys.readouterr().err
            assert err == f"error: {named or path}: {message}\n", err

    def test_dev_corpus_errors_name_the_file(self, workdir, tmp_path, capsys):
        cycle = tmp_path / "cycle.tsv"
        cycle.write_text("1\tw\tNN\t2\tnsubj\tO\n2\tv\tVB\t2\troot\tO\n")
        capsys.readouterr()
        assert main(["train", "--config", str(workdir / "model.conf"),
                     "--train", str(workdir / "train.tsv"), "--dev", str(cycle),
                     "--out", str(tmp_path / "x.ckpt")]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {cycle}: token 2 is its own head in sentence 0\n")
        assert not (tmp_path / "x.ckpt").exists()

    def test_checkpoint_vocabulary_ids_are_data_errors(self, workdir, tmp_path,
                                                       capsys):
        ckpt = load_checkpoint(workdir / "model.ckpt")
        for k, relabel in enumerate((lambda i: i + 100, lambda i: 0)):
            vocab = copy.copy(ckpt.vocab)
            vocab.labels = {name: relabel(i) for name, i in vocab.labels.items()}
            path = tmp_path / f"vocab{k}.ckpt"
            save_checkpoint(dataclasses.replace(ckpt, vocab=vocab), path)
            capsys.readouterr()
            assert main(["eval", "--model", str(path),
                         "--data", str(workdir / "dev.tsv")]) == 2
            assert f"error: {path}: vocabulary map 'labels' ids are not exactly" in (
                capsys.readouterr().err)

    def test_too_small_corpus_for_split(self, workdir, tmp_path):
        small = tmp_path / "small.tsv"
        main(["make-synthetic", "--out", str(small), "--sentences", "3",
              "--seed", "0"])
        assert main(["compare-trees", "--config", str(workdir / "model.conf"),
                     "--data", str(small), "--sources", "given,random"]) == 2

    def test_compare_trees_rejects_paths_and_repeats(self, workdir, capsys):
        for sources, named in ((f"given={workdir / 'dev.tsv'},random",
                                f"'given={workdir / 'dev.tsv'}': only predicted"),
                               ("random=x", "'random=x': only predicted"),
                               ("given,random,given", "'given' is listed twice")):
            capsys.readouterr()
            assert main(["compare-trees", "--config", str(workdir / "model.conf"),
                         "--data", str(workdir / "train.tsv"),
                         "--sources", sources]) == 2, sources
            captured = capsys.readouterr()
            assert f"error: tree source {named}" in captured.err, captured.err
            assert captured.out == ""

    def test_compare_trees_checks_tree_files_before_training(
            self, workdir, tmp_path, monkeypatch, capsys):
        trained = []
        monkeypatch.setattr(cli, "train", lambda *a: trained.append(a))
        corpus = parse_corpus(workdir / "train.tsv")
        test_c = _split_corpus(corpus)[2]
        kept = [s for s in corpus if s.tokens != test_c[-1].tokens]
        assert len(kept) == len(corpus) - 1  # only a test sentence lacks a tree
        short = tmp_path / "short.tsv"
        short.write_text(serialize_corpus(kept))
        for path, says in ((tmp_path / "missing.tsv", "No such file"),
                           (short, "has no tree in")):
            assert main(["compare-trees", "--config", str(workdir / "model.conf"),
                         "--data", str(workdir / "train.tsv"),
                         "--sources", f"given,random,predicted={path}"]) == 2
            captured = capsys.readouterr()
            assert says in captured.err and str(path) in captured.err, captured.err
            assert captured.out == "" and trained == []

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
        assert main(["train", "--help"]) == 0
