"""Span scoring, bucket breakdowns, gate histograms and means."""

import numpy as np
import pytest

from syntag.data import decode_label_spans
from syntag.errors import ContractError, DataIntegrityError, SchemeError
from syntag.evaluation import (GATE_BUCKET_EDGES, entity_bucket, entity_f1,
                               gate_histogram, gate_mean, histogram_csv,
                               sentence_bucket)


def olabels(n):
    return ["O"] * n


class TestEntityF1:
    def test_hand_counts(self):
        gold = [["B-PER", "E-PER", "O", "S-LOC"],
                ["S-ORG", "O"]]
        pred = [["B-PER", "E-PER", "O", "S-ORG"],
                ["O", "O"]]
        report = entity_f1(gold, pred)
        # matches: the PER span; misses: LOC and ORG; spurious: the S-ORG
        assert report.tp == 1
        assert report.fn == 2
        assert report.fp == 1
        assert report.precision == pytest.approx(0.5)
        assert report.recall == pytest.approx(1 / 3)
        expected_f1 = 2 * 0.5 * (1 / 3) / (0.5 + 1 / 3)
        assert report.f1 == pytest.approx(expected_f1)

    def test_perfect_and_empty(self):
        gold = [["S-PER", "O", "B-LOC", "E-LOC"]]
        report = entity_f1(gold, gold)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)
        report = entity_f1(gold, [olabels(4)])
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_no_entities_anywhere_is_zero_not_nan(self):
        report = entity_f1([olabels(3)], [olabels(3)])
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_type_must_match(self):
        gold = [["S-PER"]]
        pred = [["S-LOC"]]
        report = entity_f1(gold, pred)
        assert report.tp == 0 and report.fp == 1 and report.fn == 1

    def test_boundaries_must_match(self):
        gold = [["B-PER", "I-PER", "E-PER", "O"]]
        pred = [["B-PER", "E-PER", "O", "O"]]
        report = entity_f1(gold, pred)
        assert report.tp == 0 and report.fp == 1 and report.fn == 1

    def test_per_type_breakdown(self):
        gold = [["S-PER", "S-LOC", "O", "S-PER"]]
        pred = [["S-PER", "O", "S-LOC", "S-PER"]]
        report = entity_f1(gold, pred)
        per = report.per_type
        assert per["PER"]["f1"] == 1.0
        assert per["PER"]["gold"] == 2
        assert per["LOC"]["f1"] == 0.0
        assert per["LOC"]["gold"] == 1
        assert per["LOC"]["predicted"] == 1

    def test_malformed_prediction_spans_are_dropped(self):
        gold = [["O", "O", "O"]]
        pred = [["I-PER", "E-PER", "S-LOC"]]
        report = entity_f1(gold, pred)
        assert report.fp == 1  # only the S-LOC survives decoding

    def test_malformed_gold_is_an_error(self):
        with pytest.raises(SchemeError):
            entity_f1([["I-PER"]], [["O"]])

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            entity_f1([olabels(2)], [olabels(2), olabels(2)])
        with pytest.raises(ContractError):
            entity_f1([olabels(2)], [olabels(3)])


class TestBuckets:
    def test_sentence_bucket_edges(self):
        assert sentence_bucket(1) == "<=14"
        assert sentence_bucket(14) == "<=14"
        assert sentence_bucket(15) == "15-29"
        assert sentence_bucket(29) == "15-29"
        assert sentence_bucket(30) == "30-44"
        assert sentence_bucket(44) == "30-44"
        assert sentence_bucket(45) == "45-59"
        assert sentence_bucket(59) == "45-59"
        assert sentence_bucket(60) == ">=60"
        assert sentence_bucket(312) == ">=60"

    def test_entity_bucket_edges(self):
        assert entity_bucket(1) == "1"
        assert entity_bucket(5) == "5"
        assert entity_bucket(6) == ">=6"
        assert entity_bucket(19) == ">=6"
        with pytest.raises(ContractError):
            entity_bucket(0)

    def test_sentence_bucket_assignment(self):
        gold = [["S-PER"] + olabels(13),          # length 14
                ["S-LOC"] + olabels(14)]          # length 15
        pred = [["S-PER"] + olabels(13),
                olabels(15)]
        report = entity_f1(gold, pred)
        assert report.sentence_length["<=14"]["f1"] == 1.0
        assert report.sentence_length["<=14"]["gold"] == 1
        assert report.sentence_length["15-29"]["f1"] == 0.0
        assert report.sentence_length["15-29"]["gold"] == 1
        assert report.sentence_length[">=60"]["gold"] == 0

    def test_entity_bucket_assignment(self):
        gold = [["S-PER", "O", "B-LOC", "I-LOC", "I-LOC", "I-LOC", "I-LOC",
                 "E-LOC"]]
        pred = [["S-PER", "O", "B-LOC", "I-LOC", "E-LOC", "O", "O", "O"]]
        report = entity_f1(gold, pred)
        assert report.entity_length["1"]["f1"] == 1.0
        assert report.entity_length[">=6"]["gold"] == 1
        assert report.entity_length[">=6"]["f1"] == 0.0
        # the wrong three-token prediction counts against bucket 3
        assert report.entity_length["3"]["predicted"] == 1
        assert report.entity_length["3"]["gold"] == 0

    def test_bucket_counts_conserve_totals(self):
        rng = np.random.default_rng(4)
        types = ["PER", "LOC", "ORG"]
        gold, pred = [], []
        for _ in range(40):
            n = int(rng.integers(1, 70))
            g, p = olabels(n), olabels(n)
            for labels in (g, p):
                pos = 0
                while pos < n:
                    width = int(rng.integers(1, 8))
                    if rng.random() < 0.3 and pos + width <= n:
                        t = types[rng.integers(len(types))]
                        if width == 1:
                            labels[pos] = f"S-{t}"
                        else:
                            labels[pos] = f"B-{t}"
                            for k in range(1, width - 1):
                                labels[pos + k] = f"I-{t}"
                            labels[pos + width - 1] = f"E-{t}"
                        pos += width
                    else:
                        pos += 1
            gold.append(g)
            pred.append(p)
        report = entity_f1(gold, pred)
        for bucket_map in (report.sentence_length, report.entity_length,
                           report.per_type):
            tp = sum(r["gold"] for r in bucket_map.values())
            assert tp == report.tp + report.fn
            predicted = sum(r["predicted"] for r in bucket_map.values())
            assert predicted == report.tp + report.fp

    def test_report_text_and_csv(self):
        gold = [["S-PER", "O"]]
        pred = [["S-PER", "O"]]
        report = entity_f1(gold, pred)
        text = report.to_text()
        assert "precision 1.0000" in text
        assert "PER" in text
        csv = report.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "metric,bucket,value"
        assert "f1,overall,1.000000" in lines
        assert "f1,type:PER,1.000000" in lines
        assert any(line.startswith("f1,sentence_length:<=14,")
                   for line in lines)


class TestGateHistogram:
    def gates_of(self, *batches):
        """A gates dict holding one m-gate array per batch of values."""
        return {"m": [np.array(values, dtype=np.float64).reshape(-1, 1, 1)
                      for values in batches]}

    def test_hand_bucketing(self):
        gates = self.gates_of([0.0, 0.39, 0.4, 0.45, 0.55, 0.65, 0.75,
                               0.85, 0.95, 1.0, 0.9])
        counts = gate_histogram(gates, "m")
        assert counts.tolist() == [2, 2, 1, 1, 1, 1, 3]
        assert counts.sum() == 11

    def test_additive_across_traces(self):
        a, b = [0.1, 0.45], [0.95]
        both = gate_histogram(self.gates_of(a, b), "m")
        assert np.array_equal(both,
                              gate_histogram(self.gates_of(a), "m")
                              + gate_histogram(self.gates_of(b), "m"))

    def test_out_of_range_rejected(self):
        with pytest.raises(DataIntegrityError):
            gate_histogram(self.gates_of([0.5, 1.2]), "m")
        with pytest.raises(DataIntegrityError):
            gate_histogram(self.gates_of([-0.1]), "m")

    def test_missing_gate_rejected(self):
        with pytest.raises(ContractError):
            gate_histogram(self.gates_of([0.5]), "f")

    def test_mean_over_all_traces(self):
        gates = self.gates_of([0.2, 0.4], [0.9])
        assert gate_mean(gates, "m") == pytest.approx(0.5, abs=1e-15)
        with pytest.raises(ContractError):
            gate_mean(gates, "f")
        with pytest.raises(ContractError):
            gate_mean({}, "m")
        with pytest.raises(ContractError):
            gate_mean({"m": []}, "m")

    def test_csv_layout(self):
        counts = gate_histogram(self.gates_of([0.3, 0.45, 0.95]), "m")
        csv = histogram_csv(counts)
        lines = csv.strip().split("\n")
        assert lines[0] == "bucket_low,bucket_high,count"
        assert len(lines) == 1 + len(GATE_BUCKET_EDGES) - 1
        assert lines[1] == "0.0,0.4,1"
        assert lines[-1] == "0.9,1.0,1"
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        assert total == 3


class TestDecodeSpans:
    def test_lenient(self):
        labels = ["E-PER", "B-LOC", "O", "B-ORG", "I-ORG", "E-ORG", "S-PER"]
        assert decode_label_spans(labels, drop_malformed=True) == [
            (3, 5, "ORG"), (6, 6, "PER")]

    def test_valid_passthrough(self):
        labels = ["B-PER", "E-PER", "O", "S-LOC"]
        assert decode_label_spans(labels, drop_malformed=True) == [
            (0, 1, "PER"), (3, 3, "LOC")]
