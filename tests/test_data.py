"""Tests for corpus parsing, tree validation, label schemes and vocabularies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syntag import data
from syntag.errors import (
    ContractError,
    FormatError,
    ParseError,
    SchemeError,
    TreeValidationError,
)

GOOD_BLOCK = (
    "1\tJohn\tNNP\t2\tnsubj\tS-PER\n"
    "2\tvisited\tVBD\t0\troot\tO\n"
    "3\tRome\tNNP\t2\tobj\tS-LOC\n"
)


# Any field text the TSV format can hold: no tab, and no line break.
FIELD = st.text(st.characters(exclude_characters="\t\n\r"), max_size=6)
ENTITY_TYPES = st.text(alphabet="PERLOC-", min_size=1, max_size=3)


@st.composite
def spans_and_length(draw, max_len=8):
    """A sentence length and sorted, non-overlapping entity spans in it."""
    n = draw(st.integers(1, max_len))
    spans, start = [], 0
    while start < n:
        width = draw(st.integers(1, n - start))
        if draw(st.booleans()):
            spans.append((start, start + width - 1, draw(ENTITY_TYPES)))
        start += width
    return spans, n


@st.composite
def sentences(draw):
    """A sentence with any dependency tree and valid BIOES labels."""
    spans, n = draw(spans_and_length())
    order = draw(st.permutations(range(n)))
    heads = [0] * n
    for k in range(1, n):  # each node hangs from one placed before it
        heads[order[k]] = order[draw(st.integers(0, k - 1))] + 1
    return data.Sentence(
        draw(st.lists(FIELD.filter(bool), min_size=n, max_size=n)),
        draw(st.lists(FIELD, min_size=n, max_size=n)), heads,
        draw(st.lists(FIELD, min_size=n, max_size=n)),
        data.encode_label_spans(spans, n, "bioes"))


def _write(tmp_path, text, name="corpus.tsv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def union_find_is_tree(heads):
    """Independent oracle: heads encode a tree iff the n-1 non-root edges
    never join two already-connected components and exactly one root exists."""
    n = len(heads)
    if sum(1 for h in heads if h == 0) != 1:
        return False
    if any(not 0 <= h <= n or h == i + 1 for i, h in enumerate(heads)):
        return False
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, h in enumerate(heads):
        if h == 0:
            continue
        ra, rb = find(i), find(h - 1)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


class TestParsing:
    def test_single_token_block(self, tmp_path):
        path = _write(tmp_path, "1\tRome\tNNP\t0\troot\tS-GPE\n")
        corpus = data.parse_corpus(path)
        assert len(corpus) == 1
        s = corpus[0]
        assert len(s) == 1 and s.heads == [0] and s.labels == ["S-GPE"]

    def test_empty_file_gives_empty_corpus(self, tmp_path):
        assert data.parse_corpus(_write(tmp_path, "")) == []

    def test_comments_and_trailing_blank_lines(self, tmp_path):
        text = "# a comment\n" + GOOD_BLOCK + "\n\n# tail\n"
        corpus = data.parse_corpus(_write(tmp_path, text))
        assert len(corpus) == 1
        assert corpus[0].tokens == ["John", "visited", "Rome"]

    def test_two_blocks(self, tmp_path):
        text = GOOD_BLOCK + "\n" + "1\tHi\tUH\t0\troot\tO\n"
        corpus = data.parse_corpus(_write(tmp_path, text))
        assert [len(s) for s in corpus] == [3, 1]

    def test_bad_column_count_reports_line(self, tmp_path):
        text = GOOD_BLOCK + "\n1\tonly\tthree\n"
        with pytest.raises(ParseError) as exc:
            data.parse_corpus(_write(tmp_path, text))
        assert "line 5" in str(exc.value)

    def test_non_integer_head(self, tmp_path):
        with pytest.raises(ParseError):
            data.parse_corpus(_write(tmp_path, "1\ta\tNN\tx\tdep\tO\n"))

    def test_out_of_order_index(self, tmp_path):
        with pytest.raises(ParseError):
            data.parse_corpus(_write(tmp_path, "2\ta\tNN\t0\troot\tO\n"))

    def test_no_root_rejected(self, tmp_path):
        text = "1\ta\tNN\t2\tdep\tO\n2\tb\tNN\t1\tdep\tO\n"
        with pytest.raises(TreeValidationError):
            data.parse_corpus(_write(tmp_path, text))

    def test_cycle_rejected(self, tmp_path):
        text = (
            "1\ta\tNN\t0\troot\tO\n"
            "2\tb\tNN\t3\tdep\tO\n"
            "3\tc\tNN\t4\tdep\tO\n"
            "4\td\tNN\t2\tdep\tO\n"
        )
        with pytest.raises(TreeValidationError):
            data.parse_corpus(_write(tmp_path, text))

    def test_self_head_rejected(self, tmp_path):
        text = "1\ta\tNN\t0\troot\tO\n2\tb\tNN\t2\tdep\tO\n"
        with pytest.raises(TreeValidationError):
            data.parse_corpus(_write(tmp_path, text))

    def test_invalid_gold_labels_rejected(self, tmp_path):
        with pytest.raises(SchemeError):
            data.parse_corpus(_write(tmp_path, "1\ta\tNN\t0\troot\tI-PER\n"))

    def test_round_trip_identity(self, tmp_path):
        text = GOOD_BLOCK + "\n" + "1\tshort\tJJ\t0\troot\tO\n"
        corpus = data.parse_corpus(_write(tmp_path, text))
        text2 = data.serialize_corpus(corpus)
        corpus2 = data._parse_lines(text2.split("\n"), "bioes")
        assert corpus == corpus2

    @settings(max_examples=200, deadline=None)
    @given(corpus=st.lists(sentences(), max_size=4))
    def test_serialize_parse_round_trip_property(self, corpus):
        text = data.serialize_corpus(corpus)
        assert data._parse_lines(text.split("\n"), "bioes") == corpus

    def test_validation_agrees_with_union_find_oracle(self):
        rng = np.random.default_rng(7)
        agree = 0
        for _ in range(500):
            n = int(rng.integers(1, 7))
            heads = [int(rng.integers(0, n + 1)) for _ in range(n)]
            ok_oracle = union_find_is_tree(heads)
            try:
                data.validate_tree(heads)
                ok_impl = True
            except TreeValidationError:
                ok_impl = False
            assert ok_impl == ok_oracle, (heads, ok_impl, ok_oracle)
            agree += 1
        assert agree == 500


class TestLabelSchemes:
    def test_singleton_bio_to_bioes(self):
        assert data.convert_label_scheme(["B-PER"], "bio", "bioes") == ["S-PER"]

    def test_pair_bio_to_bioes(self):
        got = data.convert_label_scheme(["B-ORG", "I-ORG"], "bio", "bioes")
        assert got == ["B-ORG", "E-ORG"]

    def test_invalid_input_raises_at_index(self):
        with pytest.raises(SchemeError) as exc:
            data.convert_label_scheme(["O", "I-PER"], "bio", "bioes")
        assert "position 1" in str(exc.value)

    def test_bioes_validation_rejects_open_segment(self):
        with pytest.raises(SchemeError):
            data.validate_labels(["B-PER", "I-PER"], "bioes")

    def test_round_trip_fuzz(self):
        rng = np.random.default_rng(11)
        types = ["PER", "LOC", "ORG"]
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            labels = _random_bio(rng, n, types)
            once = data.convert_label_scheme(labels, "bio", "bioes")
            data.validate_labels(once, "bioes")
            back = data.convert_label_scheme(once, "bioes", "bio")
            assert back == labels

    @settings(max_examples=300, deadline=None)
    @given(case=spans_and_length(max_len=12))
    def test_bio_bioes_round_trip_keeps_spans_property(self, case):
        spans, n = case
        bio = data.encode_label_spans(spans, n, "bio")
        bioes = data.convert_label_scheme(bio, "bio", "bioes")
        assert data.decode_label_spans(bio, "bio") == spans
        assert data.decode_label_spans(bioes, "bioes") == spans
        assert data.convert_label_scheme(bioes, "bioes", "bio") == bio

    def test_decode_drop_mode_skips_malformed(self):
        labels = ["E-PER", "B-LOC", "O", "B-ORG", "I-ORG", "E-ORG", "S-PER"]
        spans = data.decode_label_spans(labels, "bioes", drop_malformed=True)
        assert spans == [(3, 5, "ORG"), (6, 6, "PER")]

    def test_decode_strict_is_validating(self):
        with pytest.raises(SchemeError):
            data.decode_label_spans(["E-PER"], "bioes")

    def test_encode_rejects_overlap(self):
        with pytest.raises(ContractError):
            data.encode_label_spans([(0, 2, "A"), (2, 3, "B")], 5)


def _random_bio(rng, n, types):
    labels = []
    i = 0
    while i < n:
        if rng.random() < 0.5:
            labels.append("O")
            i += 1
        else:
            t = types[rng.integers(len(types))]
            span_len = min(int(rng.integers(1, 4)), n - i)
            labels.append(f"B-{t}")
            labels.extend(f"I-{t}" for _ in range(span_len - 1))
            i += span_len
    return labels


class TestVocabulary:
    def _corpus(self):
        return [
            data.Sentence(["a", "b", "a"], ["X", "Y", "X"], [0, 1, 1],
                          ["root", "d1", "d2"], ["O", "S-T", "O"]),
            data.Sentence(["a"], ["X"], [0], ["root"], ["O"]),
        ]

    def test_min_count_filters_words(self):
        vocab = data.build_vocab(self._corpus(), min_count=2)
        assert set(vocab.words) == {data.PAD, data.UNK, "a"}
        assert vocab.words[data.PAD] == 0 and vocab.words[data.UNK] == 1

    def test_min_count_one_keeps_all(self):
        vocab = data.build_vocab(self._corpus(), min_count=1)
        assert set(vocab.words) == {data.PAD, data.UNK, "a", "b"}

    def test_unseen_word_maps_to_unk(self):
        vocab = data.build_vocab(self._corpus())
        assert vocab.word_id("zzz") == 1

    def test_lowercase_fallback(self):
        corpus = [data.Sentence(["Rome"], ["NNP"], [0], ["root"], ["O"])]
        vocab = data.build_vocab(corpus)
        rome = vocab.word_id("Rome")
        assert vocab.word_id("ROME") == 1  # no exact or lowercase entry
        corpus2 = [data.Sentence(["rome"], ["NNP"], [0], ["root"], ["O"])]
        vocab2 = data.build_vocab(corpus2)
        assert vocab2.word_id("Rome") == vocab2.word_id("rome")
        assert rome == 2

    def test_label_vocab_closed_set(self):
        vocab = data.build_vocab(self._corpus())
        assert set(vocab.labels) == {"O", "S-T"}
        with pytest.raises(ContractError):
            vocab.label_id("S-NEW")

    def test_bioes_label_count_two_types(self):
        labels = ["B-A", "I-A", "E-A", "S-A", "O", "B-B", "E-B", "I-B", "S-B"]
        # build sentences that legally exercise all 9 tags
        s1 = data.Sentence(["w"] * 5, ["X"] * 5, [0, 1, 1, 1, 1], ["r"] * 5,
                           ["B-A", "I-A", "E-A", "S-A", "O"])
        s2 = data.Sentence(["w"] * 4, ["X"] * 4, [0, 1, 1, 1], ["r"] * 4,
                           ["B-B", "I-B", "E-B", "S-B"])
        vocab = data.build_vocab([s1, s2])
        assert vocab.num_labels == 9
        assert set(vocab.labels) == set(labels)

    def test_round_trip_dict(self):
        vocab = data.build_vocab(self._corpus())
        clone = data.Vocabulary.from_dict(vocab.to_dict())
        assert clone == vocab


class TestEmbeddings:
    def test_copies_known_rows(self, tmp_path):
        corpus = [data.Sentence(["the", "cat"], ["D", "N"], [2, 0],
                                ["det", "root"], ["O", "O"])]
        vocab = data.build_vocab(corpus)
        path = _write(tmp_path, "the 0.1 0.2\ndog 0.3 0.4\n", "emb.txt")
        m = data.load_embeddings(path, vocab, np.random.default_rng(0))
        assert m.shape == (len(vocab.words), 2)
        np.testing.assert_allclose(m[vocab.word_id("the")], [0.1, 0.2])
        np.testing.assert_array_equal(m[0], 0.0)  # PAD row

    def test_missing_token_initialized_reproducibly(self, tmp_path):
        corpus = [data.Sentence(["cat"], ["N"], [0], ["root"], ["O"])]
        vocab = data.build_vocab(corpus)
        path = _write(tmp_path, "dog 1.0 2.0 3.0\n", "emb.txt")
        m1 = data.load_embeddings(path, vocab, np.random.default_rng(5))
        m2 = data.load_embeddings(path, vocab, np.random.default_rng(5))
        np.testing.assert_array_equal(m1, m2)
        assert m1[vocab.word_id("cat")].any()

    def test_header_line_detected(self, tmp_path):
        corpus = [data.Sentence(["a"], ["X"], [0], ["root"], ["O"])]
        vocab = data.build_vocab(corpus)
        path = _write(tmp_path, "2 3\na 1 2 3\nb 4 5 6\n", "emb.txt")
        m = data.load_embeddings(path, vocab, np.random.default_rng(0))
        np.testing.assert_allclose(m[vocab.word_id("a")], [1, 2, 3])

    def test_inconsistent_dim_raises_with_line(self, tmp_path):
        corpus = [data.Sentence(["a"], ["X"], [0], ["root"], ["O"])]
        vocab = data.build_vocab(corpus)
        path = _write(tmp_path, "a 1 2 3\nb 4 5\n", "emb.txt")
        with pytest.raises(FormatError) as exc:
            data.load_embeddings(path, vocab, np.random.default_rng(0))
        assert "line 2" in str(exc.value)
