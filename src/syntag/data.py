"""Corpus ingestion, vocabularies, label schemes and embedding files.

The corpus format is a CoNLL-like TSV: one token per line with columns
``index  form  pos  head  deprel  ner`` (tab-separated), a blank line between
sentences, and ``#``-prefixed comment lines. Heads are 1-based with 0 marking
the syntactic root.

Label sequences are segment encodings in either BIO or BIOES. Spans are the
common currency: both schemes decode to (start, end, type) triples and encode
back, which is how scheme conversion and evaluation are implemented.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import (
    ContractError,
    FormatError,
    ParseError,
    SchemeError,
    TreeValidationError,
)
from .initializers import embedding_table

PAD = "<pad>"
UNK = "<unk>"
SCHEMES = ("bio", "bioes")


@dataclass
class Sentence:
    """One annotated sentence: surface forms plus POS, dependency tree, labels.

    heads[i] is the 1-based index of token i's head, 0 for the root.
    """

    tokens: list
    pos_tags: list
    heads: list
    deprels: list
    labels: list

    def __len__(self):
        return len(self.tokens)

    def copy(self):
        return Sentence(
            list(self.tokens),
            list(self.pos_tags),
            list(self.heads),
            list(self.deprels),
            list(self.labels),
        )


def validate_tree(heads, sentence_index=None):
    """Check that a head list encodes a single rooted tree.

    Raises TreeValidationError otherwise. The walk-to-root check below is
    enough: with exactly one zero head, n nodes have n-1 parent edges, and
    the structure is a tree iff no walk revisits a node. A cycle is named
    by the first token whose walk never reaches the root.
    """
    n = len(heads)
    where = f" in sentence {sentence_index}" if sentence_index is not None else ""
    roots = [i for i, h in enumerate(heads) if h == 0]
    for i, h in enumerate(heads):
        if not 0 <= h <= n:
            raise TreeValidationError(
                f"head {h} of token {i + 1} out of range 0..{n}{where}"
            )
        if h == i + 1:
            raise TreeValidationError(f"token {i + 1} is its own head{where}")
    if len(roots) != 1:
        raise TreeValidationError(
            f"expected exactly one root, found {len(roots)}{where}"
        )
    # walk[i] is the first walk that passed token i. A walk ends at the root
    # or at a token an earlier walk passed, which reached the root, so every
    # token is stepped through once; meeting its own walk is a cycle.
    walk = [-1] * n
    for start in range(n):
        node = start
        while walk[node] < 0 and heads[node] != 0:
            walk[node] = start
            node = heads[node] - 1
        if walk[node] == start:
            raise TreeValidationError(f"cycle through token {start + 1}{where}")


@lru_cache(maxsize=4096)
def tag_may_follow(prev, nxt, scheme):
    """Whether tag ``nxt`` may follow tag ``prev`` under ``scheme``.

    ``None`` stands for START as ``prev`` and for STOP as ``nxt``. This is
    the one statement of the BIO/BIOES grammar: validation, lenient span
    decoding and the CRF constraint mask all read it. A malformed tag may
    follow nothing and be followed by nothing. Tags come from a small
    closed set, so the answers are cached.
    """
    pk, pt = _split_tag(prev)
    nk, nt = _split_tag(nxt)
    if pk is None or nk is None:
        return False
    if scheme == "bio":
        if nk == "I":
            return pk in ("B", "I") and pt == nt
        return nk not in ("E", "S")
    if pk in ("B", "I"):
        return nk in ("I", "E") and nt == pt
    return nk not in ("I", "E")


def _split_tag(tag):
    """(kind, type); ("O", None) for O, START and STOP, (None, None) if malformed."""
    if tag is None or tag == "O":
        return "O", None
    if len(tag) > 2 and tag[1] == "-" and tag[0] in "BIES":
        return tag[0], tag[2:]
    return None, None


def validate_labels(labels, scheme="bioes"):
    """Raise SchemeError naming the position if ``labels`` is invalid under ``scheme``."""
    if scheme not in SCHEMES:
        raise ContractError(f"unknown label scheme {scheme!r}")
    for i, (prev, tag) in enumerate(zip([None, *labels], [*labels, None])):
        if tag_may_follow(prev, tag, scheme):
            continue
        if tag is None:
            raise SchemeError(
                f"segment open at end of sequence ({prev!r} at position {i - 1})")
        if _split_tag(tag)[0] is None:
            raise SchemeError(f"malformed tag {tag!r} at position {i}")
        after = "the start" if prev is None else repr(prev)
        raise SchemeError(
            f"tag {tag!r} at position {i} may not follow {after} under {scheme}")


def decode_label_spans(labels, scheme="bioes", drop_malformed=False):
    """Decode a tag sequence into (start, end, type) triples, end inclusive.

    With drop_malformed=True the input may be arbitrary (model output): a
    span starts at a B or S tag the scheme allows after START, runs through
    the following I-/E- tags of its type that ``tag_may_follow`` allows, and
    is kept only if STOP may follow its last tag; otherwise its first tag is
    skipped and the scan resumes after it. With drop_malformed=False the
    sequence is validated first.
    """
    if not drop_malformed:
        validate_labels(labels, scheme)
    spans = []
    n = len(labels)
    i = 0
    while i < n:
        kind, etype = _split_tag(labels[i])
        if kind not in ("B", "S") or not tag_may_follow(None, labels[i], scheme):
            i += 1
            continue
        j = i + 1
        while (j < n and labels[j] in (f"I-{etype}", f"E-{etype}")
               and tag_may_follow(labels[j - 1], labels[j], scheme)):
            j += 1
        if tag_may_follow(labels[j - 1], None, scheme):
            spans.append((i, j - 1, etype))
            i = j
        else:
            i += 1
    return spans


def encode_label_spans(spans, n, scheme="bioes"):
    """Inverse of decode_label_spans for non-overlapping sorted spans."""
    labels = ["O"] * n
    last_end = -1
    for start, end, etype in sorted(spans):
        if start <= last_end:
            raise ContractError(f"overlapping spans at token {start}")
        if not 0 <= start <= end < n:
            raise ContractError(f"span ({start}, {end}) outside sentence of length {n}")
        last_end = end
        if scheme == "bio":
            labels[start] = f"B-{etype}"
            for k in range(start + 1, end + 1):
                labels[k] = f"I-{etype}"
        elif start == end:
            labels[start] = f"S-{etype}"
        else:
            labels[start] = f"B-{etype}"
            for k in range(start + 1, end):
                labels[k] = f"I-{etype}"
            labels[end] = f"E-{etype}"
    return labels


def convert_label_scheme(labels, from_scheme, to_scheme):
    """Re-encode a valid tag sequence from one scheme into another."""
    if from_scheme not in SCHEMES or to_scheme not in SCHEMES:
        raise ContractError(f"unknown scheme in {from_scheme!r} -> {to_scheme!r}")
    spans = decode_label_spans(labels, from_scheme)
    if from_scheme == to_scheme:
        return list(labels)
    return encode_label_spans(spans, len(labels), to_scheme)


def read_lines(path, error):
    """The lines of UTF-8 text file ``path``; ``error`` naming the path and
    the offset of the first byte that is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: byte {exc.start}: not UTF-8") from None


def parse_corpus(path, label_scheme="bioes"):
    """Read a TSV corpus file into a list of Sentences.

    Every sentence is validated: column arity and integer fields (ParseError
    with the line number), tree structure (TreeValidationError with the
    sentence index), label-scheme validity (SchemeError), and UTF-8 (ParseError
    with the byte offset). Each of these errors starts with the path.
    """
    lines = read_lines(path, ParseError)
    try:
        return _parse_lines(lines, label_scheme)
    except (ParseError, TreeValidationError, SchemeError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _parse_lines(lines, label_scheme):
    sentences = []
    block = []
    for line_no, line in enumerate(lines, start=1):
        if line.startswith("#"):
            continue
        if line.strip() == "":
            if block:
                sentences.append(_build_sentence(block, len(sentences), label_scheme))
                block = []
            continue
        cols = line.split("\t")
        if len(cols) != 6:
            raise ParseError(
                f"line {line_no}: expected 6 tab-separated columns, got {len(cols)}"
            )
        idx_s, form, pos, head_s, deprel, ner = cols
        try:
            idx = int(idx_s)
        except ValueError:
            raise ParseError(f"line {line_no}: token index {idx_s!r} is not an integer") from None
        if idx != len(block) + 1:
            raise ParseError(
                f"line {line_no}: token index {idx}, expected {len(block) + 1}"
            )
        try:
            head = int(head_s)
        except ValueError:
            raise ParseError(f"line {line_no}: head {head_s!r} is not an integer") from None
        if form == "":
            raise ParseError(f"line {line_no}: empty token form")
        block.append((form, pos, head, deprel, ner))
    if block:
        sentences.append(_build_sentence(block, len(sentences), label_scheme))
    return sentences


def _build_sentence(rows, sent_index, label_scheme):
    tokens = [r[0] for r in rows]
    pos_tags = [r[1] for r in rows]
    heads = [r[2] for r in rows]
    deprels = [r[3] for r in rows]
    labels = [r[4] for r in rows]
    validate_tree(heads, sentence_index=sent_index)
    try:
        validate_labels(labels, label_scheme)
    except SchemeError as exc:
        raise SchemeError(f"sentence {sent_index}: {exc}") from None
    return Sentence(tokens, pos_tags, heads, deprels, labels)


def serialize_corpus(sentences):
    """Render sentences back into the TSV format parse_corpus reads."""
    blocks = []
    for s in sentences:
        rows = []
        for i in range(len(s)):
            rows.append(
                f"{i + 1}\t{s.tokens[i]}\t{s.pos_tags[i]}\t{s.heads[i]}"
                f"\t{s.deprels[i]}\t{s.labels[i]}"
            )
        blocks.append("\n".join(rows))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def write_corpus(sentences, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_corpus(sentences))


class Vocabulary:
    """Dense 0-based id maps for words, characters, POS, deprels and labels.

    Words and characters reserve PAD=0 and UNK=1. POS and deprel maps do the
    same so padded positions can share id 0 everywhere. The label set is
    closed: looking up an unknown label is a contract violation, not UNK.

    Word lookup is case-sensitive with a lowercase fallback before UNK.
    """

    def __init__(self, words, chars, pos_tags, deprels, labels):
        self.words = dict(words)
        self.chars = dict(chars)
        self.pos_tags = dict(pos_tags)
        self.deprels = dict(deprels)
        self.labels = dict(labels)
        self.label_names = [None] * len(self.labels)
        for name, i in self.labels.items():
            self.label_names[i] = name

    def word_id(self, token):
        wid = self.words.get(token)
        if wid is None:
            wid = self.words.get(token.lower(), 1)
        return wid

    def char_id(self, ch):
        return self.chars.get(ch, 1)

    def pos_id(self, tag):
        return self.pos_tags.get(tag, 1)

    def deprel_id(self, rel):
        return self.deprels.get(rel, 1)

    def label_id(self, name):
        try:
            return self.labels[name]
        except KeyError:
            raise ContractError(f"label {name!r} not in the training label set") from None

    def to_dict(self):
        return {
            "words": self.words,
            "chars": self.chars,
            "pos_tags": self.pos_tags,
            "deprels": self.deprels,
            "labels": self.labels,
        }

    @classmethod
    def from_dict(cls, d):
        """Rebuild from ``to_dict`` output; FormatError names a bad map.

        Each map takes strings to the ids 0..n-1, each once; every map but
        the labels gives PAD id 0 and UNK id 1.
        """
        names = ("words", "chars", "pos_tags", "deprels", "labels")
        for name in names:
            m = d.get(name)
            if not isinstance(m, dict) or not all(
                    isinstance(k, str) and type(v) is int for k, v in m.items()):
                raise FormatError(f"vocabulary map {name!r} is missing or not str -> int")
            if sorted(m.values()) != list(range(len(m))):
                raise FormatError(
                    f"vocabulary map {name!r} ids are not exactly 0..{len(m) - 1}")
            if name != "labels" and (m.get(PAD), m.get(UNK)) != (0, 1):
                raise FormatError(
                    f"vocabulary map {name!r} must give {PAD} id 0 and {UNK} id 1")
        return cls(*(d[name] for name in names))

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self.to_dict() == other.to_dict()


def build_vocab(corpus, min_count=1):
    """Collect vocabularies from a training corpus.

    Words below min_count map to UNK at lookup time. Everything is ordered
    by first appearance so ids are reproducible.
    """
    if not corpus:
        raise ContractError("build_vocab needs a non-empty corpus")
    counts = Counter(chain.from_iterable(s.tokens for s in corpus))
    column = lambda name: chain.from_iterable(getattr(s, name) for s in corpus)
    # A character is first seen in the first use of some form, so the
    # distinct forms in first-seen order list the characters in order too.
    return Vocabulary(
        _ids(PAD, UNK, *(tok for tok, c in counts.items() if c >= min_count)),
        _ids(PAD, UNK, *chain.from_iterable(counts)),
        _ids(PAD, UNK, *column("pos_tags")),
        _ids(PAD, UNK, *column("deprels")),
        _ids(*column("labels")))


def _ids(*keys):
    """Ids 0, 1, ... for the distinct keys in first-seen order."""
    return {key: i for i, key in enumerate(dict.fromkeys(keys))}


def load_embeddings(path, vocab, rng):
    """Load pretrained word vectors for every word in ``vocab``.

    The file has one ``token v1 ... vD`` line per word; an optional first
    line ``count D`` (two integers) is skipped. Vocabulary words absent
    from the file keep their random initialization, drawn first so the
    result is reproducible for a given rng. The PAD row is zero. Returns a
    (num_words, D) float64 matrix. Every FormatError names the file. Every
    line is checked, but only a vocabulary word's vector, or that of its
    lowercase form, is kept; a word's last line wins.
    """
    wanted = set(vocab.words) | {word.lower() for word in vocab.words}
    vectors = {}
    dim = None
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                parts = line.rstrip("\n").split()
                if not parts:
                    continue
                if line_no == 1 and len(parts) == 2 and _both_ints(parts):
                    continue  # header line
                token, values = parts[0], parts[1:]
                where = f"{path}: line {line_no}"
                if dim is None:
                    dim = len(values)
                    if dim == 0:
                        raise FormatError(f"{where}: no vector values")
                elif len(values) != dim:
                    raise FormatError(
                        f"{where}: expected {dim} values, got {len(values)}")
                try:
                    vec = np.array([float(v) for v in values])
                except ValueError:
                    raise FormatError(f"{where}: non-numeric vector value") from None
                if not np.isfinite(vec).all():
                    raise FormatError(f"{where}: non-finite vector value")
                if token in wanted:
                    vectors[token] = vec
    except UnicodeDecodeError:  # reread whole for the byte's offset in the file
        read_lines(path, FormatError)
        raise
    if dim is None:
        raise FormatError(f"{path}: embedding file contains no vectors")
    matrix = embedding_table(rng, len(vocab.words), dim).data
    for token, wid in vocab.words.items():
        if token in (PAD, UNK):
            continue
        vec = vectors.get(token)
        if vec is None:
            vec = vectors.get(token.lower())
        if vec is not None:
            matrix[wid] = vec
    return matrix


def _both_ints(parts):
    try:
        int(parts[0]), int(parts[1])
    except ValueError:
        return False
    return True

