"""Per-token input assembly: embedding tables and the character encoder.

Every token is represented by the concatenation of a word embedding, a
character-level summary, and (depending on the model variant) dependency
relation and POS embeddings. The character summary comes from a plain
bidirectional LSTM over character embeddings: the final hidden state of
each direction, concatenated.

PAD rows (id 0) of every table are zero at initialization and receive zero
gradient, because the model gathers rows at real positions only; they
therefore stay zero through training.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, concat, constant, rows
from .errors import ContractError
from .initializers import embedding_table
from .recurrent import LstmParams, bidirectional


class EmbeddingTables:
    """Learnable lookup tables; deprel/pos are optional per configuration."""

    def __init__(self, vocab, rng, word_dim, char_dim, deprel_dim=None,
                 pos_dim=None, word_matrix=None):
        if word_matrix is not None:
            m = np.array(word_matrix, dtype=np.float64)
            if m.shape[0] != len(vocab.words):
                raise ContractError(
                    f"word matrix has {m.shape[0]} rows, vocab has "
                    f"{len(vocab.words)} words"
                )
            self.word = Tensor(m, requires_grad=True)
        else:
            self.word = embedding_table(rng, len(vocab.words), word_dim)
        self.char = embedding_table(rng, len(vocab.chars), char_dim)
        self.deprel = None
        self.pos = None
        if deprel_dim is not None:
            self.deprel = embedding_table(rng, len(vocab.deprels), deprel_dim)
        if pos_dim is not None:
            self.pos = embedding_table(rng, len(vocab.pos_tags), pos_dim)

    def parameters(self):
        out = {"word_table": self.word, "char_table": self.char}
        if self.deprel is not None:
            out["deprel_table"] = self.deprel
        if self.pos is not None:
            out["pos_table"] = self.pos
        return out


class CharEncoder:
    """Plain BiLSTM over characters, returning final states of each direction."""

    def __init__(self, char_dim, char_hidden, rng):
        self.hidden = char_hidden
        self.fwd = LstmParams(char_dim, char_hidden, rng)
        self.bwd = LstmParams(char_dim, char_hidden, rng)

    @property
    def output_dim(self):
        return 2 * self.hidden

    def parameters(self):
        out = {}
        for side, p in (("fwd", self.fwd), ("bwd", self.bwd)):
            for name, t in p.parameters().items():
                out[f"char_{side}.{name}"] = t
        return out

    def encode_batch(self, char_table, char_id_rows):
        """Encode many tokens at once.

        char_id_rows: non-empty list of per-token character id lists (each
        non-empty).
        Returns (num_tokens, 2 * hidden): each direction's state after its
        last character.
        """
        if not char_id_rows:
            raise ContractError("no tokens to encode")
        if any(len(ids) == 0 for ids in char_id_rows):
            raise ContractError("cannot encode an empty token")
        count = len(char_id_rows)
        lengths = [len(ids) for ids in char_id_rows]
        c_max = max(lengths)
        flat_ids = np.zeros(count * c_max, dtype=np.intp)
        for i, ids in enumerate(char_id_rows):
            flat_ids[i * c_max: i * c_max + len(ids)] = ids
        emb_flat = rows(char_table, flat_ids)
        return bidirectional(emb_flat, None, lengths, self.fwd, self.bwd,
                             final=True)


def scatter_token_rows(token_vectors, position_of, total_rows):
    """Spread per-token vectors into a padded flat layout.

    position_of maps flat row index -> token row; a padded position holds
    ``len(token_vectors)`` and gets a zero row. Gradients flow only into
    real tokens.
    """
    if len(position_of) != total_rows:
        raise ContractError(
            f"expected {total_rows} positions, got {len(position_of)}")
    dim = token_vectors.data.shape[1]
    return rows(concat([token_vectors, constant(np.zeros((1, dim)))], axis=0),
                position_of)
