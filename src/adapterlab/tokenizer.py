"""Trainable byte-pair-encoding tokenizer with special tokens and MLM masking.

One tokenizer is shared by natural-language pretraining and code adapter
training: it is trained once on the NL corpus and reused unchanged for code.
Text is pre-split into whitespace / non-whitespace runs and merges never
cross run boundaries, so decode is the exact inverse of encode whenever the
alphabet covers the text.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
from collections import Counter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .schema import read_text
from .tensor import IGNORE_INDEX

BOS, EOS, PAD, UNK, MASK = "<s>", "</s>", "<pad>", "<unk>", "<mask>"
SPECIAL_TOKENS = (BOS, EOS, PAD, UNK, MASK)

# Leading whitespace attaches to the following word; a trailing all-space
# run stands alone. Concatenating runs reproduces the text exactly.
_RUN_RE = re.compile(r"\s*\S+|\s+")

VOCAB_HEADER = "adapterlab-vocab v1"


class TokenizerError(ValueError):
    pass


def _escape(token: str) -> str:
    return token.encode("unicode_escape").decode("ascii")


def _unescape(token: str) -> str:
    return token.encode("ascii").decode("unicode_escape")


@dataclasses.dataclass
class Vocabulary:
    token_to_id: dict[str, int]
    merges: list[tuple[str, str]]

    def __post_init__(self):
        self.id_to_token = {i: t for t, i in self.token_to_id.items()}
        if len(self.id_to_token) != len(self.token_to_id):
            raise TokenizerError("duplicate ids in vocabulary")
        self._merge_rank = {pair: r for r, pair in enumerate(self.merges)}
        self._run_ids: dict[str, list[int]] = {}  # encode's memo: a run's ids

    @property
    def size(self) -> int:
        return len(self.token_to_id)

    @property
    def bos_id(self) -> int:
        return self.token_to_id[BOS]

    @property
    def eos_id(self) -> int:
        return self.token_to_id[EOS]

    @property
    def pad_id(self) -> int:
        return self.token_to_id[PAD]

    @property
    def unk_id(self) -> int:
        return self.token_to_id[UNK]

    @property
    def mask_id(self) -> int:
        return self.token_to_id[MASK]

    @property
    def special_ids(self) -> frozenset[int]:
        return frozenset(self.token_to_id[t] for t in SPECIAL_TOKENS)

    @property
    def sha256(self) -> str:
        """SHA-256 of the token list in id order, one escaped token per
        line: what a checkpoint records of the vocabulary it was trained with."""
        tokens = (_escape(self.id_to_token[i]) for i in range(self.size))
        return hashlib.sha256("".join(t + "\n" for t in tokens).encode("ascii")).hexdigest()

    # -- encode / decode ---------------------------------------------------
    def _bpe_run(self, run: str) -> list[str]:
        pieces = list(run)
        while len(pieces) > 1:
            best_rank, best_i = None, None
            for i in range(len(pieces) - 1):
                rank = self._merge_rank.get((pieces[i], pieces[i + 1]))
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank, best_i = rank, i
            if best_i is None:
                break
            pieces[best_i:best_i + 2] = [pieces[best_i] + pieces[best_i + 1]]
        return pieces

    def encode(self, text: str, add_special: bool = True) -> list[int]:
        ids: list[int] = []
        for run in _RUN_RE.findall(text):
            run_ids = self._run_ids.get(run)
            if run_ids is None:
                run_ids = self._run_ids[run] = [self.token_to_id.get(piece, self.unk_id)
                                                for piece in self._bpe_run(run)]
            ids.extend(run_ids)
        if add_special:
            return [self.bos_id] + ids + [self.eos_id]
        return ids

    def decode(self, ids: Sequence[int]) -> str:
        """Text of ``ids``; special tokens are left out."""
        out: list[str] = []
        special = self.special_ids
        for i in ids:
            i = int(i)
            if i not in self.id_to_token:
                raise TokenizerError(f"id {i} out of range")
            if i in special:
                continue
            out.append(self.id_to_token[i])
        return "".join(out)

    # -- persistence -------------------------------------------------------
    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(VOCAB_HEADER + "\n")
            for token, idx in sorted(self.token_to_id.items(), key=lambda kv: kv[1]):
                fh.write(f"{_escape(token)}\t{idx}\n")
            fh.write("#merges\n")
            for a, b in self.merges:
                fh.write(f"{_escape(a)}\t{_escape(b)}\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """The token ids must be exactly 0..n-1, each token listed once.
        ``TokenizerError`` names the file, and the line of a bad entry or
        every missing special token."""
        lines = read_text(path, TokenizerError).splitlines()
        if not lines or lines[0] != VOCAB_HEADER:
            raise TokenizerError(f"{path}: not a vocabulary file "
                                 f"(expected header {VOCAB_HEADER!r})")
        token_to_id: dict[str, int] = {}
        line_of: dict[int, int] = {}  # token id -> the line that lists it
        merges: list[tuple[str, str]] = []
        section = "tokens"
        try:
            for lineno, line in enumerate(lines[1:], start=2):
                if line == "#merges":
                    section = "merges"
                    continue
                if not line:
                    continue
                a, b = line.split("\t")
                if section == "tokens":
                    token, idx = _unescape(a), int(b)
                    if token in token_to_id or idx in line_of:
                        raise ValueError("token or id listed twice")
                    token_to_id[token], line_of[idx] = idx, lineno
                else:
                    merges.append((_unescape(a), _unescape(b)))
        except ValueError as e:  # no single tab, a bad id, a repeated entry, a bad escape
            raise TokenizerError(f"{path}, line {lineno}: bad {section} entry "
                                 f"{line!r} ({e})") from e
        missing = [t for t in SPECIAL_TOKENS if t not in token_to_id]
        if missing:
            raise TokenizerError(f"{path}: missing special token(s) {', '.join(missing)}")
        # n distinct ids, none outside 0..n-1: exactly 0..n-1
        stray = sorted(line_of[i] for i in line_of if not 0 <= i < len(line_of))
        if stray:
            raise TokenizerError(f"{path}, line {stray[0]}: bad tokens entry "
                                 f"{lines[stray[0] - 1]!r} (id outside 0..{len(line_of) - 1})")
        return cls(token_to_id=token_to_id, merges=merges)


def train_bpe(corpus: Iterable[str], vocab_size: int) -> Vocabulary:
    """Learn a BPE vocabulary from ``corpus``.

    Deterministic for a fixed corpus order; ties between pairs of equal
    frequency break lexicographically.
    """
    run_freq: Counter[str] = Counter()
    n_texts = 0
    for text in corpus:
        n_texts += 1
        run_freq.update(_RUN_RE.findall(text))
    if n_texts == 0:
        raise TokenizerError("empty corpus")

    alphabet = sorted({ch for run in run_freq for ch in run})
    base = len(SPECIAL_TOKENS) + len(alphabet)
    if vocab_size < base:
        raise TokenizerError(f"vocab_size {vocab_size} below base symbol count {base}")

    words: list[list[str]] = [list(run) for run in run_freq]
    freqs = list(run_freq.values())
    merges: list[tuple[str, str]] = []
    n_tokens = base
    while n_tokens < vocab_size:
        pair_freq: Counter[tuple[str, str]] = Counter()
        for word, freq in zip(words, freqs):
            for i in range(len(word) - 1):
                pair_freq[(word[i], word[i + 1])] += freq
        if not pair_freq:
            break
        best = min(pair_freq.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges.append(best)
        merged = best[0] + best[1]
        for word in words:
            i = 0
            while i < len(word) - 1:
                if word[i] == best[0] and word[i + 1] == best[1]:
                    word[i:i + 2] = [merged]
                else:
                    i += 1
        n_tokens += 1

    token_to_id: dict[str, int] = {t: i for i, t in enumerate(SPECIAL_TOKENS)}
    for ch in alphabet:
        token_to_id[ch] = len(token_to_id)
    for a, b in merges:
        tok = a + b
        if tok not in token_to_id:
            token_to_id[tok] = len(token_to_id)
    return Vocabulary(token_to_id=token_to_id, merges=merges)


@dataclasses.dataclass
class MaskedBatch:
    input_ids: np.ndarray       # [batch, len] int
    attention_mask: np.ndarray  # [batch, len] {0,1}
    labels: np.ndarray          # [batch, len] int, IGNORE at uncorrupted positions

    IGNORE = IGNORE_INDEX  # the label tensor.cross_entropy skips


def apply_mlm_mask(ids: np.ndarray, attention_mask: np.ndarray, vocab: Vocabulary,
                   mask_rate: float = 0.15, seed: int | np.random.Generator = 0) -> MaskedBatch:
    """BERT-style corruption: of the selected positions, 80% become the mask
    token, 10% a random vocabulary token, and the rest stay unchanged (labels
    still record the original).

    Special tokens and pad positions are never selected.
    """
    if not 0.0 <= mask_rate <= 1.0:
        raise ValueError(f"mask_rate must be in [0, 1], got {mask_rate}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    ids = np.asarray(ids)
    attention_mask = np.asarray(attention_mask)
    eligible = attention_mask.astype(bool) & ~np.isin(ids, list(vocab.special_ids))
    selected = eligible & (rng.random(ids.shape) < mask_rate)

    labels = np.full_like(ids, MaskedBatch.IGNORE)
    labels[selected] = ids[selected]

    out = ids.copy()
    roll = rng.random(ids.shape)
    to_mask = selected & (roll < 0.8)
    to_random = selected & (roll >= 0.8) & (roll < 0.9)
    out[to_mask] = vocab.mask_id
    if to_random.any():
        out[to_random] = rng.integers(0, vocab.size, size=int(to_random.sum()))
    return MaskedBatch(input_ids=out, attention_mask=attention_mask, labels=labels)


def pad_batch(encoded: Sequence[Sequence[int]], pad_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad id sequences to the longest; returns (ids, attention_mask)."""
    width = max(len(e) for e in encoded)
    ids = np.full((len(encoded), width), pad_id, dtype=np.int64)
    mask = np.zeros((len(encoded), width), dtype=np.int64)
    for r, e in enumerate(encoded):
        ids[r, :len(e)] = e
        mask[r, :len(e)] = 1
    return ids, mask


def encode_batch(texts: Sequence[str], vocab: Vocabulary, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Encode, truncate to ``max_len`` and pad; returns (ids, attention_mask)."""
    return pad_batch([vocab.encode(t)[:max_len] for t in texts], vocab.pad_id)
