"""Byte-level byte-pair encoding with category-aware merge restrictions.

Text is pre-segmented into letter runs, digit runs, whitespace runs and
punctuation runs before any merging, with one leading space allowed to
attach to the following run; merges never cross unit boundaries, so no
token ever mixes letters and digits. Segmentation maps each character to
a one-letter category code and splits the code string with one regular
expression. All 256 single bytes are always in the vocabulary, which
makes every byte string encodable.

Merge training counts pairs once and then updates the counts of only the
words a merge touches, so a merge costs time in proportion to the words
holding its pair, not to the whole corpus.
"""

from __future__ import annotations

import heapq
import re
import unicodedata
from collections import Counter
from pathlib import Path

__all__ = [
    "Vocabulary",
    "MergeTable",
    "Tokenizer",
    "VocabularyError",
    "TokenizerFileError",
    "END_OF_TEXT",
    "SEPARATOR",
    "train_merges",
    "load_vocabulary",
    "save_vocabulary",
]

END_OF_TEXT = b"<|endoftext|>"
SEPARATOR = b"<|sep|>"


class VocabularyError(ValueError):
    """Unknown token id or invalid vocabulary state."""


class TokenizerFileError(ValueError):
    """Malformed vocab or merges file."""


class Vocabulary:
    """Bijective map between byte-sequence tokens and integer ids.

    Ids 0..255 are the single bytes; merged tokens follow; the end-of-text
    and separator specials always take the two highest ids.
    """

    def __init__(self, base_tokens):
        tokens = list(base_tokens)
        if len(set(tokens)) != len(tokens):
            raise VocabularyError("duplicate token in vocabulary")
        singles = set(tokens) & {bytes([b]) for b in range(256)}
        if len(singles) != 256:
            raise VocabularyError("vocabulary must contain all 256 single bytes")
        for special in (END_OF_TEXT, SEPARATOR):
            if special in tokens:
                raise VocabularyError(f"token collides with special {special!r}")
        self._id_to_token = tokens + [END_OF_TEXT, SEPARATOR]
        self._token_to_id = {t: i for i, t in enumerate(self._id_to_token)}
        self.end_of_text_id = len(tokens)
        self.separator_id = len(tokens) + 1

    def __len__(self):
        return len(self._id_to_token)

    @property
    def base_size(self) -> int:
        return len(self._id_to_token) - 2

    def token_of(self, token_id: int) -> bytes:
        if not 0 <= token_id < len(self._id_to_token):
            raise VocabularyError(f"unknown token id {token_id}")
        return self._id_to_token[token_id]

    def id_of(self, token: bytes) -> int:
        try:
            return self._token_to_id[token]
        except KeyError:
            raise VocabularyError(f"unknown token {token!r}") from None

    def __contains__(self, token: bytes) -> bool:
        return token in self._token_to_id


class MergeTable:
    """Ordered merge pairs; list position is the merge rank."""

    def __init__(self, pairs):
        self.pairs = [(bytes(a), bytes(b)) for a, b in pairs]
        if len(set(self.pairs)) != len(self.pairs):
            raise TokenizerFileError("duplicate merge pair")
        self.ranks = {pair: i for i, pair in enumerate(self.pairs)}

    def __len__(self):
        return len(self.pairs)


def _category_code(ch: str) -> str:
    """One-letter category: S the space character itself, s other
    whitespace, l letter, d digit, o anything else."""
    if ch == " ":
        return "S"
    if ch.isspace():
        return "s"
    return {"L": "l", "N": "d"}.get(unicodedata.category(ch)[0], "o")


# Built once: the first 256 code points cover ASCII and Latin-1 text.
_LATIN1_CODES = {o: _category_code(chr(o)) for o in range(256)}

# A letter, digit or other run takes one directly preceding space with it;
# a whitespace run gives up its last char when that is a space followed by
# a non-space run.
_UNIT = re.compile(r"S?l+|S?d+|S?o+|[sS]+?(?=S[ldo])|[sS]+")


def _segment(text: str):
    """Split into category runs, attaching a single leading space to each run."""
    codes = text.translate(_LATIN1_CODES)
    if not codes.isascii():  # classify each distinct code point above 255 once
        codes = codes.translate(
            {ord(ch): _category_code(ch) for ch in set(codes) if not ch.isascii()}
        )
    units = []
    start = 0
    for run in _UNIT.findall(codes):  # one code per char, so lengths carry over
        units.append(text[start : start + len(run)])
        start += len(run)
    return units


def _merge_word(word, pair):
    """Replace adjacent occurrences of pair, scanning left to right."""
    merged = pair[0] + pair[1]
    out = []
    i = 0
    while i < len(word):
        if i + 1 < len(word) and word[i] == pair[0] and word[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(word[i])
            i += 1
    return out


class Tokenizer:
    """Immutable encode/decode state; safe for concurrent use."""

    def __init__(self, vocab: Vocabulary, merges: MergeTable):
        for left, right in merges.pairs:
            for part in (left, right, left + right):
                if part not in vocab:
                    raise TokenizerFileError(
                        f"merge references token not in vocabulary: {part!r}"
                    )
        self.vocab = vocab
        self.merges = merges
        self._unit_cache: dict[bytes, list[int]] = {}

    # -- encoding -----------------------------------------------------------

    def encode(self, text) -> list[int]:
        """Token ids for a str (UTF-8) or raw bytes value."""
        decoded = (
            text.decode("utf-8", errors="surrogateescape")
            if isinstance(text, bytes)
            else text
        )
        ids: list[int] = []
        for unit in _segment(decoded):
            raw = unit.encode("utf-8", errors="surrogateescape")
            cached = self._unit_cache.get(raw)
            if cached is None:
                cached = [self.vocab.id_of(tok) for tok in self._bpe(raw)]
                self._unit_cache[raw] = cached
            ids.extend(cached)
        return ids

    def _bpe(self, unit: bytes):
        word = [bytes([b]) for b in unit]
        ranks = self.merges.ranks
        while len(word) > 1:
            best = min(
                zip(word, word[1:]),
                key=lambda p: ranks.get(p, len(ranks)),
                default=None,
            )
            if best is None or best not in ranks:
                break
            word = _merge_word(word, best)
        return word

    # -- decoding -----------------------------------------------------------

    def decode_bytes(self, ids) -> bytes:
        return b"".join(self.vocab.token_of(i) for i in ids)

    def decode(self, ids) -> str:
        """Exact inverse of encode for str input (byte-exact via escape hatch)."""
        return self.decode_bytes(ids).decode("utf-8", errors="surrogateescape")


def train_merges(corpus, num_merges: int) -> Tokenizer:
    """Learn `num_merges` greedy highest-frequency merges from `corpus`.

    Each distinct unit is a word weighted by its count; every adjacent pair
    counts, overlapping ones too (`aaa` holds two `(a, a)`). Pair counts are
    built once and kept with an index from each pair to the words holding
    it; a merge re-merges only those words, subtracting their old pairs and
    adding their new ones. The best pair comes from a heap of `(-count,
    pair)` entries, stale ones skipped, so ties go to the lexicographically
    smallest pair. Stops early when no adjacent pair is left to merge.
    """
    if num_merges < 0:
        raise ValueError("num_merges must be >= 0")
    texts = list(corpus)
    if not texts:
        raise ValueError("training corpus is empty")

    text_units: Counter[str] = Counter()
    for text in texts:
        decoded = (
            text.decode("utf-8", errors="surrogateescape")
            if isinstance(text, bytes)
            else text
        )
        text_units.update(_segment(decoded))
    unit_counts: Counter[bytes] = Counter()
    for unit, n in text_units.items():
        unit_counts[unit.encode("utf-8", errors="surrogateescape")] += n

    words = [[bytes([b]) for b in unit] for unit in unit_counts]
    weights = list(unit_counts.values())
    pair_counts: Counter = Counter()
    where: dict[tuple, set[int]] = {}  # pair -> indices of the words holding it
    for i, toks in enumerate(words):
        for pair in zip(toks, toks[1:]):
            pair_counts[pair] += weights[i]
            where.setdefault(pair, set()).add(i)
    heap = [(-n, pair) for pair, n in pair_counts.items()]
    heapq.heapify(heap)

    merges = []
    while len(merges) < num_merges and heap:
        neg, best = heapq.heappop(heap)
        if pair_counts.get(best) != -neg:
            continue  # stale: the count changed after this entry was pushed
        merges.append(best)
        delta: dict[tuple, int] = {}  # a plain dict: Counter's misses are slow
        for i in where.pop(best):
            old = words[i]
            new = words[i] = _merge_word(old, best)
            old_pairs, new_pairs = list(zip(old, old[1:])), list(zip(new, new[1:]))
            w = weights[i]
            for pair in old_pairs:
                delta[pair] = delta.get(pair, 0) - w
            for pair in new_pairs:
                delta[pair] = delta.get(pair, 0) + w
            for pair in set(old_pairs).difference(new_pairs):
                if pair != best:
                    where[pair].discard(i)
            for pair in set(new_pairs).difference(old_pairs):
                where.setdefault(pair, set()).add(i)
        for pair, change in delta.items():
            if not change:
                continue
            n = pair_counts[pair] + change
            if n:
                pair_counts[pair] = n
                heapq.heappush(heap, (-n, pair))
            else:
                del pair_counts[pair]
                where.pop(pair, None)

    tokens = [bytes([b]) for b in range(256)]
    seen = set(tokens)
    for left, right in merges:
        product = left + right
        if product not in seen:
            tokens.append(product)
            seen.add(product)
    return Tokenizer(Vocabulary(tokens), MergeTable(merges))


# ---------------------------------------------------------------------------
# file formats: one record per line, token bytes escaped (\xNN, \t, \\)
# ---------------------------------------------------------------------------


def _escape(bs: bytes) -> str:
    out = []
    for b in bs:
        if b == 0x5C:
            out.append("\\\\")
        elif b == 0x09:
            out.append("\\t")
        elif 0x20 <= b < 0x7F:
            out.append(chr(b))
        else:
            out.append(f"\\x{b:02x}")
    return "".join(out)


def _unescape(s: str) -> bytes:
    out = bytearray()
    i = 0
    while i < len(s):
        ch = s[i]
        if ch != "\\":
            encoded = ch.encode("utf-8")
            if len(encoded) != 1 or not 0x20 <= encoded[0] < 0x7F:
                raise TokenizerFileError(f"unescaped non-printable character {ch!r}")
            out.extend(encoded)
            i += 1
            continue
        if i + 1 >= len(s):
            raise TokenizerFileError("dangling escape")
        nxt = s[i + 1]
        if nxt == "\\":
            out.append(0x5C)
            i += 2
        elif nxt == "t":
            out.append(0x09)
            i += 2
        elif nxt == "x":
            if i + 4 > len(s):
                raise TokenizerFileError("truncated \\xNN escape")
            try:
                out.append(int(s[i + 2 : i + 4], 16))
            except ValueError as e:
                raise TokenizerFileError(f"bad \\xNN escape in {s!r}") from e
            i += 4
        else:
            raise TokenizerFileError(f"unknown escape \\{nxt}")
    return bytes(out)


def save_vocabulary(tokenizer: Tokenizer, vocab_path, merges_path):
    """Write the base vocabulary and merge list (specials are implicit)."""
    with open(vocab_path, "w", encoding="utf-8") as f:
        for i in range(tokenizer.vocab.base_size):
            f.write(f"{i}\t{_escape(tokenizer.vocab.token_of(i))}\n")
    with open(merges_path, "w", encoding="utf-8") as f:
        for left, right in tokenizer.merges.pairs:
            f.write(f"{_escape(left)}\t{_escape(right)}\n")


def load_vocabulary(vocab_path, merges_path) -> Tokenizer:
    """Load tokenizer state saved by save_vocabulary, validating invariants."""
    by_id: dict[int, bytes] = {}
    for lineno, line in enumerate(
        Path(vocab_path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line:
            continue
        parts = line.split("\t", 1)
        if len(parts) != 2:
            raise TokenizerFileError(f"{vocab_path}:{lineno}: expected <id>TAB<token>")
        try:
            token_id = int(parts[0])
        except ValueError as e:
            raise TokenizerFileError(f"{vocab_path}:{lineno}: bad id {parts[0]!r}") from e
        if token_id in by_id:
            raise TokenizerFileError(f"{vocab_path}:{lineno}: duplicate id {token_id}")
        by_id[token_id] = _unescape(parts[1])
    if sorted(by_id) != list(range(len(by_id))):
        raise TokenizerFileError(f"{vocab_path}: ids must be contiguous from 0")
    tokens = [by_id[i] for i in range(len(by_id))]

    pairs = []
    for lineno, line in enumerate(
        Path(merges_path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise TokenizerFileError(
                f"{merges_path}:{lineno}: expected <left>TAB<right>"
            )
        pairs.append((_unescape(parts[0]), _unescape(parts[1])))

    try:
        vocab = Vocabulary(tokens)
    except VocabularyError as e:
        raise TokenizerFileError(f"{vocab_path}: {e}") from e
    try:
        return Tokenizer(vocab, MergeTable(pairs))
    except TokenizerFileError as e:
        raise TokenizerFileError(f"{merges_path}: {e}") from e
