"""Byte-level byte-pair encoding with category-aware merge restrictions.

Text is pre-segmented into letter runs, digit runs, whitespace runs and
punctuation runs before any merging, with one leading space allowed to
attach to the following run; merges never cross unit boundaries, so no
token ever mixes letters and digits. Segmentation maps each character to
a one-letter category code and splits the code string with one regular
expression. All 256 single bytes are always in the vocabulary, which
makes every byte string encodable.

Training and encoding work on lists of token ids and share `_merge`. A
training merge changes only the pair counts beside its sites, so it costs
time in proportion to them, not to the corpus; encoding looks id pairs up
in one table from `(id_a, id_b)` to the merge's rank and product id.
"""

from __future__ import annotations

import heapq
import re
import unicodedata
from collections import Counter
from itertools import repeat

from .data import _text_lines, _write_atomic

__all__ = [
    "Vocabulary",
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

    All 256 single bytes are present (train_merges puts them at ids 0..255);
    the end-of-text and separator specials always take the two highest ids.
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


def _segment(text) -> list[str]:
    """Split a str, or bytes read as UTF-8 (bad bytes as surrogate escapes),
    into category runs, attaching a single leading space to each run."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="surrogateescape")
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


def _merge(word: list[int], a: int, b: int, ab: int) -> list[int]:
    """Replace each adjacent (a, b) in `word` by `ab`, in place, scanning left
    to right; returns the positions of the new `ab` ids."""
    sites = []
    i = 0
    last = len(word) - 1
    while i < last:
        if word[i] == a and word[i + 1] == b:
            word[i : i + 2] = (ab,)
            sites.append(i)
            last -= 1
        i += 1
    return sites


# Distinct units `Tokenizer.encode` remembers before it starts its cache over.
_UNIT_CACHE_SIZE = 1 << 17
_NO_MERGE = (float("inf"), 0, 0, 0)


class Tokenizer:
    """A vocabulary plus merge pairs, applied in list order (index = rank).

    Both are fixed after construction. `encode` memoizes the ids of each
    distinct unit, up to _UNIT_CACHE_SIZE of them before it starts over;
    concurrent calls may fill it in any order without changing the ids.
    """

    def __init__(self, vocab: Vocabulary, merges):
        self.vocab = vocab
        self.merges = [(bytes(a), bytes(b)) for a, b in merges]
        # (id_a, id_b) -> (rank, id_a, id_b, id_ab): the lowest a word finds merges next
        self._ranks: dict[tuple[int, int], tuple[int, int, int, int]] = {}
        for pair in self.merges:
            try:
                a, b, ab = map(vocab.id_of, (*pair, b"".join(pair)))
            except VocabularyError as e:
                raise TokenizerFileError(f"merge {pair!r}: {e}") from None
            if (a, b) in self._ranks:
                raise TokenizerFileError(f"duplicate merge pair {pair!r}")
            self._ranks[a, b] = (len(self._ranks), a, b, ab)
        self._byte_ids = [vocab.id_of(bytes([x])) for x in range(256)]
        self._unit_cache: dict[str, list[int]] = {}

    # -- encoding -----------------------------------------------------------

    def encode(self, text) -> list[int]:
        """Token ids for a str (UTF-8) or raw bytes value."""
        ids: list[int] = []
        for unit in _segment(text):
            cached = self._unit_cache.get(unit)
            if cached is None:
                if len(self._unit_cache) >= _UNIT_CACHE_SIZE:
                    self._unit_cache.clear()
                cached = self._unit_cache[unit] = self._bpe(unit)
            ids.extend(cached)
        return ids

    def _bpe(self, unit: str) -> list[int]:
        """Ids of one unit: merge the lowest-ranked adjacent pair until none is left."""
        word = [*map(self._byte_ids.__getitem__, unit.encode("utf-8", errors="surrogateescape"))]
        while len(word) > 1:
            best = min(map(self._ranks.get, zip(word, word[1:]), repeat(_NO_MERGE)))
            if best is _NO_MERGE:
                break
            _merge(word, *best[1:])
        return word

    # -- decoding -----------------------------------------------------------

    def decode_bytes(self, ids) -> bytes:
        return b"".join(self.vocab.token_of(i) for i in ids)

    def decode(self, ids) -> str:
        """Exact inverse of encode for str input (byte-exact via escape hatch)."""
        return self.decode_bytes(ids).decode("utf-8", errors="surrogateescape")


def train_merges(corpus, num_merges: int) -> Tokenizer:
    """Learn `num_merges` greedy highest-frequency merges from `corpus`.

    Each distinct unit is a word of ids into `tokens` (the single bytes,
    then each product as first made: the vocabulary), weighted by its
    count. Every adjacent pair counts, overlapping ones too (`aaa` holds two
    `(a, a)`). Merging `(a, b)` into `ab` rewrites only the words indexed
    under it, and at each site `(left, a)` and `(b, right)` become `(left,
    ab)` and `(ab, right)`; between touching sites (`abab`) `(b, a)` becomes
    `(ab, ab)`. The best pair tops a heap of `(-count, bytes_a, bytes_b,
    pair)` entries, stale ones skipped, so ties go to the lexicographically
    smallest pair. Stops early when no adjacent pair is left to merge.
    """
    if num_merges < 0:
        raise ValueError("num_merges must be >= 0")
    texts = list(corpus)
    if not texts:
        raise ValueError("training corpus is empty")

    unit_counts: Counter[str] = Counter()
    for text in texts:
        unit_counts.update(_segment(text))

    tokens = [bytes([x]) for x in range(256)]
    product_ids: dict[bytes, int] = {}
    words = [list(unit.encode("utf-8", errors="surrogateescape")) for unit in unit_counts]
    weights = list(unit_counts.values())
    pair_counts: dict[tuple[int, int], int] = {}
    where: dict[tuple[int, int], set[int]] = {}  # pair -> words that have held it
    for i, word in enumerate(words):
        for pair in zip(word, word[1:]):
            pair_counts[pair] = pair_counts.get(pair, 0) + weights[i]
            where.setdefault(pair, set()).add(i)
    heap = [(-n, tokens[a], tokens[b], (a, b)) for (a, b), n in pair_counts.items()]
    heapq.heapify(heap)

    merges = []
    while len(merges) < num_merges and heap:
        neg, left, right, best = heapq.heappop(heap)
        if pair_counts.get(best) != -neg:
            continue  # stale: the count changed after this entry was pushed
        merges.append((left, right))
        ab = product_ids.setdefault(left + right, len(tokens))
        if ab == len(tokens):
            tokens.append(left + right)
        a, b = best
        del pair_counts[best]
        delta: dict[tuple[int, int], int] = {}
        for i in where.pop(best):
            word = words[i]
            sites = _merge(word, a, b, ab)
            changes = []  # (pair gone, pair made) beside each site
            for p in sites:
                if p:
                    x = word[p - 1]
                    changes.append(((b if p - 1 in sites else x, a), (x, ab)))
                if p + 1 < len(word) and p + 1 not in sites:
                    y = word[p + 1]
                    changes.append(((b, y), (ab, y)))
            w = weights[i]
            for gone, made in changes:
                delta[gone] = delta.get(gone, 0) - w
                delta[made] = delta.get(made, 0) + w
                where.setdefault(made, set()).add(i)
        for pair, change in delta.items():
            if not change or pair == best:  # no (a, b) is left after the merge
                continue
            n = pair_counts.get(pair, 0) + change
            if n:
                pair_counts[pair] = n
                heapq.heappush(heap, (-n, tokens[pair[0]], tokens[pair[1]], pair))
            else:
                del pair_counts[pair]
                where.pop(pair, None)
    return Tokenizer(Vocabulary(tokens), merges)


# ---------------------------------------------------------------------------
# file formats: one record per line, token bytes escaped (\xNN, \t, \\)
# ---------------------------------------------------------------------------


# Each byte's text: printable ASCII as itself, TAB as \t, the backslash as \\
# and every other byte as \xNN. _unescape also takes \xNN for printable
# bytes and upper-case hex digits.
_ESCAPES = [chr(b) if 0x20 <= b < 0x7F else f"\\x{b:02x}" for b in range(256)]
_ESCAPES[0x09], _ESCAPES[0x5C] = "\\t", "\\\\"
_UNESCAPES = {text: b for b, text in enumerate(_ESCAPES)}
_PIECE = re.compile(r"[ -\[\]-~]|\\[\\t]|\\x[0-9a-fA-F]{2}")
_ESCAPED = re.compile(f"(?:{_PIECE.pattern})*")


def _escape(bs: bytes) -> str:
    return "".join(_ESCAPES[b] for b in bs)


def _unescape(s: str, where: str) -> bytes:
    """Inverse of _escape; errors are prefixed with `where` (path:line)."""
    if not _ESCAPED.fullmatch(s):
        if not (s.isascii() and s.isprintable()):
            raise TokenizerFileError(f"{where}: unescaped non-printable character in {s!r}")
        raise TokenizerFileError(f"{where}: bad escape in {s!r}: expected \\\\, \\t or \\xNN")
    return bytes(int(p[2:], 16) if len(p) == 4 else _UNESCAPES[p] for p in _PIECE.findall(s))


def save_vocabulary(tokenizer: Tokenizer, vocab_path, merges_path):
    """Write the base vocabulary, then the merge list (specials are implicit),
    each through data._write_atomic. A kill between the two leaves a new
    vocabulary beside old merges. load_vocabulary cannot tell a mixed pair:
    it refuses one only where a merge's left, right or product is missing."""
    vocab = tokenizer.vocab
    text = "".join(f"{i}\t{_escape(vocab.token_of(i))}\n" for i in range(vocab.base_size))
    _write_atomic(vocab_path, [text.encode()])
    lines = (f"{_escape(left)}\t{_escape(right)}\n" for left, right in tokenizer.merges)
    # a line starting with # reads back as a comment
    text = "".join("\\x23" + line[1:] if line[0] == "#" else line for line in lines)
    _write_atomic(merges_path, [text.encode()])


def load_vocabulary(vocab_path, merges_path) -> Tokenizer:
    """Load tokenizer state saved by save_vocabulary, validating invariants."""
    by_id: dict[int, bytes] = {}
    for lineno, line in _text_lines(vocab_path, TokenizerFileError):
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
        by_id[token_id] = _unescape(parts[1], f"{vocab_path}:{lineno}")
    if sorted(by_id) != list(range(len(by_id))):
        raise TokenizerFileError(f"{vocab_path}: ids must be contiguous from 0")
    tokens = [by_id[i] for i in range(len(by_id))]

    pairs = []
    for lineno, line in _text_lines(merges_path, TokenizerFileError):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise TokenizerFileError(
                f"{merges_path}:{lineno}: expected <left>TAB<right>"
            )
        where = f"{merges_path}:{lineno}"
        pairs.append((_unescape(parts[0], where), _unescape(parts[1], where)))

    try:
        vocab = Vocabulary(tokens)
    except VocabularyError as e:
        raise TokenizerFileError(f"{vocab_path}: {e}") from e
    try:
        return Tokenizer(vocab, pairs)
    except TokenizerFileError as e:
        raise TokenizerFileError(f"{merges_path}: {e}") from e
