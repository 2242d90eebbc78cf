"""Arbitrary text fed to the corpus, JSONL, CSV, training-config and
vocabulary/merges readers: each returns records or raises its typed error
naming path:line (or the path, for a whole-file problem), and nothing else."""

import json
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from prefixlm import data
from prefixlm.bpe import TokenizerFileError, load_vocabulary, save_vocabulary, train_merges
from prefixlm.cli import _read_generated
from prefixlm.data import (
    LABELS,
    CorpusParseError,
    RctAbstract,
    RctExample,
    parse_corpus,
    read_examples_jsonl,
)
from prefixlm.finetune import ConfigError, TrainingConfig, parse_training_config
from prefixlm.rouge import (
    AnnotationRecord,
    RatingRecord,
    read_annotations_csv,
    read_ratings_csv,
)

TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=30)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)


def _json_lines(keys):
    """Lines that are mostly JSON objects with the expected keys."""
    value = st.one_of(TEXT, st.integers(0, 5), st.lists(TEXT, max_size=3), JSON_VALUES)
    obj = st.dictionaries(st.sampled_from(keys), value, max_size=len(keys))
    full = st.fixed_dictionaries({k: value for k in keys})
    return st.lists(
        st.one_of(TEXT, JSON_VALUES.map(json.dumps), obj.map(json.dumps), full.map(json.dumps)),
        max_size=5,
    )


def _csv_lines(n_columns):
    """Lines that are mostly rows of n_columns fields."""
    field = st.one_of(TEXT, st.integers(-1, 7).map(str),
                      st.sampled_from(["TP", "tn", "N/A", "fp", "FN", "maybe", '"x,y"']))
    row = st.lists(field, min_size=n_columns - 1, max_size=n_columns + 1).map(",".join)
    return st.lists(st.one_of(TEXT, row), max_size=5)


def _corpus_lines():
    """Lines that are mostly records and labeled sentences, some of them
    with CRLF endings or bytes that are not UTF-8."""
    text = st.one_of(
        TEXT,
        st.builds("###{}".format, TEXT),
        st.builds("{}\t{}".format, st.sampled_from(LABELS + ("results", "FOO", "")), TEXT),
    )
    return _byte_lines(text)


def _byte_lines(text, max_size=8):
    """Lists of the text lines as UTF-8, some with CRLF endings, mixed with
    bytes that are not UTF-8."""
    line = st.one_of(
        text.map(lambda t: t.encode("utf-8")),
        text.map(lambda t: t.encode("utf-8") + b"\r"),
        st.binary(max_size=12),
    )
    return st.lists(line, max_size=max_size)


def _read(lines, reader, error, whole_file_errors=False):
    """reader(path) on the lines: its records, or [] after a typed error
    naming path:line (or just the path, with whole_file_errors)."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input.txt"
        if all(isinstance(line, bytes) for line in lines):
            path.write_bytes(b"\n".join(lines) + b"\n")
        else:
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            return reader(path)
        except error as e:
            where = r"(\d+:)?" if whole_file_errors else r"\d+:"
            assert re.match(rf"{re.escape(str(path))}:{where} ", str(e)), e
            return []


@settings(max_examples=200, deadline=None)
@given(_corpus_lines())
def test_corpus_reader_is_total(lines):
    abstracts = _read(lines, parse_corpus, CorpusParseError)
    for a in abstracts:
        assert isinstance(a, RctAbstract) and a.sentences
        assert all(label in LABELS for label, _ in a.sentences)


@settings(max_examples=200, deadline=None)
@given(_json_lines(["pmid", "source", "target", "sections_used"]))
def test_examples_jsonl_reader_is_total(lines):
    records = _read(lines, read_examples_jsonl, CorpusParseError)
    for r in records:
        assert isinstance(r, RctExample)
        assert all(isinstance(v, str) for v in (r.pmid, r.source_text, r.target_text))
        assert isinstance(r.sections_used, tuple)


@settings(max_examples=200, deadline=None)
@given(_json_lines(["pmid", "output", "n_hints"]))
def test_generated_jsonl_reader_is_total(lines):
    rows = _read(lines, _read_generated, ValueError)
    for pmid, output, n_hints in rows:
        assert isinstance(pmid, str) and isinstance(output, str)
        assert isinstance(n_hints, int)


@settings(max_examples=200, deadline=None)
@given(_csv_lines(3))
def test_annotations_csv_reader_is_total(lines):
    records = _read(lines, read_annotations_csv, ValueError)
    assert all(isinstance(r, AnnotationRecord) for r in records)


@settings(max_examples=200, deadline=None)
@given(_csv_lines(5))
def test_ratings_csv_reader_is_total(lines):
    records = _read(lines, read_ratings_csv, ValueError)
    assert all(isinstance(r, RatingRecord) for r in records)


def _config_lines():
    """Lines that are mostly key=value pairs of training-config keys, some
    of them a whole config with values of the right type followed by a few
    lines that may override them."""
    by_type = {"int": st.integers(-3, 10**6).map(str), "float": st.floats().map(str)}
    keys = [f.name for f in fields(TrainingConfig)]
    pair = st.builds("{}={}".format, st.sampled_from(keys + ["", "bogus"]),
                     st.one_of(TEXT, *by_type.values()))
    text = st.one_of(TEXT, pair, st.builds("# {}".format, TEXT))
    whole = st.tuples(*(
        by_type.get(f.type, TEXT).map(f"{f.name}={{}}".format)
        for f in fields(TrainingConfig)
    )).map(lambda pairs: [p.encode("utf-8") for p in pairs])
    return st.one_of(
        _byte_lines(text),
        st.builds(list.__add__, whole, _byte_lines(text, max_size=2)),
    )


@settings(max_examples=200, deadline=None)
@given(_config_lines())
def test_training_config_reader_is_total(lines):
    config = _read(lines, parse_training_config, ConfigError, whole_file_errors=True)
    assert config == [] or isinstance(config, TrainingConfig)


_TOKENIZER = train_merges(["the cat sat on the mat", "a tab\there", "caf\u00e9 \\x"], 8)
# escaped tokens of the vocabulary, some escapes that are not, and plain text
_TOKEN_TEXT = st.one_of(
    st.sampled_from(["at", "\\x41", "\\t", "\\\\", "\\", "\\q", "\\x-1", "\\x4", "\\xzz"]),
    st.builds("{}{}".format, st.sampled_from(["t", "h", "e", " ", "\\xc3"]),
              st.sampled_from(["h", "e", " t", "\\xa9", ""])),
    TEXT,
)


def _saved_tokenizer_lines():
    with tempfile.TemporaryDirectory() as d:
        vocab, merges = Path(d) / "vocab.tsv", Path(d) / "merges.tsv"
        save_vocabulary(_TOKENIZER, vocab, merges)
        return vocab.read_bytes().splitlines(), merges.read_bytes().splitlines()


_VOCAB_LINES, _MERGES_LINES = _saved_tokenizer_lines()


def _tokenizer_reader(fixed_name, fixed_lines):
    """A reader that runs load_vocabulary on its path as one of the two files
    and on fixed_lines, written next to it, as the other, "vocab.tsv" or
    "merges.tsv"."""
    def reader(path):
        fixed = path.with_name(fixed_name)
        fixed.write_bytes(b"".join(line + b"\n" for line in fixed_lines))
        files = (fixed, path) if fixed_name == "vocab.tsv" else (path, fixed)
        return load_vocabulary(*files)

    return reader


def _read_tokenizer_file(lines, fixed_name, fixed_lines):
    """_read of load_vocabulary on the lines as one of its two files."""
    reader = _tokenizer_reader(fixed_name, fixed_lines)
    return _read(lines, reader, TokenizerFileError, whole_file_errors=True)


@settings(max_examples=200, deadline=None)
@given(st.booleans(), _byte_lines(st.one_of(
    st.builds("{}\t{}".format, st.integers(-1, len(_VOCAB_LINES) + 2), _TOKEN_TEXT),
    TEXT,
), max_size=4))
def test_vocabulary_reader_is_total(full_base, lines):
    # the 256 byte tokens and the merged ones first, so most inputs get past
    # the whole-vocabulary checks; the merges file is empty
    base = _VOCAB_LINES if full_base else _VOCAB_LINES[:256]
    tok = _read_tokenizer_file(base + lines, "merges.tsv", [])
    assert tok == [] or tok.vocab.base_size >= len(base)


@settings(max_examples=200, deadline=None)
@given(_byte_lines(st.one_of(
    st.builds("{}\t{}".format, _TOKEN_TEXT, _TOKEN_TEXT),
    st.builds("# {}".format, TEXT),
    TEXT,
)))
def test_merges_reader_is_total(lines):
    tok = _read_tokenizer_file(_MERGES_LINES + lines, "vocab.tsv", _VOCAB_LINES)
    assert tok == [] or len(tok.merges) >= len(_MERGES_LINES)


@pytest.mark.parametrize("reader, error", [
    (parse_corpus, CorpusParseError),
    (read_examples_jsonl, CorpusParseError),
    (_read_generated, ValueError),
    (parse_training_config, ConfigError),
    (_tokenizer_reader("merges.tsv", []), TokenizerFileError),
    (_tokenizer_reader("vocab.tsv", _VOCAB_LINES), TokenizerFileError),
    (read_annotations_csv, ValueError),
    (read_ratings_csv, ValueError),
], ids=["corpus", "examples", "generated", "config", "vocab", "merges",
        "annotations", "ratings"])
def test_reader_refuses_an_over_long_line(monkeypatch, tmp_path, reader, error):
    monkeypatch.setattr(data, "_MAX_TEXT_LINE", 64)
    path = tmp_path / "input.txt"
    # 65 bytes with the newline, one over; the trailing \xff shows the length
    # is checked before the line is decoded
    path.write_bytes(b"#" * 63 + b"\xff\n")
    with pytest.raises(error) as e:
        reader(path)
    assert str(e.value) == f"{path}:1: line longer than 64 bytes"
