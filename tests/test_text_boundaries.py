"""Arbitrary text fed to the JSONL and CSV readers: each returns records or
raises its typed error naming path:line, and nothing else."""

import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from prefixlm.cli import _read_generated
from prefixlm.data import CorpusParseError, RctExample, read_examples_jsonl
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


def _read(lines, reader, error):
    """reader(path) on the lines: its records, or [] after a typed error."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            return reader(path)
        except error as e:
            assert re.match(rf"{re.escape(str(path))}:\d+: ", str(e)), e
            return []


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
