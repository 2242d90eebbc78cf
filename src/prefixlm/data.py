"""Labeled-sentence corpus ingestion and the conclusion-generation view.

The corpus format is one record per abstract: a `###<pmid>` line followed
by `<LABEL><TAB><sentence>` lines, blank lines ignored. An abstract turns
into a training example by concatenating the selected sections (in file
order) as the source and the CONCLUSIONS sentences as the target.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "LABELS",
    "RctAbstract",
    "RctExample",
    "CorpusParseError",
    "parse_corpus",
    "serialize_corpus",
    "to_conclusion_task",
    "build_examples",
    "corpus_stats",
    "write_examples_jsonl",
    "read_jsonl",
    "read_examples_jsonl",
]

LABELS = ("BACKGROUND", "OBJECTIVE", "METHODS", "RESULTS", "CONCLUSIONS")
DEFAULT_SOURCE_SECTIONS = ("BACKGROUND", "OBJECTIVE", "RESULTS")


class CorpusParseError(ValueError):
    """Malformed corpus file; the message carries the line number."""


@dataclass
class RctAbstract:
    pmid: str
    sentences: list[tuple[str, str]]  # (label, text), file order


@dataclass
class RctExample:
    pmid: str
    source_text: str
    target_text: str
    sections_used: tuple[str, ...]
    # sentence counts ride along for corpus statistics; they are not part
    # of the JSONL interchange schema and are None for re-loaded examples
    source_sentences: int | None = None
    target_sentences: int | None = None


def _text_lines(path, error):
    """(line number, line) for each line of a UTF-8 file, read one at a time
    and without its \n or \r\n ending; a line that is not valid UTF-8
    raises `error` naming path:line."""
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise error(f"{path}:{lineno}: line is not valid UTF-8: {e}") from e
            yield lineno, line.removesuffix("\n").removesuffix("\r")


def parse_corpus(source) -> list[RctAbstract]:
    """Parse a corpus file (path or iterable of lines) into abstracts."""
    if isinstance(source, (str, Path)):
        lines = _text_lines(source, CorpusParseError)
        where = f"{source}:"
    else:
        lines = enumerate((line.rstrip("\n") for line in source), start=1)
        where = "line "

    abstracts: list[RctAbstract] = []
    current: RctAbstract | None = None
    record_line = 0

    def finish():
        if current is not None:
            if not current.sentences:
                raise CorpusParseError(
                    f"{where}{record_line}: record {current.pmid!r} has no sentences"
                )
            abstracts.append(current)

    for lineno, line in lines:
        if not line.strip():
            continue
        if line.startswith("###"):
            finish()
            current = RctAbstract(pmid=line[3:].strip(), sentences=[])
            record_line = lineno
            continue
        if current is None:
            raise CorpusParseError(f"{where}{lineno}: sentence before any ### record")
        label, sep, text = line.partition("\t")
        if not sep:
            raise CorpusParseError(f"{where}{lineno}: expected <LABEL><TAB><text>")
        label = label.strip().upper()
        if label not in LABELS:
            raise CorpusParseError(f"{where}{lineno}: unknown label {label!r}")
        current.sentences.append((label, text))
    finish()
    return abstracts


def serialize_corpus(abstracts) -> str:
    """Inverse of parse_corpus for well-formed (upper-case label) files."""
    records = []
    for abstract in abstracts:
        lines = [f"###{abstract.pmid}"]
        lines.extend(f"{label}\t{text}" for label, text in abstract.sentences)
        records.append("\n".join(lines))
    return "\n\n".join(records) + "\n"


def _normalize_sections(sections) -> tuple[str, ...]:
    normalized = tuple(s.strip().upper() for s in sections)
    if not normalized:
        raise ValueError("sections must be nonempty")
    for s in normalized:
        if s not in LABELS:
            raise ValueError(f"unknown section {s!r}")
    if "CONCLUSIONS" in normalized:
        raise ValueError("CONCLUSIONS cannot be a source section")
    return normalized


def to_conclusion_task(abstract: RctAbstract, sections) -> RctExample | None:
    """Source/target pair for one abstract, or None when it must be skipped
    (no conclusion sentences, or nothing in the selected sections)."""
    sections = _normalize_sections(sections)
    source = [text for label, text in abstract.sentences if label in sections]
    target = [text for label, text in abstract.sentences if label == "CONCLUSIONS"]
    if not source or not target:
        return None
    return RctExample(
        pmid=abstract.pmid,
        source_text=" ".join(source),
        target_text=" ".join(target),
        sections_used=sections,
        source_sentences=len(source),
        target_sentences=len(target),
    )


def build_examples(abstracts, sections):
    """All usable examples plus the count of skipped abstracts."""
    examples = []
    skipped = 0
    for abstract in abstracts:
        example = to_conclusion_task(abstract, sections)
        if example is None:
            skipped += 1
        else:
            examples.append(example)
    return examples, skipped


def corpus_stats(examples) -> dict:
    """Example count and mean word/sentence lengths (1 decimal place).

    Sentence means are None when sentence counts are unavailable (e.g.
    examples re-read from JSONL).
    """
    examples = list(examples)
    if not examples:
        return {
            "count": 0,
            "mean_source_words": 0.0,
            "mean_source_sentences": 0.0,
            "mean_target_words": 0.0,
            "mean_target_sentences": 0.0,
        }
    n = len(examples)
    have_sentences = all(
        e.source_sentences is not None and e.target_sentences is not None
        for e in examples
    )
    return {
        "count": n,
        "mean_source_words": round(
            sum(len(e.source_text.split()) for e in examples) / n, 1
        ),
        "mean_source_sentences": round(
            sum(e.source_sentences for e in examples) / n, 1
        )
        if have_sentences
        else None,
        "mean_target_words": round(
            sum(len(e.target_text.split()) for e in examples) / n, 1
        ),
        "mean_target_sentences": round(
            sum(e.target_sentences for e in examples) / n, 1
        )
        if have_sentences
        else None,
    }


def write_examples_jsonl(examples, path):
    with open(path, "w", encoding="utf-8") as f:
        for e in examples:
            f.write(
                json.dumps(
                    {
                        "pmid": e.pmid,
                        "source": e.source_text,
                        "target": e.target_text,
                        "sections_used": list(e.sections_used),
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )


def read_jsonl(path, schema: dict, error=ValueError) -> list[tuple]:
    """The fields named by `schema` ({key: type}) of every nonblank line of a
    JSONL file, one tuple per line; a line that is not a JSON object with
    fields of those types raises `error` naming path:line."""
    rows = []
    for lineno, line in _text_lines(path, error):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
            for key, kind in schema.items():
                if not isinstance(obj.get(key), kind):
                    raise TypeError(f"{key!r} is missing or not a {kind.__name__}")
        except (ValueError, TypeError, RecursionError) as e:
            raise error(f"{path}:{lineno}: bad line: {e}") from e
        rows.append(tuple(obj[key] for key in schema))
    return rows


def read_examples_jsonl(path) -> list[RctExample]:
    schema = {"pmid": str, "source": str, "target": str, "sections_used": list}
    return [
        RctExample(pmid, source, target, tuple(sections))
        for pmid, source, target, sections in read_jsonl(path, schema, CorpusParseError)
    ]
