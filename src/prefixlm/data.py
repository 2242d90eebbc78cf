"""Labeled-sentence corpus ingestion and the conclusion-generation view.

The corpus format is one record per abstract: a `###<pmid>` line followed
by `<LABEL><TAB><sentence>` lines, blank lines ignored. An abstract turns
into a training example by concatenating the selected sections (in file
order) as the source and the CONCLUSIONS sentences as the target.
"""

from __future__ import annotations

import codecs
import functools
import json
import os
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "LABELS",
    "RctAbstract",
    "RctExample",
    "CorpusParseError",
    "parse_corpus",
    "build_examples",
    "corpus_stats",
    "write_examples_jsonl",
    "read_jsonl",
    "read_examples_jsonl",
]

LABELS = ("BACKGROUND", "OBJECTIVE", "METHODS", "RESULTS", "CONCLUSIONS")


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


# bytes, line ending included: bounds the memory one line takes, far above
# the longest line a file holds here (an examples line, one abstract: a few kB)
_MAX_TEXT_LINE = 1 << 20


def _text_lines(path, error):
    """(line number, line) for each line of a UTF-8 file, read one at a time
    and without its \n or \r\n ending, line 1 also without a byte-order mark
    (Excel's "CSV UTF-8" writes one); a line longer than _MAX_TEXT_LINE bytes
    or not valid UTF-8 raises `error` naming path:line."""
    with open(path, "rb") as f:
        if f.peek(3).startswith(codecs.BOM_UTF8):  # peek, not seek: a pipe cannot go back
            f.read(3)
        raw_lines = iter(functools.partial(f.readline, _MAX_TEXT_LINE + 1), b"")
        for lineno, raw in enumerate(raw_lines, start=1):
            if len(raw) > _MAX_TEXT_LINE:
                raise error(f"{path}:{lineno}: line longer than {_MAX_TEXT_LINE} bytes")
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise error(f"{path}:{lineno}: line is not valid UTF-8: {e}") from e
            yield lineno, line.removesuffix("\n").removesuffix("\r")


def _write_atomic(path, chunks):
    """Write the bytes chunks to `path` through `<path>.tmp`: flush, fsync,
    rename over `path`, fsync the directory. `path` never holds a torn file:
    the old one (or none) stays until the rename, and an error removes the
    temp file. The directory fsync, about 0.1 ms a file on ext4, makes the
    rename survive power loss (Pillai et al., OSDI 2014). The new file gets
    default permissions."""
    tmp = Path(f"{os.fspath(path)}.tmp")
    directory = os.open(tmp.parent, os.O_RDONLY)
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        os.fsync(directory)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    finally:
        os.close(directory)


def _refuse_overwrite(outputs: dict, inputs: dict, error=ValueError, where=""):
    """Raise `error` when an output path names the same file as an input or
    an earlier output; callers ask before writing any file. Both map a flag or key,
    as the message shows it, to a path; an empty path names no file. Paths
    compare by os.path.realpath."""
    seen = {os.path.realpath(p): name for name, p in inputs.items() if p}
    for name, p in outputs.items():
        if p:
            path = os.path.realpath(p)
            if path in seen:
                raise error(f"{where}{name} names the same file as {seen[path]}")
            seen[path] = name


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


def build_examples(abstracts, sections):
    """All usable examples plus the count of skipped abstracts: those whose
    sentences in the selected sections, or conclusion sentences, are missing
    or all blank. The sections are checked before any abstract is read, so
    an empty corpus rejects a bad one too."""
    sections = _normalize_sections(sections)
    examples = []
    skipped = 0
    for abstract in abstracts:
        source = [text for label, text in abstract.sentences if label in sections]
        target = [text for label, text in abstract.sentences if label == "CONCLUSIONS"]
        if not any(map(str.strip, source)) or not any(map(str.strip, target)):
            skipped += 1
            continue
        examples.append(RctExample(
            pmid=abstract.pmid,
            source_text=" ".join(source),
            target_text=" ".join(target),
            sections_used=sections,
            source_sentences=len(source),
            target_sentences=len(target),
        ))
    return examples, skipped


def corpus_stats(examples) -> dict:
    """Example count and mean word/sentence lengths (1 decimal place) of the
    examples build_examples returns, which carry their sentence counts."""
    examples = list(examples)
    n = max(len(examples), 1)  # an empty list gives 0 and 0.0 means
    return {
        "count": len(examples),
        "mean_source_words": round(sum(len(e.source_text.split()) for e in examples) / n, 1),
        "mean_source_sentences": round(sum(e.source_sentences for e in examples) / n, 1),
        "mean_target_words": round(sum(len(e.target_text.split()) for e in examples) / n, 1),
        "mean_target_sentences": round(sum(e.target_sentences for e in examples) / n, 1),
    }


def write_examples_jsonl(examples, path):
    rows = ({"pmid": e.pmid, "source": e.source_text, "target": e.target_text,
             "sections_used": list(e.sections_used)} for e in examples)
    _write_atomic(path, ((json.dumps(row, ensure_ascii=False) + "\n").encode() for row in rows))


def read_jsonl(path, schema: dict, error=ValueError, check=None) -> list[tuple]:
    """The fields named by `schema` ({key: type}) of every nonblank line of a
    JSONL file, one tuple per line; a line that is not a JSON object with
    fields of those types, whose str fields are not UTF-8 text (surrogate
    escapes of bytes allowed), or that `check(obj)` refuses with ValueError,
    raises `error` naming path:line."""
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
                if kind is str:  # text the tokenizer can encode (bpe.Tokenizer._bpe)
                    obj[key].encode("utf-8", errors="surrogateescape")
            if check is not None:
                check(obj)
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
