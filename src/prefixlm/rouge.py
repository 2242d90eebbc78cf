"""ROUGE scoring and human-evaluation aggregation.

Scoring lower-cases and whitespace-splits both sides (the corpus text is
already space-tokenized), computes clipped n-gram overlap or LCS length,
and reports per-example F1 averaged over the run. Hint words are stripped
from candidate and reference before scoring so forced tokens earn nothing.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass

from .data import _text_lines

__all__ = [
    "RougeScore",
    "AnnotationRecord",
    "RatingRecord",
    "VERDICTS",
    "rouge_n",
    "rouge_l",
    "strip_leading_words",
    "score_run",
    "aggregate_annotations",
    "aggregate_ratings",
    "read_annotations_csv",
    "read_ratings_csv",
    "format_score_report",
    "format_annotation_report",
    "format_rating_report",
]

VERDICTS = ("TP", "TN", "FP", "FN", "NA")


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, overlap: float, n_candidate: int, n_reference: int):
        p = overlap / n_candidate if n_candidate else 0.0
        r = overlap / n_reference if n_reference else 0.0
        f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
        return cls(p, r, f1)


def _tokens(text: str) -> list[str]:
    return text.lower().split()


def _ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate: str, reference: str, n: int) -> RougeScore:
    """Clipped n-gram overlap precision/recall/F1 (n = 1 or 2)."""
    if n not in (1, 2):
        raise ValueError(f"rouge_n supports n in (1, 2), got {n}")
    cand = _ngrams(_tokens(candidate), n)
    ref = _ngrams(_tokens(reference), n)
    overlap = sum((cand & ref).values())
    return RougeScore.from_counts(overlap, sum(cand.values()), sum(ref.values()))


def _lcs_len(xs, ys) -> int:
    # one-row dynamic program over the reference
    if not xs or not ys:
        return 0
    prev = [0] * (len(ys) + 1)
    for x in xs:
        cur = [0]
        for j, y in enumerate(ys, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]


def rouge_l(candidate: str, reference: str) -> RougeScore:
    """Longest-common-subsequence precision/recall/F1 over word tokens."""
    cand = _tokens(candidate)
    ref = _tokens(reference)
    return RougeScore.from_counts(_lcs_len(cand, ref), len(cand), len(ref))


def strip_leading_words(text: str, n: int) -> str:
    """Drop the first n whitespace words (the hint region)."""
    if n <= 0:
        return text
    return " ".join(text.split()[n:])


def score_run(outputs, references) -> dict:
    """Corpus ROUGE-1/2/L F1 means for (raw text, n_hints) outputs.

    The first n_hints words are dropped from both the candidate and its
    reference before scoring. Values are x100, rounded to 2 decimals.
    """
    outputs = list(outputs)
    references = list(references)
    if len(outputs) != len(references):
        raise ValueError(
            f"{len(outputs)} outputs but {len(references)} references"
        )
    totals = {"rouge1": 0.0, "rouge2": 0.0, "rougeL": 0.0}
    for (raw, n_hints), reference in zip(outputs, references):
        cand = strip_leading_words(raw, n_hints)
        ref = strip_leading_words(reference, n_hints)
        totals["rouge1"] += rouge_n(cand, ref, 1).f1
        totals["rouge2"] += rouge_n(cand, ref, 2).f1
        totals["rougeL"] += rouge_l(cand, ref).f1
    n = len(outputs) or 1
    return {k: round(100.0 * v / n, 2) for k, v in totals.items()}


# ---------------------------------------------------------------------------
# human evaluation aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnnotationRecord:
    system: str
    example_id: str
    verdict: str

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"verdict must be one of {VERDICTS}, got {self.verdict!r}")


@dataclass(frozen=True)
class RatingRecord:
    system: str
    example_id: str
    correctness: int
    quality: int
    overall: int

    def __post_init__(self):
        for name in ("correctness", "quality", "overall"):
            value = getattr(self, name)
            if not 1 <= value <= 5:
                raise ValueError(f"{name} must be in 1..5, got {value}")


def aggregate_annotations(records) -> dict:
    """Per-system verdict counts and accuracy = (TP+TN)/total."""
    out: dict[str, dict] = {}
    for rec in records:
        row = out.setdefault(
            rec.system, {v: 0 for v in VERDICTS} | {"total": 0}
        )
        row[rec.verdict] += 1
        row["total"] += 1
    for row in out.values():
        acc = (row["TP"] + row["TN"]) / row["total"] if row["total"] else 0.0
        row["accuracy"] = acc
        row["accuracy_percent"] = round(100.0 * acc)
    return out


def aggregate_ratings(records) -> dict:
    """Per-system mean correctness/quality/overall, 2 decimals."""
    sums: dict[str, list] = {}
    for rec in records:
        row = sums.setdefault(rec.system, [0, 0, 0, 0])
        row[0] += rec.correctness
        row[1] += rec.quality
        row[2] += rec.overall
        row[3] += 1
    return {
        system: {
            "correctness": round(c / n, 2),
            "quality": round(q / n, 2),
            "overall": round(o / n, 2),
            "count": n,
        }
        for system, (c, q, o, n) in sums.items()
    }


def _read_csv(path, n_columns: int, make_record) -> list:
    """make_record(row) for every row of a UTF-8 CSV with n_columns columns
    and an optional `system,...` header; a bad row raises ValueError naming
    path:line."""
    records = []
    reader = csv.reader(line + "\n" for _, line in _text_lines(path, ValueError))
    try:
        for row in reader:
            if not row or (reader.line_num == 1 and row[0].strip().lower() == "system"):
                continue
            try:
                if len(row) != n_columns:
                    raise ValueError(f"expected {n_columns} columns, got {len(row)}")
                records.append(make_record(row))
            except ValueError as e:  # prefixed below; _text_lines' errors already are
                raise csv.Error(e) from e
    except csv.Error as e:
        raise ValueError(f"{path}:{reader.line_num}: {e}") from e
    return records


def read_annotations_csv(path) -> list[AnnotationRecord]:
    """CSV rows system,example_id,verdict (optional header)."""
    return _read_csv(path, 3, lambda row: AnnotationRecord(
        row[0].strip(), row[1].strip(), row[2].strip().upper().replace("/", "")))


def read_ratings_csv(path) -> list[RatingRecord]:
    """CSV rows system,example_id,correctness,quality,overall (optional header)."""
    return _read_csv(path, 5, lambda row: RatingRecord(
        row[0].strip(), row[1].strip(), int(row[2]), int(row[3]), int(row[4])))


# ---------------------------------------------------------------------------
# plain-text reports
# ---------------------------------------------------------------------------


def format_score_report(scores_by_system: dict) -> str:
    lines = [f"{'System':<16}{'ROUGE-1':>9}{'ROUGE-2':>9}{'ROUGE-L':>9}"]
    for system, s in scores_by_system.items():
        lines.append(
            f"{system:<16}{s['rouge1']:>9.2f}{s['rouge2']:>9.2f}{s['rougeL']:>9.2f}"
        )
    return "\n".join(lines)


def format_annotation_report(agg: dict) -> str:
    lines = [f"{'System':<16}{'TP':>4}{'TN':>4}{'FP':>4}{'FN':>4}{'N/A':>5}{'Acc.':>6}"]
    for system, row in agg.items():
        lines.append(
            f"{system:<16}{row['TP']:>4}{row['TN']:>4}{row['FP']:>4}{row['FN']:>4}"
            f"{row['NA']:>5}{row['accuracy_percent']:>5}%"
        )
    return "\n".join(lines)


def format_rating_report(agg: dict) -> str:
    lines = [f"{'System':<16}{'Correctness':>12}{'Quality':>9}{'Overall':>9}"]
    for system, row in agg.items():
        lines.append(
            f"{system:<16}{row['correctness']:>12.2f}{row['quality']:>9.2f}"
            f"{row['overall']:>9.2f}"
        )
    return "\n".join(lines)
