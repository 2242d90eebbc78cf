"""Seeded generators for the benchmark inputs.

Every generator takes a seed and returns the same inputs for the same seed.
Inputs come out as corpus text in the labeled-sentence format the program
reads (`###<pmid>` records of `LABEL<TAB>sentence` lines), together with the
examples and skip count that parsing that text must produce. The alphabet
is ASCII letters, digits, space and `.,%()=`; no generator ever emits `@`,
which the exact-fit requests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SOURCE_SECTIONS = ("BACKGROUND", "OBJECTIVE", "RESULTS")

_ONSETS = ["b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s",
           "t", "v", "z", "br", "cl", "dr", "gr", "pl", "pr", "st", "tr", "th"]
_NUCLEI = ["a", "e", "i", "o", "u", "ae", "io", "ou", "y"]
_CODAS = ["", "", "", "n", "r", "s", "l", "x", "m", "nd", "st"]

# the most frequent types, in rank order, so that the head of the Zipf
# distribution reads like abstract prose
_FUNCTION_WORDS = [
    "the", "of", "and", "in", "to", "with", "a", "was", "were", "patients",
    "for", "group", "or", "than", "at", "by", "treatment", "as", "on", "not",
    "study", "after", "between", "compared", "placebo", "significantly",
    "randomized", "trial", "weeks", "therapy", "is", "no", "be", "may", "this",
    "effect", "dose", "outcome", "primary", "risk", "years", "months",
]

_DRUG_SUFFIXES = ["cillin", "mab", "zole", "prol", "rin", "tiv", "xane", "sone",
                  "fen", "nib", "vir", "mycin", "prazol", "caine", "stat", "vastin"]

# (what the drug did in the trial, what it does for patients)
_OUTCOMES = [
    ("reduced pain scores", "improved pain control"),
    ("lowered blood pressure", "controlled hypertension"),
    ("shortened hospital stays", "sped up recovery"),
    ("reduced seizure frequency", "prevented seizures"),
    ("improved sleep quality", "treated insomnia"),
    ("decreased tumor size", "slowed tumor growth"),
    ("raised survival rates", "extended survival"),
    ("eased joint stiffness", "relieved arthritis"),
    ("cut infection rates", "prevented infections"),
    ("improved lung function", "helped breathing"),
    ("reduced nausea episodes", "controlled nausea"),
    ("lowered cholesterol levels", "improved lipid profiles"),
    ("stabilized heart rhythm", "prevented arrhythmia"),
    ("reduced swelling", "treated edema"),
    ("improved wound healing", "closed chronic wounds"),
    ("decreased anxiety scores", "relieved anxiety"),
]


@dataclass(frozen=True)
class Example:
    """What the program must build from one usable abstract."""

    pmid: str
    source: str
    target: str


@dataclass(frozen=True)
class Corpus:
    """Corpus text plus the examples and skip count it must parse into."""

    text: str
    examples: tuple[Example, ...]
    skipped: int
    sections: tuple[str, ...]


def _pseudo_word(rng) -> str:
    n = int(rng.integers(1, 4))
    return "".join(
        _ONSETS[rng.integers(len(_ONSETS))]
        + _NUCLEI[rng.integers(len(_NUCLEI))]
        + _CODAS[rng.integers(len(_CODAS))]
        for _ in range(n)
    )


def word_types(rng, n_types: int) -> list[str]:
    """Function words first, then distinct pseudo-words, in rank order."""
    words = list(_FUNCTION_WORDS[:n_types])
    seen = set(words)
    while len(words) < n_types:
        w = _pseudo_word(rng)
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def _pmids(rng, n: int) -> list[str]:
    ids = rng.choice(90_000_000, size=n, replace=False) + 10_000_000
    return [str(int(i)) for i in ids]


def _render(record) -> str:
    lines = [f"###{record[0]}"]
    lines.extend(f"{label}\t{text}" for label, text in record[1])
    return "\n".join(lines)


def _corpus(records, sections) -> Corpus:
    examples = []
    skipped = 0
    for pmid, sentences in records:
        source = [t for label, t in sentences if label in sections]
        target = [t for label, t in sentences if label == "CONCLUSIONS"]
        if source and target:
            examples.append(Example(pmid, " ".join(source), " ".join(target)))
        else:
            skipped += 1
    text = "\n\n".join(_render(r) for r in records) + "\n"
    return Corpus(text, tuple(examples), skipped, tuple(sections))


# ---------------------------------------------------------------------------
# memorize: the 16 template pairs of the memorization recipe
# ---------------------------------------------------------------------------


def memorization_corpus(seed: int) -> Corpus:
    """Template source/conclusion pairs with a unique drug and outcome each.

    Each record has one RESULTS and one CONCLUSIONS sentence; every record
    is usable, so nothing is skipped.
    """
    rng = np.random.default_rng([seed, 1])
    n_pairs = len(_OUTCOMES)
    drugs = [
        "".join(_ONSETS[rng.integers(len(_ONSETS))] + _NUCLEI[rng.integers(len(_NUCLEI))]
                for _ in range(2)) + _DRUG_SUFFIXES[i]
        for i in rng.permutation(len(_DRUG_SUFFIXES))
    ]
    outcomes = [_OUTCOMES[i] for i in rng.permutation(n_pairs)]
    records = []
    for pmid, drug, (effect, benefit) in zip(_pmids(rng, n_pairs), drugs, outcomes):
        source = (
            f"Patients were randomized to {drug} or placebo . "
            f"Treatment with {drug} significantly {effect} compared with placebo ."
        )
        target = f"{drug} {benefit} and was well tolerated ."
        records.append((pmid, [("RESULTS", source), ("CONCLUSIONS", target)]))
    return _corpus(records, ("RESULTS",))


# ---------------------------------------------------------------------------
# trial abstracts with Zipf-distributed vocabulary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbstractShape:
    """Sentence counts per section and words per sentence, as (low, high)
    ranges drawn uniformly; skip fractions for the two kinds of unusable
    abstract."""

    n_types: int
    zipf_s: float
    sentences: dict
    words: tuple[int, int]
    conclusion_words: tuple[int, int]
    no_conclusion: float = 0.0
    no_source: float = 0.0


def _number(rng) -> str:
    kind = rng.integers(4)
    if kind == 0:
        return str(int(rng.integers(2, 500)))  # digit run
    if kind == 1:
        return f"{rng.integers(0, 10)}.{rng.integers(0, 100):02d}"  # decimal
    if kind == 2:
        return f"{rng.integers(1, 100)} %"  # percentage
    return f"( p = 0.{rng.integers(1, 50):03d} )"


class _SentenceMaker:
    def __init__(self, words: list[str], zipf_s: float):
        self.words = words
        p = np.arange(1, len(words) + 1, dtype=np.float64) ** -zipf_s
        self.cdf = np.cumsum(p / p.sum())

    def sentence(self, rng, n_words: int) -> str:
        ids = np.searchsorted(self.cdf, rng.random(n_words), side="right")
        extras = rng.random(n_words)
        out = []
        for j, (i, r) in enumerate(zip(ids, extras)):
            w = self.words[min(int(i), len(self.words) - 1)]
            out.append(w.capitalize() if j == 0 else w)
            if r < 0.08:
                out.append(_number(rng))
            elif r < 0.12 and j < n_words - 1:
                out.append(",")
        out.append(".")
        return " ".join(out)


def abstracts_corpus(seed: int, stream: int, n: int, shape: AbstractShape) -> Corpus:
    """n abstracts; `stream` separates independent corpora of one seed,
    which share the seed's vocabulary.

    The make-up of the corpus (sentences per section, words per sentence,
    which abstracts lack a section) depends on the stream alone, so every
    seed asks for the same amount of work; the seed picks the words,
    numbers and pmids."""
    maker = _SentenceMaker(
        word_types(np.random.default_rng([seed, 3]), shape.n_types), shape.zipf_s
    )
    layout = np.random.default_rng([4, stream])
    rng = np.random.default_rng([seed, 2, stream])
    records = []
    for pmid in _pmids(rng, n):
        r = layout.random()
        no_conclusion = r < shape.no_conclusion
        no_source = shape.no_conclusion <= r < shape.no_conclusion + shape.no_source
        sentences = []
        for label in ("BACKGROUND", "OBJECTIVE", "METHODS", "RESULTS", "CONCLUSIONS"):
            if (label in SOURCE_SECTIONS and no_source) or (
                label == "CONCLUSIONS" and no_conclusion
            ):
                continue
            lo, hi = shape.sentences[label]
            words = shape.conclusion_words if label == "CONCLUSIONS" else shape.words
            for _ in range(int(layout.integers(lo, hi + 1))):
                n_words = int(layout.integers(words[0], words[1] + 1))
                sentences.append((label, maker.sentence(rng, n_words)))
        records.append((pmid, sentences))
    return _corpus(records, SOURCE_SECTIONS)


# rct-generate: long sources, short conclusions, every abstract usable
GENERATE_SHAPE = AbstractShape(
    n_types=3000,
    zipf_s=1.05,
    sentences={"BACKGROUND": (1, 2), "OBJECTIVE": (1, 1), "METHODS": (1, 2),
               "RESULTS": (2, 3), "CONCLUSIONS": (1, 1)},
    words=(11, 20),
    conclusion_words=(11, 17),
)

# rct-pipeline: a corpus file with thousands of word types and some
# abstracts that preprocessing must skip
PIPELINE_SHAPE = AbstractShape(
    n_types=6000,
    zipf_s=1.05,
    sentences={"BACKGROUND": (1, 2), "OBJECTIVE": (1, 1), "METHODS": (1, 2),
               "RESULTS": (1, 3), "CONCLUSIONS": (1, 2)},
    words=(8, 20),
    conclusion_words=(8, 16),
    no_conclusion=0.04,
    no_source=0.03,
)

# rct-pipeline dev set: short sources, so that every prompt fits the model
PIPELINE_DEV_SHAPE = AbstractShape(
    n_types=6000,
    zipf_s=1.05,
    sentences={"BACKGROUND": (1, 1), "OBJECTIVE": (1, 1), "METHODS": (1, 1),
               "RESULTS": (1, 1), "CONCLUSIONS": (1, 2)},
    words=(8, 14),
    conclusion_words=(8, 16),
)
