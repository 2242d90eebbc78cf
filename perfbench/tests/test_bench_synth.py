"""The input generators: deterministic per seed, and what they promise the
program will parse out of their text."""

import numpy as np
import pytest

import synth
from prefixlm.data import build_examples, parse_corpus

SMALL = [
    lambda seed: synth.memorization_corpus(seed),
    lambda seed: synth.abstracts_corpus(seed, 0, 30, synth.GENERATE_SHAPE),
    lambda seed: synth.abstracts_corpus(seed, 0, 60, synth.PIPELINE_SHAPE),
    lambda seed: synth.abstracts_corpus(seed, 1, 8, synth.PIPELINE_DEV_SHAPE),
]


@pytest.mark.parametrize("make", SMALL)
def test_same_seed_same_inputs_other_seed_other_inputs(make):
    assert make(3) == make(3)
    assert make(3).text != make(4).text


@pytest.mark.parametrize("make", SMALL)
def test_program_parses_what_the_generator_promises(make):
    corpus = make(7)
    examples, skipped = build_examples(parse_corpus(corpus.text.splitlines()),
                                       corpus.sections)
    assert [(e.pmid, e.source_text, e.target_text) for e in examples] == [
        (e.pmid, e.source, e.target) for e in corpus.examples]
    assert skipped == corpus.skipped
    assert "@" not in corpus.text


def test_streams_of_one_seed_differ_but_share_the_vocabulary():
    a = synth.abstracts_corpus(5, 0, 40, synth.PIPELINE_SHAPE)
    b = synth.abstracts_corpus(5, 1, 40, synth.PIPELINE_SHAPE)
    assert a.text != b.text
    words = set(synth.word_types(np.random.default_rng([5, 3]), 6000))
    for corpus in (a, b):
        for e in corpus.examples:
            assert {w.lower() for w in e.source.split() if w.isalpha()} - words <= {"p"}


def test_pipeline_corpus_has_both_kinds_of_skip():
    corpus = synth.abstracts_corpus(1, 0, 400, synth.PIPELINE_SHAPE)
    records = corpus.text.split("###")[1:]
    no_conclusion = sum("CONCLUSIONS" not in r for r in records)
    no_source = sum(not any(s in r for s in synth.SOURCE_SECTIONS) for r in records)
    assert no_conclusion > 0 and no_source > 0
    assert corpus.skipped == no_conclusion + no_source


def test_memorization_pairs_follow_the_template():
    corpus = synth.memorization_corpus(2)
    assert len(corpus.examples) == 16 and corpus.skipped == 0
    drugs = [e.target.split()[0] for e in corpus.examples]
    assert len(set(drugs)) == 16
    for e, drug in zip(corpus.examples, drugs):
        assert e.source.startswith(f"Patients were randomized to {drug} or placebo .")
        assert e.target.endswith("and was well tolerated .")
