import re

import pytest
from fixtures import serialize_corpus

from prefixlm import data
from prefixlm.data import (
    CorpusParseError,
    RctAbstract,
    RctExample,
    build_examples,
    corpus_stats,
    parse_corpus,
    read_examples_jsonl,
    write_examples_jsonl,
)

FIXTURE = """\
###100
BACKGROUND\tDrug A is widely used .
OBJECTIVE\tTo compare drug A with placebo .
METHODS\tPatients were randomized in two groups .
RESULTS\tDrug A reduced symptoms significantly .
CONCLUSIONS\tDrug A is effective .

###200
RESULTS\tNo difference was observed between groups .
CONCLUSIONS\tTreatment B showed no benefit .
CONCLUSIONS\tFurther study is warranted .
"""

SECTIONS = ("BACKGROUND", "OBJECTIVE", "RESULTS")


def test_parse_empty_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("", encoding="utf-8")
    assert parse_corpus(path) == []


def test_parse_two_record_fixture(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(FIXTURE, encoding="utf-8")
    abstracts = parse_corpus(path)
    assert [a.pmid for a in abstracts] == ["100", "200"]
    assert [label for label, _ in abstracts[0].sentences] == [
        "BACKGROUND", "OBJECTIVE", "METHODS", "RESULTS", "CONCLUSIONS",
    ]
    assert abstracts[1].sentences[0][1] == "No difference was observed between groups ."


def test_parse_unknown_label():
    with pytest.raises(CorpusParseError, match="line 2.*FOO"):
        parse_corpus(["###1", "FOO\tsome text"])


def test_parse_missing_tab():
    with pytest.raises(CorpusParseError, match="line 2"):
        parse_corpus(["###1", "RESULTS no tab here"])


def test_parse_record_without_sentences():
    with pytest.raises(CorpusParseError, match="no sentences"):
        parse_corpus(["###1", "", "###2", "RESULTS\tok .", "CONCLUSIONS\tfine ."])


def test_parse_errors_name_the_path(tmp_path):
    path = tmp_path / "corpus.txt"
    for text, where in (("###1\nRESULTS no tab here\n", 2),
                        ("RESULTS\torphan .\n", 1),
                        ("###1\n\n###2\nRESULTS\tok .\n", 1)):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CorpusParseError, match=f"^{re.escape(str(path))}:{where}: "):
            parse_corpus(path)


def test_parse_corpus_bad_utf8_names_path_line(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"###1\nRESULTS\tok .\nCONCLUSIONS\tbad \xff byte .\n")
    with pytest.raises(CorpusParseError, match=f"^{re.escape(str(path))}:3: .*UTF-8"):
        parse_corpus(path)


def test_parse_corpus_crlf_line_endings(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes(FIXTURE.replace("\n", "\r\n").encode("utf-8"))
    assert parse_corpus(path) == parse_corpus(FIXTURE.splitlines())


def test_text_lines_cap_counts_the_line_ending(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "_MAX_TEXT_LINE", 8)
    path = tmp_path / "lines.txt"
    path.write_bytes(b"1234567\n123456\r\n12345678")  # 8 bytes each, at the cap
    assert list(data._text_lines(path, ValueError)) == [
        (1, "1234567"), (2, "123456"), (3, "12345678")]
    path.write_bytes(b"1234567\n12345678\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: line longer than 8"):
        list(data._text_lines(path, ValueError))


def test_parse_sentence_before_record():
    with pytest.raises(CorpusParseError, match="line 1"):
        parse_corpus(["RESULTS\torphan sentence ."])


def test_parse_labels_case_insensitive():
    abstracts = parse_corpus(["###1", "results\tok .", "Conclusions\tdone ."])
    assert [label for label, _ in abstracts[0].sentences] == ["RESULTS", "CONCLUSIONS"]


def test_parse_serialize_roundtrip(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(FIXTURE, encoding="utf-8")
    assert serialize_corpus(parse_corpus(path)) == FIXTURE


# ---------------------------------------------------------------------------
# task transformation
# ---------------------------------------------------------------------------


def _abstracts():
    return parse_corpus(FIXTURE.splitlines())


def _example(abstract, sections):
    """The example build_examples makes of one abstract, or None when it
    skips the abstract."""
    examples, skipped = build_examples([abstract], sections)
    assert len(examples) + skipped == 1
    return examples[0] if examples else None


def test_to_conclusion_task_standard_sections():
    example = _example(_abstracts()[0], SECTIONS)
    assert example.source_text == (
        "Drug A is widely used . To compare drug A with placebo ."
        " Drug A reduced symptoms significantly ."
    )
    assert example.target_text == "Drug A is effective ."
    assert example.sections_used == SECTIONS
    assert example.source_sentences == 3
    assert example.target_sentences == 1


def test_to_conclusion_task_results_only_ablation():
    example = _example(_abstracts()[0], ("RESULTS",))
    assert example.source_text == "Drug A reduced symptoms significantly ."


def test_to_conclusion_task_joins_multiple_conclusions():
    example = _example(_abstracts()[1], SECTIONS)
    assert example.target_text == (
        "Treatment B showed no benefit . Further study is warranted ."
    )
    assert example.target_sentences == 2


def test_to_conclusion_task_skips_without_source():
    abstract = RctAbstract("x", [("METHODS", "only methods ."),
                                 ("CONCLUSIONS", "fine .")])
    assert _example(abstract, SECTIONS) is None


def test_to_conclusion_task_skips_without_conclusion():
    abstract = RctAbstract("x", [("RESULTS", "some result .")])
    assert _example(abstract, SECTIONS) is None


def test_to_conclusion_task_rejects_conclusions_as_source():
    with pytest.raises(ValueError, match="CONCLUSIONS"):
        _example(_abstracts()[0], ("RESULTS", "CONCLUSIONS"))


def test_to_conclusion_task_rejects_unknown_section():
    with pytest.raises(ValueError, match="INTRO"):
        _example(_abstracts()[0], ("INTRO",))


def test_build_examples_checks_sections_without_abstracts():
    with pytest.raises(ValueError, match="INTRO"):
        build_examples([], ("INTRO",))


def test_build_examples_reports_skips():
    abstracts = _abstracts() + [RctAbstract("x", [("METHODS", "m .")])]
    examples, skipped = build_examples(abstracts, SECTIONS)
    assert len(examples) == 2
    assert skipped == 1


def test_order_preserved_across_sections():
    abstract = RctAbstract(
        "x",
        [
            ("RESULTS", "first result ."),
            ("BACKGROUND", "late background ."),
            ("RESULTS", "second result ."),
            ("CONCLUSIONS", "done ."),
        ],
    )
    example = _example(abstract, SECTIONS)
    assert example.source_text == "first result . late background . second result ."


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def test_corpus_stats_empty():
    stats = corpus_stats([])
    assert stats == {
        "count": 0,
        "mean_source_words": 0.0,
        "mean_source_sentences": 0.0,
        "mean_target_words": 0.0,
        "mean_target_sentences": 0.0,
    }


def test_corpus_stats_hand_fixture():
    examples = [
        RctExample("1", "a b c", "x y", SECTIONS, 1, 1),
        RctExample("2", "a b c d e", "x y z w", SECTIONS, 3, 2),
    ]
    stats = corpus_stats(examples)
    assert stats["count"] == 2
    assert stats["mean_source_words"] == 4.0
    assert stats["mean_target_words"] == 3.0
    assert stats["mean_source_sentences"] == 2.0
    assert stats["mean_target_sentences"] == 1.5


# ---------------------------------------------------------------------------
# JSONL interchange
# ---------------------------------------------------------------------------


def test_examples_jsonl_roundtrip(tmp_path):
    examples, _ = build_examples(_abstracts(), SECTIONS)
    path = tmp_path / "examples.jsonl"
    write_examples_jsonl(examples, path)
    loaded = read_examples_jsonl(path)
    assert [e.pmid for e in loaded] == ["100", "200"]
    assert loaded[0].source_text == examples[0].source_text
    assert loaded[0].target_text == examples[0].target_text
    assert loaded[0].sections_used == SECTIONS


def test_examples_jsonl_bad_line(tmp_path):
    path = tmp_path / "examples.jsonl"
    path.write_text('{"pmid": "1"}\n', encoding="utf-8")
    with pytest.raises(CorpusParseError, match="1"):
        read_examples_jsonl(path)


@pytest.mark.parametrize("line", [
    "[1]",
    '"text"',
    '{"pmid": 1, "source": "s", "target": "t", "sections_used": []}',
    '{"pmid": "1", "source": "s", "target": ["t"], "sections_used": []}',
    '{"pmid": "1", "source": "s", "target": "t", "sections_used": "BACKGROUND"}',
])
def test_examples_jsonl_wrong_shape_names_path_line(tmp_path, line):
    path = tmp_path / "examples.jsonl"
    path.write_text("\n" + line + "\n", encoding="utf-8")
    with pytest.raises(CorpusParseError, match=f"^{re.escape(str(path))}:2: "):
        read_examples_jsonl(path)


def test_examples_jsonl_bad_utf8_names_path_line(tmp_path):
    path = tmp_path / "examples.jsonl"
    path.write_bytes(b'{"pmid": "1", "source": "s", "target": "t", "sections_used": []}\n'
                     b'{"pmid": "\xff"}\n')
    with pytest.raises(CorpusParseError, match=f"^{re.escape(str(path))}:2: "):
        read_examples_jsonl(path)
