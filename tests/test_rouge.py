import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_force_lcs

from prefixlm.rouge import (
    AnnotationRecord,
    RatingRecord,
    aggregate_annotations,
    aggregate_ratings,
    format_annotation_report,
    format_rating_report,
    format_score_report,
    read_annotations_csv,
    read_ratings_csv,
    rouge_l,
    rouge_n,
    score_run,
    strip_leading_words,
)


# ---------------------------------------------------------------------------
# rouge_n
# ---------------------------------------------------------------------------


def test_rouge_n_identical():
    score = rouge_n("the trial succeeded", "the trial succeeded", 1)
    assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)


def test_rouge_1_hand_case():
    score = rouge_n("the cat sat", "the cat sat down", 1)
    assert score.precision == 1.0
    assert score.recall == 0.75
    assert abs(score.f1 - 0.8571) < 1e-4


def test_rouge_2_hand_case():
    score = rouge_n("the cat sat", "the cat sat down", 2)
    assert score.precision == 1.0
    assert abs(score.recall - 2 / 3) < 1e-9
    assert abs(score.f1 - 0.8) < 1e-9


def test_rouge_n_empty_side_scores_zero():
    assert rouge_n("", "nonempty ref", 1) == rouge_n("", "nonempty ref", 1)
    score = rouge_n("", "nonempty ref", 1)
    assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)
    short = rouge_n("word", "word", 2)  # no bigrams on either side
    assert short.f1 == 0.0


def test_rouge_n_clipping():
    # candidate repeats "the" three times; reference has it once
    score = rouge_n("the the the", "the end", 1)
    assert score.precision == pytest.approx(1 / 3)
    assert score.recall == pytest.approx(1 / 2)


def test_rouge_n_rejects_other_n():
    with pytest.raises(ValueError):
        rouge_n("a", "a", 3)


def test_rouge_case_insensitive():
    assert rouge_n("The CAT", "the cat", 1).f1 == 1.0
    assert rouge_l("The CAT", "the cat").f1 == 1.0


def test_rouge_symmetry_swaps_precision_recall():
    a, b = "x y z w", "x z q"
    fwd = rouge_n(a, b, 1)
    rev = rouge_n(b, a, 1)
    assert fwd.precision == rev.recall
    assert fwd.recall == rev.precision
    lf, lr = rouge_l(a, b), rouge_l(b, a)
    assert lf.precision == lr.recall and lf.recall == lr.precision


# ---------------------------------------------------------------------------
# rouge_l
# ---------------------------------------------------------------------------


def test_rouge_l_identical():
    score = rouge_l("a b c", "a b c")
    assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)


def test_rouge_l_hand_case():
    score = rouge_l("a c b", "a b c")
    assert score.precision == pytest.approx(2 / 3)
    assert score.recall == pytest.approx(2 / 3)
    assert score.f1 == pytest.approx(2 / 3)


def test_rouge_l_dp_matches_brute_force_500_pairs():
    rng = np.random.default_rng(0)
    vocab = ["a", "b", "c", "d"]
    for _ in range(500):
        cand = " ".join(rng.choice(vocab, size=rng.integers(0, 11)))
        ref = " ".join(rng.choice(vocab, size=rng.integers(0, 11)))
        score = rouge_l(cand, ref)
        lcs = brute_force_lcs(cand.split(), ref.split())
        expected_p = lcs / len(cand.split()) if cand.split() else 0.0
        assert score.precision == pytest.approx(expected_p)
        expected_r = lcs / len(ref.split()) if ref.split() else 0.0
        assert score.recall == pytest.approx(expected_r)


@given(st.lists(st.sampled_from("abcd"), max_size=9),
       st.lists(st.sampled_from("abcd"), max_size=9))
@settings(max_examples=150, deadline=None)
def test_rouge_l_never_beats_rouge_1(xs, ys):
    cand, ref = " ".join(xs), " ".join(ys)
    assert rouge_l(cand, ref).f1 <= rouge_n(cand, ref, 1).f1 + 1e-12


# ---------------------------------------------------------------------------
# score_run
# ---------------------------------------------------------------------------


def test_score_run_identical_is_100():
    refs = ["the drug worked well .", "no effect was found ."]
    outputs = [(r, 0) for r in refs]
    assert score_run(outputs, refs) == {
        "rouge1": 100.0, "rouge2": 100.0, "rougeL": 100.0,
    }


def test_score_run_strips_hints_from_both_sides():
    scores = score_run([("Smoking X", 1)], ["Smoking Y"])
    assert scores == {"rouge1": 0.0, "rouge2": 0.0, "rougeL": 0.0}


def test_score_run_without_stripping_would_overlap():
    scores = score_run([("Smoking X", 0)], ["Smoking Y"])
    assert scores["rouge1"] > 0.0


def test_score_run_length_mismatch():
    with pytest.raises(ValueError, match="references"):
        score_run([("a", 0)], ["a", "b"])


def test_strip_leading_words():
    assert strip_leading_words("a b c", 1) == "b c"
    assert strip_leading_words("a b c", 0) == "a b c"
    assert strip_leading_words("a", 3) == ""


def test_score_run_rounding():
    # single pair: candidate shares 1 of its 2 unigrams with a 2-unigram ref
    scores = score_run([("a x", 0)], ["a y"])
    assert scores["rouge1"] == 50.0


# ---------------------------------------------------------------------------
# annotation aggregation
# ---------------------------------------------------------------------------


def _annotation_fixture(system, tp, tn, fp, fn, na):
    records = []
    for verdict, count in zip(("TP", "TN", "FP", "FN", "NA"), (tp, tn, fp, fn, na)):
        records.extend(
            AnnotationRecord(system, f"{system}-{verdict}-{i}", verdict)
            for i in range(count)
        )
    return records


TABLE_FIXTURES = {
    "pgnet-n1": (15, 3, 5, 3, 24, 36),
    "gpt2-n0": (24, 3, 4, 5, 14, 54),
    "gpt2-n1": (26, 6, 5, 3, 10, 64),
    "target": (32, 11, 0, 0, 7, 86),
}


def test_annotation_accuracy_fixtures():
    records = []
    for system, (tp, tn, fp, fn, na, _) in TABLE_FIXTURES.items():
        records.extend(_annotation_fixture(system, tp, tn, fp, fn, na))
    agg = aggregate_annotations(records)
    for system, (tp, tn, fp, fn, na, acc) in TABLE_FIXTURES.items():
        row = agg[system]
        assert row["total"] == 50
        assert (row["TP"], row["TN"], row["FP"], row["FN"], row["NA"]) == (
            tp, tn, fp, fn, na,
        )
        assert row["accuracy_percent"] == acc


def test_annotation_all_na_is_zero_accuracy():
    agg = aggregate_annotations(_annotation_fixture("s", 0, 0, 0, 0, 5))
    assert agg["s"]["accuracy"] == 0.0
    assert agg["s"]["accuracy_percent"] == 0


def test_annotation_counts_sum_to_total():
    records = _annotation_fixture("s", 3, 2, 1, 1, 4)
    row = aggregate_annotations(records)["s"]
    assert sum(row[v] for v in ("TP", "TN", "FP", "FN", "NA")) == row["total"] == 11
    assert 0.0 <= row["accuracy"] <= 1.0


def test_annotation_record_rejects_bad_verdict():
    with pytest.raises(ValueError):
        AnnotationRecord("s", "e", "MAYBE")


# ---------------------------------------------------------------------------
# rating aggregation
# ---------------------------------------------------------------------------


def test_ratings_all_fives():
    records = [RatingRecord("s", str(i), 5, 5, 5) for i in range(4)]
    assert aggregate_ratings(records)["s"] == {
        "correctness": 5.0, "quality": 5.0, "overall": 5.0, "count": 4,
    }


def test_ratings_hand_means():
    records = [RatingRecord("s", "1", 3, 4, 3), RatingRecord("s", "2", 4, 4, 4)]
    row = aggregate_ratings(records)["s"]
    assert (row["correctness"], row["quality"], row["overall"]) == (3.5, 4.0, 3.5)


def test_ratings_synthetic_50_record_fixture():
    # 50 records engineered to average 3.42 / 3.66 / 3.52
    records = []
    for i in range(50):
        records.append(
            RatingRecord(
                "gpt2-n0",
                str(i),
                4 if i < 21 else 3,  # 21*4 + 29*3 = 171 -> 3.42
                4 if i < 33 else 3,  # 33*4 + 17*3 = 183 -> 3.66
                4 if i < 26 else 3,  # 26*4 + 24*3 = 176 -> 3.52
            )
        )
    row = aggregate_ratings(records)["gpt2-n0"]
    assert (row["correctness"], row["quality"], row["overall"]) == (3.42, 3.66, 3.52)


def test_rating_record_range_validation():
    with pytest.raises(ValueError):
        RatingRecord("s", "e", 0, 3, 3)
    with pytest.raises(ValueError):
        RatingRecord("s", "e", 3, 6, 3)


# ---------------------------------------------------------------------------
# CSV readers and reports
# ---------------------------------------------------------------------------


def test_read_annotations_csv(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text(
        "system,example_id,verdict\ns1,e1,TP\ns1,e2,N/A\ns2,e1,fn\n",
        encoding="utf-8",
    )
    records = read_annotations_csv(path)
    assert [r.verdict for r in records] == ["TP", "NA", "FN"]


def test_read_annotations_csv_bad_row(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("s1,e1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="3 columns"):
        read_annotations_csv(path)


def test_read_ratings_csv(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text(
        "system,example_id,correctness,quality,overall\ns1,e1,3,4,5\n",
        encoding="utf-8",
    )
    records = read_ratings_csv(path)
    assert records == [RatingRecord("s1", "e1", 3, 4, 5)]


def test_read_ratings_csv_bad_value(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("s1,e1,3,4,nine\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_ratings_csv(path)


@pytest.mark.parametrize("row, problem", [
    ("s1,e1,3,4,nine", "nine"),
    ("s1,e1,3,4,6", "overall"),
    ('s1,e1,3,4,"' + "9" * 200_000 + '"', "field larger than field limit"),
])
def test_read_ratings_csv_errors_name_path_line(tmp_path, row, problem):
    path = tmp_path / "ratings.csv"
    path.write_text("s1,e0,3,4,5\n" + row + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: .*{problem}"):
        read_ratings_csv(path)


def test_read_annotations_csv_bad_utf8_names_its_line(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_bytes(b"system,example_id,verdict\ns,e1,TP\ns,e2,T\xffP\ns,e3,FN\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: .*utf-8") as e:
        read_annotations_csv(path)
    assert str(e.value).count(str(path)) == 1


def test_read_annotations_csv_quoted_field_spans_a_crlf_break(tmp_path):
    # lines are read without their ending, so the field holds \n, not \r\n
    path = tmp_path / "ann.csv"
    path.write_bytes(b'system,example_id,verdict\r\ns,"e\r\n1",TP\r\ns,e2,FN\r\n')
    records = read_annotations_csv(path)
    assert [r.example_id for r in records] == ["e\n1", "e2"]


def test_reports_render():
    scores = {"run": {"rouge1": 31.61, "rouge2": 11.88, "rougeL": 26.71}}
    assert "31.61" in format_score_report(scores)
    agg = aggregate_annotations(_annotation_fixture("s", 15, 3, 5, 3, 24))
    report = format_annotation_report(agg)
    assert "36%" in report
    ratings = aggregate_ratings([RatingRecord("s", "1", 3, 4, 3)])
    assert "3.00" in format_rating_report(ratings)
