import pytest
from hypothesis import given, settings, strategies as st

from oracles import reference_merges, reference_segment
from prefixlm.bpe import (
    END_OF_TEXT,
    SEPARATOR,
    MergeTable,
    Tokenizer,
    TokenizerFileError,
    Vocabulary,
    VocabularyError,
    load_vocabulary,
    _segment,
    save_vocabulary,
    train_merges,
)

SAMPLE_CORPUS = [
    "Varenicline is believed to work , in part , by reducing craving responses .",
    "Both roxatidine and omeprazole significantly improved the heartburn score at 4 and 8 weeks .",
    "In total , 103 institutionalized patients at 35 sites were randomized to the trial .",
    "Thirty patients comprised the study group .",
]


@pytest.fixture(scope="module")
def tok():
    return train_merges(SAMPLE_CORPUS, 60)


def bare_tokenizer():
    return train_merges(["x"], 0)


def token_mixes_letter_and_digit(token: bytes) -> bool:
    s = token.decode("utf-8", errors="surrogateescape")
    return any(c.isalpha() for c in s) and any(c.isdigit() for c in s)


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------


def test_encode_empty(tok):
    assert tok.encode("") == []


def test_decode_empty(tok):
    assert tok.decode([]) == ""


def test_letters_and_digits_never_share_a_token(tok):
    for text in ["abc123", "mg500", "4and8", "a1b2c3"]:
        for token_id in tok.encode(text):
            assert not token_mixes_letter_and_digit(tok.vocab.token_of(token_id))


def test_two_merges_make_low_a_single_token():
    trained = train_merges(["low low lower"], 2)
    assert trained.merges.pairs == [(b"l", b"o"), (b"lo", b"w")]
    assert len(trained.encode("low")) == 1


def test_roundtrip_clinical_text(tok):
    s = "Varenicline 0.5 mg ± placebo"
    assert tok.decode(tok.encode(s)) == s


def test_encode_is_deterministic(tok):
    s = SAMPLE_CORPUS[1]
    assert tok.encode(s) == tok.encode(s)


def test_decode_unknown_id(tok):
    with pytest.raises(VocabularyError):
        tok.decode([len(tok.vocab) + 5])


def test_specials_have_top_ids(tok):
    assert tok.vocab.end_of_text_id == len(tok.vocab) - 2
    assert tok.vocab.separator_id == len(tok.vocab) - 1
    assert tok.vocab.token_of(tok.vocab.end_of_text_id) == END_OF_TEXT
    assert tok.vocab.token_of(tok.vocab.separator_id) == SEPARATOR


def test_encode_never_emits_specials(tok):
    ids = tok.encode("<|endoftext|> and <|sep|>")
    assert tok.vocab.end_of_text_id not in ids
    assert tok.vocab.separator_id not in ids
    assert tok.decode(ids) == "<|endoftext|> and <|sep|>"


@given(st.binary(max_size=64))
@settings(max_examples=300, deadline=None)
def test_roundtrip_arbitrary_bytes(data):
    t = bare_tokenizer()
    assert t.decode_bytes(t.encode(data)) == data


@given(st.text(max_size=64))
@settings(max_examples=300, deadline=None)
def test_roundtrip_arbitrary_text(text):
    t = bare_tokenizer()
    assert t.decode(t.encode(text)) == text


@given(st.text(alphabet=st.characters(whitelist_categories=("L",)), min_size=1, max_size=8),
       st.text(alphabet=st.characters(whitelist_categories=("L",)), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_prefix_stability_at_word_boundary(a, b):
    t = bare_tokenizer()
    assert t.encode(a + " " + b) == t.encode(a) + t.encode(" " + b)


def test_prefix_stability_with_merges(tok):
    a, b = "randomized patients", "at 35 sites"
    assert tok.encode(a + " " + b) == tok.encode(a) + tok.encode(" " + b)


def test_space_attaches_to_following_word(tok):
    # " low": the leading space rides with the word, extra spaces do not
    t = train_merges(["low low lower"], 2)
    with_space = t.encode(" low")
    assert t.decode(with_space) == " low"
    double = t.encode("  low")
    assert t.decode(double) == "  low"


# ---------------------------------------------------------------------------
# train_merges
# ---------------------------------------------------------------------------


def test_zero_merges_vocabulary():
    t = train_merges(["anything"], 0)
    assert len(t.vocab) == 258  # 256 bytes + 2 specials
    assert len(t.merges) == 0


def test_aaab_first_merge():
    t = train_merges(["aaab"], 1)
    assert t.merges.pairs == [(b"a", b"a")]


def test_tie_breaks_lexicographically():
    # (a,b) and (c,d) both occur once; (a,b) is lexicographically first
    t = train_merges(["ab", "cd"], 1)
    assert t.merges.pairs == [(b"a", b"b")]


def test_trained_tokenizer_roundtrips_training_corpus():
    t = train_merges(SAMPLE_CORPUS, 120)
    for s in SAMPLE_CORPUS:
        assert t.decode(t.encode(s)) == s


def test_merges_stop_when_exhausted():
    t = train_merges(["ab"], 50)
    assert len(t.merges) < 50
    assert t.decode(t.encode("ab")) == "ab"


def test_trained_tokens_respect_category_rule():
    t = train_merges(SAMPLE_CORPUS + ["score4 8weeks mg500 500mg"], 200)
    for text in SAMPLE_CORPUS + ["score4 8weeks mg500 500mg"]:
        for token_id in t.encode(text):
            assert not token_mixes_letter_and_digit(t.vocab.token_of(token_id))


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        train_merges([], 5)


def test_negative_merges_rejected():
    with pytest.raises(ValueError):
        train_merges(["a"], -1)


# ---------------------------------------------------------------------------
# the fast paths against the char-by-char and recount-everything references
# ---------------------------------------------------------------------------

# spaces, other whitespace (tab, no-break space, \x1c), letters, digits
# (ASCII and Arabic-Indic), punctuation, a lone surrogate and an emoji
TRICKY_CHARS = " \t\u00a0\x1caZ\u00e91\u0663.-\udc80\U0001f600"


@given(st.one_of(st.text(), st.text(alphabet=TRICKY_CHARS)))
@settings(max_examples=500, deadline=None)
def test_segment_matches_reference(text):
    assert _segment(text) == reference_segment(text)


# bytes of the same kinds, whole and split UTF-8 sequences among them
TRICKY_BYTES = st.lists(
    st.sampled_from([b" ", b"\t", b"a", b"1", b".", b"\xc3\xa9", b"\xc3", b"\xff"])
).map(b"".join)


@given(st.one_of(st.binary(), TRICKY_BYTES))
@settings(max_examples=300, deadline=None)
def test_segment_matches_reference_on_escaped_bytes(data):
    text = data.decode("utf-8", errors="surrogateescape")
    assert _segment(text) == reference_segment(text)


# few symbols, so counts tie and runs like "aaaa" overlap
small_corpus = st.lists(st.text(alphabet="aab 1.", max_size=12), min_size=1, max_size=6)
merge_counts = st.sampled_from([0, 1, 3, 8, 40])


@given(small_corpus, merge_counts)
@settings(max_examples=300, deadline=None)
def test_train_merges_matches_reference(corpus, k):
    assert train_merges(corpus, k).merges.pairs == reference_merges(corpus, k)


@given(st.lists(st.binary(max_size=16), min_size=1, max_size=6), merge_counts)
@settings(max_examples=200, deadline=None)
def test_train_merges_matches_reference_on_bytes(corpus, k):
    assert train_merges(corpus, k).merges.pairs == reference_merges(corpus, k)


def test_overlapping_pairs_each_count():
    # "bbbb" holds three (b, b); counted without overlap it would hold two
    # and lose the tie against (a, b)
    assert train_merges(["bbbb", "ab", "ab"], 1).merges.pairs == [(b"b", b"b")]


# ---------------------------------------------------------------------------
# file round trips
# ---------------------------------------------------------------------------


def test_save_load_roundtrip(tmp_path, tok):
    vp, mp = tmp_path / "vocab.tsv", tmp_path / "merges.tsv"
    save_vocabulary(tok, vp, mp)
    loaded = load_vocabulary(vp, mp)
    for s in SAMPLE_CORPUS:
        assert loaded.encode(s) == tok.encode(s)
    assert len(loaded.vocab) == len(tok.vocab)


def test_duplicate_merge_pair_rejected(tmp_path):
    vp, mp = tmp_path / "vocab.tsv", tmp_path / "merges.tsv"
    save_vocabulary(train_merges(["low low lower"], 2), vp, mp)
    mp.write_text("l\to\nl\to\n", encoding="utf-8")
    with pytest.raises(TokenizerFileError):
        load_vocabulary(vp, mp)


def test_merge_referencing_unknown_token(tmp_path):
    vp, mp = tmp_path / "vocab.tsv", tmp_path / "merges.tsv"
    save_vocabulary(bare_tokenizer(), vp, mp)
    mp.write_text("l\to\n", encoding="utf-8")  # "lo" not in vocab
    with pytest.raises(TokenizerFileError):
        load_vocabulary(vp, mp)


def test_vocab_of_256_bytes_plus_one_merge(tmp_path):
    vp, mp = tmp_path / "vocab.tsv", tmp_path / "merges.tsv"
    lines = [f"{i}\t{chr(i)}" if 0x20 <= i < 0x7F and i != 0x5C and i != 0x09
             else f"{i}\t\\x{i:02x}" for i in range(256)]
    lines[0x5C] = f"{0x5C}\t\\\\"
    lines[0x09] = f"{0x09}\t\\t"
    lines.append("256\tab")
    vp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    mp.write_text("# comment line\na\tb\n", encoding="utf-8")
    t = load_vocabulary(vp, mp)
    assert t.vocab.base_size == 257
    assert len(t.vocab) == 259
    assert t.encode("ab") == [256]


def test_malformed_vocab_line(tmp_path):
    vp, mp = tmp_path / "vocab.tsv", tmp_path / "merges.tsv"
    vp.write_text("0 a\n", encoding="utf-8")  # space, not TAB
    mp.write_text("", encoding="utf-8")
    with pytest.raises(TokenizerFileError):
        load_vocabulary(vp, mp)


def test_duplicate_vocab_id(tmp_path, tok):
    vp, mp = tmp_path / "vocab.tsv", tmp_path / "merges.tsv"
    save_vocabulary(tok, vp, mp)
    with open(vp, "a", encoding="utf-8") as f:
        f.write("0\tzz\n")
    with pytest.raises(TokenizerFileError):
        load_vocabulary(vp, mp)


def test_vocab_missing_bytes_rejected(tmp_path):
    vp, mp = tmp_path / "vocab.tsv", tmp_path / "merges.tsv"
    vp.write_text("0\ta\n1\tb\n", encoding="utf-8")
    mp.write_text("", encoding="utf-8")
    with pytest.raises(TokenizerFileError):
        load_vocabulary(vp, mp)


def test_vocabulary_rejects_duplicates_directly():
    tokens = [bytes([b]) for b in range(256)] + [b"ab", b"ab"]
    with pytest.raises(VocabularyError):
        Vocabulary(tokens)


def test_merge_table_rank_order():
    mt = MergeTable([(b"a", b"b"), (b"ab", b"c")])
    assert mt.ranks[(b"a", b"b")] == 0
    assert mt.ranks[(b"ab", b"c")] == 1
