import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    reference_bpe,
    reference_escape,
    reference_merges,
    reference_segment,
    reference_unescape,
)
from prefixlm import bpe
from prefixlm.bpe import (
    END_OF_TEXT,
    SEPARATOR,
    Tokenizer,
    TokenizerFileError,
    Vocabulary,
    VocabularyError,
    load_vocabulary,
    _escape,
    _segment,
    _unescape,
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
    assert trained.merges == [(b"l", b"o"), (b"lo", b"w")]
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


def escaped(data: bytes) -> str:
    """Bytes as the text every reader gives them: bad UTF-8 as surrogate escapes."""
    return data.decode("utf-8", errors="surrogateescape")


# bytes of the same kinds as TRICKY_CHARS, whole and split UTF-8 sequences among them
TRICKY_BYTES = st.lists(
    st.sampled_from([b" ", b"\t", b"a", b"1", b".", b"\xc3\xa9", b"\xc3", b"\xff"])
).map(b"".join)
# raw bytes: valid and split UTF-8, lone continuation and invalid bytes, runs
ESCAPED_BYTES = st.one_of(st.binary(max_size=24), TRICKY_BYTES, st.sampled_from(
    [b"aaaa", b"aaaaa", b"aa aaaa", b"\xff\xff\xff", b"11111", b"\xc3\xa9\xc3\xa9\xc3"]))
merge_counts = st.sampled_from([0, 1, 3, 8, 40])


@given(st.lists(ESCAPED_BYTES, min_size=1, max_size=6), merge_counts,
       st.one_of(st.binary(max_size=64), ESCAPED_BYTES))
@settings(max_examples=300, deadline=None)
def test_roundtrip_arbitrary_bytes(corpus, k, data):
    t = train_merges([escaped(b) for b in corpus], k)
    assert t.decode(t.encode(escaped(data))).encode("utf-8", errors="surrogateescape") == data


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
    assert t.merges == [(b"a", b"a")]


def test_tie_breaks_lexicographically():
    # (a,b) and (c,d) both occur once; (a,b) is lexicographically first
    t = train_merges(["ab", "cd"], 1)
    assert t.merges == [(b"a", b"b")]


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


@given(st.one_of(st.binary(), TRICKY_BYTES))
@settings(max_examples=300, deadline=None)
def test_segment_matches_reference_on_escaped_bytes(data):
    text = escaped(data)
    assert _segment(text) == reference_segment(text)


# few symbols, so counts tie and runs like "aaaa" overlap
small_corpus = st.lists(st.text(alphabet="aab 1.", max_size=12), min_size=1, max_size=6)
# repeated runs, where merge sites touch (aaaa, abab, aaabaaab), in one-,
# two- and mixed-byte letters; words of them joined by spaces
RUN = st.tuples(st.sampled_from(["a", "b", "ab", "aab", "aaab", "\u00e9", "a\u00e9",
                                 "\u0436\u00e9", "\u0436"]),
                st.integers(1, 8)).map(lambda run: run[0] * run[1])
RUN_TEXT = st.lists(st.lists(RUN, min_size=1, max_size=3).map("".join), max_size=3).map(" ".join)
run_corpus = st.lists(RUN_TEXT, min_size=1, max_size=5)
# 10,000 is past exhaustion for every corpus here
merge_counts_to_exhaustion = st.one_of(merge_counts, st.integers(0, 64), st.just(10_000))


@given(st.one_of(small_corpus, run_corpus), merge_counts_to_exhaustion)
@settings(max_examples=400, deadline=None)
def test_train_merges_matches_reference(corpus, k):
    assert train_merges(corpus, k).merges == reference_merges(corpus, k)


@given(st.lists(ESCAPED_BYTES, min_size=1, max_size=6), merge_counts)
@settings(max_examples=300, deadline=None)
def test_train_merges_matches_reference_on_bytes(corpus, k):
    """The oracle reads the bytes themselves; train_merges their escaped text."""
    assert train_merges([escaped(b) for b in corpus], k).merges == reference_merges(corpus, k)


def test_overlapping_pairs_each_count():
    # "bbbb" holds three (b, b); counted without overlap it would hold two
    # and lose the tie against (a, b)
    assert train_merges(["bbbb", "ab", "ab"], 1).merges == [(b"b", b"b")]


def reference_encode(tok, text):
    tokens = [tok.vocab.token_of(i) for i in range(len(tok.vocab))]
    return [i for unit in reference_segment(text) for i in reference_bpe(tokens, tok.merges, unit)]


@given(st.one_of(small_corpus, run_corpus), merge_counts_to_exhaustion,
       st.one_of(st.text(alphabet="aab 1.", max_size=24), RUN_TEXT, st.text(max_size=24)))
@settings(max_examples=300, deadline=None)
def test_encode_matches_reference_bpe(corpus, k, text):
    tok = train_merges(corpus, k)
    assert tok.encode(text) == reference_encode(tok, text)


# pairs that make the same bytes two ways: abc as (a, bc) and (ab, c), aaa as
# (aa, a) and (a, aa), aaaa as (aa, aa) and (a, aaa)
SHARED_PRODUCTS = [(b"a", b"b"), (b"b", b"c"), (b"a", b"bc"), (b"ab", b"c"), (b"a", b"a"),
                   (b"aa", b"a"), (b"a", b"aa"), (b"aa", b"aa"), (b"a", b"aaa"),
                   (b"abc", b"abc")]
SHARED_TOKENS = [b"ab", b"bc", b"abc", b"aa", b"aaa", b"aaaa", b"abcabc"]


@given(st.lists(st.sampled_from(SHARED_PRODUCTS), unique=True),
       st.permutations([bytes([b]) for b in range(256)] + SHARED_TOKENS),
       st.one_of(st.text(alphabet="abc ", max_size=24), RUN_TEXT))
@settings(max_examples=300, deadline=None)
def test_encode_matches_reference_bpe_on_loaded_tables(merges, tokens, text):
    # any order of merges, and ids in any order, as a hand-written vocab file allows
    tok = Tokenizer(Vocabulary(tokens), merges)
    assert tok.encode(text) == reference_encode(tok, text)


@pytest.mark.parametrize("text", ["aaaa", "aaaaa", "abab", "ababa", "aaabaaab", "bbbb"])
def test_encode_matches_reference_bpe_on_runs(text):
    tok = train_merges(["aa ab ba bb", "aaab"], 10_000)  # to exhaustion
    assert tok.encode(text) == reference_encode(tok, text)
    assert tok.decode(tok.encode(text)) == text


def test_encode_unchanged_when_the_unit_cache_is_capped(monkeypatch):
    texts = SAMPLE_CORPUS + ["aaaa abab aaabaaab", SAMPLE_CORPUS[0]]
    expected = [train_merges(SAMPLE_CORPUS, 60).encode(t) for t in texts]
    monkeypatch.setattr(bpe, "_UNIT_CACHE_SIZE", 2)
    capped = train_merges(SAMPLE_CORPUS, 60)
    assert [capped.encode(t) for t in texts] == expected
    assert len(capped._unit_cache) <= 2


# escape characters, hex digits in both cases, printable ASCII, TAB, DEL,
# another control byte and a character above ASCII
ESCAPE_ALPHABET = "\\xt0123456789abcdefABCDEF gG~\t\x7f\x1f\u00e9"
# the same characters, with escape starts made common
ESCAPED_TEXT = st.one_of(
    st.text(alphabet=ESCAPE_ALPHABET, max_size=12),
    st.lists(st.one_of(st.sampled_from(["\\", "\\x", "\\t", "\\\\"]),
                       st.text(alphabet=ESCAPE_ALPHABET, max_size=3)), max_size=6).map("".join),
)


@given(st.binary())
@settings(max_examples=500, deadline=None)
def test_escape_matches_reference(data):
    assert _escape(data) == reference_escape(data)


@given(ESCAPED_TEXT)
@settings(max_examples=1000, deadline=None)
def test_unescape_matches_reference(text):
    where = "tokens.tsv:7"
    try:
        expected = reference_unescape(text, where)
    except TokenizerFileError as e:
        assert str(e).startswith(f"{where}: ")
        with pytest.raises(TokenizerFileError, match=f"^{where}: "):
            _unescape(text, where)
    else:
        assert _unescape(text, where) == expected


@given(st.binary())
@settings(max_examples=300, deadline=None)
def test_unescape_inverts_escape(data):
    assert _unescape(_escape(data), "tokens.tsv:1") == data


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


# "#" leads a comment line in a merges file; TAB and "\\" are escaped in both files
@given(st.lists(st.text(alphabet="#\t\\x\u00e9\u0416 ", max_size=10), min_size=1, max_size=6),
       merge_counts)
@settings(max_examples=200, deadline=None)
def test_trained_tokenizer_survives_save_and_load(tmp_path_factory, corpus, k):
    d = tmp_path_factory.mktemp("tok")
    vp, mp = d / "vocab.tsv", d / "merges.tsv"
    tok = train_merges(corpus, k)
    save_vocabulary(tok, vp, mp)
    loaded = load_vocabulary(vp, mp)
    assert loaded.merges == tok.merges
    assert [loaded.vocab.token_of(i) for i in range(len(loaded.vocab))] == \
        [tok.vocab.token_of(i) for i in range(len(tok.vocab))]
    for text in corpus:
        assert loaded.encode(text) == tok.encode(text)


def test_merge_of_a_leading_hash_is_written_escaped(tmp_path):
    vp, mp = tmp_path / "vocab.tsv", tmp_path / "merges.tsv"
    tok = train_merges(["x##", "y##", "z##"], 1)
    assert tok.merges == [(b"#", b"#")]
    save_vocabulary(tok, vp, mp)
    assert mp.read_text(encoding="utf-8") == "\\x23\t#\n"
    assert load_vocabulary(vp, mp).encode("x##") == [120, 256]


def test_duplicate_merge_pair_rejected(tmp_path):
    vp, mp = tmp_path / "vocab.tsv", tmp_path / "merges.tsv"
    save_vocabulary(train_merges(["low low lower"], 2), vp, mp)
    mp.write_text("l\to\nl\to\n", encoding="utf-8")
    with pytest.raises(TokenizerFileError, match="duplicate merge pair") as err:
        load_vocabulary(vp, mp)
    assert str(mp) in str(err.value)


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


def test_vocab_bad_id_names_path_and_line(tmp_path):
    vp, mp = tmp_path / "vocab.tsv", tmp_path / "merges.tsv"
    vp.write_text("x\ta\n", encoding="utf-8")
    mp.write_text("", encoding="utf-8")
    with pytest.raises(TokenizerFileError) as err:
        load_vocabulary(vp, mp)
    assert str(err.value) == f"{vp}:1: bad id 'x'"


def test_vocab_token_colliding_with_a_special_rejected(tmp_path, tok):
    vp, mp = tmp_path / "vocab.tsv", tmp_path / "merges.tsv"
    save_vocabulary(tok, vp, mp)
    with open(vp, "a", encoding="utf-8") as f:
        f.write(f"{tok.vocab.base_size}\t<|endoftext|>\n")
    with pytest.raises(TokenizerFileError) as err:
        load_vocabulary(vp, mp)
    assert str(err.value) == f"{vp}: token collides with special b'<|endoftext|>'"


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
    # where two pairs overlap the earlier-listed one wins: with (a, b) first
    # "abc" becomes ab|c, with (b, c) first a|bc
    tokens = [bytes([b]) for b in range(256)] + [b"ab", b"bc"]
    ab_first = Tokenizer(Vocabulary(tokens), [(b"a", b"b"), (b"b", b"c")])
    bc_first = Tokenizer(Vocabulary(tokens), [(b"b", b"c"), (b"a", b"b")])
    assert ab_first.merges == [(b"a", b"b"), (b"b", b"c")]
    assert [ab_first.vocab.token_of(i) for i in ab_first.encode("abc")] == [b"ab", b"c"]
    assert [bc_first.vocab.token_of(i) for i in bc_first.encode("abc")] == [b"a", b"bc"]
