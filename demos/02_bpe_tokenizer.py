"""Byte-level BPE with category-aware merges
============================================

Train a merge table on a small corpus, look at how text is segmented and
merged, and round-trip some awkward strings.
"""

import tempfile
from pathlib import Path

from prefixlm.bpe import load_vocabulary, save_vocabulary, train_merges

corpus = [
    "Both roxatidine and omeprazole significantly improved the heartburn score"
    " at 4 and 8 weeks .",
    "Roxatidine relieved the symptoms of NERD patients with similar"
    " effectiveness to omeprazole .",
    "In total , 103 institutionalized patients at 35 sites were randomized .",
]

tok = train_merges(corpus, 80)
print(f"trained {len(tok.merges)} merges, vocabulary {len(tok.vocab)} tokens")
print("first merges:", tok.merges[:8])

text = "roxatidine improved the score at 8 weeks ."
ids = tok.encode(text)
print(f"\n{text!r} -> {len(ids)} tokens")
print("tokens:", [tok.vocab.token_of(i) for i in ids])

# a letter never shares a token with a digit, and a single leading space
# rides with the word that follows it
for token_id in tok.encode("score4 8weeks"):
    token = tok.vocab.token_of(token_id).decode("utf-8", "surrogateescape")
    has_alpha = any(c.isalpha() for c in token)
    has_digit = any(c.isdigit() for c in token)
    assert not (has_alpha and has_digit), token
print("\nno token of 'score4 8weeks' mixes letters and digits")

# every byte string round-trips: unknown words, unicode, even raw bytes
for sample in ["Varenicline 0.5 mg ± placebo", "étude contrôlée", "tabs\tand\nnewlines"]:
    assert tok.decode(tok.encode(sample)) == sample
raw = bytes(range(0, 64))
assert tok.decode_bytes(tok.encode(raw)) == raw
print("round-trips hold for clinical text, accents, control bytes")

# persistence: one vocab file, one merges file
with tempfile.TemporaryDirectory() as d:
    vocab_path, merges_path = Path(d) / "vocab.tsv", Path(d) / "merges.tsv"
    save_vocabulary(tok, vocab_path, merges_path)
    reloaded = load_vocabulary(vocab_path, merges_path)
assert reloaded.encode(text) == ids
print("saved and reloaded tokenizer encodes identically")

print("\nspecial ids: end_of_text =", tok.vocab.end_of_text_id,
      " separator =", tok.vocab.separator_id)
