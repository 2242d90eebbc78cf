"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with `pytest -s` to see them).

The slow end-to-end memorization run sits at the bottom of the file so the
cheap criteria report first.
"""

import os
import time

import numpy as np
import pytest

from fixtures import SAMPLE_CLINICAL_TEXTS, memorization_pairs
from oracles import brute_force_lcs, finite_difference_grads, grad_error

from prefixlm.bpe import train_merges
from prefixlm.data import RctExample, build_examples, corpus_stats, parse_corpus
from prefixlm.finetune import (
    HINTLESS_PROMPT,
    OptimizerState,
    prepare_example,
    save_checkpoint,
    training_step,
)
from prefixlm.generate import GenerationConfig, generate_greedy
from prefixlm.model import (
    Model,
    ModelConfig,
    build_causal_mask,
    build_prefix_mask,
    init_params,
)
from prefixlm.rouge import (
    AnnotationRecord,
    aggregate_annotations,
    rouge_l,
    rouge_n,
    score_run,
)
from prefixlm.tensor import ComputationTape, backward, cross_entropy

NEG_INF = float("-inf")


def _report(name, detail=""):
    print(f"\nACCEPTANCE {name}: PASS {detail}".rstrip())


# ---------------------------------------------------------------------------
# 1. paper-scale score reproduction is explicitly out of reach; the scoring
#    pipeline itself is validated against hand-computed oracles instead
# ---------------------------------------------------------------------------


def test_acceptance_score_pipeline_stands_in_for_paper_numbers():
    # full-scale ROUGE rows would need pretrained weights, the 189k-abstract
    # corpus and GPU fine-tuning; what must hold here is that the scorer is
    # exact on inputs whose scores are known by hand
    outputs = [("the cat sat", 0), ("a c b", 0), ("Smoking X", 1)]
    references = ["the cat sat down", "a b c", "Smoking Y"]
    scores = score_run(outputs, references)
    f1_1 = (6 / 7 + 1.0 + 0.0) / 3 * 100  # unigram F1s: 6/7, 1 (bag match), 0
    f1_2 = (4 / 5 + 0.0 + 0.0) / 3 * 100  # bigram F1s: 4/5, 0, 0
    f1_l = (6 / 7 + 2 / 3 + 0.0) / 3 * 100  # LCS F1s: 6/7, 2/3, 0
    assert scores["rouge1"] == pytest.approx(round(f1_1, 2), abs=1e-9)
    assert scores["rouge2"] == pytest.approx(round(f1_2, 2), abs=1e-9)
    assert scores["rougeL"] == pytest.approx(round(f1_l, 2), abs=1e-9)
    _report(
        "score-pipeline-oracle",
        "(paper-scale Table rows documented as out of desk-scale reach)",
    )


# ---------------------------------------------------------------------------
# 2. gradient integrity on the full tiny model
# ---------------------------------------------------------------------------


def test_acceptance_gradient_integrity():
    started = time.monotonic()
    config = ModelConfig(
        n_layers=2, d_model=8, n_heads=2, d_ff=16, vocab_size=16, max_positions=8
    )
    tokens = [3, 1, 4, 1, 5, 9]
    targets = [1, 4, 1, 5, 9, 2]
    weights = [0.0, 0.0, 0.25, 0.25, 0.25, 0.25]  # the mean over the four target rows
    mask = build_prefix_mask(3, 3)

    params = init_params(config, seed=13, dtype=np.float64)

    def loss_value(*arrays):
        trial = init_params(config, seed=13, dtype=np.float64)
        for (_, p), arr in zip(trial.named(), arrays):
            p.data[:] = arr
        logits = Model(config, trial).forward(tokens, mask)
        return cross_entropy(logits, targets, weights).item()

    numeric = finite_difference_grads(
        loss_value, [p.data.copy() for _, p in params.named()]
    )
    with ComputationTape():
        logits = Model(config, params).forward(tokens, mask)
        backward(cross_entropy(logits, targets, weights))

    worst = 0.0
    n_params = 0
    for (_, p), num in zip(params.named(), numeric):
        n_params += p.data.size
        worst = max(worst, grad_error(p.grad, num))
    elapsed = time.monotonic() - started
    assert worst < 1e-4, f"worst relative gradient error {worst:.2e}"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    _report(
        "gradient-integrity",
        f"({n_params} params, worst error {worst:.2e}, {elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# 3. mask semantics
# ---------------------------------------------------------------------------


def test_acceptance_mask_semantics():
    config = ModelConfig(
        n_layers=2, d_model=8, n_heads=2, d_ff=16, vocab_size=16, max_positions=8
    )
    model = Model(config, init_params(config, seed=17))

    # (a) causal: perturbing token t+1 leaves logits rows 0..t unchanged
    base = [3, 1, 4, 1, 5, 9]
    for t in range(5):
        perturbed = list(base)
        perturbed[t + 1] = (perturbed[t + 1] + 3) % 16
        a = model.forward(base, build_causal_mask(6)).data
        b = model.forward(perturbed, build_causal_mask(6)).data
        np.testing.assert_array_equal(a[: t + 1], b[: t + 1])

    # (b) prefix (m=3, n=3): source untouched by target edits, target
    # position j untouched by later target edits
    mask = build_prefix_mask(3, 3)
    for target_edit in range(3, 6):
        perturbed = list(base)
        perturbed[target_edit] = (perturbed[target_edit] + 3) % 16
        a = model.forward(base, mask).data
        b = model.forward(perturbed, mask).data
        np.testing.assert_array_equal(a[:3], b[:3])
        for j in range(3, target_edit):
            np.testing.assert_array_equal(a[j], b[j])

    # staircase pattern for (m, n) = (2, 2), exact
    np.testing.assert_array_equal(
        build_prefix_mask(2, 2),
        [
            [0.0, 0.0, NEG_INF, NEG_INF],
            [0.0, 0.0, NEG_INF, NEG_INF],
            [0.0, 0.0, 0.0, NEG_INF],
            [0.0, 0.0, 0.0, 0.0],
        ],
    )
    _report("mask-semantics", "(causal + prefix invariances, staircase exact)")


# ---------------------------------------------------------------------------
# 5. tokenizer roundtrip and category property
# ---------------------------------------------------------------------------


def _mixes_letter_and_digit(token: bytes) -> bool:
    s = token.decode("utf-8", errors="surrogateescape")
    return any(c.isalpha() for c in s) and any(c.isdigit() for c in s)


def test_acceptance_tokenizer_roundtrip_and_categories():
    tok = train_merges(SAMPLE_CLINICAL_TEXTS, 200)
    assert len(tok.merges) == 200

    rng = np.random.default_rng(2024)
    checked_tokens = 0
    for _ in range(1000):
        raw = rng.integers(0, 256, size=int(rng.integers(0, 80))).astype(np.uint8)
        data = raw.tobytes()
        ids = tok.encode(data)
        assert tok.decode_bytes(ids) == data
        for i in ids:
            assert not _mixes_letter_and_digit(tok.vocab.token_of(i))
            checked_tokens += 1

    for text in SAMPLE_CLINICAL_TEXTS:
        ids = tok.encode(text)
        assert tok.decode(ids) == text
        for i in ids:
            assert not _mixes_letter_and_digit(tok.vocab.token_of(i))
            checked_tokens += 1
    _report(
        "tokenizer-roundtrip",
        f"(1000 byte strings + {len(SAMPLE_CLINICAL_TEXTS)} clinical texts, "
        f"{checked_tokens} tokens category-checked)",
    )


# ---------------------------------------------------------------------------
# 6. ROUGE oracle
# ---------------------------------------------------------------------------


def test_acceptance_rouge_oracle():
    s = rouge_n("the cat sat", "the cat sat down", 1)
    assert abs(s.precision - 1.0) < 1e-4
    assert abs(s.recall - 0.75) < 1e-4
    assert abs(s.f1 - 0.857142) < 1e-4
    s = rouge_n("the cat sat", "the cat sat down", 2)
    assert abs(s.precision - 1.0) < 1e-4
    assert abs(s.recall - 2 / 3) < 1e-4
    assert abs(s.f1 - 0.8) < 1e-4
    s = rouge_l("a c b", "a b c")
    assert abs(s.f1 - 2 / 3) < 1e-4

    rng = np.random.default_rng(7)
    vocab = ["a", "b", "c", "d", "e"]
    for _ in range(500):
        cand = list(rng.choice(vocab, size=rng.integers(0, 11)))
        ref = list(rng.choice(vocab, size=rng.integers(0, 11)))
        got = rouge_l(" ".join(cand), " ".join(ref))
        lcs = brute_force_lcs(cand, ref)
        assert got.precision == pytest.approx(lcs / len(cand) if cand else 0.0)
        assert got.recall == pytest.approx(lcs / len(ref) if ref else 0.0)

    refs = ["the trial was positive .", "no benefit was seen ."]
    assert score_run([(r, 0) for r in refs], refs) == {
        "rouge1": 100.0, "rouge2": 100.0, "rougeL": 100.0,
    }
    _report("rouge-oracle", "(hand cases, 500 DP-vs-brute-force pairs, identity=100.00)")


# ---------------------------------------------------------------------------
# 7. human-eval aggregation
# ---------------------------------------------------------------------------


def test_acceptance_human_eval_aggregation():
    fixtures = {
        "pgnet-n1": (15, 3, 5, 3, 24, 36),
        "gpt2-n0": (24, 3, 4, 5, 14, 54),
        "gpt2-n1": (26, 6, 5, 3, 10, 64),
        "target": (32, 11, 0, 0, 7, 86),
    }
    records = []
    for system, (tp, tn, fp, fn, na, _) in fixtures.items():
        for verdict, count in zip(("TP", "TN", "FP", "FN", "NA"),
                                  (tp, tn, fp, fn, na)):
            records.extend(
                AnnotationRecord(system, f"{system}-{verdict}-{i}", verdict)
                for i in range(count)
            )
    agg = aggregate_annotations(records)
    for system, (*_, expected_acc) in fixtures.items():
        assert agg[system]["total"] == 50
        assert agg[system]["accuracy_percent"] == expected_acc
    accs = [agg[s]["accuracy_percent"] for s in fixtures]
    _report("human-eval-aggregation", f"(accuracies {accs}, all totals 50)")


# ---------------------------------------------------------------------------
# 8. dataset pipeline (optional integration; needs the public corpus)
# ---------------------------------------------------------------------------

_CORPUS_ENV = "PUBMED_RCT_TRAIN"


@pytest.mark.skipif(
    not os.environ.get(_CORPUS_ENV),
    reason=f"set {_CORPUS_ENV} to the 200k train split to run this integration",
)
def test_acceptance_dataset_pipeline_full_corpus():
    abstracts = parse_corpus(os.environ[_CORPUS_ENV])
    examples, skipped = build_examples(
        abstracts, ("BACKGROUND", "OBJECTIVE", "RESULTS")
    )
    stats = corpus_stats(examples)
    assert abs(stats["count"] - 189_035) <= 189_035 * 0.01, stats
    assert abs(stats["mean_source_words"] - 170.1) <= 1.0, stats
    assert abs(stats["mean_target_words"] - 41.4) <= 1.0, stats

    ablation, _ = build_examples(abstracts, ("RESULTS",))
    ablation_stats = corpus_stats(ablation)
    assert ablation_stats["mean_source_words"] < stats["mean_source_words"]
    _report(
        "dataset-pipeline",
        f"(count {stats['count']}, source {stats['mean_source_words']}w, "
        f"target {stats['mean_target_words']}w, {skipped} skipped)",
    )


# ---------------------------------------------------------------------------
# 9. determinism of training and generation
# ---------------------------------------------------------------------------


def test_acceptance_determinism(tmp_path):
    corpus = memorization_pairs()[:4]
    texts = [s for s, _ in corpus] + [t for _, t in corpus] + [HINTLESS_PROMPT]
    tok = train_merges(texts, 40)
    examples = [
        RctExample(str(i), s, t, ("RESULTS",)) for i, (s, t) in enumerate(corpus)
    ]
    config = ModelConfig(
        n_layers=2, d_model=16, n_heads=2, d_ff=32,
        vocab_size=len(tok.vocab), max_positions=128,
    )

    def train_once(path):
        model = Model(config, init_params(config, seed=3))
        state = OptimizerState()
        batch = [prepare_example(e, 0, tok) for e in examples]
        for _ in range(3):
            training_step(model, batch, state)
        save_checkpoint(path, model.params, state, step=3)
        return model

    model_a = train_once(tmp_path / "a.bin")
    model_b = train_once(tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    gen_config = GenerationConfig(n_hints=1, max_new_tokens=16)
    hints = [corpus[0][1].split()[0]]
    text_a, trace_a = generate_greedy(model_a, corpus[0][0], hints, gen_config, tok)
    text_b, trace_b = generate_greedy(model_b, corpus[0][0], hints, gen_config, tok)
    assert text_a == text_b
    assert trace_a == trace_b
    _report("determinism", "(bit-identical checkpoints, identical generations)")


# ---------------------------------------------------------------------------
# 4. end-to-end memorization (the slowest test: a few hundred SGD steps)
# ---------------------------------------------------------------------------


def test_acceptance_memorization_end_to_end():
    started = time.monotonic()
    pairs = memorization_pairs()
    assert len(pairs) == 16
    texts = [s for s, _ in pairs] + [t for _, t in pairs] + [HINTLESS_PROMPT]
    tok = train_merges(texts, 200)
    assert len(tok.merges) == 200

    examples = [
        RctExample(str(i), s, t, ("RESULTS",)) for i, (s, t) in enumerate(pairs)
    ]
    encoded = [prepare_example(e, 0, tok) for e in examples]

    config = ModelConfig(
        n_layers=4, d_model=64, n_heads=4, d_ff=256,
        vocab_size=len(tok.vocab), max_positions=128,
    )
    model = Model(config, init_params(config, seed=0))
    # ten times the README recipe's lr: the same bounds in about a tenth of the steps
    state = OptimizerState(lr=0.01, momentum=0.9, weight_decay=0.0005)

    batch_size = 8
    n = len(encoded)
    loss = float("inf")
    step = 0
    while loss >= 0.1 and step < 4000:
        batch = [encoded[(step * batch_size + j) % n] for j in range(batch_size)]
        loss = training_step(model, batch, state)
        step += 1
    assert loss < 0.1, f"loss stuck at {loss:.3f} after {step} steps"

    # teacher-forced check: the overfit model's argmax matches the memorized
    # next token at >= 95% of target positions
    hits = total = 0
    for ex in encoded:
        tokens = ex.tokens
        mask = build_prefix_mask(len(ex.source_ids), len(tokens) - len(ex.source_ids))
        logits = model.forward(tokens, mask).data
        for j in range(len(tokens) - len(ex.target_ids), len(tokens)):
            total += 1
            hits += int(np.argmax(logits[j - 1]) == tokens[j])
    argmax_rate = hits / total
    assert argmax_rate >= 0.95, f"argmax matches only {argmax_rate:.2%} of targets"

    gen_config = GenerationConfig(n_hints=0, max_new_tokens=64)
    exact = sum(
        generate_greedy(model, source, [], gen_config, tok)[0] == target
        for source, target in pairs
    )
    elapsed = time.monotonic() - started
    assert exact >= 14, f"only {exact}/16 targets reproduced exactly"
    assert elapsed < 600.0, f"end-to-end run took {elapsed:.0f}s"
    _report(
        "memorization-end-to-end",
        f"({exact}/16 exact, argmax {argmax_rate:.1%}, loss {loss:.3f} "
        f"at step {step}, {elapsed:.0f}s)",
    )
