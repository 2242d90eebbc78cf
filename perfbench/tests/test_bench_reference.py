"""The benchmark's float64 reference against the program, and its checkers
against inputs whose answer is known."""

import numpy as np
import pytest

import reference
from prefixlm.bpe import train_merges
from prefixlm.finetune import OptimizerState, encode_source, prepare_example, training_step
from prefixlm.data import RctExample
from prefixlm.generate import GenerationConfig, generate_greedy
from prefixlm.model import (
    Model,
    ModelConfig,
    build_causal_mask,
    build_prefix_mask,
    init_params,
)


def random_model(seed, n_layers=2, d_model=16, n_heads=4, d_ff=24, vocab=50, dtype=np.float64):
    config = ModelConfig(n_layers=n_layers, d_model=d_model, n_heads=n_heads, d_ff=d_ff,
                         vocab_size=vocab, max_positions=40)
    params = init_params(config, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    for _, p in params.named():
        p.data[...] = rng.normal(0.0, 0.3, p.shape)
    return Model(config, params)


def weights(mdl):
    return reference.as_float64((n, p.data) for n, p in mdl.params.named())


@pytest.mark.parametrize("seed,layers,heads", [(0, 1, 1), (1, 2, 4), (2, 3, 2)])
def test_reference_forward_matches_model_under_both_masks(seed, layers, heads):
    mdl = random_model(seed, n_layers=layers, n_heads=heads)
    tokens = np.random.default_rng(seed).integers(0, 50, 30)
    w = weights(mdl)
    causal = mdl.forward(tokens, build_causal_mask(30)).data
    np.testing.assert_allclose(reference.forward(w, heads, tokens, 0), causal,
                               rtol=1e-10, atol=1e-10)
    for m in (1, 12, 30):
        prefix = mdl.forward(tokens, build_prefix_mask(m, 30 - m)).data
        np.testing.assert_allclose(reference.forward(w, heads, tokens, m), prefix,
                                   rtol=1e-10, atol=1e-10)


def test_visibility_is_the_prefix_mask():
    for m, n in ((1, 0), (3, 4), (5, 1)):
        assert np.array_equal(reference.visible(m, m + n), build_prefix_mask(m, n) == 0)
    assert np.array_equal(reference.visible(0, 6), build_causal_mask(6) == 0)


@pytest.fixture(scope="module")
def tiny():
    pairs = [("alpha beta gamma delta .", "beta wins ."), ("one two three four .", "two wins .")]
    tok = train_merges([s for s, _ in pairs] + [t for _, t in pairs], 20)
    config = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                         vocab_size=len(tok.vocab), max_positions=64)
    mdl = Model(config, init_params(config, seed=5))
    return pairs, tok, mdl


def test_reference_loss_and_gradient_match_a_training_step(tiny):
    pairs, tok, _ = tiny
    config = tiny[2].config
    mdl = Model(config, init_params(config, seed=5))
    batch = [prepare_example(RctExample(str(i), s, t, ("RESULTS",)), 1, tok)
             for i, (s, t) in enumerate(pairs)]
    before = weights(mdl)
    state = OptimizerState()
    loss = training_step(mdl, batch, state)
    assert loss == pytest.approx(reference.batch_loss(before, 2, batch), rel=1e-5)
    grad = reference.recovered_gradient(before, weights(mdl), state.lr, state.weight_decay)
    assert max(reference.gradient_check(before, 2, batch, grad, seed=0)) < 1e-2
    wrong = {k: v * 1.1 for k, v in grad.items()}
    assert max(reference.gradient_check(before, 2, batch, wrong, seed=0)) > 1e-2


def test_trace_checker_accepts_greedy_traces_and_rejects_tampered_ones(tiny):
    pairs, tok, mdl = tiny
    source, target = pairs[0]
    hints = target.split()[:1]
    budget = 6
    _, trace = generate_greedy(mdl, source, hints, GenerationConfig(1, budget), tok)
    w = weights(mdl)
    src = encode_source(source, 1, tok)
    hint_ids = tok.encode(hints[0])
    eot = tok.vocab.end_of_text_id

    def problems(t):
        return reference.trace_problems(w, 2, src, hint_ids, t, eot, budget)

    assert problems(trace) == []
    new = len(hint_ids)
    swapped = list(trace)
    swapped[new] = (swapped[new] + 1) % eot
    assert problems(swapped)
    assert problems(trace[:-1]), "stopping early without end-of-text"
    assert problems([hint_ids[0] + 1] + trace[1:]), "trace must start with the hints"
    assert problems(trace + [eot] * (budget + 1)), "longer than the budget"


def test_rouge_matches_hand_computed_values():
    outputs = [("the cat sat", 0), ("a c b", 0), ("Smoking X", 1)]
    references = ["the cat sat down", "a b c", "Smoking Y"]
    got = reference.rouge(outputs, references)
    assert got["rouge1"] == pytest.approx((6 / 7 + 1.0 + 0.0) / 3 * 100)
    assert got["rouge2"] == pytest.approx((4 / 5 + 0.0 + 0.0) / 3 * 100)
    assert got["rougeL"] == pytest.approx((6 / 7 + 2 / 3 + 0.0) / 3 * 100)
    # hint words are dropped from both sides; case is ignored
    assert reference.rouge([("Drug A helps", 1)], ["drug a helps"])["rouge2"] == 100.0


def test_mixed_tokens():
    assert reference.mixed_tokens([b"ab", b"12", b" a", b"a1", b"\xce\xb12"]) == [
        b"a1", b"\xce\xb12"]
