import numpy as np
import pytest

from prefixlm.bpe import train_merges
from prefixlm.finetune import HINTLESS_PROMPT, encode_source
from prefixlm.generate import GenerationConfig, generate_greedy
from prefixlm.model import Model, ModelConfig, build_prefix_mask, init_params

SOURCE = "Drug A reduced pain scores in the randomized trial ."


@pytest.fixture(scope="module")
def tok():
    return train_merges([SOURCE, HINTLESS_PROMPT, "Smoking cessation improved ."], 40)


@pytest.fixture(scope="module")
def model(tok):
    config = ModelConfig(
        n_layers=2, d_model=16, n_heads=2, d_ff=32,
        vocab_size=len(tok.vocab), max_positions=256,
    )
    return Model(config, init_params(config, seed=11))


def test_generation_deterministic(model, tok):
    config = GenerationConfig(n_hints=0, max_new_tokens=12)
    a = generate_greedy(model, SOURCE, [], config, tok)
    b = generate_greedy(model, SOURCE, [], config, tok)
    assert a == b


def test_forced_prefix_verbatim_in_trace(model, tok):
    config = GenerationConfig(n_hints=1, max_new_tokens=8)
    text, trace = generate_greedy(model, SOURCE, ["Smoking"], config, tok)
    prefix_ids = tok.encode("Smoking")
    assert trace[: len(prefix_ids)] == prefix_ids
    assert text.startswith("Smoking")


def test_output_token_budget(model, tok):
    config = GenerationConfig(n_hints=1, max_new_tokens=5)
    _, trace = generate_greedy(model, SOURCE, ["Smoking"], config, tok)
    assert len(trace) <= len(tok.encode("Smoking")) + 5


def test_incremental_consistency(model, tok):
    """Re-running the full forward at each length reproduces the trace."""
    config = GenerationConfig(n_hints=0, max_new_tokens=10)
    _, trace = generate_greedy(model, SOURCE, [], config, tok)
    source_ids = encode_source(SOURCE, 0, tok)
    m = len(source_ids)
    tokens = list(source_ids)
    for expected in trace:
        mask = build_prefix_mask(m, len(tokens) - m)
        logits = model.forward(tokens, mask)
        assert int(np.argmax(logits.data[-1])) == expected
        tokens.append(expected)


def test_eot_is_stripped_from_text(model, tok):
    config = GenerationConfig(n_hints=0, max_new_tokens=10)
    text, trace = generate_greedy(model, SOURCE, [], config, tok)
    stripped = [i for i in trace if i != tok.vocab.end_of_text_id]
    assert text == tok.decode(stripped)


def test_hint_count_must_match_config(model, tok):
    with pytest.raises(ValueError, match="hint words"):
        generate_greedy(model, SOURCE, ["a", "b"],
                        GenerationConfig(n_hints=1, max_new_tokens=4), tok)


def test_empty_source_rejected(model, tok):
    with pytest.raises(ValueError, match="source"):
        generate_greedy(model, "   ", [], GenerationConfig(n_hints=0, max_new_tokens=4), tok)


def test_source_too_long_rejected(model, tok):
    config = GenerationConfig(n_hints=0, max_new_tokens=250)
    with pytest.raises(ValueError, match="max_positions"):
        generate_greedy(model, SOURCE, [], config, tok)


def test_exact_fit_accepted_one_more_rejected(model, tok):
    # the last new token is never fed back, so prompt + budget - 1 positions
    prompt = len(encode_source(SOURCE, 0, tok))
    budget = model.config.max_positions - prompt + 1
    _, trace = generate_greedy(
        model, SOURCE, [], GenerationConfig(n_hints=0, max_new_tokens=budget), tok
    )
    assert 1 <= len(trace) <= budget
    with pytest.raises(ValueError, match="max_positions"):
        generate_greedy(
            model, SOURCE, [], GenerationConfig(n_hints=0, max_new_tokens=budget + 1), tok
        )


def test_generation_config_validation():
    with pytest.raises(ValueError):
        GenerationConfig(n_hints=0, max_new_tokens=0)
    with pytest.raises(ValueError):
        GenerationConfig(n_hints=-1, max_new_tokens=4)


def test_hintless_layout_matches_training(model, tok):
    # the generated sequence conditions on source + prompt + separator
    source_ids = encode_source(SOURCE, 0, tok)
    assert source_ids[-1] == tok.vocab.separator_id
    assert tok.decode(source_ids[:-1]).endswith(HINTLESS_PROMPT)
