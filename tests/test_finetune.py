import numpy as np
import pytest

from prefixlm.bpe import save_vocabulary, train_merges
from prefixlm.data import RctExample, write_examples_jsonl
from prefixlm.finetune import (
    ConfigError,
    EncodedExample,
    HINTLESS_PROMPT,
    OptimizerState,
    TrainingConfig,
    encode_source,
    filter_long,
    load_checkpoint,
    parse_training_config,
    prepare_example,
    run_finetune,
    save_checkpoint,
    sgd_update,
    split_hint_words,
    training_step,
)
from prefixlm.model import Model, ModelConfig, build_prefix_mask, init_params
from prefixlm.tensor import ComputationTape, Tensor, backward, cross_entropy, slice_rows

SECTIONS = ("BACKGROUND", "OBJECTIVE", "RESULTS")

CORPUS = [
    RctExample("1", "Drug A reduced pain scores in the trial .",
               "Drug A relieved pain .", SECTIONS),
    RctExample("2", "Drug B lowered blood pressure significantly .",
               "Drug B controlled hypertension .", SECTIONS),
    RctExample("3", "Drug C showed no effect on symptoms .",
               "Drug C had no benefit .", SECTIONS),
    RctExample("4", "Drug D improved sleep quality in patients .",
               "Drug D treated insomnia .", SECTIONS),
]


@pytest.fixture(scope="module")
def tok():
    texts = [e.source_text for e in CORPUS] + [e.target_text for e in CORPUS]
    return train_merges(texts + [HINTLESS_PROMPT], 60)


def tiny_model(tok, seed=0):
    config = ModelConfig(
        n_layers=2, d_model=16, n_heads=2, d_ff=32,
        vocab_size=len(tok.vocab), max_positions=128,
    )
    return Model(config, init_params(config, seed))


# ---------------------------------------------------------------------------
# example preparation
# ---------------------------------------------------------------------------


def test_split_hint_words():
    assert split_hint_words("a b c d", 3) == (["a", "b", "c"], ["d"])
    assert split_hint_words("a b", 0) == ([], ["a", "b"])


def test_split_hint_words_short_target():
    with pytest.raises(ValueError, match="fewer than"):
        split_hint_words("only two", 3)


def test_prepare_n0_appends_prompt(tok):
    ex = prepare_example(CORPUS[0], 0, tok)
    assert ex.forced_prefix_ids == []
    assert ex.source_ids[-1] == tok.vocab.separator_id
    source_text = tok.decode(ex.source_ids[:-1])
    assert source_text.endswith(HINTLESS_PROMPT)
    assert source_text.startswith(CORPUS[0].source_text)


def test_prepare_n1_hint_is_first_word(tok):
    ex = prepare_example(
        RctExample("r", "The trial compared two drugs .",
                   "Roxatidine relieved the symptoms .", SECTIONS),
        1, tok,
    )
    assert tok.decode(ex.forced_prefix_ids) == "Roxatidine"
    assert HINTLESS_PROMPT not in tok.decode(ex.source_ids[:-1])


def test_prepare_n3_splits_target(tok):
    ex = prepare_example(RctExample("r", "source text here .", "a b c d", SECTIONS), 3, tok)
    assert tok.decode(ex.forced_prefix_ids) == "a b c"
    assert ex.target_ids[-1] == tok.vocab.end_of_text_id
    assert tok.decode(ex.target_ids[:-1]) == " d"


def test_prepare_all_words_hinted_leaves_eot_target(tok):
    ex = prepare_example(RctExample("r", "source .", "a b", SECTIONS), 2, tok)
    assert ex.target_ids == [tok.vocab.end_of_text_id]


def test_loss_mask_true_exactly_on_targets(tok):
    ex = prepare_example(CORPUS[1], 1, tok)
    n_src, n_pre, n_tgt = map(len, (ex.source_ids, ex.forced_prefix_ids, ex.target_ids))
    assert ex.loss_mask == [False] * (n_src + n_pre) + [True] * n_tgt
    assert len(ex) == n_src + n_pre + n_tgt


def test_prepare_rejects_empty_source(tok):
    with pytest.raises(ValueError, match="source"):
        prepare_example(RctExample("r", "  ", "fine .", SECTIONS), 0, tok)


def test_encode_source_no_prompt_for_hints(tok):
    with_hints = encode_source("Drug A works .", 2, tok)
    assert HINTLESS_PROMPT not in tok.decode(with_hints[:-1])


# ---------------------------------------------------------------------------
# length filter
# ---------------------------------------------------------------------------


def _fake_example(length):
    return EncodedExample([0] * (length - 2), [], [1, 2], [False] * (length - 2) + [True, True])


def test_filter_long_strict_boundary():
    kept = filter_long([_fake_example(499), _fake_example(500), _fake_example(501)])
    assert [len(e) for e in kept] == [499]


def test_filter_long_empty():
    assert filter_long([]) == []


def test_filter_long_identity_and_idempotent():
    examples = [_fake_example(10), _fake_example(20)]
    once = filter_long(examples)
    assert once == examples
    assert filter_long(once) == once


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class _OneParam:
    """Minimal stand-in exposing named() like ModelParams."""

    def __init__(self, value):
        self.p = Tensor(np.array([value], dtype=np.float64), requires_grad=True)

    def named(self):
        yield "p", self.p


def test_sgd_zero_grad_zero_decay_decays_velocity():
    params = _OneParam(1.0)
    state = OptimizerState(lr=0.1, momentum=0.9, weight_decay=0.0,
                           velocity={"p": np.array([1.0])})
    sgd_update(params, state)
    np.testing.assert_allclose(state.velocity["p"], [0.9])
    np.testing.assert_allclose(params.p.data, [1.0 - 0.1 * 0.9])


def test_sgd_plain_step():
    params = _OneParam(1.0)
    params.p.grad[:] = 2.0
    state = OptimizerState(lr=0.1, momentum=0.0, weight_decay=0.0)
    sgd_update(params, state)
    np.testing.assert_allclose(params.p.data, [0.8])


def test_sgd_momentum_recursion():
    params = _OneParam(0.0)
    state = OptimizerState(lr=1.0, momentum=0.9, weight_decay=0.0)
    params.p.grad[:] = 1.0
    sgd_update(params, state)
    np.testing.assert_allclose(params.p.data, [-1.0])
    params.p.grad[:] = 1.0
    sgd_update(params, state)
    np.testing.assert_allclose(params.p.data, [-2.9])


def test_sgd_weight_decay_pulls_toward_zero():
    params = _OneParam(10.0)
    state = OptimizerState(lr=0.1, momentum=0.0, weight_decay=0.5)
    sgd_update(params, state)  # g' = 0 + 0.5*10 = 5; p = 10 - 0.5
    np.testing.assert_allclose(params.p.data, [9.5])


# ---------------------------------------------------------------------------
# training steps
# ---------------------------------------------------------------------------


def test_training_loss_decreases(tok):
    model = tiny_model(tok, seed=1)
    batch = [prepare_example(e, 0, tok) for e in CORPUS]
    state = OptimizerState()
    losses = [training_step(model, batch, state) for _ in range(10)]
    assert all(b < a for a, b in zip(losses, losses[1:])), losses


def test_zero_learning_rate_freezes_params(tok):
    model = tiny_model(tok, seed=2)
    snapshot = [p.data.copy() for _, p in model.params.named()]
    batch = [prepare_example(CORPUS[0], 0, tok)]
    state = OptimizerState(lr=0.0)
    first = training_step(model, batch, state)
    second = training_step(model, batch, state)
    assert first == second
    for (_, p), old in zip(model.params.named(), snapshot):
        np.testing.assert_array_equal(p.data, old)


def test_identical_batch_equals_single_example_step(tok):
    ex = prepare_example(CORPUS[2], 0, tok)
    model_a = tiny_model(tok, seed=3)
    model_b = tiny_model(tok, seed=3)
    state_a, state_b = OptimizerState(), OptimizerState()
    training_step(model_a, [ex], state_a)
    training_step(model_b, [ex, ex, ex], state_b)
    for (_, pa), (_, pb) in zip(model_a.params.named(), model_b.params.named()):
        np.testing.assert_allclose(pa.data, pb.data, atol=1e-6)


def test_training_determinism(tok):
    def run():
        model = tiny_model(tok, seed=4)
        state = OptimizerState()
        batch = [prepare_example(e, 1, tok) for e in CORPUS]
        for _ in range(3):
            training_step(model, batch, state)
        return [p.data.copy() for _, p in model.params.named()]

    for a, b in zip(run(), run()):
        np.testing.assert_array_equal(a, b)


def test_rejects_empty_batch(tok):
    with pytest.raises(ValueError, match="empty"):
        training_step(tiny_model(tok), [], OptimizerState())


def test_rejects_overlong_sequence(tok):
    model = tiny_model(tok)
    ex = _fake_example(model.config.max_positions + 5)
    with pytest.raises(ValueError, match="max_positions"):
        training_step(model, [ex], OptimizerState())


def test_gradient_zero_outside_predicting_rows(tok):
    model = tiny_model(tok, seed=5)
    ex = prepare_example(CORPUS[0], 1, tok)
    tokens = ex.tokens
    t = len(tokens)
    mask = build_prefix_mask(len(ex.source_ids), t - len(ex.source_ids))
    with ComputationTape():
        logits = model.forward(tokens, mask)
        loss = cross_entropy(slice_rows(logits, 0, t - 1), tokens[1:], ex.loss_mask[1:])
        backward(loss)
    # row j-1 predicts token j; only rows predicting a target token get grads
    predicting = {j - 1 for j in range(1, t) if ex.loss_mask[j]}
    for row in range(t):
        row_grad = logits.grad[row]
        if row in predicting:
            assert np.any(row_grad != 0.0)
        else:
            assert np.all(row_grad == 0.0)


def test_hint_tokens_condition_but_are_not_scored(tok):
    model = tiny_model(tok, seed=6)
    ex = prepare_example(CORPUS[3], 1, tok)
    assert not any(
        ex.loss_mask[len(ex.source_ids) : len(ex.source_ids) + len(ex.forced_prefix_ids)]
    )

    def loss_of(example):
        tokens = example.tokens
        t = len(tokens)
        mask = build_prefix_mask(len(example.source_ids), t - len(example.source_ids))
        logits = model.forward(tokens, mask)
        return cross_entropy(
            slice_rows(logits, 0, t - 1), tokens[1:], example.loss_mask[1:]
        ).item()

    changed = EncodedExample(
        ex.source_ids,
        [(ex.forced_prefix_ids[0] + 1) % len(tok.vocab)] + ex.forced_prefix_ids[1:],
        ex.target_ids,
        ex.loss_mask,
    )
    assert loss_of(changed) != loss_of(ex)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path, tok):
    model = tiny_model(tok, seed=7)
    state = OptimizerState()
    batch = [prepare_example(e, 0, tok) for e in CORPUS]
    for _ in range(2):
        training_step(model, batch, state)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, model.params, state, step=2)
    state2 = OptimizerState()
    params2, step = load_checkpoint(path, model.config, state2)
    assert step == 2
    for (_, pa), (_, pb) in zip(model.params.named(), params2.named()):
        np.testing.assert_array_equal(pa.data, pb.data)
    for name in state.velocity:
        np.testing.assert_array_equal(state.velocity[name], state2.velocity[name])


def test_resume_matches_straight_run(tmp_path, tok):
    batch = [prepare_example(e, 0, tok) for e in CORPUS]

    straight = tiny_model(tok, seed=8)
    state = OptimizerState()
    for _ in range(4):
        training_step(straight, batch, state)

    half = tiny_model(tok, seed=8)
    state_a = OptimizerState()
    for _ in range(2):
        training_step(half, batch, state_a)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, half.params, state_a, step=2)
    state_b = OptimizerState()
    params, _ = load_checkpoint(path, half.config, state_b)
    resumed = Model(half.config, params)
    for _ in range(2):
        training_step(resumed, batch, state_b)

    for (_, pa), (_, pb) in zip(straight.params.named(), resumed.params.named()):
        np.testing.assert_array_equal(pa.data, pb.data)


def test_resume_logs_each_step_once(tmp_path, tok):
    vocab, merges, data = tmp_path / "vocab.tsv", tmp_path / "merges.tsv", tmp_path / "train.jsonl"
    save_vocabulary(tok, vocab, merges)
    write_examples_jsonl(CORPUS, data)
    log = tmp_path / "loss.csv"
    cfg = TrainingConfig(
        seed=3, n_hints=0, batch_size=2, steps=4, lr=0.001, momentum=0.9,
        weight_decay=0.0005, max_len=500, checkpoint_path=str(tmp_path / "ck.bin"),
        checkpoint_every=2, data_path=str(data), vocab_file=str(vocab),
        merges_file=str(merges), n_layers=1, d_model=16, n_heads=2, d_ff=32,
        max_positions=128, loss_log=str(log),
    )

    class Crash(Exception):
        pass

    def crash_at_step_3(step, loss):
        if step == 3:
            raise Crash

    # the crash comes after step 3 is logged but before it is checkpointed
    with pytest.raises(Crash):
        run_finetune(cfg, log=crash_at_step_3)
    crashed = log.read_text(encoding="utf-8").splitlines()
    assert [row.split(",")[0] for row in crashed] == ["step", "1", "2", "3"]

    run_finetune(cfg)
    rows = log.read_text(encoding="utf-8").splitlines()
    assert [row.split(",")[0] for row in rows] == ["step", "1", "2", "3", "4"]
    assert rows[:4] == crashed  # the resumed run repeats step 3 exactly


# ---------------------------------------------------------------------------
# training config file
# ---------------------------------------------------------------------------

FULL_CONFIG = """\
# desk-scale run
seed=7
n_hints=1
batch_size=8
steps=40
lr=0.001
momentum=0.9
weight_decay=0.0005
max_len=500
checkpoint_path=out/ck.bin
checkpoint_every=10
data_path=train.jsonl
vocab_file=vocab.tsv
merges_file=merges.tsv
n_layers=4
d_model=64
n_heads=4
d_ff=256
max_positions=512
"""


def test_parse_training_config(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(FULL_CONFIG, encoding="utf-8")
    cfg = parse_training_config(path)
    assert cfg.seed == 7
    assert cfg.lr == 0.001
    assert cfg.momentum == 0.9
    assert cfg.weight_decay == 0.0005
    assert cfg.checkpoint_path == "out/ck.bin"
    assert cfg.activation == "relu"  # default


def test_parse_training_config_missing_key(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(FULL_CONFIG.replace("momentum=0.9\n", ""), encoding="utf-8")
    with pytest.raises(ConfigError, match="momentum"):
        parse_training_config(path)


def test_parse_training_config_unknown_key(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(FULL_CONFIG + "mystery=1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="mystery"):
        parse_training_config(path)


def test_parse_training_config_bad_value(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(FULL_CONFIG.replace("steps=40", "steps=many"), encoding="utf-8")
    with pytest.raises(ConfigError, match="steps"):
        parse_training_config(path)
