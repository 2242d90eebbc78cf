import gc
import re
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prefixlm import data, finetune
from prefixlm.bpe import save_vocabulary, train_merges
from prefixlm.data import RctExample, write_examples_jsonl
from prefixlm.finetune import (
    ConfigError,
    EncodedExample,
    HINTLESS_PROMPT,
    OptimizerState,
    PACK_ROWS,
    TrainingConfig,
    encode_source,
    filter_long,
    load_checkpoint,
    load_model_weights,
    pack_ranges,
    parse_training_config,
    prepare_example,
    run_finetune,
    save_checkpoint,
    sgd_update,
    split_hint_words,
    training_step,
)
from prefixlm.model import (
    Model,
    ModelConfig,
    WeightFileError,
    init_params,
    read_tensor_map,
    write_tensor_map,
)
from prefixlm.tensor import Tensor, cross_entropy

from oracles import reference_masked_loss, reference_step

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


def tiny_model(tok, seed=0, max_positions=128):
    config = ModelConfig(
        n_layers=2, d_model=16, n_heads=2, d_ff=32,
        vocab_size=len(tok.vocab), max_positions=max_positions,
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


def test_example_holds_source_hint_and_target_ids(tok):
    ex = prepare_example(CORPUS[1], 1, tok)
    assert [f.name for f in fields(EncodedExample)] == [
        "source_ids", "forced_prefix_ids", "target_ids"
    ]
    assert ex.tokens == ex.source_ids + ex.forced_prefix_ids + ex.target_ids
    assert len(ex) == len(ex.tokens)


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
    return EncodedExample([0] * (length - 2), [], [1, 2])


def test_filter_long_strict_boundary():
    kept = filter_long([_fake_example(499), _fake_example(500), _fake_example(501)], 500)
    assert [len(e) for e in kept] == [499]


def test_filter_long_empty():
    assert filter_long([], 500) == []


def test_filter_long_identity_and_idempotent():
    examples = [_fake_example(10), _fake_example(20)]
    once = filter_long(examples, 500)
    assert once == examples
    assert filter_long(once, 500) == once


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class _OneParam:
    """Minimal stand-in exposing named() like ModelParams."""

    def __init__(self, value):
        self.p = Tensor(np.array([value], dtype=np.float64))

    def named(self):
        yield "p", self.p


def test_sgd_zero_grad_zero_decay_decays_velocity():
    params = _OneParam(1.0)
    state = OptimizerState(lr=0.1, momentum=0.9, weight_decay=0.0,
                           velocity={"p": np.array([1.0])})
    params.p.grad = np.array([0.0])
    sgd_update(params, state)
    np.testing.assert_allclose(state.velocity["p"], [0.9])
    np.testing.assert_allclose(params.p.data, [1.0 - 0.1 * 0.9])


def test_sgd_plain_step():
    params = _OneParam(1.0)
    params.p.grad = np.array([2.0])
    state = OptimizerState(lr=0.1, momentum=0.0, weight_decay=0.0)
    sgd_update(params, state)
    np.testing.assert_allclose(params.p.data, [0.8])


def test_sgd_momentum_recursion():
    params = _OneParam(0.0)
    state = OptimizerState(lr=1.0, momentum=0.9, weight_decay=0.0)
    params.p.grad = np.array([1.0])
    sgd_update(params, state)
    np.testing.assert_allclose(params.p.data, [-1.0])
    params.p.grad = np.array([1.0])
    sgd_update(params, state)
    np.testing.assert_allclose(params.p.data, [-2.9])


def test_sgd_weight_decay_pulls_toward_zero():
    params = _OneParam(10.0)
    state = OptimizerState(lr=0.1, momentum=0.0, weight_decay=0.5)
    params.p.grad = np.array([0.0])
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


def test_training_step_leaves_no_tape_alive(tok):
    # backward consumes each tape, so none waits for the cyclic collector
    model = tiny_model(tok, seed=5, max_positions=PACK_ROWS + 1)
    tapes = []

    def forward_rows(segments):
        logits = Model.forward_rows(model, segments)
        tapes.append(weakref.ref(logits.tape))
        return logits

    model.forward_rows = forward_rows
    # the first two examples share a tape; the third is over the row budget
    batch = [prepare_example(e, 1, tok) for e in CORPUS[:2]] + [_fake_example(PACK_ROWS + 1)]
    gc.disable()
    try:
        training_step(model, batch, OptimizerState())
        alive = [ref() is not None for ref in tapes]
    finally:
        gc.enable()
    assert alive == [False, False]


def test_parameters_hold_gradients_only_after_a_step(tok, tmp_path):
    # the first gradient creates each buffer; sgd_update reads one per parameter
    model = tiny_model(tok, seed=6)
    path = tmp_path / "w.bin"
    write_tensor_map(path, [(name, p.data) for name, p in model.params.named()], 0)
    for params in (model.params, load_model_weights(path, model.config)):
        assert [name for name, p in params.named() if p.grad is not None] == []
    training_step(model, [prepare_example(e, 0, tok) for e in CORPUS], OptimizerState())
    for name, p in model.params.named():
        assert p.grad is not None and p.grad.shape == p.shape, name


def _capture_logits(model):
    """Make model.forward_rows keep each (segments, logits tensor) it returns."""
    seen = []

    def forward_rows(segments):
        seen.append((segments, Model.forward_rows(model, segments)))
        return seen[-1][1]

    model.forward_rows = forward_rows
    return seen


def test_gradient_zero_outside_predicting_rows(tok):
    model = tiny_model(tok, seed=5)
    ex = prepare_example(CORPUS[0], 1, tok)
    t = len(ex)
    seen = _capture_logits(model)
    training_step(model, [ex], OptimizerState())
    [(_, _, (a, b))], logits = seen[0]
    # row j-1 predicts token j; only rows predicting a target token have
    # logits, and each of them gets a gradient
    predicting = {j - 1 for j in range(t - len(ex.target_ids), t)}
    assert set(range(a, b)) == predicting
    assert logits.shape == (len(predicting), len(tok.vocab))
    for row_grad in logits.grad:
        assert np.any(row_grad != 0.0)


def test_hint_tokens_condition_but_are_not_scored(tok, monkeypatch):
    model = tiny_model(tok, seed=6)
    ex = prepare_example(CORPUS[3], 1, tok)
    assert ex.forced_prefix_ids
    scored = []

    def spy(logits, targets, weights=None):
        scored.append(list(targets))
        return cross_entropy(logits, targets, weights)

    monkeypatch.setattr(finetune, "cross_entropy", spy)

    def loss_of(example):  # lr 0 leaves the parameters as they are
        return training_step(model, [example], OptimizerState(lr=0.0))

    changed = EncodedExample(
        ex.source_ids,
        [(ex.forced_prefix_ids[0] + 1) % len(tok.vocab)] + ex.forced_prefix_ids[1:],
        ex.target_ids,
    )
    assert loss_of(changed) != loss_of(ex)
    assert scored == [ex.target_ids, ex.target_ids]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_hints", [0, 1, 2])
def test_target_slice_matches_masked_loss(tok, n_hints, dtype):
    # scoring the target slice of the all-rows logits gives every gradient of
    # the all-rows loss with zero weights off the targets exactly, and its loss
    # up to the rounding of a sum that also runs over the zero-weight rows
    ex = prepare_example(CORPUS[2], n_hints, tok)
    assert len(ex.forced_prefix_ids) >= n_hints
    config = tiny_model(tok).config
    ref = Model(config, init_params(config, 8, dtype=dtype))
    want = reference_masked_loss(ref, ex)
    model = Model(config, init_params(config, 8, dtype=dtype))
    assert reference_step(model, [ex]) == pytest.approx(want, rel=4 * np.finfo(dtype).eps)
    for (name, p), (_, r) in zip(model.params.named(), ref.params.named()):
        assert p.dtype == dtype
        np.testing.assert_array_equal(p.grad, r.grad, err_msg=name)


@pytest.mark.parametrize("n_layers", [2, 4])
@pytest.mark.parametrize("n_hints", [0, 2])
def test_row_range_step_matches_all_rows_forward(tok, n_hints, n_layers):
    # the last block runs on the scored rows only; in float64 the loss and
    # every gradient match the all-rows forward up to rounding
    batch = [prepare_example(e, n_hints, tok) for e in CORPUS]
    config = replace(tiny_model(tok).config, n_layers=n_layers)
    ref = Model(config, init_params(config, 9, dtype=np.float64))
    want = reference_step(ref, batch)
    model = Model(config, init_params(config, 9, dtype=np.float64))
    got = training_step(model, batch, OptimizerState(lr=0.0))
    assert abs(got - want) <= 1e-12
    for (name, p), (_, r) in zip(model.params.named(), ref.params.named()):
        np.testing.assert_allclose(p.grad, r.grad, rtol=0, atol=1e-12, err_msg=name)


def _random_example(seed, n_source, n_hint, n_target, vocab_size):
    ids = np.random.default_rng(seed).integers(0, vocab_size, n_source + n_hint + n_target)
    ids = [int(i) for i in ids]
    return EncodedExample(ids[:n_source], ids[n_source:n_source + n_hint],
                          ids[n_source + n_hint:])


def _spy_packs(model):
    """Make model.forward_rows record the token count of each segment it packs."""
    packs = []

    def forward_rows(segments):
        packs.append([len(ids) for ids, _, _ in segments])
        return Model.forward_rows(model, segments)

    model.forward_rows = forward_rows
    return packs


@pytest.mark.parametrize("n_hints", [0, 1])
@pytest.mark.parametrize("shape", ["one-pack", "over-budget", "mixed", "repeats"])
def test_packed_step_matches_sequential_all_rows_step(shape, n_hints):
    # float64: the packed step's loss and every gradient match the oracle's,
    # which runs each example on a tape of its own over every row
    vocab = 40
    config = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab_size=vocab,
                         max_positions=PACK_ROWS + 40)
    short = [_random_example(i, 30 + 7 * i, n_hints, 5 + i, vocab) for i in range(4)]
    long = _random_example(9, PACK_ROWS, n_hints, 12, vocab)
    batch = {
        "one-pack": short,
        "over-budget": [long],
        "mixed": [short[0], long, short[1], short[2], short[3], short[0]],
        "repeats": [short[1], short[2], short[1], short[2]],
    }[shape]
    ref = Model(config, init_params(config, 3, dtype=np.float64))
    want = reference_step(ref, batch)
    model = Model(config, init_params(config, 3, dtype=np.float64))
    packs = _spy_packs(model)
    got = training_step(model, batch, OptimizerState(lr=0.0))
    assert [n for pack in packs for n in pack] == [len(ex) for ex in batch]
    assert packs == [[len(ex) for ex in batch[a:b]]
                     for a, b in pack_ranges([len(ex) for ex in batch])]
    if shape != "over-budget":
        assert max(map(len, packs)) > 1
    assert abs(got - want) <= 1e-12
    for (name, p), (_, r) in zip(model.params.named(), ref.params.named()):
        np.testing.assert_allclose(p.grad, r.grad, rtol=0, atol=1e-12, err_msg=name)


def test_hint_rows_of_packed_examples_are_not_scored():
    # each packed example scores only the rows that predict its target tokens,
    # not those that predict its hint tokens
    vocab = 40
    config = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab_size=vocab,
                         max_positions=64)
    batch = [_random_example(i, 20, 2, 6, vocab) for i in range(3)]
    model = Model(config, init_params(config, 4, dtype=np.float64))
    seen = _capture_logits(model)
    training_step(model, batch, OptimizerState(lr=0.0))
    [(segments, logits)] = seen
    assert [rows for _, _, rows in segments] == [(21, 27)] * 3
    assert logits.shape == (18, vocab)


def test_pack_longer_than_max_positions_trains_when_each_example_fits():
    vocab = 40
    config = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab_size=vocab,
                         max_positions=64)
    batch = [_random_example(i, 50, 1, 10, vocab) for i in range(4)]
    assert sum(map(len, batch)) > config.max_positions
    ref = Model(config, init_params(config, 5, dtype=np.float64))
    want = reference_step(ref, batch)
    model = Model(config, init_params(config, 5, dtype=np.float64))
    packs = _spy_packs(model)
    got = training_step(model, batch, OptimizerState(lr=0.0))
    assert packs == [[61, 61, 61, 61]]
    assert abs(got - want) <= 1e-12


def test_packed_example_over_max_positions_raises_from_embed(tok):
    model = tiny_model(tok)
    batch = [prepare_example(CORPUS[0], 0, tok), _fake_example(model.config.max_positions + 1)]
    assert len(pack_ranges([len(ex) for ex in batch])) == 1
    before = [p.data.copy() for _, p in model.params.named()]
    with pytest.raises(ValueError, match="sequence of 129 tokens exceeds max_positions 128"):
        training_step(model, batch, OptimizerState())
    for (_, p), b in zip(model.params.named(), before):
        np.testing.assert_array_equal(p.data, b)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 3 * PACK_ROWS), min_size=1, max_size=24))
def test_pack_ranges_rule(lengths):
    ranges = pack_ranges(lengths)
    # in batch order, every slot exactly once
    assert [i for a, b in ranges for i in range(a, b)] == list(range(len(lengths)))
    for a, b in ranges:
        rows = sum(lengths[a:b])
        assert b - a == 1 or rows <= PACK_ROWS
        if b < len(lengths):  # the next example would have taken the pack over
            assert rows + lengths[b] > PACK_ROWS


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


@pytest.mark.parametrize("change, problem", [
    ("missing", "missing tensor"),
    ("shape", "has shape"),
    ("non-finite", "non-finite"),
    ("unexpected", "unexpected tensor"),
])
def test_checkpoint_velocities_are_checked(tmp_path, tok, change, problem):
    model = tiny_model(tok, seed=7)
    state = OptimizerState()
    training_step(model, [prepare_example(CORPUS[0], 0, tok)], state)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, model.params, state, step=1)
    tensors, step = read_tensor_map(path)
    key = "optimizer.block1.ffn_w1.weight.velocity"
    if change == "missing":
        del tensors[key]
    elif change == "shape":
        tensors[key] = tensors[key][:, :-1]
    elif change == "non-finite":
        tensors[key][0, 0] = np.nan
    else:
        key = "optimizer.block1.extra.velocity"
        tensors[key] = np.zeros(3, dtype=np.float32)
    write_tensor_map(path, tensors.items(), meta_step=step)
    with pytest.raises(WeightFileError, match=problem) as err:
        load_checkpoint(path, model.config, OptimizerState())
    assert f"{path}: " in str(err.value) and repr(key) in str(err.value)


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


def _ignore(step, loss):
    """A run_finetune log that prints nothing."""


def _run_config(tmp_path, tok, steps=4, checkpoint_every=2):
    """A TrainingConfig over CORPUS, with its vocab, merges and data files
    written to tmp_path."""
    vocab, merges, data = tmp_path / "vocab.tsv", tmp_path / "merges.tsv", tmp_path / "train.jsonl"
    save_vocabulary(tok, vocab, merges)
    write_examples_jsonl(CORPUS, data)
    return TrainingConfig(
        seed=3, n_hints=0, batch_size=2, steps=steps, lr=0.001, momentum=0.9,
        weight_decay=0.0005, max_len=500, checkpoint_path=str(tmp_path / "ck.bin"),
        checkpoint_every=checkpoint_every, data_path=str(data), vocab_file=str(vocab),
        merges_file=str(merges), n_layers=1, d_model=16, n_heads=2, d_ff=32,
        max_positions=128, loss_log=str(tmp_path / "loss.csv"),
    )


def test_resume_logs_each_step_once(tmp_path, tok):
    cfg = _run_config(tmp_path, tok)
    log = Path(cfg.loss_log)

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

    run_finetune(cfg, log=_ignore)
    rows = log.read_text(encoding="utf-8").splitlines()
    assert [row.split(",")[0] for row in rows] == ["step", "1", "2", "3", "4"]
    assert rows[:4] == crashed  # the resumed run repeats step 3 exactly


def test_example_that_cannot_be_encoded_names_data_file_and_pmid(tmp_path, tok):
    cfg = _run_config(tmp_path, tok)
    write_examples_jsonl(CORPUS[:2] + [RctExample("7", "Drug E was given .", "  ", SECTIONS)],
                         cfg.data_path)
    with pytest.raises(ValueError, match=f"^{re.escape(cfg.data_path)}: example '7': "
                                         "target text is empty$"):
        run_finetune(cfg, log=_ignore)
    assert not Path(cfg.checkpoint_path).exists() and not Path(cfg.loss_log).exists()


def _loss_rows(steps):
    return "step,loss\n" + "".join(f"{s},0.{s:06d}\n" for s in range(1, steps + 1))


# a kill tears a row past the last checkpoint: after its comma, or inside
# its step digits ("1" of "12,..."), where the torn step alone is <= 11
@pytest.mark.parametrize("torn", ["12,0.00", "1"])
def test_resume_drops_a_torn_last_row(tmp_path, torn):
    log = tmp_path / "loss.csv"
    log.write_text(_loss_rows(11) + torn, encoding="utf-8")
    finetune._cut_loss_log(log, 11)
    assert log.read_text(encoding="utf-8") == _loss_rows(11)
    assert list(tmp_path.iterdir()) == [log]


def test_resume_refuses_an_overlong_loss_row(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "_MAX_TEXT_LINE", 16)
    log = tmp_path / "loss.csv"
    log.write_text(_loss_rows(2) + "3," + "0" * 20 + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(log))}:4: line longer than 16"):
        finetune._cut_loss_log(log, 3)
    assert log.read_text(encoding="utf-8").startswith(_loss_rows(2))


@pytest.mark.parametrize("steps, checkpoint_every, saved", [
    (4, 2, [2, 4]), (3, 2, [2, 3]), (2, 0, [2]), (0, 2, [0]),
])
def test_each_checkpoint_is_written_once(tmp_path, tok, monkeypatch,
                                         steps, checkpoint_every, saved):
    written, save = [], finetune.save_checkpoint

    def spy(path, params, state, step):
        written.append(step)
        save(path, params, state, step)

    monkeypatch.setattr(finetune, "save_checkpoint", spy)
    cfg = _run_config(tmp_path, tok, steps, checkpoint_every)
    run_finetune(cfg, log=_ignore)
    assert written == saved
    # a rerun resumes at the last step: nothing trains, the weights are saved as they are
    before = Path(cfg.checkpoint_path).read_bytes()
    run_finetune(cfg, log=_ignore)
    assert written == saved + [steps]
    assert Path(cfg.checkpoint_path).read_bytes() == before


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


@pytest.mark.parametrize("first_line", ["# desk-scale run\n", ""])
def test_parse_training_config_with_a_byte_order_mark(tmp_path, first_line):
    # as a Windows editor saves UTF-8: the mark before a comment or before a key
    text = first_line + FULL_CONFIG.removeprefix("# desk-scale run\n")
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert parse_training_config(marked) == parse_training_config(plain)


def test_parse_training_config_missing_key(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(FULL_CONFIG.replace("momentum=0.9\n", ""), encoding="utf-8")
    with pytest.raises(ConfigError, match="momentum"):
        parse_training_config(path)


def test_readme_config_block_names_every_key(tmp_path):
    # the README's example config parses and sets each TrainingConfig field once
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
    path = tmp_path / "readme.cfg"
    path.write_text(block, encoding="utf-8")
    parse_training_config(path)
    keys = [line.partition("=")[0] for line in block.splitlines() if not line.startswith("#")]
    assert sorted(keys) == sorted(f.name for f in fields(TrainingConfig))


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
