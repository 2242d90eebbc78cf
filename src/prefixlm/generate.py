"""Greedy autoregressive decoding conditioned on a source and hint prefix.

The generated sequence uses exactly the training layout (source, separator,
forced hint words, conclusion). The prompt runs through the model once
under the prefix rule; each new token then adds one row per layer, attending
over the cached keys and values of every earlier position. Since no
position attends to a later one, this gives the same logits as re-running
the full forward pass. The argmax token wins, ties going to the lowest
token id; generation stops at end-of-text or the token budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bpe import Tokenizer
from .finetune import encode_source
from .model import Model

__all__ = ["GenerationConfig", "generate_greedy"]


@dataclass
class GenerationConfig:
    n_hints: int
    max_new_tokens: int

    def __post_init__(self):
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if self.n_hints < 0:
            raise ValueError("n_hints must be >= 0")


def generate_greedy(
    model: Model,
    source_text: str,
    hint_words,
    config: GenerationConfig,
    tokenizer: Tokenizer,
):
    """Generate a conclusion; returns (text, raw token trace).

    The raw trace starts with the forced hint tokens verbatim and may end
    with the end-of-text id; the returned text covers the same tokens with
    end-of-text stripped. Deterministic for fixed params and inputs.
    """
    hint_words = list(hint_words)
    if len(hint_words) != config.n_hints:
        raise ValueError(
            f"got {len(hint_words)} hint words for n_hints={config.n_hints}"
        )
    source_ids = encode_source(source_text, config.n_hints, tokenizer)
    prefix_ids = tokenizer.encode(" ".join(hint_words))
    prompt = source_ids + prefix_ids
    # the last new token is emitted, never fed back in
    if len(prompt) + config.max_new_tokens - 1 > model.config.max_positions:
        raise ValueError(
            f"source+prefix of {len(prompt)} tokens leaves no room for "
            f"{config.max_new_tokens} new tokens under max_positions "
            f"{model.config.max_positions}"
        )

    eot = tokenizer.vocab.end_of_text_id
    trace = list(prefix_ids)
    logits, cache = model.prefill(prompt, len(source_ids))
    for k in range(config.max_new_tokens):
        next_id = int(np.argmax(logits))  # argmax: lowest id wins ties
        trace.append(next_id)
        if next_id == eot or k == config.max_new_tokens - 1:
            break
        logits = model.step(cache, next_id)

    text_ids = [i for i in trace if i != eot]
    return tokenizer.decode(text_ids), trace
