"""Attention masks and the transformer stack
============================================

The same stack runs as a plain left-to-right language model (causal mask)
or as a conditional generator (prefix mask: bidirectional source, causal
target). This demo prints the masks and checks what each one lets leak.
"""

import numpy as np

from prefixlm.model import (
    Model,
    ModelConfig,
    build_causal_mask,
    build_prefix_mask,
    init_params,
    param_count,
)


def show(mask):
    for row in mask:
        print("  " + " ".join("  0" if v == 0 else " -i" for v in row))


print("causal mask, T=4 (token i sees 0..i):")
show(build_causal_mask(4))

print("\nprefix mask, m=2 source + n=2 target (staircase):")
show(build_prefix_mask(2, 2))

config = ModelConfig(
    n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab_size=32, max_positions=16
)
model = Model(config, init_params(config, seed=0))
print(f"\nmodel: {param_count(config):,} parameters "
      f"({config.n_layers} blocks, d_model {config.d_model})")

tokens = [3, 7, 11, 2, 9, 4]

# under the causal mask, changing a later token cannot move earlier logits
causal = build_causal_mask(len(tokens))
before = model.forward(tokens, causal).data
perturbed = list(tokens)
perturbed[4] = 21
after = model.forward(perturbed, causal).data
print("\ncausal: rows 0..3 identical after perturbing token 4:",
      bool(np.array_equal(before[:4], after[:4])))

# under the prefix mask the source ignores the target entirely, while every
# target position reacts to any source edit
prefix = build_prefix_mask(3, 3)
base = model.forward(tokens, prefix).data
target_edit = list(tokens)
target_edit[5] = 21
edited = model.forward(target_edit, prefix).data
print("prefix: source rows identical after target edit:",
      bool(np.array_equal(base[:3], edited[:3])))

source_edit = list(tokens)
source_edit[0] = 21
edited = model.forward(source_edit, prefix).data
print("prefix: every target row moved after source edit:",
      bool(all(not np.array_equal(base[j], edited[j]) for j in range(3, 6))))

# the full-scale configuration of the same architecture
full = ModelConfig(n_layers=12, d_model=768, n_heads=12, d_ff=3072,
                   vocab_size=50257, max_positions=1024)
print(f"\nfull-scale config would have {param_count(full):,} parameters")
