"""Prefix-LM conclusion generation for trial abstracts.

A small numpy-based stack: reverse-mode autodiff tensors, byte-level BPE
with category-aware merges, a pre-layer-norm transformer with causal and
prefix attention masks, SGD fine-tuning with hint-word conditioning,
greedy decoding, ROUGE scoring and human-evaluation aggregation.
"""

__version__ = "0.1.0"
