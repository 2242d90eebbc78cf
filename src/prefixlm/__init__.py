"""Prefix-LM conclusion generation for trial abstracts.

A small numpy-based stack: reverse-mode autodiff tensors, byte-level BPE
with category-aware merges, a pre-layer-norm transformer with causal and
prefix attention masks, SGD fine-tuning with hint-word conditioning,
greedy decoding, ROUGE scoring and human-evaluation aggregation.
"""

__version__ = "0.1.0"

from .bpe import (  # noqa: F401
    MergeTable,
    Tokenizer,
    Vocabulary,
    load_vocabulary,
    save_vocabulary,
    train_merges,
)
from .data import (  # noqa: F401
    RctAbstract,
    RctExample,
    build_examples,
    corpus_stats,
    parse_corpus,
    to_conclusion_task,
)
from .finetune import (  # noqa: F401
    EncodedExample,
    OptimizerState,
    TrainingConfig,
    filter_long,
    prepare_example,
    run_finetune,
    sgd_update,
    training_step,
)
from .generate import GenerationConfig, generate_greedy  # noqa: F401
from .model import (  # noqa: F401
    Model,
    ModelConfig,
    ModelParams,
    build_causal_mask,
    build_prefix_mask,
    init_params,
    param_count,
)
from .rouge import (  # noqa: F401
    AnnotationRecord,
    RatingRecord,
    RougeScore,
    aggregate_annotations,
    aggregate_ratings,
    rouge_l,
    rouge_n,
    score_run,
)
from .tensor import ComputationTape, Tensor, backward  # noqa: F401
