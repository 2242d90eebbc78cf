"""The library surface that perfbench/tracing.py wraps.

tracing.install reads Model.forward, finetune.backward, finetune.cross_entropy
and the other wrapped names before it looks at the trace flag, so a change
that drops or renames one of them breaks every benchmark run, untraced ones
too. This runs the tracer in a fresh process, as the benchmark does, over one
training step and one generate call on a tiny model.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
root = sys.argv[1]
sys.path[:0] = [root + "/perfbench", root + "/src"]
import tracing
rec = tracing.Recorder(trace=True)
tracing.install(rec)
from prefixlm import finetune, generate
from prefixlm.bpe import train_merges
from prefixlm.data import RctExample
from prefixlm.model import Model, ModelConfig, init_params

rec.phase = "round:0"
source = "Drug A reduced pain scores ."
tok = train_merges([source, finetune.HINTLESS_PROMPT, "It works ."], 20)
config = ModelConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16,
                     vocab_size=len(tok.vocab), max_positions=64)
model = Model(config, init_params(config, seed=0))
example = finetune.prepare_example(RctExample("1", source, "It works .", ()), 0, tok)
finetune.training_step(model, [example], finetune.OptimizerState())
generate.generate_greedy(model, source, [], generate.GenerationConfig(max_new_tokens=3), tok)
print(json.dumps(sorted({s["name"] for s in rec.spans})))
"""


def test_tracer_spans_training_and_generation():
    run = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    names = set(json.loads(run.stdout.splitlines()[-1]))
    for name in ("finetune.step", "tensor.cross_entropy", "tensor.backward",
                 "finetune.sgd_update", "generate.request", "bpe.encode"):
        assert name in names, (name, sorted(names))
