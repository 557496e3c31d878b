"""Demo: the full transfer pipeline at miniature scale.

Pretrains a small masked-LM backbone on synthetic NL, trains a language
adapter on toy code with the backbone frozen, and compares held-out cloze
accuracy; then trains a task adapter for clone retrieval and compares MAP@R
against the bare mean-pool baseline. A smaller/faster version of the
directional experiments in the acceptance suite (expect a few minutes).

Run: python3 demos/05_transfer_pipeline.py
"""

import numpy as np

from adapterlab.adapters import AdapterConfig, PlacementPlan, attach
from adapterlab.encoder import Encoder, EncoderConfig
from adapterlab.synth import (build_cloze_examples, synth_clone_classes,
                              synth_code_records, synth_nl_corpus)
from adapterlab.tasks import embed_corpus, eval_cloze, map_at_r
from adapterlab.tokenizer import train_bpe
from adapterlab.training import (TrainConfig, holdout, pretrain_mlm,
                                 train_language_adapter, train_task_adapter)

nl = synth_nl_corpus(2000, seed=0)
vocab = train_bpe(nl, 2048)
cfg = EncoderConfig(num_layers=4, hidden_size=64, num_heads=4, ffn_size=256,
                    vocab_size=vocab.size, max_positions=128)

print("== pretraining backbone on synthetic NL ==")
encoder = Encoder(cfg, seed=0)
rep = pretrain_mlm(encoder, nl, vocab,
                   TrainConfig(learning_rate=1e-3, max_steps=300,
                               eval_every=150, max_len=48, seed=0))
print("val MLM loss curve:", [round(v, 3) for v in rep.val_curve])
backbone_state = encoder.params.state_dict()

print("\n== language adapter on toy code (backbone frozen) ==")
probes = build_cloze_examples(synth_code_records("alpha", 150, seed=99), vocab)
base_acc = eval_cloze(encoder, probes, vocab.mask_id).accuracy
attach(encoder, PlacementPlan.full(4, invertible=True), seed=2)
code = [r.code for r in synth_code_records("alpha", 400, seed=1)]
train_language_adapter(encoder, code, vocab,
                       TrainConfig(learning_rate=1e-3, batch_size=16,
                                   max_steps=400, eval_every=200, max_len=64,
                                   seed=0, mask_rate=0.3))
adapted_acc = eval_cloze(encoder, probes, vocab.mask_id).accuracy
print(f"cloze accuracy: backbone {base_acc:.3f} -> with adapter {adapted_acc:.3f}")

print("\n== task adapter for clone retrieval ==")
items = synth_clone_classes(10, 10, seed=3)
# per-class holdouts, so every test and validation class has >= 2 members:
# 2 of each class's 10 members go to test, then 2 of the other 8 to validation
rest, test = holdout(items, 0, label=lambda r: r.label)
train, val = holdout(rest, 0, label=lambda r: r.label)
print(f"split: {len(train)} train / {len(val)} validation / {len(test)} test items")

enc2 = Encoder(cfg, seed=0)
enc2.params.load_state_dict(backbone_state)
res = embed_corpus(enc2, test, vocab, 96)
baseline = map_at_r(res.embeddings, res.labels, res.ids).map_at_r
attach(enc2, PlacementPlan.full(4, t_adapters=True, invertible=True),
       AdapterConfig(t_bottleneck=16), seed=2)
train_task_adapter(enc2, train, val, vocab,
                   TrainConfig(learning_rate=3e-3, max_steps=200,
                               eval_every=100, max_len=96, seed=0),
                   "retrieval")
res = embed_corpus(enc2, test, vocab, 96)
tuned = map_at_r(res.embeddings, res.labels, res.ids).map_at_r
print(f"test MAP@R: bare mean-pool {baseline:.3f} -> with task adapter {tuned:.3f}")
