#!/bin/sh
# Demo: the same pipeline driven entirely through the CLI, at tiny scale.
# Artifacts land under demos/runs/. Runtime: about ten seconds.
set -e
cd "$(dirname "$0")"
R=runs

# without an installed console script, run the CLI from this checkout's src/
if ! command -v adapterlab >/dev/null 2>&1; then
  SRC="$(cd .. && pwd)/src"
  adapterlab() {
    PYTHONPATH="$SRC${PYTHONPATH:+:$PYTHONPATH}" python3 -m adapterlab.cli "$@"
  }
fi

adapterlab tokenizer-train --out $R/tok --seed 0 \
  --set vocab_size=512 --set synthetic.n_sentences=400

adapterlab pretrain --out $R/pre --seed 0 --set vocab=$R/tok/vocab.txt \
  --set encoder.num_layers=2 --set encoder.hidden_size=32 \
  --set encoder.num_heads=2 --set encoder.ffn_size=64 \
  --set train.max_steps=50 --set train.max_len=32 \
  --set synthetic.n_sentences=400

# --seed is the one run seed, so a train.seed exits 1, naming it
if adapterlab pretrain --out $R/pre-seeded --seed 0 --set vocab=$R/tok/vocab.txt \
  --set train.max_steps=50 --set train.seed=1; then
  exit 1
fi

adapterlab train-lang-adapter --out $R/la --seed 0 \
  --set vocab=$R/tok/vocab.txt --set backbone=$R/pre/backbone.ckpt \
  --set train.max_steps=30 --set synthetic.n=80

# the L stage trains no task adapters, so a placement with T layers exits 1,
# naming placement.t_layers
if adapterlab train-lang-adapter --out $R/la-with-t --seed 0 \
  --set vocab=$R/tok/vocab.txt --set backbone=$R/pre/backbone.ckpt \
  --set 'placement={"l_layers": [1], "t_layers": [1], "invertible": false}'; then
  exit 1
fi

# the L-adapter checkpoint fixes its adapters' sizes: a T-adapter stage may
# size only the task adapters it adds, so this exits 1, naming the key
if adapterlab train-task-adapter --out $R/ta-sized --seed 0 \
  --set vocab=$R/tok/vocab.txt --set model=$R/la/l_adapter.ckpt \
  --set adapter.l_bottleneck=4; then
  exit 1
fi

adapterlab eval-cloze --out $R/cloze --seed 0 \
  --set vocab=$R/tok/vocab.txt --set model=$R/la/l_adapter.ckpt \
  --set synthetic.n=50

adapterlab train-task-adapter --out $R/ta --seed 0 \
  --set vocab=$R/tok/vocab.txt --set model=$R/la/l_adapter.ckpt \
  --set train.max_steps=10 --set train.eval_every=10 \
  --set synthetic.n_classes=6 --set synthetic.per_class=5

adapterlab eval-clone --out $R/clone --seed 0 \
  --set vocab=$R/tok/vocab.txt --set model=$R/ta/t_adapter.ckpt \
  --set synthetic.n_classes=6 --set synthetic.per_class=5

# an L-adapter is trained beneath no task adapters, so a backbone that places
# them exits 1, naming the file and its T layers
if adapterlab train-lang-adapter --out $R/la-on-t --seed 0 \
  --set vocab=$R/tok/vocab.txt --set backbone=$R/ta/t_adapter.ckpt \
  --set train.max_steps=3 --set synthetic.n=80; then
  exit 1
fi

# pair mode: a T-adapter with a pair head, scored by F1 on held-out pairs
adapterlab train-task-adapter --out $R/ta-pair --seed 0 \
  --set vocab=$R/tok/vocab.txt --set model=$R/la/l_adapter.ckpt \
  --set task=pair_classification --set n_pairs=40 \
  --set train.max_steps=10 --set train.eval_every=10 \
  --set synthetic.n_classes=6 --set synthetic.per_class=5

adapterlab eval-clone --out $R/clone-pair --seed 0 \
  --set vocab=$R/tok/vocab.txt --set model=$R/ta-pair/t_adapter.ckpt \
  --set task=pair_classification --set n_pairs=40 \
  --set synthetic.n_classes=6 --set synthetic.per_class=5

# a retrieval dataset file: one JSON object per line; keys the record type
# does not know (here "source") are dropped, and the first bad line exits 1
: > $R/clone.jsonl
for c in max min sum; do
  for m in 1 2 3; do
    printf '{"id": "%s-%s", "label": "%s", "code": "x = %s ( a , %s ) ;", "language": "alpha", "source": "demo"}\n' \
      $c $m $c $c $m >> $R/clone.jsonl
  done
done
adapterlab eval-clone --out $R/clone-file --seed 0 \
  --set vocab=$R/tok/vocab.txt --set model=$R/ta/t_adapter.ckpt \
  --set data=$R/clone.jsonl
# the file replaces the generated classes, so sizing them exits 1
if adapterlab eval-clone --out $R/clone-file-sized --seed 0 \
  --set vocab=$R/tok/vocab.txt --set model=$R/ta/t_adapter.ckpt \
  --set data=$R/clone.jsonl --set synthetic.n_classes=6; then
  exit 1
fi

adapterlab budget --paper-scale --out $R/budget

# --paper-scale fixes every size, so that mode reads no encoder key
if adapterlab budget --paper-scale --out $R/budget-sized --set encoder.num_layers=2; then
  exit 1
fi

# each subcommand reads its own keys; one it never reads exits 1, naming it
if adapterlab budget --out $R/budget-model --set model=$R/la/l_adapter.ckpt; then
  exit 1
fi

adapterlab sweep-layers --out $R/sweep --seed 0 \
  --set vocab=$R/tok/vocab.txt --set model=$R/la/l_adapter.ckpt \
  --set synthetic.n=30

# truncating the trained stack trains nothing, so a train key exits 1
if adapterlab sweep-layers --out $R/sweep-trained --seed 0 \
  --set vocab=$R/tok/vocab.txt --set model=$R/la/l_adapter.ckpt \
  --set synthetic.n=30 --set train.max_steps=2; then
  exit 1
fi

# a sub-range of placements: each one a view of the one loaded model
adapterlab sweep-layers --out $R/sweep-upper --seed 0 \
  --set vocab=$R/tok/vocab.txt --set model=$R/la/l_adapter.ckpt \
  --set synthetic.n=30 --set layers=1..2

# each placement retrained from the backbone with fresh L-adapters
adapterlab sweep-layers --retrain-per-layer --out $R/sweep-retrain --seed 0 \
  --set vocab=$R/tok/vocab.txt --set model=$R/la/l_adapter.ckpt \
  --set synthetic.n=30 --set train.max_steps=2

adapterlab zero-shot --out $R/zs --seed 0 \
  --adapter $R/la/l_adapter.ckpt --eval-language beta \
  --set vocab=$R/tok/vocab.txt --set synthetic.n=30

# an adapter checkpoint stores only what its run trained, and names the
# checkpoint it was trained on by path and digest: with another seed's
# pretrain in place of pre/backbone.ckpt, the L-adapter exits 1, naming both
adapterlab pretrain --out $R/pre-other --seed 1 --set vocab=$R/tok/vocab.txt \
  --set encoder.num_layers=2 --set encoder.hidden_size=32 \
  --set encoder.num_heads=2 --set encoder.ffn_size=64 \
  --set train.max_steps=50 --set train.max_len=32 \
  --set synthetic.n_sentences=400
mv $R/pre/backbone.ckpt $R/pre/backbone.ckpt.kept
cp $R/pre-other/backbone.ckpt $R/pre/backbone.ckpt
if adapterlab eval-cloze --out $R/cloze-other-backbone --seed 0 \
  --set vocab=$R/tok/vocab.txt --set model=$R/la/l_adapter.ckpt \
  --set synthetic.n=50 2> $R/error.json; then
  exit 1
fi
mv $R/pre/backbone.ckpt.kept $R/pre/backbone.ckpt
cat $R/error.json
grep -q "$R/la/l_adapter.ckpt: its parent .*/$R/pre/backbone.ckpt holds other weights" \
  $R/error.json

# a checkpoint records its vocabulary: another seed's vocabulary of the same
# size exits 1, naming both files
adapterlab tokenizer-train --out $R/tok-other --seed 1 \
  --set vocab_size=512 --set synthetic.n_sentences=400
if adapterlab eval-cloze --out $R/cloze-other-vocab --seed 0 \
  --set vocab=$R/tok-other/vocab.txt --set model=$R/la/l_adapter.ckpt \
  --set synthetic.n=50 2> $R/error.json; then
  exit 1
fi
cat $R/error.json
grep -q "$R/la/l_adapter.ckpt: .* and $R/tok-other/vocab.txt is vocabulary" $R/error.json

echo "done; reports under demos/$R/*/report.json"
