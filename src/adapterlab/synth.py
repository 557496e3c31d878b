"""Synthetic corpora: a small English-like pretraining corpus, toy code
languages with max/min cloze probes, and clone-retrieval classes built by
systematic renaming and reordering; and the data sources of a run config,
which read a configured dataset file or fall back to these generators.

The NL corpus deliberately covers the code alphabet (digits, brackets,
operators) and contains the words "max" and "min", so the shared tokenizer
trained on NL alone can represent code and the cloze candidates become
single vocabulary tokens.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .corpus import (ClozeRecord, CorpusError, CorpusRecord, PairRecord,
                     RetrievalRecord, load_jsonl)
from .schema import JsonConfig, check, read_text
from .tokenizer import Vocabulary

_NL_WORDS = (
    "the a an of to in on for with and or but not is are was were be been has "
    "have had this that these those it they we you he she one two three small "
    "large great little good bad new old first last long short high low same "
    "other time year day way thing man woman child world life hand part place "
    "case week company system program question work number point home water "
    "room area money story fact month lot right study book eye job word side "
    "kind head house service friend power hour game line end member law car "
    "city community name team minute idea body back level office door health "
    "person art war history result change morning reason research moment air "
    "teacher force education value values max min limit bound range total sum "
    "count measure scale rate big upper lower"
).split()

_NL_MATH_TEMPLATES = (
    "the max of {a} and {b} is written max ( {a} , {b} ) .",
    "the min of {a} and {b} is written min ( {a} , {b} ) .",
    "let x = {a} + {b} ; then y = x * {c} ;",
    "we set {{ the value }} to [ {a} , {b} , {c} ] and stop .",
    "a bound like z = {a} - {b} ; holds in each case .",
    "compare {a} < {b} and {b} > {c} before the end .",
    "the total is sum ( {a} , {b} ) / {c} in this case .",
)


def synth_nl_corpus(n_sentences: int = 4000, seed: int = 0) -> list[str]:
    """Multi-line paragraphs so the tokenizer alphabet covers newlines."""
    rng = np.random.default_rng(seed)
    # Zipf-ish weights so BPE sees a realistic frequency profile.
    ranks = np.arange(1, len(_NL_WORDS) + 1)
    weights = 1.0 / ranks
    weights /= weights.sum()
    sentences = []
    for _ in range(n_sentences):
        if rng.random() < 0.25:
            tpl = _NL_MATH_TEMPLATES[rng.integers(len(_NL_MATH_TEMPLATES))]
            sentences.append(tpl.format(a=rng.integers(10), b=rng.integers(10),
                                        c=1 + rng.integers(9)))
        else:
            n = 5 + int(rng.integers(10))
            words = rng.choice(len(_NL_WORDS), size=n, p=weights)
            sentences.append(" ".join(_NL_WORDS[i] for i in words) + " .")
    out = []
    i = 0
    while i < len(sentences):
        k = 1 + int(rng.integers(3))
        out.append("\n".join(sentences[i:i + k]))
        i += k
    return out


_LANG_STYLES = {
    "alpha": {"def": "fn", "open": "{", "close": "}", "ret": "give",
              "hi": "big", "lo": "small"},
    "beta": {"def": "proc", "open": "begin", "close": "finish", "ret": "yield",
             "hi": "upper", "lo": "lower"},
}
LANGUAGES = sorted(_LANG_STYLES)


def synth_code_records(language: str = "alpha", n: int = 600,
                       seed: int = 0) -> list[CorpusRecord]:
    """Toy programs where a cue identifier determines max vs min:
    ``big = max ( a , b ) ;`` / ``small = min ( a , b ) ;``."""
    if language not in _LANG_STYLES:
        raise ValueError(f"unknown synthetic language {language!r}; "
                         f"choose from {LANGUAGES}")
    s = _LANG_STYLES[language]
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        a, b = f"v{rng.integers(10)}", f"w{rng.integers(10)}"
        lines = [f"{s['def']} f{rng.integers(100)} ( {a} , {b} ) {s['open']}"]
        # exactly one max/min statement per record, cued by its target name
        want_max = rng.random() < 0.5
        cue = (f"{s['hi']} = max ( {a} , {b} ) ;" if want_max
               else f"{s['lo']} = min ( {a} , {b} ) ;")
        fillers = [f"t{rng.integers(10)} = {a} {'+-*'[rng.integers(3)]} {rng.integers(10)} ;"
                   for _ in range(1 + int(rng.integers(3)))]
        body = fillers + [cue]
        rng.shuffle(body)
        lines.extend(body)
        lines.append(f"{s['ret']} {s['hi'] if want_max else s['lo']} ; {s['close']}")
        nl = None
        if rng.random() < 0.3:
            nl = "computes a value from two inputs"
        records.append(CorpusRecord(id=f"{language}-{i}", language=language,
                                    code="\n".join(lines), nl=nl))
    return records


CLOZE_CANDIDATES = ("max", "min")  # the cue words a synthetic probe masks


def build_cloze_examples(records: list[CorpusRecord], vocab: Vocabulary,
                         candidates: tuple[str, ...] = CLOZE_CANDIDATES) -> list[ClozeRecord]:
    """Mask single-token occurrences of the candidate words in tokenized code.

    Skips records where a candidate word does not map to one vocabulary
    token (the shared tokenizer may not cover it).
    """
    cand_ids = []
    for word in candidates:
        # mid-text occurrences carry their leading space in the token
        for form in (f" {word}", word):
            enc = vocab.encode(form, add_special=False)
            if len(enc) == 1 and enc[0] != vocab.unk_id:
                cand_ids.append(enc[0])
                break
    if len(cand_ids) < 2:
        raise ValueError("candidate words must be single vocabulary tokens")
    examples = []
    for rec in records:
        ids = vocab.encode(rec.code)
        for pos, tok in enumerate(ids):
            if tok in cand_ids:
                masked = list(ids)
                masked[pos] = vocab.mask_id
                examples.append(ClozeRecord(
                    id=f"{rec.id}@{pos}", tokens=masked, mask_index=pos,
                    candidates=list(cand_ids), answer=tok,
                    language=rec.language, has_nl=rec.nl is not None))
                break  # one probe per record keeps examples independent
    return examples


_FUNCS = ("max", "min", "sum", "abs", "len", "pow")
_OPS = ("+", "-", "*", "/")


def synth_clone_classes(n_classes: int = 20, per_class: int = 20,
                        seed: int = 0, language: str = "alpha") -> list[RetrievalRecord]:
    """Clone-retrieval classes: each class is a distinct combination of three
    library calls (plus an operator assignment once the combinations run out);
    members differ by systematic renaming, fresh literals, and reordering of
    the statements."""
    s = _LANG_STYLES[language]
    rng = np.random.default_rng(seed)
    combos = list(itertools.combinations(range(len(_FUNCS)), 3))
    records = []
    for c in range(n_classes):
        funcs = combos[c % len(combos)]
        crng = np.random.default_rng(seed * 1000 + c // len(combos))
        ops = [_OPS[crng.integers(len(_OPS))] for _ in funcs]
        for m in range(per_class):
            names = [f"{chr(97 + int(rng.integers(26)))}{rng.integers(10)}"
                     for _ in range(4)]
            stmts = []
            for slot, fi in enumerate(funcs):
                va, vb = names[slot % 4], names[(slot + 1) % 4]
                lit = rng.integers(10)
                stmts.append(f"{va} = {_FUNCS[fi]} ( {va} {ops[slot]} {lit} , {vb} ) ;")
            perm = rng.permutation(len(stmts))
            stmts = [stmts[int(j)] for j in perm]
            code = "\n".join(
                [f"{s['def']} g{rng.integers(100)} ( {names[0]} , {names[1]} ) {s['open']}"]
                + stmts + [f"{s['ret']} {names[0]} ; {s['close']}"])
            records.append(RetrievalRecord(id=f"c{c:02d}-m{m:02d}",
                                           label=f"class{c:02d}",
                                           code=code, language=language))
    return records


def pairs_from_retrieval(items: list[RetrievalRecord], n_pairs: int,
                         seed: int = 0) -> list[PairRecord]:
    """Balanced clone / not-clone pairs drawn from retrieval classes."""
    rng = np.random.default_rng(seed)
    by_class: dict[str, list[RetrievalRecord]] = {}
    for it in items:
        by_class.setdefault(it.label, []).append(it)
    labels = sorted(by_class)
    if n_pairs and (len(labels) < 2 or min(map(len, by_class.values())) < 2):
        raise CorpusError("clone pairs need two or more classes of two or more items")
    pairs = []
    for i in range(n_pairs):
        positive = i % 2 == 0
        if positive:
            lab = labels[rng.integers(len(labels))]
            a, b = rng.choice(len(by_class[lab]), size=2, replace=False)
            ra, rb = by_class[lab][a], by_class[lab][b]
        else:
            la, lb = rng.choice(len(labels), size=2, replace=False)
            ra = by_class[labels[la]][rng.integers(len(by_class[labels[la]]))]
            rb = by_class[labels[lb]][rng.integers(len(by_class[labels[lb]]))]
        pairs.append(PairRecord(id_a=ra.id, id_b=rb.id, code_a=ra.code,
                                code_b=rb.code, label=int(positive)))
    return pairs


# -- data sources of a run config: a dataset path when one is set, else the
# generators above, sized and seeded by the config's "synthetic" object ------

@dataclasses.dataclass(frozen=True)
class SyntheticSpec(JsonConfig):
    """The ``synthetic`` object of a run config. A null ``seed`` is the
    subcommand's seed; a null ``n`` is 600 training programs or 200 probe
    programs."""
    seed: int | None = None
    n: int | None = None
    language: str = "alpha"
    n_sentences: int = 4000
    n_classes: int = 20
    per_class: int = 20

    def __post_init__(self):
        super().__post_init__()
        check(self, "null or >= 0", lambda v: v is None or v >= 0, "seed")
        check(self, "null or >= 1", lambda v: v is None or v >= 1, "n")
        check(self, ">= 1", lambda v: v >= 1, "n_sentences", "n_classes", "per_class")
        check(self, f"one of {LANGUAGES}", lambda v: v in LANGUAGES,
              "language")

    def seed_or(self, seed: int) -> int:
        return seed if self.seed is None else self.seed


def held_out_seed(seed: int) -> int:
    """Synthetic-data seed of the evaluation subcommands. The training
    subcommands generate from the run seed itself, so by default an
    evaluation never scores the programs its run seed trained on."""
    return seed + 2 ** 31


def nl_texts(path: str | None, spec: SyntheticSpec, seed: int) -> list[str]:
    """NL pretraining corpus: a text file (one document per line) or synthetic."""
    if path:
        lines = read_text(path, CorpusError).splitlines()
        texts = [ln for ln in lines if ln.strip()]
        if not texts:
            raise CorpusError(f"corpus file {path} has no non-empty lines")
        return texts
    return synth_nl_corpus(spec.n_sentences, seed=spec.seed_or(seed))


def code_records(path: str | None, spec: SyntheticSpec, seed: int) -> list[CorpusRecord]:
    """Code corpus: unlabeled JSON-lines or the synthetic toy language."""
    if path:
        return load_jsonl(path, CorpusRecord)
    return synth_code_records(spec.language, spec.n or 600, seed=spec.seed_or(seed))


def retrieval_records(path: str | None, spec: SyntheticSpec,
                      seed: int) -> list[RetrievalRecord]:
    """Clone-retrieval items: retrieval JSON-lines or synthetic classes."""
    if path:
        return load_jsonl(path, RetrievalRecord)
    return synth_clone_classes(spec.n_classes, spec.per_class,
                               seed=spec.seed_or(seed), language=spec.language)


def cloze_examples(path: str | None, spec: SyntheticSpec, seed: int, vocab: Vocabulary,
                   language: str | None = None) -> list[ClozeRecord]:
    """Cloze probes: cloze JSON-lines, or built from synthetic programs
    (in ``language`` when given)."""
    if path:
        return load_jsonl(path, ClozeRecord)
    records = synth_code_records(language or spec.language, spec.n or 200,
                                 seed=spec.seed_or(seed))
    examples = build_cloze_examples(records, vocab)
    if not examples:
        raise CorpusError("no cloze probes could be built from the corpus")
    return examples
