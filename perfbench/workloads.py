"""The benchmark's three workloads, their seeded inputs and their checks.

The program is driven only through its public entry points, called via
their modules (``codec.encode_example``, ``generate.generate_question``,
...) so that the traced run can wrap them.
"""

from __future__ import annotations

import hashlib
from importlib import resources
import json
import math
import random
import string
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Optional

from morphoqg import codec, generate, metrics, model as model_mod, tensor, train as train_mod
from morphoqg.codec import (CorpusExample, Copy, EncodedExample, Quest, Trans,
                            Vocab, RESERVED_TOKENS)
from morphoqg.model import EncoderDecoder, HyperParams, build_tag_list
from morphoqg.morphology import (ALL_TYPES, TYPE_TO_POS_TAG, Morphology,
                                 default_morphology, load_irregular_table,
                                 load_regular_lexicon)
from morphoqg.toydata import make_corpus, make_overfit_corpus
from morphoqg.train import TrainConfig

_now = time.perf_counter_ns

# Criterion 5's bars on the 64 overfit pairs.
OVERFIT_EXACT_MIN = 0.90
OVERFIT_BLEU4_MIN = 95.0


# ---------------------------------------------------------------------------
# Timing items and the clock.
# ---------------------------------------------------------------------------


@dataclass
class Item:
    """One timed operation: a question, a training step, an encode, ..."""

    kind: str
    index: int
    traced: bool
    start: int = 0
    end: int = 0
    actions: int = 0   # decoder steps the item ran (decoded or teacher-forced)
    finished: bool = False  # a question whose best hypothesis emitted <eos>
    ok: bool = True
    paced_start: float = 0.0  # the recorder's paced clock (see pace.py)
    paced_end: float = 0.0

    @property
    def ms(self) -> float:
        """Wall time."""
        return (self.end - self.start) / 1e6

    @property
    def paced_ms(self) -> float:
        return (self.paced_end - self.paced_start) / 1e6


class Recorder:
    """Times items.  With a tracer, every second item of each kind is traced
    (wrappers attached for that item only), so one traced run holds both
    traced and untraced items of the same kind.  With a pacer, items also
    read its paced clock; without one, paced time is wall time."""

    def __init__(self, tracer=None, pacer=None):
        self.tracer = tracer
        self.paced_now = pacer.now if pacer is not None else _now
        self.installs: list = []
        self.items: list[Item] = []
        self.failures: list[str] = []
        self._seen: Counter = Counter()
        self._open: Optional[Item] = None

    def begin(self, kind: str) -> Item:
        index = self._seen[kind]
        self._seen[kind] += 1
        item = Item(kind, index, traced=self.tracer is not None and index % 2 == 1)
        if item.traced:
            self.tracer.attach(self.installs)
            self.tracer.set_item(f"{kind}{index}")
        self._open = item
        item.paced_start = self.paced_now()
        item.start = _now()
        return item

    def end(self) -> Item:
        item = self._open
        item.end = _now()
        item.paced_end = self.paced_now()
        if item.traced:
            self.tracer.detach()
            self.tracer.set_item(None)
        self._open = None
        self.items.append(item)
        return item

    @contextmanager
    def item(self, kind: str):
        item = self.begin(kind)
        try:
            yield item
        except Exception as exc:  # an operation failed: count it, keep running
            item.ok = False
            self.fail(f"{kind} {item.index}: {type(exc).__name__}: {exc}")
        finally:
            if self._open is item:
                self.end()

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    def of(self, kind: str) -> list[Item]:
        return [it for it in self.items if it.kind == kind]


class Clock:
    """Measures for ``seconds``, but always completes ``min_ops`` operations
    so that the output digest covers the same operations on every run."""

    def __init__(self, seconds: float, min_ops: int):
        self.deadline = time.perf_counter() + seconds
        self.min_ops = min_ops

    def more(self, done: int) -> bool:
        return done < self.min_ops or time.perf_counter() < self.deadline


class Digest:
    """SHA-256 over the first ``limit`` outputs of a run."""

    def __init__(self, limit: int):
        self.limit = limit
        self.count = 0
        self._h = hashlib.sha256()

    def add(self, text: str) -> None:
        if self.count < self.limit:
            self._h.update(text.encode("utf-8") + b"\n")
            self.count += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def digest_of(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def grammar_error(actions) -> Optional[str]:
    """The tag grammar: no tag first, no tag right after another tag."""
    prev_tag = True
    for i, action in enumerate(actions):
        is_tag = isinstance(action, Trans)
        if is_tag and prev_tag:
            return f"tag at position {i} " + ("opens the question" if i == 0 else
                                               "follows another tag")
        prev_tag = is_tag
    return None


class BeamCapture:
    """Keeps each result that ``generate.beam_search`` returns, so the
    benchmark can count the actions behind a ``generate_question`` string
    and check their grammar.  Installed for the whole run."""

    def __enter__(self):
        self.results = []
        self._original = generate.beam_search

        def capture(*args, **kwargs):
            result = self._original(*args, **kwargs)
            self.results.append(result)
            return result

        generate.beam_search = capture
        return self

    def __exit__(self, *exc):
        generate.beam_search = self._original

    def take(self):
        if len(self.results) != 1:
            raise RuntimeError(
                f"generate_question made {len(self.results)} beam_search calls, "
                "expected 1")
        return self.results.pop()


def decode_question(rec: Recorder, capture: BeamCapture, model, enc, vocab, morph,
                    beam: int, item: Item) -> str:
    """``generate_question`` plus the output checks; fills ``item.actions``."""
    question = generate.generate_question(model, enc, vocab, morph, beam_size=beam)
    result = capture.take()
    item.actions = len(result.actions) + (1 if result.finished else 0)
    problem = grammar_error(result.actions)
    if problem is None and not math.isfinite(result.score):
        problem = f"score {result.score!r} is not finite"
    if problem is not None:
        item.ok = False
        rec.fail(f"{item.kind} {item.index}: {problem}")
    item.finished = result.finished
    return question


def weight_mb(model) -> dict:
    """Sizes from tensor shapes, in MB.

    ``step_weight_mb``: the weights one decoder ``step`` reads, which is
    every tensor except the encoder's, the embedding tables (one row is
    added back) and ``att/A`` (applied once per source in ``encode``).
    ``grad_mb``: the gradient buffers ``zero_grads`` allocates per step.
    """
    skip = ("emb/", "enc_", "init/", "att/A")
    step = total = 0
    for name, arr in model.store.items():
        total += arr.nbytes
        if not name.startswith(skip):
            step += arr.nbytes
    step += model.store["emb/word"][0].nbytes
    return {"step_weight_mb": step / 1e6, "grad_mb": total / 1e6}


def layer_installs(model, morph) -> list:
    """The wrappers a traced item gets: the model instance's public
    methods, the morphology instance, ``Adam.step`` and the public
    functions the benchmark (or ``EncoderDecoder.load``/``save``) calls."""

    def outcomes(result, _args):
        word_probs, _actions, tag_probs = result
        return {"outcomes": len(word_probs) + len(tag_probs)}

    installs = [
        (codec, "build_vocabs", "codec.build_vocabs"),
        (codec, "encode_example", "codec.encode_example"),
        (generate, "generate_question", "generate.generate_question"),
        (generate, "beam_search", "generate.beam_search"),
        (generate, "realize", "codec.realize"),
        (metrics, "bleu", "metrics.bleu"),
        (metrics, "rouge_l", "metrics.rouge_l"),
        (tensor.Adam, "step", "tensor.adam_step"),
        (model_mod, "save_checkpoint", "tensor.save_checkpoint"),
        (model_mod, "load_checkpoint", "tensor.load_checkpoint"),
    ]
    if morph is not None:
        installs.append((morph, "analyze", "morphology.analyze"))
    if model is not None:
        installs += [
            (model, "prepare", "model.prepare"),
            (model, "encode", "model.encode"),
            (model, "step", "model.step"),
            (model, "outcome_distribution", "model.outcome_distribution", outcomes),
            (model, "loss_and_grads", "model.loss_and_grads"),
            (model, "zero_grads", "model.zero_grads"),
        ]
    return installs


# ---------------------------------------------------------------------------
# Synthetic inputs.
# ---------------------------------------------------------------------------

_PLAIN_POS = ("NN", "NNP", "DT", "IN", "JJ", "CD", "VB", "RB")
_NER = ("O", "O", "O", "PERSON", "DATE", "LOC")


def synthetic_words(rng: random.Random, n: int, taken=()) -> list[str]:
    """``n`` distinct lowercase words of 3 to 10 letters."""
    seen = set(taken) | set(RESERVED_TOKENS)
    out = []
    while len(out) < n:
        word = "".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 10)))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def synthetic_vocab(rng: random.Random, n_encoder: int, n_quest: int) -> Vocab:
    """Encoder and list vocabularies of the given sizes, reserved ids
    included; the list words are the encoder's most frequent words here,
    as in a real corpus, plus words of their own."""
    words = synthetic_words(rng, n_encoder - len(RESERVED_TOKENS))
    n_list = n_quest - len(RESERVED_TOKENS)
    shared = words[: n_list // 2]
    own = synthetic_words(rng, n_list - len(shared), taken=words)
    return Vocab(list(RESERVED_TOKENS) + words, list(RESERVED_TOKENS) + shared + own)


def stratified_lengths(rng: random.Random, n: int, lo: int, hi: int,
                       strata: int = 8) -> list[int]:
    """``n`` lengths in ``lo..hi``: each run of ``strata`` consecutive
    lengths has one in each equal slice of the range, in seeded order, so
    the first questions of a run cover the whole range on every seed."""
    strata = min(strata, hi + 1 - lo)
    edges = [lo + (hi + 1 - lo) * k // strata for k in range(strata + 1)]
    out = []
    while len(out) < n:
        block = [rng.randrange(edges[k], edges[k + 1]) for k in range(strata)]
        rng.shuffle(block)
        out += block
    return out[:n]


def synthetic_corpus(rng: random.Random, vocab: Vocab, n: int, lo: int, hi: int,
                     question_len: int) -> list[CorpusExample]:
    """Sources of ``lo``..``hi`` tokens drawn from the encoder vocabulary;
    questions mix list words with source words."""
    enc_words = vocab.encoder_vocab[len(RESERVED_TOKENS):]
    list_words = vocab.quest_vocab[len(RESERVED_TOKENS):]
    out = []
    for length in stratified_lengths(rng, n, lo, hi):
        tokens = [rng.choice(enc_words) for _ in range(length)]
        pos = [rng.choice(_PLAIN_POS) for _ in range(length)]
        ner = [rng.choice(_NER) for _ in range(length)]
        start = rng.randrange(length)
        end = min(length - 1, start + rng.randint(0, 2))
        question = [rng.choice(list_words if rng.random() < 0.5 else tokens)
                    for _ in range(question_len)]
        out.append(CorpusExample(tokens=tokens, pos=pos, ner=ner,
                                 answer_start=start, answer_end=end,
                                 question=question,
                                 question_pos=[rng.choice(_PLAIN_POS)
                                               for _ in question]))
    return out


def synthetic_encoded(rng: random.Random, vocab: Vocab, n: int, lo: int, hi: int,
                      n_actions: int) -> list[EncodedExample]:
    """Encoded examples with ``n_actions`` grammatical target actions."""
    enc_words = vocab.encoder_vocab[len(RESERVED_TOKENS):]
    out = []
    for _ in range(n):
        length = rng.randint(lo, hi)
        roots = [rng.choice(enc_words) for _ in range(length)]
        feats = [(rng.choice(_PLAIN_POS), rng.choice(_NER), "O") for _ in range(length)]
        start = rng.randrange(length)
        feats[start] = (feats[start][0], feats[start][1], "B")
        actions = []
        for _ in range(n_actions):
            if actions and not isinstance(actions[-1], Trans) and rng.random() < 0.2:
                actions.append(Trans(rng.choice(ALL_TYPES)))
            elif rng.random() < 0.5:
                actions.append(Copy(rng.randrange(length)))
            else:
                actions.append(Quest(rng.randrange(len(RESERVED_TOKENS), vocab.quest_size)))
        out.append(EncodedExample(source_roots=roots, source_features=feats,
                                  answer_span=(start, start), target_actions=actions,
                                  reference_question=[]))
    return out


def tag_lists(encoded) -> tuple[list, list]:
    return (build_tag_list(p for ex in encoded for (p, _n, _b) in ex.source_features),
            build_tag_list(n for ex in encoded for (_p, n, _b) in ex.source_features))


def lexicon_corpus(rng: random.Random, n: int, length: int,
                   question_len: int) -> list[CorpusExample]:
    """Sentences whose words are the bundled regular lexicon's and irregular
    table's surface forms, each with the POS tag that makes ``analyze``
    look it up, so encoding sees over a thousand distinct forms."""
    morph = default_morphology()
    forms = [(infl, TYPE_TO_POS_TAG[t]) for _root, t, infl in load_regular_lexicon()]
    forms += [(e.inflected, TYPE_TO_POS_TAG[e.type]) for e in morph.table]
    forms += [(root, "NN") for root, _t, _infl in load_regular_lexicon()]
    out = []
    for _ in range(n):
        words = [rng.choice(forms) for _ in range(length)]
        start = rng.randrange(length)
        q = [rng.choice(words) for _ in range(question_len - 1)]
        out.append(CorpusExample(
            tokens=[w for w, _ in words], pos=[p for _, p in words],
            ner=[rng.choice(_NER) for _ in words], answer_start=start,
            answer_end=start, question=["what"] + [w for w, _ in q] + ["?"],
            question_pos=["WP"] + [p for _, p in q] + ["."]))
    return out


def corpus_objs(corpus) -> list:
    return [codec.corpus_example_to_obj(ex) for ex in corpus]


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


class Workload:
    """A named set of inputs and the operations run on them.

    ``make_inputs(seed)`` is a pure function of the seed and is not timed.
    ``stage`` writes inputs the set-up reads from disk, also untimed.
    ``setup`` is what the program does before its first operation and is
    timed as ``setup_s``.  ``run`` performs operations (``op``) until the
    clock runs out, timing each part as a :class:`Recorder` item and
    checking every output.
    """

    name: str
    op: str                 # the item kind that is one operation
    parts: tuple            # the item kinds one operation is made of
    examples_per_op: int

    def stage(self, inputs: dict, workdir) -> None:
        pass


@dataclass(frozen=True)
class BeamScale:
    hyper: HyperParams = HyperParams(max_decode_len=16)
    n_encoder: int = 30_000
    n_quest: int = 1_004
    src_lo: int = 40
    src_hi: int = 128
    question_len: int = 10
    n_examples: int = 64
    digest_ops: int = 4


class BeamH512(Workload):
    """The ``generate`` CLI path per question at full model size."""

    name = "beam-h512"
    op = "question"
    parts = ("question",)
    examples_per_op = 1

    def __init__(self, scale: BeamScale = BeamScale()):
        self.scale = scale

    def make_inputs(self, seed: int) -> dict:
        sc = self.scale
        rng = random.Random(seed)
        vocab = synthetic_vocab(rng, sc.n_encoder, sc.n_quest)
        corpus = synthetic_corpus(rng, vocab, sc.n_examples, sc.src_lo, sc.src_hi,
                                  sc.question_len)
        return {"vocab": vocab, "corpus": corpus, "seed": seed,
                "digest": digest_of([vocab.encoder_vocab, vocab.quest_vocab,
                                     corpus_objs(corpus)])}

    def setup(self, inputs: dict, workdir) -> dict:
        vocab, morph = inputs["vocab"], default_morphology()
        fresh = EncoderDecoder(self.scale.hyper, vocab, build_tag_list(_PLAIN_POS),
                               build_tag_list(_NER), init_seed=inputs["seed"])
        path = str(workdir / "model.ckpt")
        fresh.save(path)
        del fresh
        model = EncoderDecoder.load(path, vocab)
        return {"model": model, "vocab": vocab, "morph": morph,
                "corpus": inputs["corpus"]}

    def run(self, state: dict, rec: Recorder, clock: Clock) -> dict:
        model, vocab, morph = state["model"], state["vocab"], state["morph"]
        corpus = state["corpus"]
        rec.installs = layer_installs(model, morph)
        digest = Digest(self.scale.digest_ops)
        with BeamCapture() as capture:
            done = 0
            while clock.more(done):
                raw = corpus[done % len(corpus)]
                with rec.item("question") as item:
                    enc = codec.encode_example(raw, vocab, morph,
                                               cutoff=model.hyper.source_cutoff,
                                               truncate=True)
                    question = decode_question(rec, capture, model, enc, vocab, morph,
                                               model.hyper.beam_size, item)
                    digest.add(question)
                done += 1
        return {"output_digest": digest.hexdigest(), "digest_ops": digest.count,
                **weight_mb(model)}


@dataclass(frozen=True)
class TrainScale:
    hyper: HyperParams = HyperParams()
    n_encoder: int = 30_000
    n_quest: int = 1_004
    n_examples: int = 256
    src_lo: int = 28
    src_hi: int = 32
    n_actions: int = 13
    batch_size: int = 16
    digest_ops: int = 2


class TrainH512(Workload):
    """``train()`` at full model size: backward pass and Adam, no decoding."""

    name = "train-h512"
    op = "step"
    parts = ("step",)

    def __init__(self, scale: TrainScale = TrainScale()):
        self.scale = scale
        self.examples_per_op = scale.batch_size

    def make_inputs(self, seed: int) -> dict:
        sc = self.scale
        rng = random.Random(seed)
        vocab = synthetic_vocab(rng, sc.n_encoder, sc.n_quest)
        encoded = synthetic_encoded(rng, vocab, sc.n_examples, sc.src_lo, sc.src_hi,
                                    sc.n_actions)
        return {"vocab": vocab, "encoded": encoded, "seed": seed,
                "digest": digest_of([vocab.encoder_vocab, vocab.quest_vocab,
                                     [codec.encoded_to_obj(ex) for ex in encoded]])}

    def setup(self, inputs: dict, workdir) -> dict:
        vocab, encoded = inputs["vocab"], inputs["encoded"]
        pos_tags, ner_tags = tag_lists(encoded)
        model = EncoderDecoder(self.scale.hyper, vocab, pos_tags, ner_tags,
                               init_seed=inputs["seed"])
        prepared = [model.prepare(ex) for ex in encoded]
        return {"model": model, "prepared": prepared, "seed": inputs["seed"]}

    def run(self, state: dict, rec: Recorder, clock: Clock) -> dict:
        model, prepared = state["model"], state["prepared"]
        rec.installs = layer_installs(model, None)
        # Run until the clock stops it; every example has 14 decoder steps.
        config = TrainConfig(max_steps=10**9, batch_size=self.scale.batch_size,
                             learning_rate=model.hyper.learning_rate,
                             seed=state["seed"], eval_every=1)
        losses = run_training(rec, model, prepared, config,
                              self.scale.batch_size * (self.scale.n_actions + 1), clock)
        digest = Digest(self.scale.digest_ops)
        for loss in losses:
            digest.add(repr(loss))
        return {"output_digest": digest.hexdigest(), "digest_ops": digest.count,
                **weight_mb(model)}


def run_training(rec: Recorder, model, prepared, config: TrainConfig,
                 tokens_per_step: float, clock: Optional[Clock] = None) -> list:
    """``train()`` with one ``step`` item per optimiser update, for
    ``config.max_steps`` steps or until ``clock`` runs out.

    ``should_stop``, called after every update because ``eval_every`` is 1
    and there is no dev set, closes the step's item and opens the next.
    """

    def should_stop(step, _model) -> bool:
        rec.end().actions = tokens_per_step
        if clock is not None and not clock.more(step):
            return True
        if step < config.max_steps:
            rec.begin("step")
        return False

    rec.begin("step")
    try:
        result = train_mod.train(model, prepared, config, should_stop=should_stop)
    except Exception as exc:  # DivergenceError and the like: a failed step
        item = rec.end()
        item.ok = False
        rec.fail(f"step {item.index}: {type(exc).__name__}: {exc}")
        return []
    for item, loss in zip(rec.of("step")[-len(result.train_losses):],
                          result.train_losses):
        if not math.isfinite(loss):
            item.ok = False
            rec.fail(f"step {item.index}: loss {loss!r} is not finite")
    return result.train_losses


@dataclass(frozen=True)
class ToyScale:
    hyper: HyperParams = HyperParams(
        word_dim=32, answer_feat_dim=8, ner_feat_dim=8, pos_feat_dim=8,
        hidden_size=64, dropout_rate=0.0, max_decode_len=16)
    lexicon_examples: int = 600
    lexicon_len: int = 24
    lexicon_question_len: int = 8
    train_steps: int = 100
    batch_size: int = 16
    extra_questions: int = 64
    overfit_pairs: int = 64
    beam: int = 4
    digest_ops: int = 1


class ToyH64(Workload):
    """The whole desk-scale loop at hidden 64: encode, train, decode, score."""

    name = "toy-h64"
    op = "pass"
    parts = ("vocab", "encode", "build", "step", "question", "score")

    def __init__(self, scale: ToyScale = ToyScale()):
        self.scale = scale
        # A pass delivers one scored question per overfit and extra example.
        self.examples_per_op = scale.overfit_pairs + scale.extra_questions

    def make_inputs(self, seed: int) -> dict:
        sc = self.scale
        rng = random.Random(seed)
        lexicon = lexicon_corpus(rng, sc.lexicon_examples, sc.lexicon_len,
                                 sc.lexicon_question_len)
        overfit = make_overfit_corpus()[: sc.overfit_pairs]
        extra = make_corpus(sc.extra_questions, seed=seed)
        return {"lexicon": corpus_objs(lexicon), "overfit": corpus_objs(overfit),
                "extra": corpus_objs(extra),
                "digest": digest_of([corpus_objs(lexicon), corpus_objs(overfit),
                                     corpus_objs(extra)])}

    def stage(self, inputs: dict, workdir) -> None:
        for key in ("lexicon", "overfit", "extra"):
            (workdir / f"{key}.jsonl").write_text(
                "".join(json.dumps(o, sort_keys=True) + "\n" for o in inputs[key]),
                encoding="utf-8")

    def setup(self, inputs: dict, workdir) -> dict:
        # A user's loop starts from corpus files and the bundled irregular
        # table (parsed here each time: ``Morphology()`` caches it).
        table = resources.files("morphoqg.data").joinpath("irregular_en.tsv")
        with table.open(encoding="utf-8") as fh:
            state = {"morph": Morphology(load_irregular_table(fh))}
        for key in ("lexicon", "overfit", "extra"):
            state[key] = codec.load_corpus_jsonl(str(workdir / f"{key}.jsonl"))
        return state

    def run(self, state: dict, rec: Recorder, clock: Clock) -> dict:
        digest = Digest(self.scale.digest_ops)
        passes = 0
        while clock.more(passes):
            # The pass is the operation; its parts are the recorder's items.
            pass_item = Item("pass", passes, traced=False,
                             paced_start=rec.paced_now(), start=_now())
            first = len(rec.items)
            questions = self._one_pass(state, rec)
            pass_item.end = _now()
            pass_item.paced_end = rec.paced_now()
            pass_item.actions = sum(it.actions for it in rec.items[first:])
            pass_item.ok = questions is not None
            rec.items.append(pass_item)
            digest.add("\n".join(questions or []))
            passes += 1
        return {"output_digest": digest.hexdigest(), "digest_ops": digest.count,
                **state.get("weight_mb", {"step_weight_mb": 0.0, "grad_mb": 0.0})}

    def _one_pass(self, state: dict, rec: Recorder) -> Optional[list]:
        sc = self.scale
        morph = state["morph"]
        rec.installs = layer_installs(None, morph)
        with rec.item("vocab") as item:
            lex_vocab = codec.build_vocabs(state["lexicon"], morph)
        if not item.ok:
            return None
        for raw in state["lexicon"]:
            with rec.item("encode"):
                codec.encode_example(raw, lex_vocab, morph)

        with rec.item("build") as item:
            vocab = codec.build_vocabs(state["overfit"], morph)
            encoded = [codec.encode_example(ex, vocab, morph)
                       for ex in state["overfit"] + state["extra"]]
            pos_tags, ner_tags = tag_lists(encoded)
            model = EncoderDecoder(sc.hyper, vocab, pos_tags, ner_tags, init_seed=42)
            prepared = [model.prepare(ex) for ex in encoded]
        if not item.ok:
            return None
        state["weight_mb"] = weight_mb(model)
        rec.installs = layer_installs(model, morph)
        n_over = len(state["overfit"])
        # Every overfit pair has the same number of decoder targets (9), so
        # a step's teacher-forced actions are batch size times that.
        targets = sum(len(p.targets) for p in prepared[:n_over]) / n_over
        config = TrainConfig(max_steps=sc.train_steps, batch_size=sc.batch_size,
                             seed=42, eval_every=1)
        losses = run_training(rec, model, prepared[:n_over], config,
                              sc.batch_size * targets)
        if len(losses) != sc.train_steps:
            return None

        questions = []
        with BeamCapture() as capture:
            for enc in encoded:
                with rec.item("question") as item:
                    questions.append(decode_question(rec, capture, model, enc, vocab,
                                                     morph, sc.beam, item))
        if len(questions) != len(encoded):
            return None
        references = [" ".join(ex.reference_question) for ex in encoded]
        with rec.item("score") as item:
            bleu_all = metrics.bleu(questions, references)
            rouge = metrics.rouge_l(questions, references)
            over_q, over_r = questions[:n_over], references[:n_over]
            exact = sum(q == r for q, r in zip(over_q, over_r)) / n_over
            bleu4 = metrics.bleu(over_q, over_r)[4]
            scores = [*bleu_all.values(), rouge, exact, bleu4]
            if not all(math.isfinite(s) for s in scores):
                raise ValueError(f"non-finite score in {scores}")
            if exact < OVERFIT_EXACT_MIN or bleu4 < OVERFIT_BLEU4_MIN:
                item.ok = False
                rec.fail(f"overfit pairs: exact match {exact:.2%} (bar "
                         f"{OVERFIT_EXACT_MIN:.0%}), BLEU-4 {bleu4:.2f} (bar "
                         f"{OVERFIT_BLEU4_MIN})")
        return questions


WORKLOADS = {w.name: w for w in (BeamH512, TrainH512, ToyH64)}

TINY = {
    "beam-h512": BeamScale(
        hyper=HyperParams(word_dim=12, answer_feat_dim=4, ner_feat_dim=4,
                          pos_feat_dim=4, hidden_size=16, beam_size=3,
                          max_decode_len=4),
        n_encoder=300, n_quest=40, src_lo=6, src_hi=12, question_len=4,
        n_examples=4, digest_ops=2),
    "train-h512": TrainScale(
        hyper=HyperParams(word_dim=12, answer_feat_dim=4, ner_feat_dim=4,
                          pos_feat_dim=4, hidden_size=16),
        n_encoder=300, n_quest=40, n_examples=8, src_lo=5, src_hi=7, n_actions=4,
        batch_size=4, digest_ops=2),
    "toy-h64": ToyScale(
        hyper=replace(ToyScale.hyper, hidden_size=8, word_dim=8, max_decode_len=6),
        lexicon_examples=6, lexicon_len=6, lexicon_question_len=3, train_steps=2,
        batch_size=4, extra_questions=3, overfit_pairs=4, beam=2, digest_ops=1),
}


def make_workload(name: str, tiny: bool = False):
    cls = WORKLOADS[name]
    return cls(TINY[name]) if tiny else cls()
