"""Command-line front end for the question-generation toolkit.

Subcommands cover the whole pipeline: vocabulary statistics over an
external word list (``analyze-vocab``), corpus encoding into action
sequences (``encode``) and the reverse realisation (``decode``),
vocabulary construction (``build-vocab``), model training (``train``),
beam-search question generation (``generate``), BLEU/ROUGE-L scoring
(``score``), output-layer latency benchmarking (``bench``) and a
built-in integrity suite (``selftest``).

Exit codes are fixed: 0 success, 1 usage error (the message names the
offending flag), 2 data error (unreadable, malformed or inconsistent
input), 3 runtime error (numeric failure, shape mismatch, self-test
failure).  All randomness flows from ``--seed`` (default 42); with the
same seed and the same input files, ``encode``, ``build-vocab``,
``train`` and ``generate`` write byte-identical outputs (``generate``
keeps its timing report in a separate file for exactly that reason).

A config file (``--config FILE``) supplies defaults as ``key = value``
pairs grouped into sections: ``[general]`` applies to every subcommand,
and a section named after a subcommand applies to that one alone.
Values given as command-line flags always win over config values.  When
the environment variable ``MORPHOQG_DATA`` is set, relative paths are
resolved against it.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import List, Optional, Sequence

import numpy as np

from .bench import bench_decode, make_three_action_layer, time_layer
from .codec import (
    DEFAULT_CUTOFF,
    DEFAULT_ENCODER_CAP,
    DEFAULT_QUEST_CAP,
    RESERVED_TOKENS,
    CorpusExample,
    EncodedExample,
    Vocab,
    build_vocabs,
    dump_encoded_jsonl,
    encode_example,
    load_corpus_jsonl,
    load_encoded_jsonl,
    realize,
)
from .errors import (
    DataError,
    FileError,
    MorphoQGError,
    ParseError,
    RuntimeFailure,
)
from .generate import generate_question
from .metrics import score_report
from .model import EncoderDecoder, HyperParams, build_tag_list
from .morphology import (
    ALL_TYPES,
    TYPE_TO_POS_TAG,
    default_morphology,
    load_regular_lexicon,
)
from .tensor import grad_check
from .toydata import make_corpus, tiny_model_and_example
from .train import TrainConfig, train
from .vocab_analysis import analyze_external_vocab

DATA_ENV = "MORPHOQG_DATA"
_SPLIT_NAMES = {2: ("train", "dev"), 3: ("train", "dev", "test")}


# -- shared plumbing ---------------------------------------------------


def resolve_path(path: Optional[str]) -> Optional[str]:
    """Prefix a relative path with $MORPHOQG_DATA when that is set."""
    if path is None or path == "-" or os.path.isabs(path):
        return path
    base = os.environ.get(DATA_ENV)
    return os.path.join(base, path) if base else path


def _read_lines(path: str) -> List[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise FileError(f"cannot read {path}: {exc}") from None


def _write_lines(path: Optional[str], lines: Sequence[str]) -> None:
    text = "".join(line + "\n" for line in lines)
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise FileError(f"cannot write {path}: {exc}") from None


def _write_json(path: Optional[str], obj) -> None:
    _write_lines(path, [json.dumps(obj, indent=2, sort_keys=True)])


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit 1 instead of argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    """Flag-combination problem argparse cannot express; exits 1."""


def _split_ratios(text: str) -> List[float]:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated ratios, got {text!r}")
    if len(parts) not in _SPLIT_NAMES:
        raise argparse.ArgumentTypeError("expected 2 or 3 ratios")
    if any(p <= 0.0 for p in parts) or abs(sum(parts) - 1.0) > 1e-6:
        raise argparse.ArgumentTypeError(
            "ratios must be positive and sum to 1")
    return parts


def _int_at_least(low: int):
    """An argparse type that accepts integers >= ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return integer


_positive_int = _int_at_least(1)


def _dropout_rate(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < 1.0:  # also false for NaN
        raise argparse.ArgumentTypeError(f"expected a rate in [0, 1), got {text!r}")
    return value


def _learning_rate(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(
            f"expected a finite number > 0, got {text!r}")
    return value


def _clip_norm(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"expected a finite number >= 0 (0 turns clipping off), got {text!r}")
    return value


def _bool_from_str(raw: str, where: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ParseError(f"{where}: expected a boolean, got {raw!r}")


# -- config file -------------------------------------------------------


def _prescan(argv: Sequence[str]):
    """Find --config and the subcommand without a full parse."""
    config = None
    subcmd = None
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config" and i + 1 < len(argv):
            config = argv[i + 1]
            i += 2
            continue
        if tok.startswith("--config="):
            config = tok.split("=", 1)[1]
        elif subcmd is None and not tok.startswith("-"):
            subcmd = tok
        i += 1
    return config, subcmd


def _convert_config_value(action: argparse.Action, raw: str, where: str):
    if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
        return _bool_from_str(raw, where)
    if action.type is not None:
        try:
            return action.type(raw)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ParseError(f"{where}: bad value {raw!r} ({exc})") from None
    return raw


def _flag_actions(sub: argparse.ArgumentParser) -> dict:
    return {a.dest: a for a in sub._actions
            if a.option_strings and a.dest not in ("help", "config")}


def _apply_config(subparsers: dict, path: str, subcmd: Optional[str]) -> None:
    """Turn config-file values into per-subparser defaults.

    Flags typed on the command line still win: these only replace the
    built-in defaults, they are never treated as explicit arguments.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FileError(f"cannot read config {path}: {exc}") from None
    cfg = configparser.ConfigParser(interpolation=None)
    try:
        cfg.read_string(text, source=path)
    except configparser.Error as exc:
        raise ParseError(f"bad config {path}: {exc}") from None

    for section in cfg.sections():
        if section != "general" and section not in subparsers:
            raise ParseError(
                f"config {path}: section [{section}] does not name a subcommand")

    for section in ("general", subcmd):
        if section is None or not cfg.has_section(section):
            continue
        targets = (list(subparsers.values()) if section == "general"
                   else [subparsers[section]])
        for key, raw in cfg.items(section):
            dest = key.replace("-", "_")
            where = f"config {path} [{section}] {key}"
            matched = False
            for sub in targets:
                action = _flag_actions(sub).get(dest)
                if action is None:
                    continue
                sub.set_defaults(**{dest: _convert_config_value(action, raw, where)})
                matched = True
            if not matched:
                raise ParseError(f"{where}: unknown option")


# -- subcommands -------------------------------------------------------


def cmd_analyze_vocab(args) -> int:
    report = analyze_external_vocab(resolve_path(args.vocab_file), top=args.top)
    _write_json(resolve_path(args.out), report)
    return 0


def _encode_one(raw: CorpusExample, vocab: Vocab, cutoff: int,
                truncate: bool) -> EncodedExample:
    return encode_example(raw, vocab, None, cutoff=cutoff, truncate=truncate)


def _partition_counts(n: int, ratios: Sequence[float]) -> List[int]:
    counts = [int(math.floor(r * n)) for r in ratios]
    for i in range(n - sum(counts)):
        counts[i % len(counts)] += 1
    return counts


def _split_path(base: str, name: str) -> str:
    stem, ext = os.path.splitext(base)
    return f"{stem}.{name}{ext}" if ext else f"{base}.{name}"


def cmd_encode(args) -> int:
    corpus = load_corpus_jsonl(resolve_path(args.input))
    if (args.encoder_vocab is None) != (args.quest_vocab is None):
        raise _UsageError(
            "--encoder-vocab and --quest-vocab must be given together")
    if args.encoder_vocab:
        vocab = Vocab.load(resolve_path(args.encoder_vocab),
                           resolve_path(args.quest_vocab))
    else:
        vocab = build_vocabs(corpus)
    work = partial(_encode_one, vocab=vocab, cutoff=args.cutoff,
                   truncate=args.truncate)
    if args.jobs > 1 and len(corpus) > 1:
        chunk = max(1, math.ceil(len(corpus) / (args.jobs * 4)))
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            encoded = list(pool.map(work, corpus, chunksize=chunk))
    else:
        encoded = [work(ex) for ex in corpus]

    out = resolve_path(args.out)
    if args.split is None:
        dump_encoded_jsonl(encoded, out)
        return 0
    order = list(range(len(encoded)))
    random.Random(args.seed).shuffle(order)
    counts = _partition_counts(len(encoded), args.split)
    start = 0
    for name, count in zip(_SPLIT_NAMES[len(args.split)], counts):
        part = [encoded[i] for i in order[start:start + count]]
        start += count
        dump_encoded_jsonl(part, _split_path(out, name))
    return 0


def cmd_decode(args) -> int:
    vocab = Vocab.load(resolve_path(args.encoder_vocab),
                       resolve_path(args.quest_vocab))
    encoded = load_encoded_jsonl(resolve_path(args.input))
    morph = default_morphology()
    lines = [realize(ex.target_actions, ex.source_roots, vocab, morph)
             for ex in encoded]
    _write_lines(resolve_path(args.out), lines)
    return 0


def cmd_build_vocab(args) -> int:
    corpus = load_corpus_jsonl(resolve_path(args.input))
    vocab = build_vocabs(corpus, encoder_cap=args.encoder_cap,
                         quest_cap=args.quest_cap)
    vocab.save(resolve_path(args.encoder_out), resolve_path(args.quest_out))
    return 0


def _tag_inventories(groups: Sequence[Sequence[EncodedExample]]):
    pos, ner = set(), set()
    for group in groups:
        for ex in group:
            for p, n, _bio in ex.source_features:
                pos.add(p)
                ner.add(n)
    return build_tag_list(pos), build_tag_list(ner)


def cmd_train(args) -> int:
    vocab = Vocab.load(resolve_path(args.encoder_vocab),
                       resolve_path(args.quest_vocab))
    encoded = load_encoded_jsonl(resolve_path(args.input))
    dev_encoded = (load_encoded_jsonl(resolve_path(args.dev))
                   if args.dev else None)
    pos_tags, ner_tags = _tag_inventories(
        [encoded] + ([dev_encoded] if dev_encoded else []))
    hyper = HyperParams(
        word_dim=args.word_dim, answer_feat_dim=args.feat_dim,
        ner_feat_dim=args.feat_dim, pos_feat_dim=args.feat_dim,
        hidden_size=args.hidden, dropout_rate=args.dropout,
        learning_rate=args.learning_rate, batch_size=args.batch_size,
        source_cutoff=args.cutoff, beam_size=args.beam,
        max_decode_len=args.max_decode_len, dot_heads=args.dot_heads)
    model = EncoderDecoder(hyper, vocab, pos_tags, ner_tags,
                           init_seed=args.seed)
    prepared = [model.prepare(ex) for ex in encoded]
    dev_prepared = ([model.prepare(ex) for ex in dev_encoded]
                    if dev_encoded else None)
    config = TrainConfig(
        max_steps=args.steps, batch_size=args.batch_size,
        learning_rate=args.learning_rate, clip_norm=args.clip_norm,
        seed=args.seed, eval_every=args.eval_every)
    log = None if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    result = train(model, prepared, config, dev_examples=dev_prepared, log=log)
    extra = {
        "train_steps": result.steps,
        "final_train_loss": float(result.train_losses[-1]),
    }
    if dev_prepared:
        extra["best_eval_loss"] = float(result.best_eval_loss)
    model.save(resolve_path(args.model_out), extra=extra)
    return 0


def cmd_generate(args) -> int:
    vocab = Vocab.load(resolve_path(args.encoder_vocab),
                       resolve_path(args.quest_vocab))
    model = EncoderDecoder.load(resolve_path(args.model), vocab)
    morph = default_morphology()
    corpus = load_corpus_jsonl(resolve_path(args.input))
    questions: List[str] = []
    seconds: List[float] = []
    words = 0
    for raw in corpus:
        enc = encode_example(raw, vocab, morph,
                             cutoff=model.hyper.source_cutoff, truncate=True)
        begin = time.perf_counter()
        question = generate_question(model, enc, vocab, morph,
                                     beam_size=args.beam)
        seconds.append(time.perf_counter() - begin)
        questions.append(question)
        words += len(question.split())
    _write_lines(resolve_path(args.out), questions)

    timing_path = args.timing_out
    if timing_path is None and args.out is not None:
        timing_path = args.out + ".timing.json"
    if timing_path is not None:
        ordered = sorted(seconds)
        n = len(ordered)
        timing = {
            "examples": n,
            "decoded_words": words,
            "total_s": sum(ordered),
            "mean_s_per_example": sum(ordered) / n if n else 0.0,
            "p95_s_per_example": ordered[min(n - 1, max(0, math.ceil(0.95 * n) - 1))]
            if n else 0.0,
            "mean_s_per_word": sum(ordered) / words if words else 0.0,
            "beam": args.beam if args.beam is not None else model.hyper.beam_size,
        }
        _write_json(resolve_path(timing_path), timing)
    return 0


def cmd_score(args) -> int:
    candidates = _read_lines(resolve_path(args.candidates))
    references = _read_lines(resolve_path(args.references))
    report = score_report(candidates, references)
    _write_json(resolve_path(args.out), report)
    return 0


def cmd_bench(args) -> int:
    outcomes = args.source_window + args.quest_size + len(ALL_TYPES)
    if args.beam > outcomes:
        raise _UsageError(
            f"--beam {args.beam} exceeds the {outcomes} three-action outcomes "
            f"(--source-window + --quest-size + {len(ALL_TYPES)} tags)")
    if not args.wt and args.beam > args.vocab_size:
        raise _UsageError(f"--beam {args.beam} exceeds --vocab-size {args.vocab_size}")
    if args.wt:
        layer = make_three_action_layer(
            hidden=args.hidden, source_window=args.source_window,
            quest_size=args.quest_size, beam=args.beam, seed=args.seed)
        report = {
            "hidden": args.hidden,
            "beam": args.beam,
            "three_action": time_layer(layer, steps=args.steps,
                                       warmup=args.warmup),
        }
    else:
        report = bench_decode(
            hidden=args.hidden, vocab_size=args.vocab_size,
            source_window=args.source_window, quest_size=args.quest_size,
            beam=args.beam, steps=args.steps, warmup=args.warmup,
            seed=args.seed)
    _write_json(resolve_path(args.out), report)
    return 0


# -- selftest ----------------------------------------------------------


def _check_morphology_regular(seed: int):
    morph = default_morphology()
    lexicon = load_regular_lexicon()
    bad = 0
    for root, ttype, inflected in lexicon:
        if morph.apply_transform(root, ttype) != inflected:
            bad += 1
            continue
        analysis = morph.analyze(inflected, TYPE_TO_POS_TAG[ttype])
        if (analysis.root, analysis.transform) != (root, ttype):
            bad += 1
    ok = len(lexicon) - bad
    ratio = ok / len(lexicon)
    return ratio >= 0.99, f"{ok}/{len(lexicon)} regular round trips ({ratio:.2%})"


def _check_morphology_irregular(seed: int):
    morph = default_morphology()
    bad = 0
    total = 0
    for entry in morph.table:
        total += 1
        if morph.apply_transform(entry.root, entry.type) != entry.inflected:
            bad += 1
            continue
        analysis = morph.analyze(entry.inflected, TYPE_TO_POS_TAG[entry.type])
        if (analysis.root, analysis.transform) != (entry.root, entry.type):
            bad += 1
    return bad == 0, f"{total - bad}/{total} irregular round trips"


def _check_codec_round_trip(seed: int):
    corpus = make_corpus(60, seed=seed)
    vocab = build_vocabs(corpus)
    morph = default_morphology()
    bad = 0
    for raw in corpus:
        enc = encode_example(raw, vocab, morph)
        text = realize(enc.target_actions, enc.source_roots, vocab, morph)
        if text != " ".join(raw.question):
            bad += 1
    return bad == 0, f"{len(corpus) - bad}/{len(corpus)} encode/realize identities"


def _check_gradients(seed: int):
    model, example = tiny_model_and_example(seed)
    check = model.to_check_precision()
    prep = check.prepare(example)
    grads = check.zero_grads()
    check.loss_and_grads([prep], grads=grads, masks_list=[None])
    reports = grad_check(lambda: check.loss_only([prep], masks_list=[None]),
                         dict(check.store.items()), grads,
                         eps=1e-4, tolerance=1e-4)
    worst = max(reports, key=lambda r: r.rel_error)
    failed = [r.name for r in reports if not r.passed]
    detail = (f"{len(reports)} tensors, worst rel err {worst.rel_error:.2e} "
              f"({worst.name})")
    return not failed, detail if not failed else f"failing tensors {failed}"


def _check_probability_mass(seed: int):
    worst = 0.0
    for offset in range(20):
        model, example = tiny_model_and_example(seed + offset)
        check = model.to_check_precision()
        prep = check.prepare(example)
        enc = check.encode(prep, masks=None)
        state = check.step(enc, enc["s0"],
                           np.zeros(check.hyper.hidden_size, dtype=check.dtype),
                           ("word", 2))
        word_probs, _actions, tag_probs = check.outcome_distribution(
            state, prep.roots)
        total = sum(word_probs.values()) + sum(tag_probs.values())
        worst = max(worst, abs(total - 1.0))
    return worst < 1e-9, f"20 parameterizations, worst |sum - 1| = {worst:.2e}"


_SELFTEST_CHECKS = (
    ("morphology-regular", _check_morphology_regular),
    ("morphology-irregular", _check_morphology_irregular),
    ("codec-round-trip", _check_codec_round_trip),
    ("gradient-check", _check_gradients),
    ("probability-mass", _check_probability_mass),
)


def cmd_selftest(args) -> int:
    failures = 0
    for name, check in _SELFTEST_CHECKS:
        begin = time.perf_counter()
        try:
            ok, detail = check(args.seed)
        except MorphoQGError as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - begin
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({elapsed:.2f}s)")
        if not ok:
            failures += 1
    if failures:
        print(f"selftest: {failures} check(s) failed", file=sys.stderr)
        return 3
    print(f"selftest: all {len(_SELFTEST_CHECKS)} checks passed")
    return 0


# -- parser ------------------------------------------------------------


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42,
                        help="seed for every random choice (default 42)")
    common.add_argument("--config", metavar="FILE",
                        help="config file with [general] and per-subcommand "
                             "key=value sections; flags override it")

    parser = _Parser(
        prog="morphoqg",
        description="Morphology-aware question generation: encode corpora "
                    "into copy/list-word/rewrite-tag actions, train the "
                    "encoder-decoder, generate and score questions.")
    subcommands = parser.add_subparsers(dest="command", required=True,
                                        metavar="SUBCOMMAND")
    subparsers = {}

    def add(name, func, help_text):
        sub = subcommands.add_parser(name, parents=[common], help=help_text,
                                     description=help_text)
        sub.set_defaults(func=func)
        subparsers[name] = sub
        return sub

    sub = add("analyze-vocab", cmd_analyze_vocab,
              "Report how many entries of a one-token-per-line word list "
              "are inflected forms of another entry.")
    sub.add_argument("vocab_file", help="word list, one token per line")
    sub.add_argument("--top", type=_positive_int, default=None,
                     help="only consider the first N entries")
    sub.add_argument("--out", help="write the JSON report here (default stdout)")

    sub = add("encode", cmd_encode,
              "Encode a JSONL corpus (tokens/pos/ner/answer span/question) "
              "into root sequences plus target action sequences.")
    sub.add_argument("--input", required=True, help="corpus JSONL file")
    sub.add_argument("--out", required=True, help="encoded JSONL output")
    sub.add_argument("--encoder-vocab", help="existing encoder vocabulary "
                     "(with --quest-vocab; default: build from the input)")
    sub.add_argument("--quest-vocab", help="existing question-word vocabulary")
    sub.add_argument("--cutoff", type=_positive_int, default=DEFAULT_CUTOFF,
                     help="maximum source length (default %(default)s)")
    sub.add_argument("--truncate", action="store_true",
                     help="truncate sources over the cutoff instead of failing")
    sub.add_argument("--jobs", type=_positive_int, default=1,
                     help="worker processes for encoding (default 1)")
    sub.add_argument("--split", type=_split_ratios, metavar="R,R[,R]",
                     help="shuffle with --seed and write OUT.train/.dev[/.test]"
                          " parts with these ratios instead of one file")

    sub = add("decode", cmd_decode,
              "Realise the gold action sequences of an encoded JSONL file "
              "back into question text, one line per example.")
    sub.add_argument("--input", required=True, help="encoded JSONL file")
    sub.add_argument("--encoder-vocab", required=True)
    sub.add_argument("--quest-vocab", required=True)
    sub.add_argument("--out", help="output text file (default stdout)")

    sub = add("build-vocab", cmd_build_vocab,
              "Build frequency-ranked encoder and question-word "
              "vocabularies from a JSONL corpus.")
    sub.add_argument("--input", required=True, help="corpus JSONL file")
    sub.add_argument("--encoder-out", required=True,
                     help="encoder vocabulary output, one token per line")
    sub.add_argument("--quest-out", required=True,
                     help="question-word vocabulary output")
    sub.add_argument("--encoder-cap", type=_positive_int,
                     default=DEFAULT_ENCODER_CAP,
                     help="encoder vocabulary size cap (default %(default)s)")
    sub.add_argument("--quest-cap", type=_positive_int,
                     default=DEFAULT_QUEST_CAP,
                     help="question vocabulary size cap (default %(default)s)")

    sub = add("train", cmd_train,
              "Train the three-action encoder-decoder on an encoded corpus "
              "and write a checkpoint plus JSON sidecar.")
    sub.add_argument("--input", required=True, help="encoded training JSONL")
    sub.add_argument("--encoder-vocab", required=True)
    sub.add_argument("--quest-vocab", required=True)
    sub.add_argument("--dev", help="encoded dev JSONL; keeps the best weights")
    sub.add_argument("--model-out", required=True, help="checkpoint path")
    sub.add_argument("--steps", type=_positive_int, default=2000,
                     help="optimiser updates (default %(default)s)")
    sub.add_argument("--hidden", type=_positive_int, default=512,
                     help="recurrent state size (default %(default)s)")
    sub.add_argument("--word-dim", type=_positive_int, default=300,
                     help="word embedding size (default %(default)s)")
    sub.add_argument("--feat-dim", type=_positive_int, default=32,
                     help="answer/ner/pos feature embedding size "
                          "(default %(default)s)")
    sub.add_argument("--dropout", type=_dropout_rate, default=0.20,
                     help="encoder input dropout rate (default %(default)s)")
    sub.add_argument("--learning-rate", type=_learning_rate, default=0.002,
                     help="Adam learning rate (default %(default)s)")
    sub.add_argument("--batch-size", type=_positive_int, default=32,
                     help="examples per update (default %(default)s)")
    sub.add_argument("--clip-norm", type=_clip_norm, default=5.0,
                     help="global gradient clip, 0 for none (default %(default)s)")
    sub.add_argument("--eval-every", type=_positive_int, default=100,
                     help="steps between dev evaluations (default %(default)s)")
    sub.add_argument("--cutoff", type=_positive_int, default=DEFAULT_CUTOFF,
                     help="source length bound stored with the model")
    sub.add_argument("--beam", type=_positive_int, default=12,
                     help="beam width stored with the model")
    sub.add_argument("--max-decode-len", type=_positive_int, default=32,
                     help="decode length bound stored with the model")
    sub.add_argument("--dot-heads", action="store_true",
                     help="use the dot-product output heads instead of the "
                          "additive ones")
    sub.add_argument("--quiet", action="store_true",
                     help="suppress progress lines on stderr")

    sub = add("generate", cmd_generate,
              "Beam-search questions for a raw JSONL corpus with a trained "
              "checkpoint; timing goes to a separate JSON file.")
    sub.add_argument("--input", required=True, help="corpus JSONL file")
    sub.add_argument("--model", required=True, help="checkpoint path")
    sub.add_argument("--encoder-vocab", required=True)
    sub.add_argument("--quest-vocab", required=True)
    sub.add_argument("--out", help="questions output, one per line "
                     "(default stdout)")
    sub.add_argument("--timing-out", help="timing JSON path (default "
                     "OUT.timing.json when --out is given)")
    sub.add_argument("--beam", type=_positive_int, default=None,
                     help="beam width (default: the checkpoint's)")

    sub = add("score", cmd_score,
              "Score candidate questions against references with corpus "
              "BLEU-1..4 and mean ROUGE-L.")
    sub.add_argument("--candidates", required=True,
                     help="candidate questions, one per line")
    sub.add_argument("--references", required=True,
                     help="reference questions, one per line")
    sub.add_argument("--out", help="JSON report path (default stdout)")

    sub = add("bench", cmd_bench,
              "Time one decoded word of the model's three-action decoder "
              "(decoder step, outcome mixing and top-k over a beam) against "
              "a full-vocabulary softmax output layer with the same top-k.")
    sub.add_argument("--vocab-size", type=_positive_int, default=30000,
                     help="baseline softmax vocabulary (default %(default)s)")
    sub.add_argument("--hidden", type=_positive_int, default=512,
                     help="decoder state size (default %(default)s)")
    sub.add_argument("--beam", type=_positive_int, default=12,
                     help="beam width (default %(default)s)")
    sub.add_argument("--source-window", type=_positive_int, default=128,
                     help="copy positions per step (default %(default)s)")
    sub.add_argument("--quest-size", type=_int_at_least(len(RESERVED_TOKENS)), default=1004,
                     help="question-word list size, reserved tokens included "
                     "(default %(default)s)")
    sub.add_argument("--steps", type=_positive_int, default=30,
                     help="timed steps per layer (default %(default)s)")
    sub.add_argument("--warmup", type=_int_at_least(0), default=5,
                     help="untimed warmup steps (default %(default)s)")
    sub.add_argument("--wt", action="store_true",
                     help="time only the three-action decoder")
    sub.add_argument("--out", help="JSON report path (default stdout)")

    add("selftest", cmd_selftest,
        "Run the built-in integrity checks: morphology and codec round "
        "trips, a finite-difference gradient check, and probability-mass "
        "conservation. Exits 3 if any check fails.")

    return parser, subparsers


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = _build_parser()
    try:
        config_path, subcmd = _prescan(argv)
        if config_path is not None:
            _apply_config(subparsers, resolve_path(config_path), subcmd)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code else 0
        return args.func(args)
    except _UsageError as exc:
        print(f"morphoqg: error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"morphoqg: data error: {exc}", file=sys.stderr)
        return 2
    except RuntimeFailure as exc:
        print(f"morphoqg: runtime error: {exc}", file=sys.stderr)
        return 3
    except MorphoQGError as exc:
        print(f"morphoqg: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
