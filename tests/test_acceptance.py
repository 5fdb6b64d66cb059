"""Acceptance suite: one test per shipping criterion.

Run ``pytest -v tests/test_acceptance.py`` to get exactly one
PASSED/FAILED line per criterion.  Every expected value here is either a
hand-derived oracle (the metric pairs), a structural property
(round trips, probability mass, gradient agreement), or an explicitly
stated bound (timing, speedup, coverage ratios) — never a value copied
from an implementation run.

Criterion 7 needs external word-list files and is skipped unless the
environment variables MORPHOQG_SQUAD_VOCAB and MORPHOQG_WORDPIECE_VOCAB
point at them.  Criterion 9 records what this repository deliberately
does not claim: results that need the full-scale training corpus are out
of scope, and each such claim is covered by a smaller substitute suite
instead.
"""

import math
import os
import random
import time
from pathlib import Path

import pytest

from morphoqg.bench import FULL_SCALE_REFERENCE, bench_decode
from morphoqg.checks import (
    codec_round_trip_failures,
    first_step_mass_error,
    gradient_reports,
    round_trip_failures,
    tiny_model_and_example,
)
from morphoqg.codec import (
    Trans,
    build_vocabs,
    encode_example,
    encode_target,
    realize,
)
from morphoqg.generate import beam_search
from morphoqg.metrics import bleu, rouge_l
from morphoqg.model import EncoderDecoder, HyperParams, build_tag_list
from morphoqg.morphology import (
    POS_TAG_TO_TYPE,
    TYPE_TO_POS_TAG,
    Morphology,
    TransformationType,
    default_morphology,
    load_regular_lexicon,
)
from morphoqg.toydata import make_corpus, make_overfit_corpus
from morphoqg.train import TrainConfig, train
from morphoqg.vocab_analysis import analyze_external_vocab

SQUAD_ENV = "MORPHOQG_SQUAD_VOCAB"
WORDPIECE_ENV = "MORPHOQG_WORDPIECE_VOCAB"


# -- criterion 1: morphology round trips under a time bound ------------


def test_criterion_1_morphology_round_trips():
    """>= 99% of the regular lexicon and 100% of the irregular table
    round-trip through apply + analyze, in under one second.  A fresh
    instance, so the bound times the rule search rather than the memo
    that earlier tests filled."""
    begin = time.perf_counter()
    morph = Morphology()
    lexicon = load_regular_lexicon()
    regular_ok = len(lexicon) - len(round_trip_failures(lexicon, morph))
    irregular_bad = round_trip_failures(
        [(e.root, e.type, e.inflected) for e in morph.table], morph)
    elapsed = time.perf_counter() - begin
    ratio = regular_ok / len(lexicon)
    print(f"criterion 1: regular {regular_ok}/{len(lexicon)} ({ratio:.2%}), "
          f"irregular failures {len(irregular_bad)}, {elapsed:.3f}s")
    assert ratio >= 0.99
    assert irregular_bad == []
    assert elapsed < 1.0


# -- criterion 2: codec round trip and tag-placement invariant ---------


def _random_word(rng):
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                   for _ in range(rng.randint(2, 9)))


def test_criterion_2_codec_round_trip_and_tag_adjacency():
    """realize(encode(x)) reproduces every toy question, and over 10,000
    randomized inputs no rewrite tag ever opens a sequence or follows
    another tag."""
    corpus = make_corpus(200, seed=7)
    vocab = build_vocabs(corpus)
    morph = default_morphology()
    assert codec_round_trip_failures(corpus, vocab, morph) == []

    rng = random.Random(99)
    inflectable_pos = sorted(POS_TAG_TO_TYPE)
    plain_pos = ["NN", "VB", "DT", "IN", "PRP", "."]
    lexicon = load_regular_lexicon()
    with_tags = 0
    for _ in range(10_000):
        roots = [_random_word(rng) for _ in range(rng.randint(1, 6))]
        question, tags = [], []
        for _ in range(rng.randint(1, 10)):
            draw = rng.random()
            if draw < 0.35 and roots:
                # a source root, sometimes inflected so Copy+Trans appears
                word = rng.choice(roots)
                if rng.random() < 0.5:
                    ttype = rng.choice(list(TransformationType))
                    question.append(morph.apply_transform(word, ttype))
                    tags.append(TYPE_TO_POS_TAG[ttype])
                    continue
                question.append(word)
                tags.append(rng.choice(plain_pos))
            elif draw < 0.6:
                root, ttype, inflected = rng.choice(lexicon)
                question.append(inflected)
                tags.append(TYPE_TO_POS_TAG[ttype])
            else:
                question.append(_random_word(rng))
                tags.append(rng.choice(inflectable_pos + plain_pos))
        actions = encode_target(question, tags, roots, vocab, morph, answer_span=(0, 0))
        previous_was_tag = True  # a tag may not open the sequence
        for action in actions:
            is_tag = isinstance(action, Trans)
            assert not (is_tag and previous_was_tag), (roots, question, actions)
            previous_was_tag = is_tag
        if any(isinstance(a, Trans) for a in actions):
            with_tags += 1
    print(f"criterion 2: 200 round trips ok, 10000 randomized sequences "
          f"tag-placement clean ({with_tags} contained tags)")
    assert with_tags > 0  # the property must not hold vacuously


# -- criteria 3 and 4 run on checks.tiny_model_and_example -------------


def test_criterion_3_full_loss_gradient_check():
    """On a 3-token source with a 4-action target (hidden size 8, 64-bit),
    every parameter tensor's analytic gradient agrees with central
    differences to relative error < 1e-4, in under 30 seconds, for both
    output-head designs."""
    begin = time.perf_counter()
    reports = []
    for dot_heads in (False, True):
        model, example = tiny_model_and_example(seed=11, dot_heads=dot_heads)
        check = model.to_check_precision()
        reports += gradient_reports(check, [check.prepare(example)], None)
        failed = [r for r in reports if not r.passed]
        assert not failed, f"dot_heads={dot_heads}: {failed}"
    worst = max(reports, key=lambda r: r.rel_error)
    elapsed = time.perf_counter() - begin
    print(f"criterion 3: both head designs, worst rel err "
          f"{worst.rel_error:.2e} ({worst.name}), {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_4_probability_mass():
    """Across 1,000 random parameterizations the word and tag outcome
    probabilities sum to 1 within 1e-6."""
    worst = max(first_step_mass_error(*tiny_model_and_example(seed=seed, dot_heads=bool(seed % 2)))
                for seed in range(1_000))
    print(f"criterion 4: 1000 parameterizations, worst |sum-1| = {worst:.2e}")
    assert worst < 1e-6


# -- criterion 5: toy overfit ------------------------------------------


def test_criterion_5_toy_overfit():
    """64 template pairs, hidden size 64, at most 2,000 steps and five
    minutes: greedy decoding (a beam of one) reaches >= 90% exact match
    and BLEU-4 >= 95."""
    begin = time.perf_counter()
    corpus = make_overfit_corpus()
    assert len(corpus) == 64
    vocab = build_vocabs(corpus)
    morph = default_morphology()
    encoded = [encode_example(ex, vocab, morph) for ex in corpus]
    pos_tags = build_tag_list(
        p for ex in encoded for (p, _n, _b) in ex.source_features)
    ner_tags = build_tag_list(
        n for ex in encoded for (_p, n, _b) in ex.source_features)
    hyper = HyperParams(
        word_dim=32, answer_feat_dim=8, ner_feat_dim=8, pos_feat_dim=8,
        hidden_size=64, dropout_rate=0.0, max_decode_len=16)
    model = EncoderDecoder(hyper, vocab, pos_tags, ner_tags, init_seed=42)
    prepared = [model.prepare(ex) for ex in encoded]
    references = [" ".join(ex.reference_question) for ex in encoded]

    def decode_all(m):
        return [realize(list(beam_search(m, prep, beam_size=1).actions),
                        list(prep.roots), vocab, morph) for prep in prepared]

    def scores(candidates):
        exact = sum(c == r for c, r in zip(candidates, references))
        return exact / len(references), bleu(candidates, references)[4]

    def good_enough(step, m):
        em, bleu4 = scores(decode_all(m))
        return em >= 0.90 and bleu4 >= 95.0

    config = TrainConfig(max_steps=2_000, batch_size=16, eval_every=100,
                         seed=42)
    result = train(model, prepared, config, should_stop=good_enough)

    em, bleu4 = scores(decode_all(model))
    elapsed = time.perf_counter() - begin
    print(f"criterion 5: {result.steps} steps, exact match {em:.2%}, "
          f"BLEU-4 {bleu4:.2f}, {elapsed:.0f}s")
    assert result.steps <= 2_000
    assert elapsed < 300.0
    assert em >= 0.90
    assert bleu4 >= 95.0


# -- criterion 6: decode speedup from the smaller list ------------------


def test_criterion_6_output_layer_speedup():
    """At hidden size 512 and beam 12, a question of the shipped beam
    search with the three-action decoder's 1,004-word list (plus copy
    window 128 and 9 tags) runs at least 1.5x faster than the same model
    with a 30,000-word list, judged by the median of paired per-question
    ratios.  The bundled full-scale figures are directional context, not
    something this CPU run reproduces."""
    report = bench_decode()  # full-scale defaults: 512/30000/128/1004/12
    ratio = report["speedup_ratio"]
    reference = report["full_scale_reference"]
    short, full = report["three_action"], report["baseline"]
    print(f"criterion 6: measured speedup {ratio:.2f}x "
          f"(pairs {', '.join(f'{r:.2f}' for r in report['pair_ratios'])}; "
          f"{short['per_question_median_s']*1e3:.0f}ms vs "
          f"{full['per_question_median_s']*1e3:.0f}ms per question, "
          f"{short['per_step_median_s']*1e3:.1f}ms vs "
          f"{full['per_step_median_s']*1e3:.1f}ms per beam step); "
          f"directional full-scale reference: "
          f"{reference['baseline_per_word_s']*1e3:.1f}ms -> "
          f"{reference['three_action_per_word_s']*1e3:.1f}ms "
          f"({reference['savings_pct']}% saved)")
    assert report["hidden"] == 512
    assert report["beam"] == 12
    assert short["support"] == {"copy": 128, "quest": 1004, "tags": 9}
    assert full["support"] == {"copy": 128, "quest": 30_000, "tags": 9}
    assert reference == FULL_SCALE_REFERENCE
    assert ratio >= 1.5


# -- criterion 7: external vocabulary statistics (optional data) -------


@pytest.mark.skipif(
    not (os.environ.get(SQUAD_ENV) and os.environ.get(WORDPIECE_ENV)),
    reason=f"set {SQUAD_ENV} and {WORDPIECE_ENV} to word-list files to "
           "enable the external-vocabulary criterion")
def test_criterion_7_external_vocab_statistics():
    """Top 10,000 corpus words: 3718 +- 15% inflected entries.  The
    28,996-entry WordPiece list: 23.18% +- 3 points inflected."""
    squad = analyze_external_vocab(os.environ[SQUAD_ENV], top=10_000)
    wordpiece = analyze_external_vocab(os.environ[WORDPIECE_ENV])
    wp_pct = wordpiece["ratio"] * 100.0
    print(f"criterion 7: corpus top-10k inflected {squad['inflected_count']} "
          f"(target 3718 +- 15%), wordpiece {wp_pct:.2f}% "
          f"(target 23.18% +- 3)")
    assert 3718 * 0.85 <= squad["inflected_count"] <= 3718 * 1.15
    assert 23.18 - 3.0 <= wp_pct <= 23.18 + 3.0


# -- criterion 8: metric oracles ---------------------------------------


def test_criterion_8_metric_oracles():
    """BLEU and ROUGE-L match hand-computed values on three fixed pairs
    to 1e-6.  Each expected number is derived in the comments from the
    metric definitions alone."""
    # Pair A: "the the the" vs "the cat".  Unigram "the" x3 clips to the
    # one reference occurrence -> 1/3; candidate longer than reference so
    # no brevity penalty.  LCS = 1 -> P = 1/3, R = 1/2,
    # F = 2.2*(1/2)*(1/3) / (1/2 + 1.2*(1/3)) = (2.2/6) / 0.9 = 2.2/5.4.
    scores_a = bleu(["the the the"], ["the cat"], max_n=1)
    assert scores_a[1] == pytest.approx(100.0 / 3.0, abs=1e-6)
    assert rouge_l(["the the the"], ["the cat"]) == pytest.approx(
        2.2 / 5.4, abs=1e-6)

    # Pair B: "a b c d" vs "a c d e".  Unigrams 3/4, bigrams 1/3 ("c d");
    # BLEU-2 = 100*sqrt(3/4 * 1/3) = 50 exactly.  LCS = 3 ("a c d") ->
    # P = R = 3/4, and with P == R the F-measure collapses to 3/4.
    scores_b = bleu(["a b c d"], ["a c d e"], max_n=2)
    assert scores_b[1] == pytest.approx(75.0, abs=1e-6)
    assert scores_b[2] == pytest.approx(50.0, abs=1e-6)
    assert rouge_l(["a b c d"], ["a c d e"]) == pytest.approx(0.75, abs=1e-6)

    # Pair C: "a b" vs "a b c d".  Precisions are perfect at both orders
    # but the candidate is half the reference length, so the brevity
    # penalty exp(1 - 4/2) = e^-1 applies.  LCS = 2 -> P = 1, R = 1/2,
    # F = 2.2*(1/2)*1 / (1/2 + 1.2*1) = 1.1/1.7.
    scores_c = bleu(["a b"], ["a b c d"], max_n=2)
    assert scores_c[1] == pytest.approx(100.0 * math.exp(-1.0), abs=1e-6)
    assert scores_c[2] == pytest.approx(100.0 * math.exp(-1.0), abs=1e-6)
    assert rouge_l(["a b"], ["a b c d"]) == pytest.approx(1.1 / 1.7, abs=1e-6)
    print("criterion 8: three fixed pairs match their hand-derived "
          "BLEU/ROUGE-L values to 1e-6")


# -- criterion 9: full-scale results are explicitly out of scope -------


def test_criterion_9_full_scale_results_out_of_scope():
    """This repository does not claim the published full-scale corpus
    results; the README says so, and each full-scale claim maps to a
    bounded substitute suite that does run here."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert readme.exists(), "README.md is part of the deliverable"
    text = readme.read_text(encoding="utf-8").lower()
    assert "out of scope" in text, (
        "README must state that full-scale corpus results are out of scope")
    substitutes = {
        "corpus-scale generation quality": test_criterion_5_toy_overfit,
        "corpus-scale decode latency": test_criterion_6_output_layer_speedup,
        "corpus-scale vocabulary statistics":
            test_criterion_7_external_vocab_statistics,
    }
    print("criterion 9: full-scale training results are documented as out "
          "of scope; substitute suites: "
          + "; ".join(f"{claim} -> {fn.__name__}"
                      for claim, fn in substitutes.items()))
