"""Property: each check of ``morphoqg.checks`` fails on broken code or data."""

import dataclasses

from morphoqg import cli
from morphoqg import model as model_mod
from morphoqg.checks import (codec_round_trip_failures, first_step_mass_error,
                             round_trip_failures, tiny_model_and_example)
from morphoqg.codec import build_vocabs
from morphoqg.morphology import default_morphology
from morphoqg.toydata import make_corpus


def test_dropped_backward_term_fails_the_gradient_check(monkeypatch, capsys):
    """The heads' gradient at the decoder state, dropped, fails both head
    designs, and ``selftest`` exits 3."""
    heads_backward = model_mod.EncoderDecoder._heads_backward

    def dropped(self, *args):
        d = heads_backward(self, *args)
        d["s"][...] = 0.0
        return d

    monkeypatch.setattr(model_mod.EncoderDecoder, "_heads_backward", dropped)
    assert cli.main(["selftest"]) == 3
    out = capsys.readouterr().out
    assert "[FAIL] gradient-check: failing tensors ['additive " in out and "'dot " in out


def test_dropped_tag_route_fails_the_mass_check(monkeypatch):
    outcome_mass = model_mod.EncoderDecoder.outcome_mass
    monkeypatch.setattr(model_mod.EncoderDecoder, "outcome_mass", lambda self, state, columns:
                        outcome_mass(self, {**state, "p_trans": 0 * state["p_trans"]}, columns))
    for dot_heads in (False, True):
        assert first_step_mass_error(*tiny_model_and_example(3, dot_heads)) > 1e-6


def test_wrong_irregular_form_is_a_round_trip_failure():
    morph = default_morphology()
    entry = next(iter(morph.table))
    right, wrong = ((entry.root, entry.type, f) for f in (entry.inflected, "x" + entry.inflected))
    assert round_trip_failures([right, wrong], morph) == [wrong]


def test_question_word_outside_both_vocabularies_is_a_codec_failure():
    corpus = make_corpus(6, seed=1)
    broken = dataclasses.replace(corpus[0], question=["zyzzyva"] + corpus[0].question[1:])
    assert codec_round_trip_failures(corpus + [broken], build_vocabs(corpus),
                                     default_morphology()) == [broken]
