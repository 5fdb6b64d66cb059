"""Integrity checks shared by ``morphoqg selftest`` and the test suite.

Each function is one measurement (the morphology and codec round trips,
the finite-difference gradient check, the first-step probability mass)
and returns what it measured; the caller applies its own sizes and bounds.
"""

import numpy as np

from .codec import SOS_ID, Copy, EncodedExample, Quest, Trans, Vocab, encode_example, realize
from .model import EncoderDecoder, HyperParams, build_tag_list
from .morphology import TYPE_TO_POS_TAG, TransformationType
from .tensor import grad_check

# eps 1e-4 balances truncation against float64 roundoff for a loss of the
# tiny model's magnitude; a smaller eps hits the rounding floor on tensors
# whose true gradient is tiny.
GRAD_EPS = 1e-4
GRAD_TOLERANCE = 1e-4


def tiny_model_and_example(seed, dot_heads=False):
    """The hidden-size-8 model and 3-token example (a 4-action target using
    every action kind) of the gradient and probability-mass checks."""
    reserved = ["<pad>", "<unk>", "<sos>", "<eos>"]
    vocab = Vocab(reserved + ["he", "visit", "park"], reserved + ["when", "do", "he", "?"])
    hyper = HyperParams(word_dim=8, answer_feat_dim=3, ner_feat_dim=3, pos_feat_dim=3,
                        hidden_size=8, dropout_rate=0.0, dot_heads=dot_heads)
    model = EncoderDecoder(hyper, vocab, build_tag_list(["PRP", "VB", "NN"]),
                           build_tag_list(["O", "LOC"]), init_seed=seed)
    example = EncodedExample(
        source_roots=["he", "visit", "park"],
        source_features=[("PRP", "O", "O"), ("VB", "O", "O"), ("NN", "LOC", "B")],
        answer_span=(2, 2),
        target_actions=[Quest(4), Copy(0), Quest(5), Trans(TransformationType.ED)],
        reference_question=["when", "he", "did"])
    return model, example


def round_trip_failures(triples, morph):
    """The (root, type, inflected) triples that ``apply_transform`` does not
    inflect to their form or ``analyze`` does not take back to their root
    and type."""
    def survives(root, ttype, inflected):
        back = morph.analyze(inflected, TYPE_TO_POS_TAG[ttype])
        return (morph.apply_transform(root, ttype) == inflected
                and (back.root, back.transform) == (root, ttype))
    return [triple for triple in triples if not survives(*triple)]


def codec_round_trip_failures(corpus, vocab, morph):
    """The corpus examples whose encoded target does not realize back to
    their question."""
    encoded = [(raw, encode_example(raw, vocab, morph)) for raw in corpus]
    return [raw for raw, x in encoded
            if realize(x.target_actions, x.source_roots, vocab, morph) != " ".join(raw.question)]


def gradient_reports(model, prepared, masks):
    """One ``GradReport`` per parameter tensor of a float64 ``model``: the
    analytic gradient of the batch loss under the fixed dropout ``masks``
    (the batch's input rows in example order, or None for no dropout)
    against central finite differences."""
    grads = model.zero_grads()
    model.loss_and_grads(prepared, grads=grads, masks=masks)
    return grad_check(lambda: model.loss_and_grads(prepared, masks=masks)[0],
                      model.store, grads, eps=GRAD_EPS, tolerance=GRAD_TOLERANCE)


def first_step_mass_error(model, example):
    """``|sum - 1|`` of the outcome mass of the first decoder step, from SOS,
    of ``model``'s float64 twin on ``example``."""
    check = model.to_check_precision()
    prep = check.prepare(example)
    enc = check.encode(prep)
    state = check.step(enc, enc["s0"], np.zeros(check.hyper.hidden_size), SOS_ID)
    return abs(float(check.outcome_mass(state, check.outcome_columns(prep.roots)).sum()) - 1.0)
