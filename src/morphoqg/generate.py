"""Beam-search decoding over the copy / list-word / rewrite-tag action space.

Hypotheses accumulate the sum of outcome log-probabilities; the beam is
pruned on that sum, and the final hypothesis is selected by the
length-normalised score (sum divided by number of emitted outcomes, end
marker included), so long questions are not penalised for their length
alone.  A beam of one reduces to greedy decoding.

Structural masks keep the action grammar valid: the padding and
start-of-sequence outcomes are never emitted, and a rewrite tag may only
follow a word-producing action (never open the question, never follow
another tag).

Each step advances every live hypothesis at once, as one (k, d_h) batch
through :meth:`EncoderDecoder.step`, and scores all of its outcomes as one
row of :meth:`EncoderDecoder.outcome_mass`.  A kept outcome's column gives
both the action it appends and the next step's decoder input
(:attr:`OutcomeColumns.inputs`).  Log-probabilities are taken once per
step with ``np.log`` and summed in float64.  Tie-break order: candidates with
equal sums keep the rank of the hypothesis they extend, then the column
order ``[source roots in first-occurrence order | other list words by id |
tags]``; a root copies its most-attended source position, the first on
ties; the final pick is the highest normalised score, a finished
hypothesis over an unfinished one, and then the earliest recorded
(finished ones in step and rank order, then the live beam by rank).

There is no early stop once every beam has ended: a hypothesis that emits
``<eos>`` is recorded and the beam refills from the remaining candidates,
and length-normalised scores are not monotone in length, so stopping early
could change the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .codec import SOS_ID, EncodedExample, Vocab, realize
from .model import EncoderDecoder, PreparedExample
from .morphology import ALL_TYPES, Morphology

_BLOCKED_WORDS = ("<pad>", "<sos>")
_EOS_WORD = "<eos>"


@dataclass(frozen=True)
class BeamResult:
    """One decoded hypothesis: its actions, normalised score, and status."""

    actions: tuple
    score: float
    finished: bool


def beam_search(
    model: EncoderDecoder,
    prep: PreparedExample,
    beam_size: Optional[int] = None,
    max_len: Optional[int] = None,
) -> BeamResult:
    """Decode one example; returns the best hypothesis under the
    length-normalised score."""
    k = beam_size if beam_size is not None else model.hyper.beam_size
    limit = max_len if max_len is not None else model.hyper.max_decode_len
    if k < 1 or limit < 1:
        raise ValueError(f"beam width and length limit must be at least 1, got {k} and {limit}")
    enc = model.encode(prep, masks=None)
    columns = model.outcome_columns(prep.roots)
    n_words = len(columns.words)
    n_cols = n_words + len(ALL_TYPES)
    eos_col = columns.words.index(_EOS_WORD)
    # Outcomes a hypothesis may extend with, before the tag rule; <eos>
    # ends it instead.
    extendable = np.array([w not in _BLOCKED_WORDS and w != _EOS_WORD
                           for w in columns.words] + [True] * len(ALL_TYPES))
    word_cols = np.arange(n_cols) < n_words

    # The live beam, best first: states as (k, d_h) rows, float64 log sums.
    s = enc["s0"][None, :]
    c = np.zeros((1, model.hyper.hidden_size), dtype=model.dtype)
    actions: list[tuple] = [()]
    inputs = [("word", SOS_ID)]
    log_sum = np.zeros(1)
    last_was_word = np.zeros(1, dtype=bool)
    finished: list[BeamResult] = []

    for _ in range(limit):
        state = model.step(enc, s, c, inputs)
        mass = model.outcome_mass(state, columns)
        with np.errstate(divide="ignore"):
            scores = log_sum[:, None] + np.log(mass)
        for h in np.flatnonzero(mass[:, eos_col] > 0.0).tolist():
            finished.append(BeamResult(actions=actions[h], finished=True,
                                       score=float(scores[h, eos_col]) / (len(actions[h]) + 1)))
        open_ = extendable & (word_cols | last_was_word[:, None]) & (mass > 0.0)
        flat = np.flatnonzero(open_)
        if flat.size == 0:
            break
        cand = scores.ravel()[flat]
        if k < flat.size:
            # Only candidates at or above the k-th best score get sorted: a
            # stable sort of every candidate costs far more than the cut.
            top = cand >= np.partition(cand, flat.size - k)[flat.size - k]
            flat, cand = flat[top], cand[top]
        # Stable: equal scores keep hypothesis rank, then column order.
        keep = np.argsort(-cand, kind="stable")[:k]
        keep_hyp = flat[keep] // n_cols
        keep_col = (flat[keep] % n_cols).tolist()
        p_copy = state["p_copy"]
        actions = [actions[h] + (columns.action(col, p_copy[h]),)
                   for h, col in zip(keep_hyp.tolist(), keep_col)]
        log_sum = cand[keep]
        last_was_word = word_cols[keep_col]
        inputs = [columns.inputs[col] for col in keep_col]
        s, c = state["s"][keep_hyp], state["c"][keep_hyp]

    for h, acts in enumerate(actions):
        finished.append(BeamResult(
            actions=acts, score=float(log_sum[h]) / max(len(acts), 1), finished=False))
    return max(finished, key=lambda r: (r.score, r.finished))


def generate_question(
    model: EncoderDecoder,
    example: EncodedExample,
    vocab: Vocab,
    morphology: Optional[Morphology] = None,
    beam_size: Optional[int] = None,
) -> str:
    """Decode an encoded example and realise the actions as a word string."""
    prep = model.prepare(example)
    result = beam_search(model, prep, beam_size=beam_size)
    return realize(list(result.actions), list(prep.roots), vocab, morphology)
