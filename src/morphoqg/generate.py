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
both the action it appends and the next step's decoder input id, so the
beam's next inputs are one index of :attr:`OutcomeColumns.inputs`.
Log-probabilities are taken once per step with ``np.log`` and summed in
float64.  The beam's state is arrays, as in OpenNMT's beam (Klein et al.
2017, arXiv:1701.02810): each cut appends the kept rows' parent rows and
columns and the step's copy probabilities, as back-pointers, and no action
is built while the search runs.  At step ``t`` every live hypothesis has
``t - 1`` actions, so the ``<eos>`` scores of a step are one array op, kept
in record order.  Actions are built once, for the returned hypothesis only,
by following its back-pointers (:meth:`OutcomeColumns.action`).

Tie-break order: candidates with equal sums keep the rank of the
hypothesis they extend, then the column order ``[source roots in
first-occurrence order | other list words by id | tags]``; a root copies
its most-attended source position, the first on ties; the final pick is
the highest normalised score, a finished hypothesis over an unfinished
one, and then the earliest recorded (finished ones in step and rank
order, then the live beam by rank).

The search stops as soon as no live hypothesis can beat the best finished
one (the optimality-preserving stop of Huang, Zhao & Ma 2017, "When to
Finish? Optimal Beam Search for Neural Text Generation",
arXiv:1707.07402).  Every log-mass is at most ``slack``, and a descendant
of live row ``h``, finished or left unfinished at the limit, adds at most
``steps_left`` of them to ``log_sum[h]`` and has at most ``limit`` outcomes,
so with ``U_h = log_sum[h] + slack * steps_left``, when ``U_h <= 0`` its
normalised score is at most ``U_h / limit`` (a sum at most 0 divided by at
most ``limit``).  Once this step's ``<eos>`` entries are recorded, the search
breaks before the top-k when ``max(U) <= 0`` and ``max(U) / limit < best``,
the best finished score so far.  Then every entry the full search would
still record, and every live row appended at the break (its sum at most
``max(U) <= 0`` over at most ``limit`` outcomes), scores strictly below
``best``: the final pick, which ranks by score and then takes the earliest
recorded, is the hypothesis the full search returns.  IEEE rounding is
monotone, so the strict comparison on the computed floats carries over.

``slack`` is ``2 * (N + 4) * eps + limit * 2**-40``, where ``N`` is the
number of routes (source positions, list words and tags) and ``eps`` the
machine epsilon of the model's dtype, whose unit roundoff is ``u = eps / 2``.
A column's mass is at most the sum of every route's mass, which exceeds 1
only by rounding: each head's softmax sums at most ``N`` terms and divides
once, the switch's softmax sums three, each switch-times-head product
rounds once, and a column's float64 sum adds at most ``N`` roundings.  So a
mass is at most ``1 + (2 * N + 4) * u`` to first order, and the factor 2
left over covers the higher-order terms while ``N * eps`` is below 0.01.
Every running sum lies within ``745 * limit`` of zero (``log`` of the least
positive float64 is -745), so each float64 addition to it, and the rounding
of ``U`` itself, moves it by less than ``limit * 2**-43``: the second term
covers that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .codec import EOS_ID, PAD_ID, SOS_ID, EncodedExample, Vocab, realize
from .model import EncoderDecoder, PreparedExample
from .morphology import ALL_TYPES, Morphology
from .tensor import Array


@dataclass(frozen=True)
class BeamResult:
    """One decoded hypothesis: its actions, normalised score, and status.
    ``beam_search`` also sets ``steps``, the beam steps it ran: the length
    limit, or fewer when the search stopped early."""

    actions: tuple
    score: float
    finished: bool
    steps: int = 0


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
    enc = model.encode(prep)
    columns = model.outcome_columns(prep.roots)
    n_words = len(columns.words)
    n_cols = n_words + len(ALL_TYPES)
    # A column's decoder input is a reserved id only for that reserved word:
    # other words map to their encoder ids or UNK_ID, tags past the vocabulary.
    eos_col = int(np.flatnonzero(columns.inputs == EOS_ID)[0])
    # Outcomes a hypothesis may extend with, before the tag rule; <eos>
    # ends it instead.
    extendable = ~np.isin(columns.inputs, (PAD_ID, SOS_ID, EOS_ID))
    word_cols = np.arange(n_cols) < n_words

    # The live beam, best first: states as (k, d_h) rows, float64 log sums.
    s = enc["s0"][None, :]
    c = np.zeros((1, model.hyper.hidden_size), dtype=model.dtype)
    inputs = np.array([SOS_ID])
    log_sum = np.zeros(1)
    last_was_word = np.zeros(1, dtype=bool)
    # Back-pointers of each cut: the kept rows' parent rows and columns, and
    # the parents' copy probabilities, which name a root column's position.
    parents: list[Array] = []
    cols: list[Array] = []
    p_copies: list[Array] = []
    # The finished hypotheses in record order: per step that recorded some,
    # the step, the rows that ended there and their scores.
    ended: list[tuple[int, Array, Array]] = []
    best = -np.inf  # the best finished score so far
    # The most one log-mass can exceed 0 by, rounding included (see above).
    n_routes = len(prep.roots) + model.vocab.quest_size + len(ALL_TYPES)
    slack = 2 * (n_routes + 4) * np.finfo(model.dtype).eps + limit * 2.0 ** -40

    with np.errstate(divide="ignore"):
        for steps in range(1, limit + 1):
            state = model.step(enc, s, c, inputs)
            mass = model.outcome_mass(state, columns)
            scores = log_sum[:, None] + np.log(mass)
            # Every live row has steps - 1 actions, so <eos> is its steps-th outcome.
            rows = (mass[:, eos_col] > 0.0).nonzero()[0]
            if rows.size:
                ended.append((steps, rows, scores[rows, eos_col] / steps))
                best = max(best, float(ended[-1][2].max()))
            # No descendant of a live row can score above bound / limit.
            bound = float(log_sum.max()) + slack * (limit - steps + 1)
            if bound <= 0.0 and bound / limit < best:
                break
            open_ = extendable & (word_cols | last_was_word[:, None]) & (mass > 0.0)
            flat = open_.ravel().nonzero()[0]
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
            keep_hyp, keep_col = np.divmod(flat[keep], n_cols)
            parents.append(keep_hyp)
            cols.append(keep_col)
            p_copies.append(state["p_copy"])
            log_sum = cand[keep]
            last_was_word = word_cols[keep_col]
            inputs = columns.inputs[keep_col]
            s, c = state["s"][keep_hyp], state["c"][keep_hyp]

    # The pick: the highest score, a finished hypothesis over an unfinished
    # one, then the earliest recorded; argmax takes the first of equals.
    live = log_sum / max(len(cols), 1)
    h = int(live.argmax())
    score, length, finished = float(live[h]), len(cols), False
    if ended:
        done = np.concatenate([step_scores for _at, _rows, step_scores in ended])
        i = int(done.argmax())
        if done[i] >= score:
            score, finished = float(done[i]), True
            for at, rows, _scores in ended:
                if i < rows.size:
                    break
                i -= rows.size
            h, length = int(rows[i]), at - 1
    # Follow the back-pointers from the pick's row at its last cut.
    actions = []
    for cut in range(length - 1, -1, -1):
        parent = int(parents[cut][h])
        actions.append(columns.action(int(cols[cut][h]), p_copies[cut][parent]))
        h = parent
    return BeamResult(actions=tuple(reversed(actions)), score=score, finished=finished,
                      steps=steps)


def decode_example(
    model: EncoderDecoder,
    example: EncodedExample,
    vocab: Vocab,
    morphology: Optional[Morphology] = None,
    beam_size: Optional[int] = None,
) -> tuple[str, BeamResult]:
    """Decode an encoded example: the actions realised as a word string,
    and the search's result."""
    prep = model.prepare(example)
    result = beam_search(model, prep, beam_size=beam_size)
    return realize(list(result.actions), list(prep.roots), vocab, morphology), result


def generate_question(
    model: EncoderDecoder,
    example: EncodedExample,
    vocab: Vocab,
    morphology: Optional[Morphology] = None,
    beam_size: Optional[int] = None,
) -> str:
    """Decode an encoded example and realise the actions as a word string."""
    return decode_example(model, example, vocab, morphology, beam_size)[0]
