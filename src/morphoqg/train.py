"""Training loop: teacher forcing, per-token mean loss, Adam with clipping.

The loss at each decoder step is the negative log of the supervised
outcome's mass: the sum of the routes that emit it, which is byte for
byte its column of :meth:`morphoqg.model.EncoderDecoder.outcome_mass`,
the mixing of the three routes that beam search ranks.  Each batch, and
each dev chunk of the same size, runs as one padded pass; gradients are
averaged over every target token in the batch by the scale that
:meth:`morphoqg.tensor.Adam.step` applies.  The ``emb/word`` table is
updated lazily: its gradient comes from ``loss_and_grads`` as a block of
only the rows the batch reads, with their ids, and the clip norm and the
Adam update read that block and touch only those rows, so a row no batch
reads keeps its weights and moments.  The table's view of the gradient
store is never written, so its pages stay unmapped: at hidden 512 and a
30,000-word table that keeps 36 MB out of memory.  Adam packs the
table's moment rows in the order batches first read them, so the rows no
batch reads keep their moments, 72 MB of them at that size, out of
memory too; only the table's weights, drawn or loaded whole, are
resident in full.  The weights, the gradients (``zero_grads``, allocated
once per run), Adam's moments and the best dev weights are stores
(:class:`morphoqg.tensor.ParameterStore`) of one layout, so Adam updates,
and a step's end zeroes, every other tensor as one run of their flat
buffers.  The best dev weights get their buffer at the first dev
improvement, and each later one is copied into it, so no second copy is
made while the first lives; they are copied back at the end in one
pass.  All randomness — example order and dropout — flows from a single
seed, so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import math

import numpy as np

from .errors import DivergenceError, EmptyInputError
from .model import EncoderDecoder, PreparedExample
from .tensor import Adam, ParameterStore


@dataclass
class TrainConfig:
    """Knobs for one training run."""

    max_steps: int = 2000
    batch_size: int = 32
    learning_rate: float = 0.002
    clip_norm: float = 5.0
    seed: int = 42
    eval_every: int = 100


@dataclass
class TrainResult:
    """What a run produced: per-step losses and pre-clip gradient norms,
    and the best weights seen."""

    steps: int
    train_losses: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    eval_losses: list = field(default_factory=list)
    best_eval_loss: float = math.inf
    best_weights: Optional[ParameterStore] = None
    stopped_early: bool = False


def evaluate_mean_loss(model: EncoderDecoder, prepared: Sequence[PreparedExample],
                       batch_size: int = TrainConfig.batch_size) -> float:
    """Per-token mean negative log-likelihood with dropout off.  The
    examples run as padded batches of at most ``batch_size``, in order, so
    a large dev set never becomes one batch."""
    if not prepared:
        raise EmptyInputError("no examples to evaluate")
    loss = tokens = 0
    for start in range(0, len(prepared), batch_size):
        chunk_loss, chunk_tokens = model.loss_and_grads(prepared[start : start + batch_size])
        loss += chunk_loss
        tokens += chunk_tokens
    return loss / tokens


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    """Endless stream of index batches, reshuffling each pass."""
    while True:
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            chunk = order[start : start + batch_size]
            if len(chunk) > 0:
                yield chunk


def train(
    model: EncoderDecoder,
    train_examples: Sequence[PreparedExample],
    config: TrainConfig,
    dev_examples: Optional[Sequence[PreparedExample]] = None,
    should_stop: Optional[Callable[[int, EncoderDecoder], bool]] = None,
    log: Optional[Callable[[str], None]] = None,
) -> TrainResult:
    """Run up to ``config.max_steps`` optimiser updates.

    Raises :class:`DivergenceError` the moment a batch loss is not finite.
    When ``dev_examples`` is given the weights with the best dev loss are
    kept in ``TrainResult.best_weights``, a copy of the model's parameter
    store, and copied back into the model's buffer at the end.
    ``should_stop(step, model)`` may end the run early.
    """
    if not train_examples:
        raise EmptyInputError("no training examples")
    rng = np.random.default_rng(config.seed)
    dropout_rng = np.random.default_rng(config.seed + 1)
    optimizer = Adam(model.store, lr=config.learning_rate,
                     clip_norm=config.clip_norm)
    result = TrainResult(steps=0)
    batch_stream = _batches(len(train_examples), config.batch_size, rng)
    grads = model.zero_grads()  # allocated once, zeroed in place after every step
    rows: dict = {}  # each row-sparse gradient as (ids, values), per step

    for step in range(1, config.max_steps + 1):
        indices = next(batch_stream)
        batch = [train_examples[i] for i in indices]
        loss_sum, tokens = model.loss_and_grads(batch, grads=grads,
                                                rng=dropout_rng, rows=rows)
        mean_loss = loss_sum / tokens
        if not math.isfinite(mean_loss):
            raise DivergenceError(
                f"non-finite loss {mean_loss!r} at step {step}")
        norm = optimizer.step(grads, scale=1.0 / tokens, rows=rows)
        for run in grads.runs(rows):
            grads.flat[run].fill(0)
        result.steps = step
        result.train_losses.append(mean_loss)
        result.grad_norms.append(norm)
        if log and step % config.eval_every == 0:
            clipped = ", clipped" if 0 < config.clip_norm < norm else ""
            log(f"step {step}: train loss {mean_loss:.4f}, grad norm {norm:.4f}{clipped}")

        due = step % config.eval_every == 0 or step == config.max_steps
        if due and dev_examples:
            dev_loss = evaluate_mean_loss(model, dev_examples, config.batch_size)
            result.eval_losses.append((step, dev_loss))
            if log:
                log(f"step {step}: dev loss {dev_loss:.4f}")
            if dev_loss < result.best_eval_loss:
                result.best_eval_loss = dev_loss
                if result.best_weights is None:
                    result.best_weights = model.store.astype(model.dtype)
                else:
                    np.copyto(result.best_weights.flat, model.store.flat)
        if due and should_stop is not None and should_stop(step, model):
            result.stopped_early = True
            break

    if result.best_weights is not None:
        model.store.flat[...] = result.best_weights.flat
    return result
