"""Numeric core: array kernels, parameters, gradient checking, Adam, checkpoints.

The array kernels are the one implementation of the decoder's numeric
pieces: the GRU gate ``sigmoid``, the attention and head ``softmax`` with
its backward, the ``linear`` weight product, the ``affine`` map and the
two-piece ``maxout_affine`` readout with their backward halves, and the
inverted-dropout mask.  They are plain functions that keep the input
dtype and act on the last axis, so one row and a batch of rows run the
same code, in float32 for training and in float64 when
:func:`grad_check` compares the model's hand-written backward pass
against central finite differences.  Every forward weight product goes
through ``linear``, which puts the weight on the left (``W @ rows.T``)
so that BLAS packs it in its stored row order, and hands the rows back
C-contiguous so that the last-axis sums after it (``softmax``) add
along each row in memory order.  No kernel selects element by element
with ``np.where``: ``sigmoid`` and the maxout forward take ``np.maximum``
and the maxout backward multiplies by the winner masks, so a
data-dependent mask costs no mispredicted branch.
:class:`ParameterStore` is the one tensor container: a dict of named
views of one flat buffer, in the order its caller lays out, which need
not be the draw order.  A model's weights, its gradients
(``zero_grads``), :class:`Adam`'s moments, the best dev weights and the
float64 twin (``astype``) are all stores of one layout, and assigning to
a tensor writes into its view, so the layout never changes.  A store is
a mapping of name to array, so it goes straight to
:func:`save_checkpoint`, :func:`load_checkpoint` and :func:`grad_check`.
:class:`Adam` scales the gradients it is given, clips them and
updates in place: each run of consecutive dense tensors as stretches of
the flat buffers, in blocks through one scratch buffer, with the bits of
a tensor-by-tensor update.  A row-sparse tensor (``emb/word``) comes as
its row ids and a block of their gradient rows, in place of its view of
the gradient store, which is then never read: the block alone counts in
the norm, and only those rows' weights and moments are updated, as a lazy
sparse Adam.  Its weights stay in id order; its moment rows are packed in
the order steps first touch them, so the rows no step reads keep their
moment pages, as well as their gradient pages, out of memory.
Checkpoints carry a SHA-256 checksum that loading verifies, and loading
can read each tensor straight into the array it belongs in.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import FileError, ParseError

Array = np.ndarray

TRAIN_DTYPE = np.float32
CHECK_DTYPE = np.float64

# Weight initialisation, following the regime the trainer expects:
# square-ish recurrent matrices draw from uniform(-0.08, 0.08), input and
# output projections use a fan-scaled uniform, and biases start at zero.
RECURRENT_INIT_SCALE = 0.08


# ---------------------------------------------------------------------------
# Array kernels.  Plain functions that keep the input dtype.  Every kernel
# acts on the last axis, so a (k, m) batch gives the same rows as k 1-D
# calls.  The model's one GRU cell runs the forward kernels on the (B, ·)
# rows of a training batch at each encoder token and teacher-forced decoder
# step, and on all live hypotheses at once in beam search; in training the
# switch and heads run them, and their backward halves, on all
# teacher-forced steps of a batch at once.
# ---------------------------------------------------------------------------


def sigmoid(x: Array) -> Array:
    """Logistic function, computed in an overflow-safe form.

    With ``e = exp(-|x|)``, which never overflows, the value is
    ``1 / (1 + e)`` where ``x >= 0`` and ``e / (1 + e)`` elsewhere.  The
    numerator is taken without a per-element branch as ``max(e, x >= 0)``:
    1 where ``x >= 0`` (``e`` is at most 1 there) and ``e`` elsewhere, so
    the bytes are those of the two-branch form, ``-0.0`` giving 0.5 and a
    NaN giving NaN."""
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1 + e)


def softmax(x: Array) -> Array:
    """Softmax over the last axis with max subtraction for stability.

    The max and the sum are the ufunc reductions ``np.maximum.reduce`` and
    ``np.add.reduce`` that ``np.max`` and ``np.sum`` call: the same bits,
    without those functions' Python wrappers, which cost about 3 µs a call
    over the thousands of calls of a training pass and its beam searches."""
    shifted = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    ex = np.exp(shifted, out=shifted)
    ex /= np.add.reduce(ex, axis=-1, keepdims=True)
    return ex


def softmax_backward(out: Array, d_out: Array) -> Array:
    """Gradient at the logits, given the softmax output and its gradient;
    the sum is ``np.add.reduce``, as in :func:`softmax`."""
    return out * (d_out - np.add.reduce(d_out * out, axis=-1, keepdims=True))


def linear(W: Array, u: Array) -> Array:
    """``u @ W.T``, the one forward weight product, as one matrix product
    over every row of ``u``, whatever its leading axes: numpy's stacked
    matmul would take one product, and read ``W`` once, per index of the
    first of them.  It is taken as ``W @ rows.T``, the weight on the left
    in its stored order: BLAS then packs ``W`` as it lies instead of
    transposing it, which at a dozen rows runs up to twice as fast; on
    OpenBLAS the float32 bits are the same.  The rows come back
    C-contiguous, because a last-axis reduction of a transposed view
    (``softmax``'s sum) adds in another order and changes the bits.
    Rows that are already 2-D skip the two reshapes.

    ``W`` may also be a (S, out, in) stack of S weights, one for each index
    of ``u``'s first axis: each takes its rows as one product, as a
    2-D ``W`` would, with the same bits."""
    if u.ndim == 2 == W.ndim:
        return np.ascontiguousarray((W @ u.T).T)
    rows = u.reshape(u.shape[: W.ndim - 2] + (-1, u.shape[-1]))
    out = np.ascontiguousarray((W @ rows.swapaxes(-1, -2)).swapaxes(-1, -2))
    return out.reshape(u.shape[:-1] + (-1,))


def affine(W: Array, b: Array, u: Array) -> Array:
    """``u @ W.T + b``: :func:`linear` plus the bias, C-contiguous rows
    with ``u``'s leading axes."""
    return linear(W, u) + b


def affine_backward(W: Array, dW: Array, d_out: Array, blocks, start: int = 0) -> None:
    """Backward through :func:`affine` on rows whose input is the column
    concatenation of ``blocks``, taken block by block so that it is never
    built: each block is its (k, m_i) rows and the array their gradient
    is added to, and its columns of ``W`` begin where the previous
    block's end, the first at ``start``.  Adds the weight gradient to
    ``dW``; the bias gradient is ``d_out.sum(axis=0)``."""
    for X, dX in blocks:
        cols = slice(start, start + X.shape[1])
        dW[:, cols] += d_out.T @ X
        dX += d_out @ W[:, cols]
        start += X.shape[1]


def maxout_affine(W: Array, b: Array, u: Array) -> tuple[Array, Array]:
    """Two-piece maxout over an affine map; returns (hidden, winners).

    The :func:`affine` output ``u @ W.T + b`` is split along its last axis
    into two halves, the pieces, and each hidden unit takes the larger
    piece.  Ties pick the first.  ``winners`` is True where the second
    piece won, which is the index of the winning piece.  ``u`` is one row
    or rows with any leading axes; ``b`` may be rows too, broadcast against
    them.

    The larger piece is ``np.maximum(second, first)``, with no per-element
    branch.  On finite pieces it is the winner's value byte for byte; on a
    tie of ``+0.0`` and ``-0.0`` it is the first piece's zero, as a tie
    picks the first.  A NaN in either piece gives NaN, and ``winners`` is
    then False.
    """
    a = affine(W, b, u)
    pieces = a.reshape(a.shape[:-1] + (2, -1))
    winners = pieces[..., 1, :] > pieces[..., 0, :]
    return np.maximum(pieces[..., 1, :], pieces[..., 0, :]), winners


def maxout_affine_backward(winners: Array, d_hidden: Array) -> Array:
    """Gradient at the affine output: each unit's gradient goes to its
    winning piece, and the other piece gets zero.

    Each piece's gradient is ``d_hidden`` times that piece's winner mask,
    with no per-element branch.  The losing piece therefore gets ``-0.0``
    where ``d_hidden`` is negative, and NaN where it is infinite or NaN."""
    second = np.asarray(winners, dtype=bool)
    pieces = np.empty(d_hidden.shape[:-1] + (2,) + d_hidden.shape[-1:], dtype=d_hidden.dtype)
    np.multiply(d_hidden, ~second, out=pieces[..., 0, :])
    np.multiply(d_hidden, second, out=pieces[..., 1, :])
    return pieces.reshape(d_hidden.shape[:-1] + (-1,))


def dropout_mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator,
                 dtype=TRAIN_DTYPE) -> Array:
    """Inverted-dropout mask: zeros with probability ``rate``, else 1/(1-rate).

    A rate of zero yields an all-ones mask, so applying it is the identity.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(shape, dtype=dtype)
    keep = (rng.random(shape) >= rate).astype(dtype)
    return keep / dtype(1.0 - rate)


# ---------------------------------------------------------------------------
# Parameter store.
# ---------------------------------------------------------------------------


# Elements per float64 block that the initialisers draw at a time.
INIT_BLOCK = 1 << 18


def uniform_init(rng: np.random.Generator, out: Array,
                 scale: float = RECURRENT_INIT_SCALE) -> Array:
    """Fill ``out`` with a uniform(-scale, scale) sample and return it; the
    default scale suits recurrent weights.

    Values are drawn in float64 and stored in ``out``'s dtype.  The draws
    go in blocks of rows, so a float32 tensor needs no float64 copy of its
    whole size; the values equal one whole draw cast to that dtype.
    ``out`` must be C-contiguous.
    """
    rows = out.reshape(-1, out.shape[-1]) if out.ndim and out.size else out.reshape(1, -1)
    step = max(1, INIT_BLOCK // max(1, rows.shape[1]))
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        block[...] = rng.uniform(-scale, scale, size=block.shape)
    return out


def scaled_uniform_init(rng: np.random.Generator, out: Array) -> Array:
    """Fan-scaled uniform init for projection matrices, in place:
    U(±sqrt(6/(fan_in+fan_out)))."""
    if out.ndim == 2:
        fan_in, fan_out = out.shape[1], out.shape[0]
    else:
        fan_in = fan_out = out.size
    return uniform_init(rng, out, np.sqrt(6.0 / (fan_in + fan_out)))


class ParameterStore(dict):
    """Named tensors that are consecutive views of one flat buffer: a
    model's weights, and its gradients, :class:`Adam`'s moments, the best
    dev weights and the float64 twin alike.

    ``flat`` is the buffer and ``layout`` the ``(name, shape)`` of each
    tensor in buffer order; :meth:`draw` makes seeded weights.  Assigning
    ``store[name] = value`` writes ``value`` into the tensor's view (the
    same shape, else ``ValueError``), and so do ``update`` and ``|=``, so
    every tensor stays a view of ``flat`` and the layout never changes;
    ``store[name] += x`` adds in place.  No tensor can be added or removed
    (``del``, ``pop``, ``popitem``, ``clear`` and ``setdefault`` raise
    ``TypeError``), since the model's cached stacks are views that a
    rebinding would leave stale.  A copy, shallow or deep, gets a buffer
    of its own.  :meth:`zero_grads` gives gradients in the same layout,
    and :class:`Adam` keeps its moments in it, to update each run of
    tensors in a few whole-block passes; within a row-sparse tensor's
    moment views the rows are packed in first-touch order, while its
    weights stay in id order.
    """

    __slots__ = ("flat", "layout", "_bounds", "_runs")

    def __init__(self, flat: Array, layout: tuple[tuple[str, tuple[int, ...]], ...]) -> None:
        super().__init__()
        self.flat, self.layout, self._bounds, self._runs = flat, layout, {}, {}
        start = 0
        for name, shape in layout:
            end = start + math.prod(shape)
            dict.__setitem__(self, name, flat[start:end].reshape(shape))
            self._bounds[name] = (start, end)
            start = end

    @classmethod
    def draw(cls, init_seed: int, specs: Iterable[tuple[str, tuple[int, ...], str]],
             dtype=TRAIN_DTYPE, layout: Iterable[str] | None = None) -> "ParameterStore":
        """A store of seeded weights.  ``specs`` gives each tensor's name,
        shape and init scheme, in registration order: ``uniform``,
        ``scaled`` (fan-scaled uniform), ``zeros``, or ``empty``, which
        leaves the tensor for the caller to fill (a checkpoint load).
        ``layout`` names them in buffer order (default: registration
        order).  Each is drawn into its view in registration order from
        one generator seeded by ``init_seed``, so that order, not the
        buffer's, pins the values."""
        specs = list(specs)
        shapes: dict[str, tuple[int, ...]] = {}
        for name, shape, init in specs:
            if name in shapes:
                raise ParseError(f"duplicate parameter name: {name!r}")
            if init not in ("uniform", "scaled", "zeros", "empty"):
                raise ValueError(f"unknown init scheme: {init!r}")
            shapes[name] = tuple(shape)
        size = sum(math.prod(shape) for shape in shapes.values())
        store = cls(np.empty(size, dtype=dtype),
                    tuple((name, shapes[name]) for name in layout or shapes))
        rng = np.random.default_rng(init_seed)
        for name, _shape, init in specs:
            arr = store[name]
            if init == "uniform":
                uniform_init(rng, arr)
            elif init == "scaled":
                scaled_uniform_init(rng, arr)
            elif init == "zeros":
                arr.fill(0)
        return store

    def __setitem__(self, name: str, value) -> None:
        view = self[name]
        if value is not view:
            if np.shape(value) != view.shape:
                raise ValueError(f"tensor {name!r} has shape {view.shape}, "
                                 f"cannot assign shape {np.shape(value)}")
            view[...] = value

    def update(self, other=(), /, **kwargs) -> None:
        """Write each given tensor into its view, as ``store[name] = value``."""
        for name, value in dict(other, **kwargs).items():
            self[name] = value

    def __ior__(self, other) -> "ParameterStore":
        self.update(other)
        return self

    def _fixed_layout(self, *args, **kwargs):
        raise TypeError("a ParameterStore's tensors are fixed views of its buffer: "
                        "none can be added or removed")

    __delitem__ = pop = popitem = clear = setdefault = _fixed_layout

    def copy(self) -> "ParameterStore":
        """A store of the same layout over a copy of ``flat``."""
        return ParameterStore(self.flat.copy(), self.layout)

    __copy__ = copy

    def __reduce__(self):
        # A deep copy or pickle rebuilds the views over its own copy of ``flat``.
        return ParameterStore, (self.flat, self.layout)

    def stack(self, first: str, last: str, shape: tuple[int, ...] | None = None) -> Array:
        """Tensors ``first`` to ``last`` as one view of ``flat``, of ``shape``;
        by default stacked along their first axis, in which alone they may
        differ."""
        start, end = self._bounds[first][0], self._bounds[last][1]
        return self.flat[start:end].reshape(shape or (-1,) + self[first].shape[1:])

    def runs(self, skip: Iterable[str]) -> tuple[slice, ...]:
        """The slices of ``flat`` that hold each run of consecutive tensors
        not named in ``skip``.  Cached per set of skipped names."""
        skip = frozenset(skip)
        cached = self._runs.get(skip)
        if cached is not None:
            return cached
        runs: list[slice] = []
        for name, (start, end) in self._bounds.items():
            if name in skip:
                continue
            if runs and runs[-1].stop == start:
                runs[-1] = slice(runs[-1].start, end)
            else:
                runs.append(slice(start, end))
        self._runs[skip] = tuple(runs)
        return self._runs[skip]

    def zero_grads(self) -> "ParameterStore":
        """Zeroed gradient accumulators for every tensor, laid out as the
        store.  ``np.zeros``, not ``np.zeros_like``: the pages stay
        untouched until a gradient is written to them."""
        return ParameterStore(np.zeros(self.flat.size, dtype=self.flat.dtype), self.layout)

    def check_grads(self, grads, taker: str) -> None:
        if not isinstance(grads, ParameterStore) or grads.layout != self.layout:
            raise TypeError(f"{taker} takes a zero_grads() buffer, got {type(grads).__name__}")

    def astype(self, dtype) -> "ParameterStore":
        """Copy of the store, its buffer cast to ``dtype`` in one pass and
        laid out the same (float64 for checking)."""
        return ParameterStore(self.flat.astype(dtype), self.layout)


# ---------------------------------------------------------------------------
# Gradient checking.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradReport:
    """Comparison of analytic vs finite-difference gradients for one tensor."""

    name: str
    rel_error: float
    max_abs_diff: float
    passed: bool


def grad_check(
    loss_fn: Callable[[], float],
    params: Mapping[str, Array],
    analytic: Mapping[str, Array],
    eps: float = 1e-5,
    tolerance: float = 1e-4,
) -> list[GradReport]:
    """Verify analytic gradients against central finite differences.

    ``loss_fn`` must recompute the scalar loss from the current contents
    of ``params`` (which are perturbed in place and restored), and must
    be deterministic — freeze any dropout masks before calling.  For each
    tensor the finite-difference gradient is (f(x+eps) - f(x-eps)) / 2eps
    elementwise, and the reported relative error is

        max|g_analytic - g_fd| / (max|g_fd| + 1e-12).
    """
    reports = []
    for name, arr in params.items():
        g_fd = np.zeros_like(arr, dtype=CHECK_DTYPE)
        flat = arr.reshape(-1)
        fd_flat = g_fd.reshape(-1)
        for i in range(flat.shape[0]):
            original = flat[i]
            flat[i] = original + eps
            loss_plus = loss_fn()
            flat[i] = original - eps
            loss_minus = loss_fn()
            flat[i] = original
            fd_flat[i] = (loss_plus - loss_minus) / (2.0 * eps)
        diff = np.abs(np.asarray(analytic[name], dtype=CHECK_DTYPE) - g_fd)
        max_abs_diff = float(np.max(diff)) if diff.size else 0.0
        denom = float(np.max(np.abs(g_fd))) if g_fd.size else 0.0
        rel = max_abs_diff / (denom + 1e-12)
        reports.append(GradReport(name=name, rel_error=rel,
                                  max_abs_diff=max_abs_diff,
                                  passed=rel < tolerance))
    return reports


# ---------------------------------------------------------------------------
# Adam with global-norm clipping.
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per update block: the gradient, weight, moments and two scratch
# blocks of this size (at float32, 256 KB each) stay within a 2 MB L2 cache.
ADAM_BLOCK = 1 << 16


@dataclass
class Adam:
    """Adam optimiser over a :class:`ParameterStore` with gradient clipping.

    The moments ``m`` and ``v`` are the store's :meth:`~ParameterStore.zero_grads`,
    so weights, gradients and moments share one layout, and each run of
    consecutive tensors that take a dense update is updated as one
    stretch of their flat buffers, block by block.  A row-sparse tensor's
    weights are in id order, but its moment rows in ``_m`` and ``_v`` are
    packed in first-touch order: its slot map (``_slot_of``, one int per
    row, -1 until a step first gives the row) says where each row's
    moments lie, so the rows steps have written lie together at the front
    of its moment views (see :meth:`_slots`)."""

    store: ParameterStore
    lr: float = 0.002
    clip_norm: float = 5.0
    _m: ParameterStore = field(init=False)
    _v: ParameterStore = field(init=False)
    _scratch: Array = field(init=False)
    _chunks: dict = field(init=False, default_factory=dict)  # see _norm_chunks
    _slot_of: dict = field(init=False, default_factory=dict)  # see _slots
    _slots_used: dict = field(init=False, default_factory=dict)
    _t: int = 0

    def __post_init__(self) -> None:
        self._m = self.store.zero_grads()
        self._v = self.store.zero_grads()
        # One buffer shared by all: the norm squares chunks no larger than
        # the largest tensor (or a tensor's block of rows) in it, and the
        # update takes g and a temporary from its front for blocks of
        # ADAM_BLOCK elements, or of half its size if the store is smaller.
        size = max((arr.size for _name, arr in self.store.items()), default=0)
        size = max(size, 2 * min(ADAM_BLOCK, self.store.flat.size), 2)
        self._scratch = np.empty(size, dtype=self.store.flat.dtype)

    def step(self, grads: ParameterStore, scale: float = 1.0,
             rows: Mapping[str, tuple[Array, Array]] | None = None) -> float:
        """Apply one update to the gradients ``grads`` times ``scale`` (the
        trainer's 1/tokens); returns their pre-clip global norm.

        ``grads`` is a :class:`ParameterStore` in the store's layout, as
        :meth:`ParameterStore.zero_grads` makes (``TypeError`` otherwise).
        The update runs in place through preallocated buffers, in the order
        ``g = grad * scale * clip``, ``m += (1 - beta1) * (g - m)``,
        ``v += (1 - beta2) * (g * g - v)``, then
        ``lr * m_hat / (sqrt(v_hat) + eps)`` from the bias-corrected
        moments.  Each operation is elementwise, so each run of consecutive
        dense tensors is updated in blocks of the flat buffers with the
        bytes of a tensor-by-tensor update.  The clip factor comes from the
        norm of the scaled gradients.

        ``rows`` maps the name of a row-sparse tensor to ``(ids, values)``:
        the sorted unique ids of the rows that hold all of its gradient, and
        a ``(len(ids),) + row shape`` block of those rows' gradients, which
        take the place of the tensor's view in ``grads``; that view is
        never read.  A bare id array raises ``TypeError``, a block of
        another shape ``ValueError``.  Only the block counts in the norm,
        and only the given rows' weights and moments are gathered, updated
        and written back, bias-corrected by the global step count: the
        other rows' moments do not decay and their weights do not move (the
        lazy Adam of ``torch.optim.SparseAdam``).  The weights are read and
        written at ``ids``, the moments at the ids' slots, which new ids
        take in first-touch order (:meth:`_slots`); each value is the one
        an id-ordered layout would give, only where the moments lie moves.
        """
        rows = rows or {}
        norm = self._global_norm(grads, scale, rows)
        clip = 1.0
        if self.clip_norm > 0 and norm > self.clip_norm:
            clip = self.clip_norm / norm
        self._t += 1
        span = min(ADAM_BLOCK, self._scratch.size // 2)
        flats = (grads.flat, self.store.flat, self._m.flat, self._v.flat)
        for run in grads.runs(rows):
            for start in range(run.start, run.stop, span):
                block = slice(start, min(start + span, run.stop))
                self._update(*(x[block] for x in flats), scale, clip)
        for name, (ids, values) in rows.items():
            slots = self._slots(name, ids)
            weights, m_rows, v_rows = self.store[name], self._m[name], self._v[name]
            per_block = max(1, span // weights[0].size)
            for start in range(0, len(ids), per_block):
                block, at = ids[start : start + per_block], slots[start : start + per_block]
                arr, m, v = weights[block], m_rows[at], v_rows[at]
                self._update(values[start : start + per_block], arr, m, v, scale, clip)
                weights[block], m_rows[at], v_rows[at] = arr, m, v
        return norm

    def _slots(self, name: str, ids: Array) -> Array:
        """The slots, the moment rows, of row-sparse tensor ``name``'s rows
        ``ids`` (sorted and unique); the ids without a slot take the next
        free ones, in id order.  The tensor's slot map, made at its first
        step, has an entry per row, -1 where a row has no slot yet."""
        slot = self._slot_of.get(name)
        if slot is None:
            slot = self._slot_of[name] = np.full(len(self.store[name]), -1, dtype=np.intp)
            self._slots_used[name] = 0
        new = ids[slot[ids] < 0]
        used = self._slots_used[name]
        slot[new] = np.arange(used, used + len(new))
        self._slots_used[name] = used + len(new)
        return slot[ids]

    def _global_norm(self, grads: ParameterStore, scale: float = 1.0,
                     rows: Mapping[str, tuple[Array, Array]] | None = None) -> float:
        """The L2 norm of all of ``grads`` times ``scale``, a tensor named
        in ``rows`` counted by its ``(ids, values)`` block alone (checked
        as :meth:`step` says).  The scaled squares are taken in the scratch
        buffer, so no temporary the size of a gradient is made: a row-sparse
        tensor's block, and consecutive dense tensors in chunks of the flat
        buffer (:meth:`_norm_chunks`), two products a chunk.  Each tensor's
        squares are then summed by one ``np.add.reduce`` over its view, as
        ``np.sum`` would, and the sums added in layout order, so the norm
        has the bits of squaring and summing tensor by tensor."""
        self.store.check_grads(grads, "Adam")
        rows = rows or {}
        for name, entry in rows.items():
            if not (isinstance(entry, tuple) and len(entry) == 2):
                raise TypeError(f"rows[{name!r}] must be an (ids, values) pair, "
                                f"got {type(entry).__name__}")
            want = (len(entry[0]),) + self.store[name].shape[1:]
            if np.shape(entry[1]) != want:
                raise ValueError(f"rows[{name!r}] has values of shape {np.shape(entry[1])} "
                                 f"for {len(entry[0])} ids; expected {want}")
        total = 0.0
        for chunk in self._norm_chunks(frozenset(rows)):
            if isinstance(chunk, str):
                g = rows[chunk][1]
                sq = self._scratch[: g.size]
                np.multiply(g, scale, out=sq.reshape(g.shape))
                tensors = ((0, g.size, g.shape),)
            else:
                start, stop, tensors = chunk
                sq = self._scratch[: stop - start]
                np.multiply(grads.flat[start:stop], scale, out=sq)
            np.multiply(sq, sq, out=sq)
            for begin, end, shape in tensors:
                total += float(np.add.reduce(sq[begin:end].reshape(shape), axis=None))
        return float(np.sqrt(total))

    def _norm_chunks(self, sparse: frozenset) -> tuple:
        """The order in which :meth:`_global_norm` squares the tensors: the
        name of each tensor in ``sparse``, and for each chunk of
        consecutive other tensors its ``(start, stop)`` in the flat buffer
        and each tensor's ``(start, stop, shape)`` within it.  A chunk is
        never larger than the largest of those tensors, so squaring it
        touches no page of the scratch buffer that squaring that tensor
        alone would not.  Cached per set of sparse names."""
        cached = self._chunks.get(sparse)
        if cached is not None:
            return cached
        bounds = self.store._bounds
        cap = max((end - start for name, (start, end) in bounds.items() if name not in sparse),
                  default=0)
        chunks: list = []
        for name, shape in self.store.layout:
            start, end = bounds[name]
            if name in sparse:
                chunks.append(name)
            elif chunks and not isinstance(chunks[-1], str) and end - chunks[-1][0] <= cap:
                first, _stop, tensors = chunks[-1]
                chunks[-1] = (first, end, tensors + ((start - first, end - first, shape),))
            else:
                chunks.append((start, end, ((0, end - start, shape),)))
        self._chunks[sparse] = tuple(chunks)
        return self._chunks[sparse]

    def _update(self, grad: Array, arr: Array, m: Array, v: Array,
                scale: float, clip: float) -> None:
        """Update ``arr``, ``m`` and ``v`` in place from ``grad``, all of one
        shape and at most half the scratch buffer's size."""
        n = grad.size
        g = self._scratch[:n].reshape(grad.shape)
        a = self._scratch[n : 2 * n].reshape(grad.shape)
        t = self._t
        np.multiply(grad, scale, out=g)
        if clip != 1.0:
            g *= clip
        np.subtract(g, m, out=a)
        a *= 1.0 - ADAM_BETA1
        m += a
        np.multiply(g, g, out=a)
        a -= v
        a *= 1.0 - ADAM_BETA2
        v += a
        np.divide(m, 1.0 - ADAM_BETA1 ** t, out=a)
        a *= self.lr
        denom = np.divide(v, 1.0 - ADAM_BETA2 ** t, out=g)  # g is spent
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        a /= denom
        arr -= a


# ---------------------------------------------------------------------------
# Checkpoint format: "MQG1" magic, little-endian u32 tensor count, then per
# tensor a u32 name length, UTF-8 name, u32 rank, u32 dims, and the raw
# float32 row-major payload.  Tensors are written sorted by name so the file
# bytes are a pure function of the weights.  The JSON sidecar next to it
# holds CHECKSUM_KEY: the SHA-256 of the pack's bytes followed by the text
# of the rest of the sidecar, so a pack and sidecar that were not written
# together, or a changed byte in either, are caught on load.
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"MQG1"
# Numpy 1's limit on array rank.  A corrupt rank field beyond it would make
# the shape check format an integer of thousands of digits, or np.empty fail.
CHECKPOINT_MAX_RANK = 32
CHECKSUM_KEY = "checkpoint_sha256"


def _pack_chunks(params: Mapping[str, Array]) -> Iterator[bytes | Array]:
    """The pack's bytes, as byte strings and contiguous little-endian float32
    arrays (read through the buffer protocol, without a copy)."""
    names = sorted(params)
    yield CHECKPOINT_MAGIC + struct.pack("<I", len(names))
    for name in names:
        arr = np.ascontiguousarray(params[name], dtype="<f4")
        encoded = name.encode("utf-8")
        yield struct.pack(f"<I{len(encoded)}sI{arr.ndim}I",
                          len(encoded), encoded, arr.ndim, *arr.shape)
        yield arr


def _sidecar_text(meta: Mapping[str, object]) -> str:
    """The sidecar's JSON text as :func:`save_checkpoint` writes it."""
    return json.dumps(meta, indent=2, sort_keys=True) + "\n"


def _checksum(params: Mapping[str, Array], rest: Mapping[str, object]) -> str:
    """CHECKSUM_KEY's value for a pack of ``params`` and the rest of its sidecar."""
    digest = hashlib.sha256()
    for chunk in _pack_chunks(params):
        digest.update(chunk)
    digest.update(_sidecar_text(rest).encode("ascii"))  # json.dumps escapes non-ASCII
    return digest.hexdigest()


def save_checkpoint(path: str, params: Mapping[str, Array],
                    sidecar: Mapping[str, object] | None = None) -> None:
    """Write weights to ``path`` and optional metadata to ``path + '.json'``.

    The sidecar gets :data:`CHECKSUM_KEY` (see the format note above).
    Each file is written whole to a ``.tmp`` sibling and then moved into
    place with ``os.replace``, so a write that fails part-way (a full disk)
    raises :class:`FileError` and leaves the previous files as they were.
    """
    meta = None
    if sidecar is not None:
        meta = {key: value for key, value in sidecar.items() if key != CHECKSUM_KEY}
        meta[CHECKSUM_KEY] = _checksum(params, meta)
    files = [path] + ([path + ".json"] if meta is not None else [])
    try:
        with open(path + ".tmp", "wb") as fh:
            for chunk in _pack_chunks(params):
                fh.write(chunk)
        if meta is not None:
            with open(path + ".json.tmp", "wb") as fh:
                fh.write(_sidecar_text(meta).encode("ascii"))
        for name in files:
            os.replace(name + ".tmp", name)
    except OSError as exc:
        raise FileError(f"cannot write checkpoint {path}: {exc}") from exc
    finally:
        for name in files:  # only a failed write leaves one behind
            with contextlib.suppress(OSError):
                os.remove(name + ".tmp")


def _bytes_left(fh) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def _read_exact(fh, count: int, path: str) -> bytes:
    # Checked before reading: a corrupt length field must not size a buffer.
    if count > _bytes_left(fh):
        raise ParseError(f"truncated checkpoint: {path}")
    return fh.read(count)


def load_checkpoint(path: str, into: Mapping[str, Array] | None = None) -> dict[str, Array]:
    """Read a checkpoint back into name -> float32 array.

    A tensor whose name and shape match a little-endian float32 array of
    ``into`` is read straight into that array, which is then its value;
    any other tensor gets an array of its own."""
    into = into or {}
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise FileError(f"cannot read checkpoint {path}: {exc}") from exc
    with fh:
        magic = _read_exact(fh, 4, path)
        if magic != CHECKPOINT_MAGIC:
            raise ParseError(f"bad checkpoint magic in {path}: {magic!r}")
        (count,) = struct.unpack("<I", _read_exact(fh, 4, path))
        params: dict[str, Array] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, path))
            try:
                name = _read_exact(fh, name_len, path).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"tensor name is not UTF-8 in {path}: {exc}") from None
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, path))
            shape = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, path))
            if rank > CHECKPOINT_MAX_RANK:
                raise ParseError(f"tensor {name!r} has rank {rank}, more than "
                                 f"{CHECKPOINT_MAX_RANK}, in {path}")
            nbytes = math.prod(shape) * 4
            if nbytes > _bytes_left(fh):
                raise ParseError(f"tensor {name!r} of shape {shape} needs {nbytes} "
                                 f"bytes, more than are left in {path}")
            arr = into.get(name)
            if arr is None or arr.shape != shape or arr.dtype != "<f4" or name in params:
                arr = np.empty(shape, dtype="<f4")
            if fh.readinto(arr) != nbytes:
                raise ParseError(f"truncated checkpoint: {path}")
            if name in params:
                raise ParseError(f"duplicate tensor name in checkpoint: {name!r}")
            params[name] = arr.astype(TRAIN_DTYPE, copy=False)
        trailing = fh.read(1)
        if trailing:
            raise ParseError(f"trailing bytes after last tensor in {path}")
    return params


def read_sidecar(path: str) -> tuple[dict[str, object], bytes]:
    """Read the JSON sidecar written next to a checkpoint once: its
    metadata, less the checksum that :func:`save_checkpoint` adds, and the
    bytes as read, which :func:`check_sidecar` verifies."""
    try:
        with open(path + ".json", "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise FileError(f"cannot read checkpoint sidecar {path}.json: {exc}") from None
    meta = _parse_sidecar(raw, path)
    meta.pop(CHECKSUM_KEY, None)
    return meta, raw


def _parse_sidecar(raw: bytes, path: str) -> dict[str, object]:
    try:
        meta = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"checkpoint sidecar for {path} is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad checkpoint sidecar for {path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise ParseError(f"checkpoint sidecar for {path} is not a JSON object")
    return meta


def check_sidecar(raw: bytes, path: str, params: Mapping[str, Array], required: bool) -> None:
    """Raise :class:`ParseError` unless ``raw``, the sidecar of ``path`` as
    read, is byte for byte the one :func:`save_checkpoint` writes with
    ``params``, the tensors read from the pack: the text as written, with a
    checksum that matches.  A sidecar without a checksum passes unless
    ``required``."""
    meta = _parse_sidecar(raw, path)
    if CHECKSUM_KEY not in meta and not required:
        return
    rest = {key: value for key, value in meta.items() if key != CHECKSUM_KEY}
    if (raw != _sidecar_text(meta).encode("ascii")
            or meta.get(CHECKSUM_KEY) != _checksum(params, rest)):
        raise ParseError(f"checkpoint {path} does not match the {CHECKSUM_KEY!r} of its "
                         f"sidecar: the pack or the sidecar was changed, or the two "
                         f"were not written together")
