"""Numeric core: array kernels, parameters, gradient checking, Adam, checkpoints.

The array kernels are the one implementation of the decoder's numeric
pieces: the GRU gate ``sigmoid``, the attention and head ``softmax`` with
its backward, the two-piece ``maxout_affine`` readout with its backward,
and the inverted-dropout mask.  They are plain functions that keep the
input dtype, so the same code runs in float32 for training and in float64
when :func:`grad_check` compares the model's hand-written backward pass
against central finite differences.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import FileError, ParseError, read_text

Array = np.ndarray

TRAIN_DTYPE = np.float32
CHECK_DTYPE = np.float64

# Weight initialisation, following the regime the trainer expects:
# square-ish recurrent matrices draw from uniform(-0.08, 0.08), input and
# output projections use a fan-scaled uniform, and biases start at zero.
RECURRENT_INIT_SCALE = 0.08


# ---------------------------------------------------------------------------
# Array kernels.  Plain functions that keep the input dtype.  The forward
# kernels act on the last axis, so a (k, m) batch gives the same rows as k
# 1-D calls; training runs them on 1-D rows and writes its backward pass
# (1-D) around them, and beam search runs them on all live hypotheses.
# ---------------------------------------------------------------------------


def sigmoid(x: Array) -> Array:
    """Logistic function, computed in an overflow-safe form."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softmax(x: Array) -> Array:
    """Softmax over the last axis with max subtraction for stability."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=-1, keepdims=True)


def softmax_backward(out: Array, d_out: Array) -> Array:
    """Gradient at the logits, given the softmax output and its gradient."""
    return out * (d_out - np.dot(d_out, out))


def maxout_affine(W: Array, b: Array, u: Array) -> tuple[Array, Array]:
    """Two-piece maxout over an affine map; returns (hidden, argmax rows).

    The affine output ``u @ W.T + b`` is split along its last axis into two
    halves, the pieces, and each hidden unit takes the larger piece.  Ties
    pick the first.  ``u`` is one row or a (k, m) batch of rows.
    """
    a = u @ W.T + b
    pieces = a.reshape(a.shape[:-1] + (2, -1))
    winners = np.argmax(pieces, axis=-2)
    hidden = np.take_along_axis(pieces, winners[..., None, :], axis=-2)[..., 0, :]
    return hidden, winners


def maxout_affine_backward(winners: Array, d_hidden: Array) -> Array:
    """Gradient at the affine output: each unit's gradient goes to its winner."""
    k = d_hidden.shape[0]
    da = np.zeros((2, k), dtype=d_hidden.dtype)
    da[winners, np.arange(k)] = d_hidden
    return da.reshape(-1)


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


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...],
                 scale: float = RECURRENT_INIT_SCALE) -> Array:
    """Uniform(-scale, scale) sample; default scale suits recurrent weights."""
    return rng.uniform(-scale, scale, size=shape)


def scaled_uniform_init(rng: np.random.Generator, shape: tuple[int, ...]) -> Array:
    """Fan-scaled uniform init for projection matrices: U(±sqrt(6/(fan_in+fan_out)))."""
    if len(shape) == 2:
        fan_in, fan_out = shape[1], shape[0]
    else:
        fan_in = fan_out = int(np.prod(shape))
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


@dataclass
class ParameterStore:
    """Named parameter tensors with seeded, order-dependent initialisation.

    Parameters must be registered in a fixed order for a given
    ``init_seed`` to reproduce the same values; the models register
    everything in their constructors, which pins that order.
    """

    init_seed: int
    dtype: np.dtype = TRAIN_DTYPE
    _params: dict[str, Array] = field(default_factory=dict)
    _rng: np.random.Generator = field(init=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.init_seed)

    def add(self, name: str, shape: tuple[int, ...], init: str = "uniform") -> Array:
        """Create and register a tensor; ``init`` is uniform | scaled | zeros."""
        if name in self._params:
            raise ParseError(f"duplicate parameter name: {name!r}")
        if init == "uniform":
            value = uniform_init(self._rng, shape)
        elif init == "scaled":
            value = scaled_uniform_init(self._rng, shape)
        elif init == "zeros":
            value = np.zeros(shape)
        else:
            raise ValueError(f"unknown init scheme: {init!r}")
        arr = value.astype(self.dtype)
        self._params[name] = arr
        return arr

    def add_value(self, name: str, value: Array) -> Array:
        """Register an externally produced tensor (e.g. loaded weights)."""
        if name in self._params:
            raise ParseError(f"duplicate parameter name: {name!r}")
        arr = np.asarray(value, dtype=self.dtype)
        self._params[name] = arr
        return arr

    def __getitem__(self, name: str) -> Array:
        return self._params[name]

    def __setitem__(self, name: str, value: Array) -> None:
        if name not in self._params:
            raise KeyError(name)
        self._params[name] = np.asarray(value, dtype=self.dtype)

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Array]]:
        return iter(self._params.items())

    def zero_grads(self) -> dict[str, Array]:
        """Fresh gradient accumulators matching every parameter."""
        return {name: np.zeros_like(arr) for name, arr in self._params.items()}

    def astype(self, dtype) -> "ParameterStore":
        """Copy of the store with every tensor cast (float64 for checking)."""
        clone = ParameterStore(init_seed=self.init_seed, dtype=dtype)
        for name, arr in self._params.items():
            clone._params[name] = arr.astype(dtype)
        return clone

    def global_norm(self, grads: Mapping[str, Array]) -> float:
        return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))


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
    names: Iterable[str] | None = None,
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
    for name in (list(names) if names is not None else list(params)):
        arr = params[name]
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


@dataclass
class Adam:
    """Adam optimiser over a :class:`ParameterStore` with gradient clipping."""

    store: ParameterStore
    lr: float = 0.002
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 5.0
    _m: dict[str, Array] = field(init=False)
    _v: dict[str, Array] = field(init=False)
    _t: int = 0

    def __post_init__(self) -> None:
        self._m = {name: np.zeros_like(arr) for name, arr in self.store.items()}
        self._v = {name: np.zeros_like(arr) for name, arr in self.store.items()}

    def step(self, grads: Mapping[str, Array]) -> float:
        """Apply one update; returns the pre-clip global gradient norm."""
        norm = self.store.global_norm(grads)
        scale = 1.0
        if self.clip_norm > 0 and norm > self.clip_norm:
            scale = self.clip_norm / norm
        self._t += 1
        t = self._t
        for name, grad in grads.items():
            g = grad * scale
            m = self._m[name]
            v = self._v[name]
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            arr = self.store[name]
            arr -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(arr.dtype)
        return norm


# ---------------------------------------------------------------------------
# Checkpoint format: "MQG1" magic, little-endian u32 tensor count, then per
# tensor a u32 name length, UTF-8 name, u32 rank, u32 dims, and the raw
# float32 row-major payload.  Tensors are written sorted by name so the file
# bytes are a pure function of the weights.
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"MQG1"


def save_checkpoint(path: str, params: Mapping[str, Array],
                    sidecar: Mapping[str, object] | None = None) -> None:
    """Write weights to ``path`` and optional metadata to ``path + '.json'``.

    Each file is written whole to a ``.tmp`` sibling and then moved into
    place with ``os.replace``, so a write that fails part-way (a full disk)
    raises :class:`FileError` and leaves the previous files as they were.
    """
    meta = None if sidecar is None else json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    files = [path] + ([path + ".json"] if meta is not None else [])
    try:
        with open(path + ".tmp", "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            names = sorted(params)
            fh.write(struct.pack("<I", len(names)))
            for name in names:
                arr = np.ascontiguousarray(params[name], dtype="<f4")
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<I", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<I", arr.ndim))
                for dim in arr.shape:
                    fh.write(struct.pack("<I", dim))
                fh.write(arr.tobytes(order="C"))
        if meta is not None:
            with open(path + ".json.tmp", "wb") as fh:
                fh.write(meta.encode("ascii"))  # json.dumps escapes non-ASCII
        for name in files:
            os.replace(name + ".tmp", name)
    except OSError as exc:
        raise FileError(f"cannot write checkpoint {path}: {exc}") from exc
    finally:
        for name in files:  # only a failed write leaves one behind
            with contextlib.suppress(OSError):
                os.remove(name + ".tmp")


def _read_exact(fh, count: int, path: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise ParseError(f"truncated checkpoint: {path}")
    return data


def load_checkpoint(path: str) -> dict[str, Array]:
    """Read a checkpoint back into name -> float32 array."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise FileError(f"cannot read checkpoint {path}: {exc}") from exc
    with fh:
        file_size = os.fstat(fh.fileno()).st_size
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
            shape = tuple(struct.unpack("<I", _read_exact(fh, 4, path))[0]
                          for _ in range(rank))
            nbytes = math.prod(shape) * 4
            if nbytes > file_size - fh.tell():
                raise ParseError(f"tensor {name!r} of shape {shape} needs {nbytes} "
                                 f"bytes, more than are left in {path}")
            raw = _read_exact(fh, nbytes, path)
            arr = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(TRAIN_DTYPE)
            if name in params:
                raise ParseError(f"duplicate tensor name in checkpoint: {name!r}")
            params[name] = arr
        trailing = fh.read(1)
        if trailing:
            raise ParseError(f"trailing bytes after last tensor in {path}")
    return params


def load_sidecar(path: str) -> dict[str, object]:
    """Read the JSON metadata written next to a checkpoint."""
    text = read_text(path + ".json", "checkpoint sidecar")
    try:
        meta = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad checkpoint sidecar for {path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise ParseError(f"checkpoint sidecar for {path} is not a JSON object")
    return meta
