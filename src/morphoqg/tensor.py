"""Numeric core: array kernels, parameters, gradient checking, Adam, checkpoints.

The array kernels are the one implementation of the decoder's numeric
pieces: the GRU gate ``sigmoid``, the attention and head ``softmax`` with
its backward, the two-piece ``maxout_affine`` readout with its backward,
and the inverted-dropout mask.  They are plain functions that keep the
input dtype and act on the last axis, so one row and a batch of rows run
the same code, in float32 for training and in float64 when
:func:`grad_check` compares the model's hand-written backward pass
against central finite differences.  :class:`Adam` updates in place
through buffers allocated once.  Checkpoints carry a SHA-256 checksum
that loading verifies.
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

from .errors import FileError, ParseError, read_text

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
# calls.  The model's one GRU cell runs the forward kernels on one row per
# encoder token and per teacher-forced decoder step, and on all live
# hypotheses at once in beam search; in training the switch and heads run
# them, and their backward halves, on all teacher-forced steps of an
# example at once.
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
    return out * (d_out - np.sum(d_out * out, axis=-1, keepdims=True))


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
    """Gradient at the affine output: each unit's gradient goes to its
    winning piece, and the other piece gets zero."""
    pieces = np.where(winners[..., None, :] == np.arange(2)[:, None],
                      d_hidden[..., None, :], 0)
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


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...],
                 scale: float = RECURRENT_INIT_SCALE, dtype=np.float64) -> Array:
    """Uniform(-scale, scale) sample; default scale suits recurrent weights.

    Values are drawn in float64 and stored as ``dtype``.  The draws go in
    blocks of rows, so a float32 tensor needs no float64 copy of its whole
    size; the values equal one whole draw cast to ``dtype``.
    """
    out = np.empty(shape, dtype=dtype)
    rows = out.reshape(-1, shape[-1]) if out.ndim and out.size else out.reshape(1, -1)
    step = max(1, INIT_BLOCK // max(1, rows.shape[1]))
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        block[...] = rng.uniform(-scale, scale, size=block.shape)
    return out


def scaled_uniform_init(rng: np.random.Generator, shape: tuple[int, ...],
                        dtype=np.float64) -> Array:
    """Fan-scaled uniform init for projection matrices: U(±sqrt(6/(fan_in+fan_out)))."""
    if len(shape) == 2:
        fan_in, fan_out = shape[1], shape[0]
    else:
        fan_in = fan_out = int(np.prod(shape))
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return uniform_init(rng, shape, limit, dtype)


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
            arr = uniform_init(self._rng, shape, dtype=self.dtype)
        elif init == "scaled":
            arr = scaled_uniform_init(self._rng, shape, dtype=self.dtype)
        elif init == "zeros":
            arr = np.zeros(shape, dtype=self.dtype)
        else:
            raise ValueError(f"unknown init scheme: {init!r}")
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
    _scratch: Array = field(init=False)
    _t: int = 0

    def __post_init__(self) -> None:
        self._m = {name: np.zeros_like(arr) for name, arr in self.store.items()}
        self._v = {name: np.zeros_like(arr) for name, arr in self.store.items()}
        # Three temporaries the size of the largest tensor, shared by all.
        size = max((arr.size for _name, arr in self.store.items()), default=0)
        self._scratch = np.empty((3, size), dtype=self.store.dtype)

    def step(self, grads: Mapping[str, Array]) -> float:
        """Apply one update; returns the pre-clip global gradient norm.

        The update runs in place through preallocated buffers, in the order
        ``g = grad * scale``, ``m += (1 - beta1) * (g - m)``,
        ``v += (1 - beta2) * (g * g - v)``, then
        ``lr * m_hat / (sqrt(v_hat) + eps)`` from the bias-corrected moments.
        """
        norm = self.store.global_norm(grads)
        scale = 1.0
        if self.clip_norm > 0 and norm > self.clip_norm:
            scale = self.clip_norm / norm
        self._t += 1
        t = self._t
        for name, grad in grads.items():
            arr = self.store[name]
            g, a, b = (buf[: arr.size].reshape(arr.shape) for buf in self._scratch)
            m = self._m[name]
            v = self._v[name]
            np.multiply(grad, scale, out=g)
            np.subtract(g, m, out=a)
            a *= 1.0 - self.beta1
            m += a
            np.multiply(g, g, out=a)
            a -= v
            a *= 1.0 - self.beta2
            v += a
            np.divide(m, 1.0 - self.beta1 ** t, out=a)
            a *= self.lr
            np.divide(v, 1.0 - self.beta2 ** t, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            arr -= a
        return norm


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


def load_checkpoint(path: str) -> dict[str, Array]:
    """Read a checkpoint back into name -> float32 array."""
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
            nbytes = math.prod(shape) * 4
            if nbytes > _bytes_left(fh):
                raise ParseError(f"tensor {name!r} of shape {shape} needs {nbytes} "
                                 f"bytes, more than are left in {path}")
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


def _parse_sidecar(text: str, path: str) -> dict[str, object]:
    try:
        meta = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad checkpoint sidecar for {path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise ParseError(f"checkpoint sidecar for {path} is not a JSON object")
    return meta


def load_sidecar(path: str) -> dict[str, object]:
    """Read the JSON metadata written next to a checkpoint, less the
    checksum that :func:`save_checkpoint` adds."""
    meta = _parse_sidecar(read_text(path + ".json", "checkpoint sidecar"), path)
    meta.pop(CHECKSUM_KEY, None)
    return meta


def check_checkpoint(path: str, params: Mapping[str, Array], required: bool) -> None:
    """Raise :class:`ParseError` unless the sidecar of ``path`` is byte for
    byte the one :func:`save_checkpoint` writes with ``params``, the
    tensors read from the pack: the text as written, with a checksum that
    matches.  A sidecar without a checksum passes unless ``required``."""
    try:
        with open(path + ".json", "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise FileError(f"cannot read checkpoint sidecar {path}.json: {exc}") from None
    meta = _parse_sidecar(raw.decode("ascii", "replace"), path)
    if CHECKSUM_KEY not in meta and not required:
        return
    rest = {key: value for key, value in meta.items() if key != CHECKSUM_KEY}
    if (raw != _sidecar_text(meta).encode("ascii")
            or meta.get(CHECKSUM_KEY) != _checksum(params, rest)):
        raise ParseError(f"checkpoint {path} does not match the {CHECKSUM_KEY!r} of its "
                         f"sidecar: the pack or the sidecar was changed, or the two "
                         f"were not written together")
