"""Tests for the numeric core: array kernels, parameters, Adam, checkpoints."""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphoqg.errors import FileError, ParseError
from morphoqg.tensor import (
    Adam,
    ParameterStore,
    dropout_mask,
    grad_check,
    load_checkpoint,
    load_sidecar,
    maxout_affine,
    maxout_affine_backward,
    save_checkpoint,
    scaled_uniform_init,
    sigmoid,
    softmax,
    softmax_backward,
    uniform_init,
)

RNG = np.random.default_rng(20240817)


def assert_gradients_match(loss_fn, params, analytic, tol=1e-6):
    """Run the finite-difference check and fail with the full report."""
    reports = grad_check(loss_fn, params, analytic, eps=1e-6, tolerance=tol)
    bad = [r for r in reports if not r.passed]
    assert not bad, f"gradient mismatch: {bad}"


class TestPointwise:
    """Property: sigmoid is overflow-safe and keeps the input dtype."""

    def test_sigmoid_is_overflow_safe(self):
        x = np.array([-1000.0, -50.0, 0.0, 50.0, 1000.0])
        with np.errstate(over="raise"):
            out = sigmoid(x)
        np.testing.assert_allclose(out, [0.0, 0.0, 0.5, 1.0, 1.0], atol=1e-20)

    def test_kernels_keep_float32(self):
        x = RNG.standard_normal(6).astype(np.float32)
        W = RNG.standard_normal((6, 3)).astype(np.float32)
        b = np.zeros(6, dtype=np.float32)
        hidden, winners = maxout_affine(W, b, x[:3])
        outputs = [sigmoid(x), softmax(x), softmax_backward(softmax(x), x),
                   hidden, maxout_affine_backward(winners, hidden)]
        assert [o.dtype for o in outputs] == [np.float32] * len(outputs)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_masked_reference_bit_for_bit(self, dtype):
        def masked_sigmoid(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        x = np.concatenate([RNG.standard_normal(5000) * 20.0,
                            [0.0, -0.0, 1e4, -1e4, np.inf, -np.inf]]).astype(dtype)
        out = sigmoid(x)
        assert out.dtype == dtype
        assert out.tobytes() == masked_sigmoid(x).tobytes()

    def test_sigmoid_batch_rows_match_1d_calls(self):
        x = RNG.standard_normal((4, 7)) * 30.0
        rows = np.stack([sigmoid(row) for row in x])
        np.testing.assert_array_equal(sigmoid(x), rows)


class TestSoftmax:
    """Property: softmax is a stable distribution with the exact Jacobian."""

    @given(st.lists(st.floats(min_value=-300, max_value=300), min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_sums_to_one_even_for_large_inputs(self, values):
        out = softmax(np.array(values, dtype=np.float64))
        assert np.all(out >= 0)
        assert abs(float(np.sum(out)) - 1.0) < 1e-9

    def test_shift_invariance(self):
        x = RNG.standard_normal(6)
        np.testing.assert_allclose(softmax(x), softmax(x + 500.0), atol=1e-12)

    def test_backward_matches_finite_differences(self):
        x = RNG.standard_normal(5)
        weights = RNG.standard_normal(5)
        dx = softmax_backward(softmax(x), weights)

        def loss():
            return float(np.sum(weights * softmax(x)))

        assert_gradients_match(loss, {"x": x}, {"x": dx})


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_rows_match_1d_calls(self, dtype):
        x = (RNG.standard_normal((5, 9)) * 10.0).astype(dtype)
        rows = np.stack([softmax(row) for row in x])
        np.testing.assert_array_equal(softmax(x), rows)
        # A 1-D call keeps the plain whole-array formula.
        ex = np.exp(x[0] - np.max(x[0]))
        np.testing.assert_array_equal(softmax(x[0]), ex / np.sum(ex))


class TestMaxout:
    """Property: two-piece maxout takes per-unit maxima and ties pick the
    first piece."""

    def test_forward_is_columnwise_max(self):
        a = np.array([1.0, -2.0, 3.0, 0.5, 4.0, 3.0])
        hidden, _ = maxout_affine(np.eye(6), np.zeros(6), a)
        np.testing.assert_allclose(hidden, [1.0, 4.0, 3.0])

    def test_tie_routes_gradient_to_first_piece(self):
        a = np.array([2.0, 5.0, 2.0, 1.0])
        _, winners = maxout_affine(np.eye(4), np.zeros(4), a)
        da = maxout_affine_backward(winners, np.array([1.0, 1.0]))
        np.testing.assert_allclose(da, [1.0, 1.0, 0.0, 0.0])

    def test_backward_matches_finite_differences(self):
        W = RNG.standard_normal((12, 4))
        b = RNG.standard_normal(12)
        u = RNG.standard_normal(4)
        weights = RNG.standard_normal(6)
        _, winners = maxout_affine(W, b, u)
        da = maxout_affine_backward(winners, weights)

        def loss():
            hidden, _ = maxout_affine(W, b, u)
            return float(np.sum(weights * hidden))

        assert_gradients_match(loss, {"W": W, "b": b, "u": u},
                               {"W": np.outer(da, u), "b": da, "u": W.T @ da})


    def test_batch_rows_match_1d_calls(self):
        # Small integers make every product and sum exact, so BLAS's
        # matrix-matrix and matrix-vector orders agree and the comparison
        # checks the piece split, argmax and gather bit for bit.
        W = RNG.integers(-4, 5, size=(10, 6)).astype(np.float32)
        b = RNG.integers(-4, 5, size=10).astype(np.float32)
        U = RNG.integers(-4, 5, size=(3, 6)).astype(np.float32)
        hidden, winners = maxout_affine(W, b, U)
        rows = [maxout_affine(W, b, u) for u in U]
        np.testing.assert_array_equal(hidden, np.stack([h for h, _ in rows]))
        np.testing.assert_array_equal(winners, np.stack([w for _, w in rows]))
        # A 1-D call keeps the plain formula: W @ u + b split in two halves.
        pieces = (W @ U[0] + b).reshape(2, -1)
        np.testing.assert_array_equal(rows[0][0], pieces.max(axis=0))
        np.testing.assert_array_equal(rows[0][1], pieces.argmax(axis=0))


class TestDropout:
    """Property: inverted dropout scales survivors and is seed-reproducible."""

    def test_rate_zero_is_identity(self):
        x = RNG.standard_normal(10)
        mask = dropout_mask(x.shape, 0.0, np.random.default_rng(1))
        np.testing.assert_allclose(x * mask, x)

    def test_mask_values_are_zero_or_inverse_keep(self):
        mask = dropout_mask((1000,), 0.25, np.random.default_rng(3))
        for value in np.unique(mask).tolist():
            assert value == 0.0 or value == pytest.approx(1.0 / 0.75)
        dropped = float(np.mean(mask == 0.0))
        assert 0.15 < dropped < 0.35

    def test_same_seed_gives_same_mask(self):
        a = dropout_mask((50,), 0.5, np.random.default_rng(11))
        b = dropout_mask((50,), 0.5, np.random.default_rng(11))
        np.testing.assert_array_equal(a, b)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            dropout_mask((3,), 1.0, np.random.default_rng(0))


class TestGradCheck:
    """Property: the checker passes true gradients and flags corrupted ones."""

    def test_detects_corrupted_gradient(self):
        x = RNG.standard_normal(6)

        def loss():
            return float(np.sum(x * x))

        good = 2.0 * x
        corrupted = good + 0.5
        reports = grad_check(loss, {"x": x}, {"x": corrupted},
                             eps=1e-6, tolerance=1e-4)
        assert not reports[0].passed

        reports = grad_check(loss, {"x": x}, {"x": good},
                             eps=1e-6, tolerance=1e-4)
        assert reports[0].passed

    def test_restores_parameters_after_perturbation(self):
        x = RNG.standard_normal(4)
        snapshot = x.copy()

        def loss():
            return float(np.sum(np.sin(x)))

        grad_check(loss, {"x": x}, {"x": np.cos(x)}, eps=1e-6)
        np.testing.assert_array_equal(x, snapshot)


class TestParameterStore:
    """Property: initialisation is a pure function of seed and add order."""

    def _build(self, seed):
        store = ParameterStore(init_seed=seed)
        store.add("recurrent", (4, 4), init="uniform")
        store.add("projection", (4, 8), init="scaled")
        store.add("bias", (4,), init="zeros")
        return store

    def test_same_seed_reproduces_values(self):
        a, b = self._build(42), self._build(42)
        for name in a.names():
            np.testing.assert_array_equal(a[name], b[name])

    def test_different_seed_changes_values(self):
        a, b = self._build(42), self._build(43)
        assert not np.array_equal(a["recurrent"], b["recurrent"])

    def test_init_ranges(self):
        store = self._build(0)
        assert float(np.max(np.abs(store["recurrent"]))) <= 0.08
        limit = np.sqrt(6.0 / (8 + 4))
        assert float(np.max(np.abs(store["projection"]))) <= limit
        assert np.all(store["bias"] == 0.0)

    def test_duplicate_name_rejected(self):
        store = ParameterStore(init_seed=0)
        store.add("w", (2, 2))
        with pytest.raises(ParseError):
            store.add("w", (2, 2))

    def test_zero_grads_match_shapes(self):
        store = self._build(1)
        grads = store.zero_grads()
        assert set(grads) == set(store.names())
        for name, g in grads.items():
            assert g.shape == store[name].shape
            assert np.all(g == 0.0)

    def test_astype_preserves_values(self):
        store = self._build(9)
        wide = store.astype(np.float64)
        for name in store.names():
            np.testing.assert_allclose(wide[name], store[name])
            assert wide[name].dtype == np.float64

    def test_global_norm(self):
        store = ParameterStore(init_seed=0)
        store.add("a", (2,), init="zeros")
        grads = {"a": np.array([3.0, 4.0])}
        assert store.global_norm(grads) == pytest.approx(5.0)

    def test_init_helpers_are_seed_deterministic(self):
        a = uniform_init(np.random.default_rng(5), (3, 3))
        b = uniform_init(np.random.default_rng(5), (3, 3))
        np.testing.assert_array_equal(a, b)
        c = scaled_uniform_init(np.random.default_rng(5), (3, 6))
        assert float(np.max(np.abs(c))) <= np.sqrt(6.0 / 9)


class TestAdam:
    """Property: the optimiser descends and clipping bounds the update."""

    def test_minimises_quadratic(self):
        store = ParameterStore(init_seed=0, dtype=np.float64)
        store.add_value("x", np.array([10.0, -10.0]))
        opt = Adam(store, lr=0.1, clip_norm=0.0)
        for _ in range(500):
            x = store["x"]
            grads = {"x": 2.0 * (x - 3.0)}
            opt.step(grads)
        np.testing.assert_allclose(store["x"], [3.0, 3.0], atol=1e-3)

    def test_clipping_scales_large_gradients(self):
        store = ParameterStore(init_seed=0, dtype=np.float64)
        store.add_value("x", np.zeros(2))
        opt = Adam(store, lr=1.0, clip_norm=5.0)
        norm = opt.step({"x": np.array([3000.0, 4000.0])})
        assert norm == pytest.approx(5000.0)
        # After clipping, the first Adam step magnitude is bounded by lr.
        assert float(np.max(np.abs(store["x"]))) <= 1.0 + 1e-6

    def test_reports_preclip_norm(self):
        store = ParameterStore(init_seed=0, dtype=np.float64)
        store.add_value("x", np.zeros(1))
        opt = Adam(store, clip_norm=5.0)
        assert opt.step({"x": np.array([12.0])}) == pytest.approx(12.0)


class TestCheckpoint:
    """Property: checkpoints round-trip bit-exactly and are byte-deterministic."""

    def _params(self):
        rng = np.random.default_rng(123)
        return {
            "decoder/w": rng.standard_normal((3, 4)).astype(np.float32),
            "encoder/bias": rng.standard_normal(5).astype(np.float32),
            "scalar": np.float32(2.5) * np.ones((), dtype=np.float32),
        }

    def test_round_trip_is_exact(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        params = self._params()
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(params)
        for name in params:
            np.testing.assert_array_equal(loaded[name], params[name])
            assert loaded[name].dtype == np.float32

    def test_bytes_are_independent_of_insertion_order(self, tmp_path):
        params = self._params()
        reordered = dict(reversed(list(params.items())))
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(p1, params)
        save_checkpoint(p2, reordered)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "tiny.ckpt")
        save_checkpoint(path, {"w": np.zeros((2,), dtype=np.float32)})
        with open(path, "rb") as fh:
            blob = fh.read()
        assert blob[:4] == b"MQG1"
        assert struct.unpack("<I", blob[4:8])[0] == 1
        assert struct.unpack("<I", blob[8:12])[0] == 1  # name length
        assert blob[12:13] == b"w"
        assert struct.unpack("<I", blob[13:17])[0] == 1  # rank
        assert struct.unpack("<I", blob[17:21])[0] == 2  # dim
        assert len(blob) == 21 + 2 * 4

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, self._params())
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[:-3])
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, self._params())
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(ParseError):
            load_checkpoint(path)

    @staticmethod
    def _forged(tmp_path, name: bytes, shape, payload=b""):
        """A one-tensor checkpoint with a hand-written header."""
        path = str(tmp_path / "forged.ckpt")
        header = b"MQG1" + struct.pack("<II", 1, len(name)) + name
        header += struct.pack(f"<{1 + len(shape)}I", len(shape), *shape)
        with open(path, "wb") as fh:
            fh.write(header + payload)
        return path

    def test_non_utf8_name_rejected(self, tmp_path):
        path = self._forged(tmp_path, b"\xff\xfe", (1,), b"\x00" * 4)
        with pytest.raises(ParseError, match="UTF-8"):
            load_checkpoint(path)

    def test_payload_larger_than_file_rejected(self, tmp_path):
        # 2**31 x 2**31 float32 overflows a read size, so nothing is allocated.
        path = self._forged(tmp_path, b"w", (2 ** 31, 2 ** 31), b"\x00" * 8)
        with pytest.raises(ParseError, match="bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("content", [b"[1, 2]\n", b"{\"a\": \"\xff\"}\n"])
    def test_malformed_sidecar_rejected(self, tmp_path, content):
        path = str(tmp_path / "model.ckpt")
        with open(path + ".json", "wb") as fh:
            fh.write(content)
        with pytest.raises(ParseError):
            load_sidecar(path)

    def test_sidecar_round_trip(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        meta = {"seed": 42, "hyperparams": {"hidden_size": 8}}
        save_checkpoint(path, self._params(), sidecar=meta)
        assert os.path.exists(path + ".json")
        assert load_sidecar(path) == meta

    def test_unwritable_path_raises_file_error(self):
        with pytest.raises(FileError):
            save_checkpoint("/nonexistent-dir/x.ckpt", self._params())

    def test_missing_file_raises_file_error(self):
        with pytest.raises(FileError):
            load_checkpoint("/nonexistent-dir/x.ckpt")
