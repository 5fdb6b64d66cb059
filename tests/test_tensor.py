"""Tests for the numeric core: array kernels, parameters, Adam, checkpoints."""

import builtins
import copy
import errno
import json
import os
import pickle
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphoqg import tensor as tensor_mod
from morphoqg.errors import FileError, ParseError
from morphoqg.tensor import (
    CHECKSUM_KEY,
    INIT_BLOCK,
    Adam,
    ParameterStore,
    affine,
    affine_backward,
    check_sidecar,
    dropout_mask,
    grad_check,
    linear,
    load_checkpoint,
    maxout_affine,
    maxout_affine_backward,
    read_sidecar,
    save_checkpoint,
    scaled_uniform_init,
    sigmoid,
    softmax,
    softmax_backward,
    uniform_init,
)

RNG = np.random.default_rng(20240817)


def assert_one_buffer(tensors, flat):
    """Each of ``tensors`` (name, array) is the next stretch of ``flat`` in
    order, and together they fill it."""
    base = flat.__array_interface__["data"][0]
    start = 0
    for name, arr in tensors:
        assert arr.flags.c_contiguous, name
        assert arr.__array_interface__["data"][0] == base + start * flat.itemsize, name
        start += arr.size
    assert start == flat.size


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ufunc_reductions_keep_the_bits_of_max_and_sum(self, dtype):
        """The kernels reduce with ``np.maximum.reduce`` and ``np.add.reduce``:
        the bytes of the ``np.max``/``np.sum`` formulas, ``-inf`` logits
        (padded positions) included."""
        x = (RNG.standard_normal((3, 4, 9)) * 10.0).astype(dtype)
        x[:, :, 6:] = -np.inf
        ex = np.exp(x - np.max(x, axis=-1, keepdims=True))
        want = ex / np.sum(ex, axis=-1, keepdims=True)
        out = softmax(x)
        assert out.dtype == dtype and out.tobytes() == want.tobytes()
        d_out = RNG.standard_normal(x.shape).astype(dtype)
        want = out * (d_out - np.sum(d_out * out, axis=-1, keepdims=True))
        assert softmax_backward(out, d_out).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_batch_rows_match_1d_calls(self, dtype):
        out = softmax((RNG.standard_normal((5, 9)) * 10.0).astype(dtype))
        d_out = RNG.standard_normal((5, 9)).astype(dtype)
        batch = softmax_backward(out, d_out)
        assert batch.dtype == dtype
        rows = np.stack([softmax_backward(o, d) for o, d in zip(out, d_out)])
        assert batch.tobytes() == rows.tobytes()


class TestAffine:
    """Property: the affine map takes one product over all rows whatever
    its leading axes, and its blockwise backward equals the backward of
    the concatenated input."""

    def test_leading_axes_are_rows(self):
        W, b = RNG.standard_normal((7, 5)), RNG.standard_normal(7)
        u = RNG.standard_normal((3, 4, 5))
        out = affine(W, b, u)
        assert out.shape == (3, 4, 7)
        assert out.tobytes() == affine(W, b, u.reshape(12, 5)).tobytes()
        np.testing.assert_allclose(affine(W, b, u[0, 0]), W @ u[0, 0] + b, rtol=1e-13)

    def test_blockwise_backward_matches_concatenated_input(self):
        # Small integers keep every product exact, so the blocks' products
        # equal slices of the concatenated ones bit for bit.
        W = RNG.integers(-4, 5, size=(6, 2 + 9)).astype(np.float64)
        blocks = [RNG.integers(-4, 5, size=(8, m)).astype(np.float64) for m in (3, 4)]
        d_out = RNG.integers(-4, 5, size=(8, 6)).astype(np.float64)
        dW = np.ones_like(W)
        dX = [np.ones_like(X) for X in blocks]
        affine_backward(W, dW, d_out, list(zip(blocks, dX)), start=2)
        u = np.concatenate(blocks, axis=1)
        want = d_out.T @ u
        np.testing.assert_array_equal(dW[:, :2], 1.0)  # columns before start untouched
        np.testing.assert_array_equal(dW[:, 2:9], 1.0 + want)
        np.testing.assert_array_equal(dW[:, 9:], 1.0)
        du = d_out @ W[:, 2:9]
        np.testing.assert_array_equal(dX[0], 1.0 + du[:, :3])
        np.testing.assert_array_equal(dX[1], 1.0 + du[:, 3:])


class TestLinear:
    """Property: the forward weight product and the affine map on it give
    ``u @ W.T`` as C-contiguous rows with ``u``'s leading axes.  Bits are
    not compared with the ``u @ W.T`` form: another BLAS may round the two
    call forms differently."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(), (6,), (3, 4)])
    def test_contiguous_rows_equal_the_transposed_product(self, dtype, lead):
        W, b = RNG.standard_normal((7, 5)).astype(dtype), RNG.standard_normal(7).astype(dtype)
        u = RNG.standard_normal(lead + (5,)).astype(dtype)
        tol = 1e-5 if dtype == np.float32 else 1e-12
        for out, want in ((linear(W, u), u @ W.T), (affine(W, b, u), u @ W.T + b)):
            assert out.shape == lead + (7,) and out.dtype == dtype
            assert out.flags.c_contiguous
            np.testing.assert_allclose(out, want, rtol=tol, atol=tol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_two_dimensional_rows_take_the_same_product(self, dtype):
        W = RNG.standard_normal((7, 5)).astype(dtype)
        u = RNG.standard_normal((6, 5)).astype(dtype)
        out = linear(W, u)
        assert out.flags.c_contiguous
        assert out.tobytes() == linear(W, u[None])[0].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(6,), (3, 4)])
    def test_a_stack_of_weights_takes_each_its_own_rows(self, dtype, lead):
        """A (2, out, in) stack gives, for each index of ``u``'s first axis,
        the bytes of that weight's own product."""
        W = RNG.standard_normal((2, 7, 5)).astype(dtype)
        u = RNG.standard_normal((2,) + lead + (5,)).astype(dtype)
        out = linear(W, u)
        assert out.shape == (2,) + lead + (7,) and out.flags.c_contiguous
        for s in range(2):
            assert out[s].tobytes() == linear(W[s], u[s]).tobytes()


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


    def test_ties_pick_the_first_piece(self):
        """Winners are True only where the second piece is strictly larger."""
        u = np.array([2.0, 5.0, -1.0, 2.0, 7.0, -1.0])
        hidden, winners = maxout_affine(np.eye(6), np.zeros(6), u)
        assert winners.dtype == bool
        np.testing.assert_array_equal(winners, [False, True, False])
        np.testing.assert_array_equal(hidden, [2.0, 7.0, -1.0])
        da = maxout_affine_backward(winners, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(da, [1.0, 0.0, 3.0, 0.0, 2.0, 0.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_argmax_form(self, dtype):
        """The boolean winners give the hidden values and piece indices of
        ``argmax`` plus ``take_along_axis``, ties included."""
        W = RNG.integers(-3, 4, size=(16, 5)).astype(dtype)
        b = RNG.integers(-3, 4, size=16).astype(dtype)
        for u in (RNG.integers(-2, 3, size=(6, 5)).astype(dtype),  # many ties
                  RNG.standard_normal((3, 4, 5)).astype(dtype)):
            hidden, winners = maxout_affine(W, b, u)
            pieces = (u @ W.T + b).reshape(u.shape[:-1] + (2, 8))
            index = np.argmax(pieces, axis=-2)
            want = np.take_along_axis(pieces, index[..., None, :], axis=-2)[..., 0, :]
            assert hidden.dtype == dtype
            assert hidden.tobytes() == want.tobytes()
            np.testing.assert_array_equal(winners.astype(int), index)

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

    @staticmethod
    def _select_forward(pieces):
        """The two-branch form the forward pass replaced, kept as the oracle."""
        first, second = pieces[..., 0, :], pieces[..., 1, :]
        return np.where(second > first, second, first), second > first

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_equals_the_select_form_bit_for_bit(self, monkeypatch, dtype):
        """On finite pieces, ties included (equal values, and +0.0 against
        -0.0 in either order), ``np.maximum`` gives the select's bytes.
        The pieces are fed to the kernel as its affine output, and the
        shapes give rows shorter and longer than a SIMD register."""
        values = np.array([-1.5, -0.0, 0.0, 1.0, 2.5], dtype=dtype)
        for shape in ((1, 1), (3, 7), (4, 33), (2, 5, 64)):
            pieces = RNG.choice(values, size=shape[:-1] + (2, shape[-1]))
            monkeypatch.setattr(tensor_mod, "affine",
                                lambda W, b, u, a=pieces.reshape(shape[:-1] + (-1,)): a)
            hidden, winners = maxout_affine(None, None, None)
            want, want_winners = self._select_forward(pieces)
            assert hidden.dtype == dtype and hidden.tobytes() == want.tobytes()
            np.testing.assert_array_equal(winners, want_winners)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_on_an_affine_map_equals_the_select_form(self, dtype):
        """Small integers make many ties among the pieces of a real affine map."""
        W = RNG.integers(-3, 4, size=(40, 6)).astype(dtype)
        b = RNG.integers(-3, 4, size=40).astype(dtype)
        u = RNG.integers(-2, 3, size=(9, 6)).astype(dtype)
        hidden, winners = maxout_affine(W, b, u)
        want, want_winners = self._select_forward(affine(W, b, u).reshape(9, 2, 20))
        assert hidden.tobytes() == want.tobytes()
        np.testing.assert_array_equal(winners, want_winners)

    def test_a_nan_piece_gives_nan(self, monkeypatch):
        pieces = np.array([[np.nan, 1.0], [1.0, np.nan]])
        monkeypatch.setattr(tensor_mod, "affine", lambda W, b, u: pieces.ravel())
        hidden, winners = maxout_affine(None, None, None)
        assert np.isnan(hidden).all() and not winners.any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_equals_the_select_form_up_to_the_sign_of_zero(self, dtype):
        """Multiplying by the winner mask gives the select's values; the
        bytes differ only at a losing piece whose unit's gradient is
        negative, which gets -0.0 for the select's +0.0."""
        winners = RNG.random((5, 37)) > 0.5
        d_hidden = RNG.standard_normal((5, 37)).astype(dtype)
        d_hidden[0, :2] = [0.0, -0.0]
        got = maxout_affine_backward(winners, d_hidden)
        want = np.where(winners[..., None, :] == np.arange(2)[:, None],
                        d_hidden[..., None, :], 0).reshape(5, -1)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)
        flipped = got.ravel().view(f"u{got.itemsize}") != want.ravel().view(f"u{got.itemsize}")
        losers = np.concatenate([winners, ~winners], axis=1).ravel()  # piece 0, then piece 1
        np.testing.assert_array_equal(flipped, losers & np.signbit(np.tile(d_hidden, 2).ravel()))
        assert flipped.any() and (got.ravel()[flipped] == 0).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_batch_rows_match_1d_calls(self, dtype):
        winners = RNG.integers(0, 2, size=(4, 7))
        d_hidden = RNG.standard_normal((4, 7)).astype(dtype)
        batch = maxout_affine_backward(winners, d_hidden)
        assert batch.shape == (4, 14) and batch.dtype == dtype
        rows = np.stack([maxout_affine_backward(w, d) for w, d in zip(winners, d_hidden)])
        assert batch.tobytes() == rows.tobytes()
        # Each row holds the gradient at its winning piece and zero at the other.
        np.testing.assert_array_equal(batch.reshape(4, 2, 7).sum(axis=1), d_hidden)
        np.testing.assert_array_equal(np.take_along_axis(
            batch.reshape(4, 2, 7), winners[:, None, :], axis=1)[:, 0], d_hidden)


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
    """Property: initialisation is a pure function of seed and registration
    order; the layout orders the buffer only."""

    def _build(self, seed, layout=None):
        return ParameterStore.draw(seed, [("recurrent", (4, 4), "uniform"),
                                          ("projection", (4, 8), "scaled"),
                                          ("bias", (4,), "zeros")], layout=layout)

    def test_same_seed_reproduces_values(self):
        a, b = self._build(42), self._build(42)
        for name in a:
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
        with pytest.raises(ParseError):
            ParameterStore.draw(0, [("w", (2, 2), "uniform"), ("w", (2, 2), "uniform")])

    def test_zero_grads_match_shapes(self):
        store = self._build(1)
        grads = store.zero_grads()
        assert set(grads) == set(store)
        for name, g in grads.items():
            assert g.shape == store[name].shape
            assert np.all(g == 0.0)

    def test_zero_grads_leave_their_pages_untouched(self):
        """Three ``zero_grads()`` of a store holding one 64 MB tensor raise
        the peak resident set by less than one buffer: the buffers are
        allocated zeroed, so no page is written until a gradient is.  Run
        in a fresh interpreter, whose peak is not this process's."""
        code = (
            "import resource\n"
            "from morphoqg.tensor import ParameterStore\n"
            "store = ParameterStore.draw(0, [('w', (16, 1 << 20), 'empty')])\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "grads = [store.zero_grads() for _ in range(3)]\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
        src = os.path.dirname(os.path.dirname(tensor_mod.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True)
        raised_kb = int(done.stdout)
        assert raised_kb * 1024 < 64 << 20, f"peak RSS rose {raised_kb} KB"

    def test_astype_preserves_values(self):
        store = self._build(9)
        wide = store.astype(np.float64)
        for name in store:
            np.testing.assert_allclose(wide[name], store[name])
            assert wide[name].dtype == np.float64

    def test_tensors_are_views_of_one_buffer_in_registration_order(self):
        store = self._build(3)
        assert list(store) == ["recurrent", "projection", "bias"]
        assert_one_buffer(store.items(), store.flat)
        grads = store.zero_grads()
        assert_one_buffer(grads.items(), grads.flat)
        wide = store.astype(np.float64)
        assert_one_buffer(wide.items(), wide.flat)
        assert wide.flat.tobytes() == store.flat.astype(np.float64).tobytes()

    def test_assignment_writes_through(self):
        store = self._build(4)
        store["projection"] = np.arange(32.0).reshape(4, 8)
        assert store.flat[16:48].tolist() == list(range(32))
        assert_one_buffer(store.items(), store.flat)
        grads = store.zero_grads()
        grads["bias"] += 2.0
        assert grads.flat[48:].tolist() == [2.0] * 4
        for bad in (np.zeros((8, 4)), np.zeros(32), 1.0):
            with pytest.raises(ValueError, match="projection"):
                store["projection"] = bad
        with pytest.raises(KeyError):
            store["missing"] = np.zeros(2)

    def test_update_writes_through(self):
        """``update`` and ``|=`` write into the views as assignment does,
        with its shape check, and never rebind a tensor."""
        store = self._build(4)
        views = dict(store.items())
        store.update(projection=np.arange(32.0).reshape(4, 8))
        store.update({"bias": np.full(4, 3.0)})
        store |= {"recurrent": np.ones((4, 4))}
        assert store.flat.tolist() == [1.0] * 16 + list(range(32)) + [3.0] * 4
        assert all(store[name] is view for name, view in views.items())
        with pytest.raises(ValueError, match="recurrent"):
            store.update(recurrent=np.ones((3, 3)))
        with pytest.raises(ValueError, match="bias"):
            store |= {"bias": np.ones(5)}
        with pytest.raises(KeyError):
            store.update(missing=np.zeros(2))
        assert list(store) == ["recurrent", "projection", "bias"]
        assert_one_buffer(store.items(), store.flat)

    def test_no_tensor_is_added_or_removed(self):
        store = self._build(4)
        before = store.flat.copy()
        for remove in (lambda: store.pop("bias"), lambda: store.pop("bias", None),
                       store.popitem, store.clear, lambda: store.__delitem__("bias"),
                       lambda: store.setdefault("extra", np.zeros(2)),
                       lambda: store.setdefault("bias")):
            with pytest.raises(TypeError, match="added or removed"):
                remove()
        assert list(store) == ["recurrent", "projection", "bias"]
        assert store.flat.tobytes() == before.tobytes()
        assert_one_buffer(store.items(), store.flat)

    def test_a_copy_is_one_buffer_of_its_own(self):
        store = self._build(5)
        for copied in (copy.copy(store), store.copy(), copy.deepcopy(store),
                       pickle.loads(pickle.dumps(store))):
            assert type(copied) is ParameterStore and copied.layout == store.layout
            assert list(copied) == list(store)
            assert copied.flat.tobytes() == store.flat.tobytes()
            assert_one_buffer(copied.items(), copied.flat)
            copied["bias"] = np.ones(4)
            assert not store["bias"].any()

    def test_draws_equal_tensor_by_tensor_draws(self):
        """Filling the one buffer view by view draws the values that the
        same generator gives tensor by tensor in registration order."""
        rng = np.random.default_rng(42)
        want = [uniform_init(rng, np.empty((4, 4), np.float32)).tobytes(),
                scaled_uniform_init(rng, np.empty((4, 8), np.float32)).tobytes(),
                np.zeros(4, np.float32).tobytes()]
        assert [arr.tobytes() for _name, arr in self._build(42).items()] == want

    def test_layout_orders_the_buffer_not_the_draws(self):
        """A layout other than registration order moves the tensors within
        the buffer, and the gradients and the float64 copy follow it; the
        values are still drawn in registration order."""
        plain = self._build(42)
        store = self._build(42, layout=["bias", "recurrent", "projection"])
        assert list(store) == ["bias", "recurrent", "projection"]
        assert_one_buffer(store.items(), store.flat)
        for name in plain:
            assert store[name].tobytes() == plain[name].tobytes(), name
        assert store.flat[:4].tolist() == [0.0] * 4
        for tensors in (store.zero_grads(), store.astype(np.float64).zero_grads()):
            assert list(tensors) == list(store)
            assert_one_buffer(tensors.items(), tensors.flat)

    def test_stack_is_a_view_of_every_buffer(self):
        """Consecutive tensors alike but in their first axis stack as one
        view of the store's buffer, of ``zero_grads()`` and of Adam's
        moments; assigning a tensor writes through to the stack, and the
        float64 copy stacks its own buffer."""
        store = ParameterStore.draw(7, [("a", (2, 3), "uniform"), ("b", (4, 3), "scaled"),
                                        ("c", (1, 3), "uniform"), ("d", (5,), "uniform")])
        opt = Adam(store)
        opt.step(filled_grads(store, {name: np.ones(store[name].shape) for name in "abcd"}))
        for tensors in (store, store.zero_grads(), opt._m, opt._v, store.astype(np.float64)):
            stacked = tensors.stack("a", "c")
            assert stacked.shape == (7, 3) and stacked.flags.c_contiguous
            assert stacked.__array_interface__["data"][0] == \
                tensors.flat.__array_interface__["data"][0]
            assert stacked.tobytes() == np.concatenate([tensors[n] for n in "abc"]).tobytes()
            halves = tensors.stack("a", "d", (2, -1))
            assert halves.shape == (2, 13) and np.shares_memory(halves, tensors.flat)
            assert halves.tobytes() == tensors.flat.tobytes()
        store["b"] = np.arange(12.0).reshape(4, 3)
        assert store.stack("a", "c")[2:6].ravel().tolist() == list(range(12))

    @pytest.mark.parametrize("shape", [(2 * INIT_BLOCK // 7 + 3, 7), (INIT_BLOCK + 5,), (),
                                       (3, 0)])
    def test_block_draws_equal_one_whole_draw(self, shape):
        want = np.random.default_rng(5).uniform(-0.08, 0.08, size=shape).astype(np.float32)
        got = uniform_init(np.random.default_rng(5), np.empty(shape, np.float32))
        assert got.shape == shape and got.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    def test_init_helpers_are_seed_deterministic(self):
        a = uniform_init(np.random.default_rng(5), np.empty((3, 3)))
        b = uniform_init(np.random.default_rng(5), np.empty((3, 3)))
        np.testing.assert_array_equal(a, b)
        c = scaled_uniform_init(np.random.default_rng(5), np.empty((3, 6)))
        assert float(np.max(np.abs(c))) <= np.sqrt(6.0 / 9)


def reference_step(state, grads, t, scale, lr=0.002, b1=0.9, b2=0.999, eps=1e-8):
    """The textbook Adam update, allocating, on ``state``'s weights ``w``
    and moments ``m`` and ``v``."""
    for name, grad in grads.items():
        g = grad * scale
        m, v = state["m"][name], state["v"][name]
        m += (1.0 - b1) * (g - m)
        v += (1.0 - b2) * (g * g - v)
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        arr = state["w"][name]
        arr -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(arr.dtype)


# A table whose gradient lives on a few rows, as emb/word's does, between
# two dense tensors, so that the dense update has two runs.
SPARSE_SHAPES = {"bias": (5,), "table": (20, 6), "dense": (4, 3)}


def store_of(shapes, seed=0, dtype=np.float32):
    """A store of uniform tensors of the given shapes, in their order."""
    return ParameterStore.draw(seed, [(name, shape, "uniform")
                                      for name, shape in shapes.items()], dtype)


def filled_grads(store, values):
    """``store.zero_grads()`` with each named tensor set to its value."""
    grads = store.zero_grads()
    for name, value in values.items():
        grads[name] = value
    return grads


def sparse_grads(ids, t):
    """Gradients for SPARSE_SHAPES with ``table`` nonzero on rows ``ids`` only."""
    grads = sparse_store().zero_grads()
    grads["table"][ids] = RNG.standard_normal((len(ids), 6)) * t
    for name in ("bias", "dense"):
        grads[name] = (RNG.standard_normal(SPARSE_SHAPES[name]) * t).astype(np.float32)
    return grads


def sparse_store(seed=5):
    return store_of(SPARSE_SHAPES, seed)


def row_sparse(grads, ids, name="table"):
    """``grads`` as :meth:`Adam.step` takes them with ``name`` row-sparse:
    a copy whose ``name`` view is NaN, which the step must never read, and
    the ``rows`` entry of that tensor's ``(ids, values)`` block."""
    block = grads[name][ids]
    grads = grads.copy()
    grads[name].fill(np.nan)
    return grads, {name: (ids, block)}


# The row sets of four steps; the first covers 14 of 20 rows, more than the
# 10 rows of a block of SMALL_BLOCK elements, so with ADAM_BLOCK set to it
# that set is updated in two blocks.
SMALL_BLOCK = 60
ROW_SETS = [np.arange(14), np.array([0, 3, 17]), np.array([5]), np.array([2, 3, 18, 19])]


class TestAdam:
    """Property: the optimiser descends and clipping bounds the update."""

    def test_minimises_quadratic(self):
        store = store_of({"x": (2,)}, dtype=np.float64)
        store["x"] = np.array([10.0, -10.0])
        opt = Adam(store, lr=0.1, clip_norm=0.0)
        grads = store.zero_grads()
        for _ in range(500):
            x = store["x"]
            grads["x"] = 2.0 * (x - 3.0)
            opt.step(grads)
        np.testing.assert_allclose(store["x"], [3.0, 3.0], atol=1e-3)

    def test_clipping_scales_large_gradients(self):
        store = store_of({"x": (2,)}, dtype=np.float64)
        store["x"] = np.zeros(2)
        opt = Adam(store, lr=1.0, clip_norm=5.0)
        norm = opt.step(filled_grads(store, {"x": np.array([3000.0, 4000.0])}))
        assert norm == pytest.approx(5000.0)
        # After clipping, the first Adam step magnitude is bounded by lr.
        assert float(np.max(np.abs(store["x"]))) <= 1.0 + 1e-6

    def test_reports_preclip_norm(self):
        store = store_of({"x": (1,)}, dtype=np.float64)
        store["x"] = np.zeros(1)
        opt = Adam(store, clip_norm=5.0)
        assert opt.step(filled_grads(store, {"x": np.array([12.0])})) == pytest.approx(12.0)

    def test_global_norm(self):
        store = ParameterStore.draw(0, [("a", (2,), "zeros")])
        grads = filled_grads(store, {"a": np.array([3.0, 4.0])})
        assert Adam(store)._global_norm(grads) == pytest.approx(5.0)

    def test_norm_is_bit_equal_to_allocating_formula(self):
        """The norm of the scaled gradients, squared tensor by tensor in the
        optimiser's scratch buffer, equals the formula that scales, squares
        and sums in fresh arrays, and makes no gradient-sized temporary."""
        shapes = {"big": (300, 200), "small": (7,), "scalar": ()}
        store = store_of(shapes)
        grads = filled_grads(store, {name: (RNG.standard_normal(shape) * 3).astype(np.float32)
                                     for name, shape in shapes.items()})
        scale = 1.0 / 224
        scaled = [g * np.float32(scale) for g in grads.values()]
        want = float(np.sqrt(sum(float(np.sum(g * g)) for g in scaled)))
        opt = Adam(store, clip_norm=0.0)
        tracemalloc.start()
        try:
            got = opt._global_norm(grads, scale)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < grads["big"].nbytes // 10
        assert opt.step(grads, scale=scale) == want

    def test_chunked_norm_equals_a_norm_tensor_by_tensor(self):
        """The norm, squared in chunks of consecutive dense tensors, equals
        the one that scales, squares and sums each tensor alone, in layout
        order, byte for byte: on a store whose row-sparse tensor lies
        between two dense runs, the second of which a chunk boundary splits
        (its first tensor is the largest dense one, a chunk of its own)."""
        shapes = {"a": (30, 7), "b": (11,), "table": (50, 6), "c": (70, 9), "d": (5,),
                  "e": (3, 4), "f": ()}
        store = store_of(shapes)
        grads = filled_grads(store, {name: (RNG.standard_normal(shape)
                                            * 10.0 ** RNG.integers(-3, 4, shape)).astype(np.float32)
                                     for name, shape in shapes.items()})
        ids = np.array([1, 4, 5, 17, 30, 49])
        opt = Adam(store, clip_norm=0.0)
        def plan(sparse):
            return [chunk if isinstance(chunk, str) else len(chunk[2])
                    for chunk in opt._norm_chunks(frozenset(sparse))]

        assert plan(()) == [3, 1, 3]  # [a b table] [c] [d e f]
        assert plan({"table"}) == [2, "table", 1, 3]
        scale = 1.0 / 37
        for given, rows in ((grads, {}), row_sparse(grads, ids)):
            total = 0.0
            for name, g in grads.items():
                g = g[ids] if name in rows else g
                sq = np.multiply(g, scale)
                total += float(np.add.reduce(sq * sq, axis=None))
            assert opt._global_norm(given, scale, rows) == float(np.sqrt(total))

    def test_a_step_leaves_a_sparse_tensors_pages_untouched(self):
        """One step on a store holding one 64 MB row-sparse tensor, given a
        few of its rows, raises the peak resident set by less than half
        that tensor: the norm squares those rows alone and chunks no larger
        than the largest dense tensor, so it never writes the scratch
        buffer's pages beyond them (squaring the whole tensor there would
        write 64 MB).  The rows lie within 1 MB of each other, so that
        transparent huge pages, where the kernel uses them, fault in no
        more than a few MB of the weights and moments around them.  Run in
        a fresh interpreter, whose peak is not this process's."""
        code = (
            "import resource\n"
            "import numpy as np\n"
            "from morphoqg.tensor import Adam, ParameterStore\n"
            "store = ParameterStore.draw(0, [('table', (1 << 14, 1 << 10), 'empty'),\n"
            "                                ('dense', (64, 64), 'uniform')])\n"
            "opt = Adam(store)\n"
            "grads = store.zero_grads()\n"
            "ids = np.arange(0, 256, 4)\n"
            "values = np.ones((len(ids), 1 << 10), dtype=np.float32)\n"
            "grads['dense'] += 1.0\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "opt.step(grads, rows={'table': (ids, values)})\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
        src = os.path.dirname(os.path.dirname(tensor_mod.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True)
        raised_kb = int(done.stdout)
        assert raised_kb * 1024 < 32 << 20, f"peak RSS rose {raised_kb} KB"

    def test_scale_fold_matches_scaling_the_gradients_first(self):
        """``step(grads, scale)`` writes the bytes of ``step`` on gradients
        already multiplied by ``scale``, with clipping on and off."""
        shapes = {"big": (9, 13), "small": (5,), "scalar": ()}
        for clip_norm in (0.05, 0.0):
            stores = [store_of(shapes, seed=4) for _ in range(2)]
            folded, first = (Adam(store, clip_norm=clip_norm) for store in stores)
            for t in range(1, 4):
                grads = filled_grads(stores[0], {
                    name: (RNG.standard_normal(shape) * t).astype(np.float32)
                    for name, shape in shapes.items()})
                scale = 1.0 / (10 + t)
                norm = folded.step(grads, scale=scale)
                assert norm == first.step(filled_grads(stores[1], {
                    name: g * np.float32(scale) for name, g in grads.items()}))
                assert clip_norm == 0.0 or norm > clip_norm  # the clip ran
            for name in shapes:
                assert stores[0][name].tobytes() == stores[1][name].tobytes()

    def test_in_place_update_matches_allocating_formula_bit_for_bit(self, monkeypatch):
        """The preallocated buffers keep the textbook formula's operation
        order, so float32 weights come out byte-identical to it; also when
        the update's blocks of the flat buffers (at an ADAM_BLOCK of 8
        elements) end inside tensors."""
        shapes = {"big": (7, 5), "small": (3,), "scalar": ()}
        for block in (tensor_mod.ADAM_BLOCK, 8):
            monkeypatch.setattr(tensor_mod, "ADAM_BLOCK", block)
            store = store_of(shapes)
            state = {"w": {name: arr.copy() for name, arr in store.items()},
                     "m": {name: np.zeros(shape, np.float32) for name, shape in shapes.items()},
                     "v": {name: np.zeros(shape, np.float32) for name, shape in shapes.items()}}
            opt = Adam(store, clip_norm=3.0)
            for t in range(1, 6):
                grads = filled_grads(store, {
                    name: (RNG.standard_normal(shape) * t).astype(np.float32)
                    for name, shape in shapes.items()})
                norm = opt.step(grads)
                reference_step(state, grads, t, min(1.0, 3.0 / norm))
                for name in shapes:
                    assert store[name].tobytes() == state["w"][name].tobytes()

    def test_first_row_step_from_zero_moments_equals_the_dense_step(self):
        """With clipping off and zero moments, a dense step leaves the rows
        without gradient as they are, so the ``rows=`` step writes the
        same bytes on every row of the weights and both moments."""
        ids = ROW_SETS[0]
        grads = sparse_grads(ids, 1)
        given, rows = row_sparse(grads, ids)
        lazy, dense = Adam(sparse_store(), clip_norm=0.0), Adam(sparse_store(), clip_norm=0.0)
        assert lazy.step(given, scale=0.25, rows=rows) == pytest.approx(
            dense.step(grads, scale=0.25), rel=1e-6)
        for name in SPARSE_SHAPES:
            for a, b in ((lazy.store, dense.store), (lazy._m, dense._m), (lazy._v, dense._v)):
                assert a[name].tobytes() == b[name].tobytes()

    def test_rows_outside_the_set_keep_their_bytes(self, monkeypatch):
        """Over several steps, a row outside a step's row set keeps its
        weights and both moments byte for byte through that step."""
        monkeypatch.setattr(tensor_mod, "ADAM_BLOCK", SMALL_BLOCK)
        opt = Adam(sparse_store(), clip_norm=3.0)
        for t, ids in enumerate(ROW_SETS, start=1):
            before = [x["table"].copy() for x in (opt.store, opt._m, opt._v)]
            given, rows = row_sparse(sparse_grads(ids, t), ids)
            opt.step(given, rows=rows)
            untouched = np.setdiff1d(np.arange(20), ids)
            for old, x in zip(before, (opt.store, opt._m, opt._v)):
                assert old[untouched].tobytes() == x["table"][untouched].tobytes()
                assert old[ids].tobytes() != x["table"][ids].tobytes()

    def test_rows_in_the_set_follow_the_reference_formula(self, monkeypatch):
        """The rows of a step's row set, taken alone, come out of the
        textbook formula bit for bit, bias-corrected by the global step
        count; the dense tensors beside them too."""
        monkeypatch.setattr(tensor_mod, "ADAM_BLOCK", SMALL_BLOCK)
        opt = Adam(sparse_store(), clip_norm=3.0)
        state = {key: {name: x[name].copy() for name in SPARSE_SHAPES}
                 for key, x in (("w", opt.store), ("m", opt._m), ("v", opt._v))}
        for t, ids in enumerate(ROW_SETS, start=1):
            grads = sparse_grads(ids, t)
            given, row_block = row_sparse(grads, ids)
            norm = opt.step(given, rows=row_block)
            rows = {key: {**x, "table": x["table"][ids]} for key, x in state.items()}
            reference_step(rows, {**grads, "table": grads["table"][ids]},
                           t, min(1.0, 3.0 / norm))
            for key, x in state.items():
                x["table"][ids] = rows[key]["table"]
            for name in SPARSE_SHAPES:
                assert opt.store[name].tobytes() == state["w"][name].tobytes()
                assert opt._m[name].tobytes() == state["m"][name].tobytes()
                assert opt._v[name].tobytes() == state["v"][name].tobytes()

    def test_row_norm_equals_the_dense_norm(self):
        """The norm over the row set equals the norm over all rows when the
        other rows have zero gradient; only the summation order differs."""
        store = store_of({"table": (3000, 50), "dense": (40, 7)})
        ids = np.sort(RNG.choice(3000, size=90, replace=False))
        grads = store.zero_grads()
        grads["table"][ids] = RNG.standard_normal((90, 50)) * 4
        grads["dense"][...] = RNG.standard_normal((40, 7))
        opt = Adam(store, clip_norm=0.0)
        dense = opt._global_norm(grads, 1.0 / 37)
        given, rows = row_sparse(grads, ids)
        assert opt._global_norm(given, 1.0 / 37, rows) == pytest.approx(dense, rel=1e-6)
        assert opt.step(given, scale=1.0 / 37, rows=rows) == pytest.approx(dense, rel=1e-6)


    def test_moments_and_gradients_share_the_store_layout(self):
        store = store_of(SPARSE_SHAPES)
        opt = Adam(store)
        for tensors in (opt._m, opt._v):
            assert_one_buffer(tensors.items(), tensors.flat)
            assert tensors.layout == store.zero_grads().layout
        given, rows = row_sparse(sparse_grads(ROW_SETS[1], 1), ROW_SETS[1])
        opt.step(given, rows=rows)
        for tensors in (store, opt._m, opt._v):
            assert_one_buffer(tensors.items(), tensors.flat)

    def test_a_bare_id_array_is_rejected(self):
        """A ``rows`` entry must be an ``(ids, values)`` pair: the ids alone
        raise ``TypeError`` before anything is updated."""
        store = sparse_store()
        opt, before = Adam(store), store.flat.copy()
        grads = sparse_grads(ROW_SETS[1], 1)
        for entry in (ROW_SETS[1], np.array([3, 4]), [ROW_SETS[1], grads["table"][ROW_SETS[1]]]):
            with pytest.raises(TypeError, match="table"):
                opt.step(grads, rows={"table": entry})
        assert opt._t == 0 and store.flat.tobytes() == before.tobytes()

    def test_values_of_another_shape_are_rejected(self):
        """A block whose shape is not ``(len(ids),)`` plus the tensor's row
        shape raises ``ValueError`` before anything is updated."""
        store = sparse_store()
        opt, before = Adam(store), store.flat.copy()
        ids = ROW_SETS[1]
        for shape in ((len(ids) + 1, 6), (len(ids) - 1, 6), (len(ids), 5), (len(ids) * 6,),
                      (len(ids), 6, 1)):
            with pytest.raises(ValueError, match="table"):
                opt.step(sparse_store().zero_grads(),
                         rows={"table": (ids, np.ones(shape, np.float32))})
        assert opt._t == 0 and store.flat.tobytes() == before.tobytes()

    def test_runs_are_cached_per_set_of_names(self):
        """``runs`` gives the same slices for the same set of skipped names,
        however it is given, computed once; each set has its own."""
        store = sparse_store()
        runs = store.runs({"table": None})
        assert runs == (slice(0, 5), slice(125, 137))
        assert store.runs(["table"]) is runs and store.runs(frozenset({"table"})) is runs
        assert store.runs(()) == (slice(0, 137),)
        assert store.runs({"bias", "dense"}) == (slice(5, 125),)
        assert store.copy().runs({"table"}) == runs

    def test_gradients_of_another_layout_rejected(self):
        opt = Adam(sparse_store())
        plain = {name: np.zeros(shape, np.float32) for name, shape in SPARSE_SHAPES.items()}
        reordered = store_of(dict(reversed(SPARSE_SHAPES.items()))).zero_grads()
        for grads in (plain, reordered):
            with pytest.raises(TypeError, match="zero_grads"):
                opt.step(grads)
        assert opt._t == 0


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

    def test_rank_beyond_limit_rejected(self, tmp_path):
        # Neither the product of 600 large dims (too long to format) nor 65
        # zero dims (too many for np.empty) may escape as a ValueError.
        for shape in [(2 ** 32 - 1,) * 600, (0,) * 65]:
            path = self._forged(tmp_path, b"w", shape, b"")
            with pytest.raises(ParseError, match="rank"):
                load_checkpoint(path)

    @pytest.mark.parametrize("header", [
        b"MQG1" + struct.pack("<II", 1, 2 ** 32 - 1),            # name length
        b"MQG1" + struct.pack("<II", 1, 1) + b"w" + struct.pack("<I", 2 ** 30),  # rank
    ])
    def test_length_field_larger_than_file_rejected(self, tmp_path, header):
        # Checked before the read, so no buffer of that size is allocated.
        path = tmp_path / "forged.ckpt"
        path.write_bytes(header + b"\x00" * 64)
        with pytest.raises(ParseError, match="truncated"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("content", [b"[1, 2]\n", b"{\"a\": \"\xff\"}\n"])
    def test_malformed_sidecar_rejected(self, tmp_path, content):
        path = str(tmp_path / "model.ckpt")
        with open(path + ".json", "wb") as fh:
            fh.write(content)
        with pytest.raises(ParseError):
            read_sidecar(path)[0]

    def test_sidecar_round_trip(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        meta = {"seed": 42, "hyperparams": {"hidden_size": 8}}
        save_checkpoint(path, self._params(), sidecar=meta)
        assert os.path.exists(path + ".json")
        assert read_sidecar(path)[0] == meta

    def test_checksum_covers_pack_and_sidecar(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        params = self._params()
        save_checkpoint(path, params, sidecar={"version": 1})
        raw = json.loads((tmp_path / "model.ckpt.json").read_text())
        assert len(raw[CHECKSUM_KEY]) == 64
        check_sidecar(read_sidecar(path)[1], path, load_checkpoint(path), required=True)
        # Other weights, a changed sidecar value, or the sidecar re-spaced.
        with pytest.raises(ParseError, match=CHECKSUM_KEY):
            check_sidecar(read_sidecar(path)[1], path,
                          {name: arr + 1 for name, arr in params.items()}, required=True)
        for text in (json.dumps({**raw, "version": 2}, indent=2, sort_keys=True) + "\n",
                     json.dumps(raw, sort_keys=True) + "\n"):
            (tmp_path / "model.ckpt.json").write_text(text)
            with pytest.raises(ParseError, match=CHECKSUM_KEY):
                check_sidecar(read_sidecar(path)[1], path, params, required=False)

    def test_sidecar_without_checksum_is_checked_only_when_required(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, self._params())
        (tmp_path / "model.ckpt.json").write_text('{"version": 1}\n')
        check_sidecar(read_sidecar(path)[1], path, self._params(), required=False)
        with pytest.raises(ParseError, match=CHECKSUM_KEY):
            check_sidecar(read_sidecar(path)[1], path, self._params(), required=True)

    @pytest.mark.parametrize("fail_in", ["pack", "sidecar"])
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch, fail_in):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, self._params(), sidecar={"version": 1})
        old = {name: (tmp_path / name).read_bytes()
               for name in ("model.ckpt", "model.ckpt.json")}
        newer = {name: arr + 1 for name, arr in self._params().items()}
        # The disk fills 10 bytes into the pack, or 5 bytes into the sidecar.
        budget = 10 if fail_in == "pack" else len(old["model.ckpt"]) + 5
        monkeypatch.setattr(builtins, "open", _FullDisk(budget, builtins.open).open)
        with pytest.raises(FileError, match="No space left"):
            save_checkpoint(path, newer, sidecar={"version": 2})
        monkeypatch.undo()
        assert {name: (tmp_path / name).read_bytes() for name in old} == old
        assert sorted(os.listdir(tmp_path)) == sorted(old)  # no temporary file left

    def test_unwritable_path_raises_file_error(self):
        with pytest.raises(FileError):
            save_checkpoint("/nonexistent-dir/x.ckpt", self._params())

    def test_missing_file_raises_file_error(self):
        with pytest.raises(FileError):
            load_checkpoint("/nonexistent-dir/x.ckpt")


class _FullDisk:
    """An ``open`` whose writable files share ``budget`` bytes, after which
    a write stores what fits and raises ENOSPC, as a full disk does."""

    def __init__(self, budget: int, real_open):
        self.budget = budget
        self.real_open = real_open

    def open(self, file, mode="r", *args, **kwargs):
        fh = self.real_open(file, mode, *args, **kwargs)
        return _FullDiskFile(fh, self) if "w" in mode else fh


class _FullDiskFile:
    def __init__(self, fh, disk: _FullDisk):
        self.fh = fh
        self.disk = disk

    def write(self, data):
        if len(data) > self.disk.budget:
            self.fh.write(data[: self.disk.budget])
            self.disk.budget = 0
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.disk.budget -= len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()
