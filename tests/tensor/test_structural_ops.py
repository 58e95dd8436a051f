"""Unit tests for the structural operations in :mod:`repro.tensor.ops`."""

import numpy as np
import pytest

from repro.tensor import Tensor, ops


class TestConcatenateStack:
    def test_concatenate_values_and_gradients(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.full((2, 2), 2.0), requires_grad=True)
        out = ops.concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * 3.0).sum().backward()
        assert np.allclose(a.grad, 3.0)
        assert np.allclose(b.grad, 3.0)

    def test_concatenate_empty_list_raises(self):
        with pytest.raises(ValueError):
            ops.concatenate([])

    def test_stack_creates_new_axis(self):
        tensors = [Tensor(np.full((3,), float(i)), requires_grad=True) for i in range(4)]
        out = ops.stack(tensors, axis=0)
        assert out.shape == (4, 3)
        out[2].sum().backward()
        assert np.allclose(tensors[2].grad, 1.0)
        # Tensors not selected by the slice receive a zero gradient.
        assert tensors[0].grad is None or np.allclose(tensors[0].grad, 0.0)

    def test_split_is_inverse_of_concatenate(self):
        x = Tensor(np.arange(12, dtype=float).reshape(2, 6))
        parts = ops.split(x, 3, axis=1)
        assert len(parts) == 3
        assert np.allclose(ops.concatenate(parts, axis=1).numpy(), x.numpy())

    def test_split_uneven_raises(self):
        with pytest.raises(ValueError):
            ops.split(Tensor(np.zeros((2, 5))), 3, axis=1)


class TestPadWhere:
    def test_pad_values(self):
        x = Tensor(np.ones((2, 2)))
        padded = ops.pad(x, [(1, 0), (0, 2)], value=5.0)
        assert padded.shape == (3, 4)
        assert padded.numpy()[0, 0] == 5.0
        assert padded.numpy()[1, 0] == 1.0

    def test_pad_gradient_slices_back(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        ops.pad(x, [(1, 1), (2, 0)]).sum().backward()
        assert np.allclose(x.grad, 1.0)
        assert x.grad.shape == (2, 3)

    def test_pad_wrong_rank_raises(self):
        with pytest.raises(ValueError):
            ops.pad(Tensor(np.zeros((2, 2))), [(1, 1)])

    def test_where_selects_and_routes_gradient(self):
        condition = np.array([True, False, True])
        a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        b = Tensor(np.array([10.0, 20.0, 30.0]), requires_grad=True)
        out = ops.where(condition, a, b)
        assert np.allclose(out.numpy(), [1.0, 20.0, 3.0])
        out.sum().backward()
        assert np.allclose(a.grad, [1.0, 0.0, 1.0])
        assert np.allclose(b.grad, [0.0, 1.0, 0.0])


class TestWindowsAndEncodings:
    def test_unfold_windows_shapes(self):
        x = Tensor(np.arange(24, dtype=float).reshape(2, 12))
        unfolded = ops.unfold_windows(x, window=3, axis=1)
        assert unfolded.shape == (2, 4, 3)
        assert np.allclose(unfolded.numpy()[0, 0], [0.0, 1.0, 2.0])

    def test_unfold_windows_indivisible_raises(self):
        with pytest.raises(ValueError):
            ops.unfold_windows(Tensor(np.zeros((2, 10))), window=3, axis=1)

    def test_one_hot_values(self):
        encoded = ops.one_hot(np.array([0, 2, 1]), num_classes=3).numpy()
        assert np.allclose(encoded, np.eye(3)[[0, 2, 1]])

    def test_one_hot_out_of_range_raises(self):
        with pytest.raises(ValueError):
            ops.one_hot(np.array([3]), num_classes=3)

    def test_outer_and_dot(self):
        a = Tensor(np.array([1.0, 2.0]))
        b = Tensor(np.array([3.0, 4.0, 5.0]))
        assert ops.outer(a, b).shape == (2, 3)
        assert ops.dot(a, Tensor(np.array([10.0, 20.0]))).item() == pytest.approx(50.0)

    def test_tensordot_last_matches_einsum(self):
        rng = np.random.default_rng(0)
        x_value = rng.normal(size=(2, 3, 4))
        w_value = rng.normal(size=(4, 6))
        x = Tensor(x_value, requires_grad=True)
        w = Tensor(w_value, requires_grad=True)
        out = ops.tensordot_last(x, w)
        assert out.shape == (2, 3, 6)
        assert np.allclose(out.numpy(), np.einsum("abc,cd->abd", x_value, w_value))
        out.sum().backward()
        assert x.grad.shape == x_value.shape
        assert w.grad.shape == w_value.shape

    def test_tensordot_last_is_batch_invariant(self):
        """Each leading-batch slice is its own GEMM: a row's bits do not
        depend on how many rows share the call.  The shape is DyHSL's output
        head on 170 sensors, where one flattened GEMM changes BLAS kernel
        with the batch."""
        rng = np.random.default_rng(1)
        x_value = rng.normal(size=(16, 170, 32))
        w_value = rng.normal(size=(32, 12))
        out = ops.tensordot_last(Tensor(x_value), Tensor(w_value)).numpy()
        assert out.shape == (16, 170, 12)
        assert np.allclose(out, np.einsum("abc,cd->abd", x_value, w_value))
        for row in range(16):
            alone = ops.tensordot_last(Tensor(x_value[row : row + 1]), Tensor(w_value)).numpy()
            assert np.array_equal(out[row], alone[0])

    def test_tensordot_last_empty_leading_batch(self):
        rng = np.random.default_rng(2)
        x = Tensor(np.zeros((0, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        out = ops.tensordot_last(x, w)
        assert out.shape == (0, 3, 6)
        out.sum().backward()
        assert x.grad.shape == (0, 3, 4)
        assert np.array_equal(w.grad, np.zeros((4, 6)))

    def test_tensordot_last_keeps_2d_input_one_gemm(self):
        from repro.nn import Linear
        from repro.runtime import compile_plan

        rng = np.random.default_rng(3)
        x_value = rng.normal(size=(9, 4))
        w_value = rng.normal(size=(4, 6))
        out = ops.tensordot_last(Tensor(x_value), Tensor(w_value)).numpy()
        assert np.array_equal(out, x_value @ w_value)
        layer = Linear(4, 6, bias=False).eval()
        flat = [s for s in compile_plan(layer, x_value).spec.steps if s.name == "matmul"]
        assert [s.out_shape for s in flat] == [(9, 6)]
        stacked = [s for s in compile_plan(layer, rng.normal(size=(5, 3, 4))).spec.steps if s.name == "matmul"]
        assert [s.out_shape for s in stacked] == [(5, 3, 6)]
