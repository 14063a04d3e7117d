"""Kernel primitives: forward semantics and finite-difference gradients."""

import re

import numpy as np
import pytest

from gatedfusion import tensor as T
from gatedfusion.errors import ConfigError, LabelError, NonFiniteError, ShapeError


def make_leaf(name, data):
    """A parameter of any shape: a (B, m, n) stack stands in for a batch activation,
    since a tape leaf needs only `data` and `grad`, while `Parameter` is always 2-D."""
    if data.ndim == 2:
        return T.Parameter(name, data)
    p = T.Parameter(name, np.zeros((1, 1)))
    p.data, p.grad = data, np.zeros_like(data)
    return p


def fd_check(op, shapes, seed, step=1e-5, tol=1e-5):
    """Finite-difference oracle for a composite scalar built from `op`.

    Projects the op output to a scalar with a fixed random weight matrix, so
    every output entry contributes to the loss.
    """
    rng = np.random.default_rng(seed)
    params = [make_leaf(f"p{i}", rng.normal(size=s)) for i, s in enumerate(shapes)]
    out_probe = {}

    def loss_fn():
        tape = T.Tape()
        out = op(tape, [tape.leaf(p) for p in params])
        if "w" not in out_probe:
            out_probe["w"] = rng.normal(size=out.data.shape)
        probe = tape.constant(out_probe["w"])
        return T.sum_all(T.mul(out, probe))

    report = T.gradcheck(loss_fn, params, step=step, tol=tol)
    assert report.passed, f"{report}"


class TestMatmul:
    def test_identity(self):
        tape = T.Tape()
        a = tape.constant(np.eye(2))
        b = tape.constant([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(a, b).data, [[1, 2], [3, 4]])

    def test_hand_computed(self):
        tape = T.Tape()
        out = T.matmul(tape.constant([[1.0, 2.0]]), tape.constant([[3.0], [4.0]]))
        assert out.data[0, 0] == pytest.approx(11.0)

    def test_shape_error_names_operands(self):
        tape = T.Tape()
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(tape.constant(np.zeros((2, 3))), tape.constant(np.zeros((2, 3))))
        with pytest.raises(ShapeError, match=r"\(2, 2, 3\).*\(4, 3, 1\)"):
            T.matmul(tape.constant(np.zeros((2, 2, 3))), tape.constant(np.zeros((4, 3, 1))))

    def test_stack_is_matrices_one_by_one(self):
        rng = np.random.default_rng(1)
        a, b, w = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 5, 2)), rng.normal(size=(5, 2))
        tape = T.Tape()
        by_stack = T.matmul(tape.constant(a), tape.constant(b)).data
        by_matrix = T.matmul(tape.constant(a), tape.constant(w)).data
        for i in range(3):
            np.testing.assert_allclose(by_stack[i], a[i] @ b[i], rtol=1e-14)
            np.testing.assert_allclose(by_matrix[i], a[i] @ w, rtol=1e-14)

    def test_gradients_5x7_7x3(self):
        fd_check(lambda tape, ps: T.matmul(ps[0], ps[1]), [(5, 7), (7, 3)], seed=0, tol=1e-6)


class TestSigmoid:
    def test_zero_maps_to_half(self):
        tape = T.Tape()
        assert T.sigmoid(tape.constant([[0.0]])).data[0, 0] == 0.5

    def test_symmetry(self):
        tape = T.Tape()
        x = np.linspace(-20, 20, 17).reshape(1, -1)
        s_pos = T.sigmoid(tape.constant(x)).data
        s_neg = T.sigmoid(tape.constant(-x)).data
        np.testing.assert_allclose(s_pos + s_neg, 1.0, atol=1e-15)

    def test_extreme_inputs_stay_finite_and_open(self):
        tape = T.Tape()
        out = T.sigmoid(tape.constant([[-1e6, -710.0, 710.0, 1e6]])).data
        assert np.all(np.isfinite(out))
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_gradient_at_zero(self):
        p = T.Parameter("x", np.zeros((1, 1)))

        def loss_fn():
            tape = T.Tape()
            return T.sum_all(T.sigmoid(tape.leaf(p)))

        loss = loss_fn()
        loss.tape.backward(loss)
        assert p.grad[0, 0] == pytest.approx(0.25, abs=1e-12)
        assert T.gradcheck(loss_fn, [p], tol=1e-8).passed


class TestElementwise:
    def test_concat_cols(self):
        tape = T.Tape()
        out = T.concat_cols(tape.constant([[1.0, 2.0]]), tape.constant([[3.0]]))
        assert np.array_equal(out.data, [[1, 2, 3]])

    def test_softmax_uniform(self):
        tape = T.Tape()
        out = T.softmax_rows(tape.constant([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        tape = T.Tape()
        out = T.softmax_rows(tape.constant(rng.normal(scale=30, size=(11, 7))))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    def test_layernorm_constant_row_is_zero(self):
        tape = T.Tape()
        out = T.layernorm_rows(tape.constant([[3.0, 3.0, 3.0, 3.0]]))
        np.testing.assert_allclose(out.data, 0.0)

    def test_layernorm_row_stats(self):
        rng = np.random.default_rng(2)
        tape = T.Tape()
        out = T.layernorm_rows(tape.constant(rng.normal(size=(9, 32)))).data
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-4)

    def test_shape_mismatch(self):
        """b must be a's shape, a 1xn row, an mx1 column or 1x1; the error names both shapes."""
        tape = T.Tape()
        a = tape.constant(np.zeros((2, 3)))
        stack = tape.constant(np.zeros((2, 2, 3)))
        for op in (T.add, T.mul):
            # the last: b of higher rank than a
            for b_shape in [(3, 2), (2, 2), (1, 2), (3, 1), (3, 3), (4, 2, 3)]:
                with pytest.raises(ShapeError, match=re.escape(f"(2, 3) vs {b_shape}")):
                    op(a, tape.constant(np.zeros(b_shape)))
            # a stack of another length
            for b_shape in [(3, 2, 3), (1, 1, 3)]:
                with pytest.raises(ShapeError, match=re.escape(f"(2, 2, 3) vs {b_shape}")):
                    op(stack, tape.constant(np.zeros(b_shape)))
            # the first operand may not be the smaller one
            with pytest.raises(ShapeError):
                op(tape.constant(np.zeros((1, 3))), a)
            with pytest.raises(ShapeError):
                op(tape.constant(np.zeros((1, 1))), a)


class TestTranspose:
    def test_swaps_a_matrix(self):
        tape = T.Tape()
        out = T.transpose(tape.constant([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), (2, 3), (1, 0), (3, 2))
        assert np.array_equal(out.data, [[1, 4], [2, 5], [3, 6]])

    def test_head_split_and_merge(self):
        """Row i*H + j of the split holds head j of sample i; the merge undoes the split."""
        b, t, h, dh = 3, 4, 2, 5
        x = np.random.default_rng(0).normal(size=(b, t, h * dh))
        tape = T.Tape()
        split = T.transpose(tape.constant(x), (b, t, h, dh), (0, 2, 1, 3), (b * h, t, dh))
        keys = T.transpose(tape.constant(x), (b, t, h, dh), (0, 2, 3, 1), (b * h, dh, t))
        for i in range(b):
            for j in range(h):
                np.testing.assert_array_equal(split.data[i * h + j], x[i, :, j * dh:(j + 1) * dh])
                np.testing.assert_array_equal(keys.data[i * h + j], x[i, :, j * dh:(j + 1) * dh].T)
        merged = T.transpose(split, (b, h, t, dh), (0, 2, 1, 3), (b, t, h * dh))
        np.testing.assert_array_equal(merged.data, x)
        assert merged.data.flags.c_contiguous and split.data.flags.c_contiguous

    @pytest.mark.parametrize("shape, axes, out_shape, message", [
        ((2, 4), (1, 0), (4, 2), r"sizes differ: \(2, 3\) viewed as \(2, 4\)"),
        ((2, 3), (1, 0), (3, 3), r"sizes differ: \(2, 3\) viewed as \(2, 3\) and \(3, 3\)"),
        ((2, 3), (0, 0), (3, 2), r"axes \(0, 0\) are not a permutation of 2 axes"),
        ((2, 3), (1, 2), (3, 2), r"axes \(1, 2\) are not a permutation"),
        ((2, 3), (0,), (3, 2), r"axes \(0,\) are not a permutation"),
    ])
    def test_shape_errors(self, shape, axes, out_shape, message):
        tape = T.Tape()
        with pytest.raises(ShapeError, match=message):
            T.transpose(tape.constant(np.zeros((2, 3))), shape, axes, out_shape)


@pytest.mark.parametrize("seed", range(10))
def test_randomized_primitive_gradients(seed):
    """Each primitive against central finite differences, random shapes, on
    matrices and on stacks."""
    rng = np.random.default_rng(seed)
    m, k, n = rng.integers(1, 8, size=3)
    fd_check(lambda tape, ps: T.matmul(ps[0], ps[1]), [(m, k), (k, n)], seed)
    # b of a's shape, then broadcast as a row, a column and a scalar
    for b_shape in [(m, n), (1, n), (m, 1), (1, 1)]:
        fd_check(lambda tape, ps: T.add(ps[0], ps[1]), [(m, n), b_shape], seed)
        fd_check(lambda tape, ps: T.mul(ps[0], ps[1]), [(m, n), b_shape], seed)
    fd_check(lambda tape, ps: T.sigmoid(ps[0]), [(m, n)], seed)
    fd_check(lambda tape, ps: T.softmax_rows(ps[0]), [(m, n)], seed)
    # width >= 3: a 2-wide layernorm row is constant up to sign, a flat
    # direction where FD noise swamps the structurally-zero gradient
    fd_check(lambda tape, ps: T.layernorm_rows(ps[0]), [(m, max(n, 3))], seed)
    fd_check(lambda tape, ps: T.concat_cols(ps[0], ps[1]), [(m, k), (m, n)], seed)
    fd_check(lambda tape, ps: T.transpose(ps[0], (m, n), (1, 0), (n, m)), [(m, n)], seed)

    # the same on (B, m, n) stacks
    b = int(rng.integers(1, 5))
    fd_check(lambda tape, ps: T.matmul(ps[0], ps[1]), [(b, m, k), (b, k, n)], seed)
    # a stack times a matrix, and a column times a stack of rows (context expansion)
    fd_check(lambda tape, ps: T.matmul(ps[0], ps[1]), [(b, m, k), (k, n)], seed)
    fd_check(lambda tape, ps: T.matmul(ps[0], ps[1]), [(m, 1), (b, 1, n)], seed)
    # b of the stack's shape, per-sample rows and columns, then one matrix for all samples
    for b_shape in [(b, m, n), (b, 1, n), (b, m, 1), (m, n), (1, n), (m, 1), (1, 1)]:
        fd_check(lambda tape, ps: T.add(ps[0], ps[1]), [(b, m, n), b_shape], seed)
        fd_check(lambda tape, ps: T.mul(ps[0], ps[1]), [(b, m, n), b_shape], seed)
    fd_check(lambda tape, ps: T.sigmoid(ps[0]), [(b, m, n)], seed)
    fd_check(lambda tape, ps: T.relu(ps[0]), [(b, m, n)], seed)
    fd_check(lambda tape, ps: T.softmax_rows(ps[0]), [(b, m, n)], seed)
    fd_check(lambda tape, ps: T.layernorm_rows(ps[0]), [(b, m, max(n, 3))], seed)
    fd_check(lambda tape, ps: T.concat_cols(ps[0], ps[1]), [(b, m, k), (b, m, n)], seed)
    fd_check(lambda tape, ps: T.transpose(ps[0], (b, m, n), (0, 2, 1), (b, n, m)), [(b, m, n)], seed)
    # attention's head split of a (b, m, k*n) stack into b*k heads of width n, the
    # split of keys straight to their transpose, and the merge back
    heads = (b, m, k, n)
    fd_check(lambda tape, ps: T.transpose(ps[0], heads, (0, 2, 1, 3), (b * k, m, n)),
             [(b, m, k * n)], seed)
    fd_check(lambda tape, ps: T.transpose(ps[0], heads, (0, 2, 3, 1), (b * k, n, m)),
             [(b, m, k * n)], seed)
    fd_check(lambda tape, ps: T.transpose(ps[0], (b, k, m, n), (0, 2, 1, 3), (b, m, k * n)),
             [(b * k, m, n)], seed)
    labels = rng.integers(0, n + 1, size=b)
    fd_check(lambda tape, ps: T.cross_entropy(ps[0], labels), [(b, 1, n + 1)], seed)


@pytest.mark.parametrize("seed", range(100))
def test_composition_gradients_many_seeds(seed):
    """Three-layer random composition of primitives vs finite differences."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 6)), int(rng.integers(3, 6))

    def op(tape, ps):
        x = T.sigmoid(T.matmul(ps[0], ps[1]))
        x = T.layernorm_rows(T.add(x, ps[2]))
        return T.softmax_rows(T.mul(x, x))

    fd_check(op, [(m, n), (n, n), (m, n)], seed)


class TestTapeSemantics:
    def test_gradient_accumulation_doubles(self):
        p = T.Parameter("x", np.array([[1.5, -0.5]]))

        def g(tape, x):
            return T.sum_all(T.sigmoid(x))

        tape = T.Tape()
        x = tape.leaf(p)
        single = g(tape, x)
        single.tape.backward(single)
        g_single = p.grad.copy()

        p.zero_grad()
        tape = T.Tape()
        x = tape.leaf(p)
        double = T.add(g(tape, x), g(tape, x))
        double.tape.backward(double)
        np.testing.assert_array_equal(p.grad, 2.0 * g_single)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))

        def run():
            tape = T.Tape()
            out = T.softmax_rows(T.matmul(T.sigmoid(tape.constant(a)), tape.constant(b)))
            return out.data.copy()

        assert np.array_equal(run(), run())

    def test_nonfinite_diagnostic_names_op(self):
        p = T.Parameter("x", np.array([[1e308]]))

        def loss_fn():
            tape = T.Tape()
            x = tape.leaf(p)
            return T.sum_all(T.mul(T.matmul(x, x), tape.constant([[2.0]])))

        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="matmul"):
            loss = loss_fn()
            loss.tape.backward(loss)


class TestNoGrad:
    @staticmethod
    def recording():
        tape = T.Tape()
        out = T.sigmoid(tape.leaf(T.Parameter("x", np.ones((1, 2)))))
        return out.grad is not None and len(tape._steps) == 1

    def test_nests_and_restores(self):
        assert self.recording()
        with T.no_grad():
            assert not self.recording()
            with T.no_grad():
                assert not self.recording()
            assert not self.recording()
        assert self.recording()

    def test_restores_recording_after_an_exception(self):
        with pytest.raises(LabelError):
            with T.no_grad():
                T.cross_entropy(T.Tape().constant([[0.0, 0.0]]), 5)
        assert self.recording()

    def test_backward_of_an_unrecorded_loss_is_a_config_error(self):
        p = T.Parameter("x", np.array([[0.5, -1.0]]))
        with T.no_grad():
            tape = T.Tape()
            loss = T.sum_all(T.sigmoid(tape.leaf(p)))
        with pytest.raises(ConfigError, match="without recording"):
            tape.backward(loss)
        assert not p.grad.any()


class TestCrossEntropy:
    def test_uniform_logits(self):
        tape = T.Tape()
        loss = T.cross_entropy(tape.constant([[1.0, 1.0, 1.0]]), 1)
        assert loss.item() == pytest.approx(np.log(3.0), abs=1e-12)

    def test_confident_correct(self):
        tape = T.Tape()
        assert T.cross_entropy(tape.constant([[20.0, -20.0]]), 0).item() < 1e-9

    def test_label_out_of_range(self):
        tape = T.Tape()
        with pytest.raises(LabelError):
            T.cross_entropy(tape.constant([[0.0, 0.0]]), 2)

    def test_stack_gives_one_loss_per_row(self):
        rng = np.random.default_rng(8)
        logits, labels = rng.normal(size=(4, 1, 3)), [2, 0, 1, 2]
        tape = T.Tape()
        losses = T.cross_entropy(tape.constant(logits), labels).data
        assert losses.shape == (4, 1, 1)
        for i in range(4):
            row = T.cross_entropy(tape.constant(logits[i]), labels[i]).data
            np.testing.assert_array_equal(losses[i], row)
        with pytest.raises(ShapeError):
            T.cross_entropy(tape.constant(logits), [0, 1])

    def test_gradient(self):
        rng = np.random.default_rng(9)
        p = T.Parameter("logits", rng.normal(size=(1, 4)))

        def loss_fn():
            tape = T.Tape()
            return T.cross_entropy(tape.leaf(p), 2)

        assert T.gradcheck(loss_fn, [p], tol=1e-6).passed


class TestGradcheckHarness:
    def test_quadratic(self):
        p = T.Parameter("x", np.array([[3.0]]))

        def loss_fn():
            tape = T.Tape()
            x = tape.leaf(p)
            return T.sum_all(T.mul(x, x))

        report = T.gradcheck(loss_fn, [p], tol=1e-9)
        assert report.passed and report.worst < 1e-9

    def test_corrupted_gradient_detected(self):
        p = T.Parameter("x", np.array([[3.0]]))

        def wrong_square(x):
            """x * x whose backward gives x instead of 2x."""
            def backward(g):
                x.grad += g * x.data

            return T._out(x.tape, "wrong_square", x.data * x.data, backward)

        def loss_fn():
            tape = T.Tape()
            return T.sum_all(wrong_square(tape.leaf(p)))

        assert not T.gradcheck(loss_fn, [p]).passed

    def test_nan_off_the_base_point_fails(self):
        """A loss that turns NaN when the first entry moves fails that entry, and a
        finite later entry does not hide it."""
        p = T.Parameter("x", np.array([[3.0, 2.0]]))

        def loss_fn():
            tape = T.Tape()
            x = tape.leaf(p)
            shift = tape.constant([[0.0 if p.data[0, 0] == 3.0 else np.nan]])
            return T.sum_all(T.mul(T.add(x, shift), x))

        report = T.gradcheck(loss_fn, [p])
        assert not report.passed and np.isnan(report.worst)
