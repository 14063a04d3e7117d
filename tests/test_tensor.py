"""Kernel primitives: forward semantics and finite-difference gradients."""

import re
import threading

import numpy as np
import pytest

from gatedfusion import tensor as T
from gatedfusion.errors import ConfigError, LabelError, NonFiniteError, ShapeError
import reference_ops as R


class StackLeaf(T.Tensor):
    """A (B, m, n) stack that stands in for a batch activation as a gradcheck
    parameter: a named tensor with a gradient buffer, while `Parameter` is
    always 2-D."""

    __slots__ = ("name",)

    def __init__(self, name, data):
        super().__init__(data, np.zeros_like(data))
        self.name = name

    def zero_grad(self):
        self.grad.fill(0.0)


def make_leaf(name, data):
    """A parameter of any shape: a `Parameter` for a matrix, else a `StackLeaf`."""
    if data.ndim == 2:
        return T.Parameter(name, data)
    return StackLeaf(name, data)


def fd_check(op, shapes, seed, step=1e-5, tol=1e-5):
    """Finite-difference oracle for a composite scalar built from `op`.

    Projects the op output to a scalar with a fixed random weight matrix, so
    every output entry contributes to the loss.
    """
    rng = np.random.default_rng(seed)
    params = [make_leaf(f"p{i}", rng.normal(size=s)) for i, s in enumerate(shapes)]
    out_probe = {}

    def loss_fn():
        out = op(params)
        if "w" not in out_probe:
            out_probe["w"] = rng.normal(size=out.data.shape)
        probe = T.constant(out_probe["w"])
        return T.sum_all(T.mul(out, probe))

    report = T.gradcheck(loss_fn, params, step=step, tol=tol)
    assert report.passed, f"{report}"


def recorded_backward(loss_fn):
    """`loss_fn()` recorded on a fresh tape, then that tape's backward."""
    with T.Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)


class TestMatmul:
    def test_identity(self):
        a = T.constant(np.eye(2))
        b = T.constant([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(a, b).data, [[1, 2], [3, 4]])

    def test_hand_computed(self):
        out = T.matmul(T.constant([[1.0, 2.0]]), T.constant([[3.0], [4.0]]))
        assert out.data[0, 0] == pytest.approx(11.0)

    def test_shape_error_names_operands(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(T.constant(np.zeros((2, 3))), T.constant(np.zeros((2, 3))))
        with pytest.raises(ShapeError, match=r"\(2, 2, 3\).*\(4, 3, 1\)"):
            T.matmul(T.constant(np.zeros((2, 2, 3))), T.constant(np.zeros((4, 3, 1))))

    def test_stack_is_matrices_one_by_one(self):
        """A stack times a matrix is the 2-D product of the stacked rows, and a
        stack times a same-length stack is a[i] @ b[i], bit for bit, in the
        output and in both operands' tape gradients under sum(out * W)."""
        rng = np.random.default_rng(1)
        a, b, w = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 5, 2)), rng.normal(size=(5, 2))
        loss_w = rng.normal(size=(3, 4, 2))
        rows, g_rows = a.reshape(-1, 5), loss_w.reshape(-1, 2)
        by_matrix = [(rows @ w).reshape(3, 4, 2), (g_rows @ w.T).reshape(a.shape), rows.T @ g_rows]
        by_stack = [np.stack([a[i] @ b[i] for i in range(3)]),
                    np.stack([loss_w[i] @ b[i].T for i in range(3)]),
                    np.stack([a[i].T @ loss_w[i] for i in range(3)])]
        for second, want in ((w, by_matrix), (b, by_stack)):
            x, y = T.Tensor(a, np.zeros_like(a)), T.Tensor(second, np.zeros_like(second))
            with T.Tape() as tape:
                out = T.matmul(x, y)
                loss = T.sum_all(T.mul(out, T.constant(loss_w)))
            tape.backward(loss)
            for got, expected in zip((out.data, x.grad, y.grad), want):
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes(), second.shape

    def test_matrix_times_stack_is_refused(self):
        """A matrix `a` takes only a matrix `b`, with a bias or without."""
        a, b = T.constant(np.zeros((4, 5))), T.constant(np.zeros((3, 5, 2)))
        for bias in (None, T.constant(np.zeros((1, 2)))):
            with pytest.raises(ShapeError, match=re.escape("matmul shapes incompatible: (4, 5) vs (3, 5, 2)")):
                T.matmul(a, b, bias)

    def test_gradients_5x7_7x3(self):
        fd_check(lambda ps: T.matmul(ps[0], ps[1]), [(5, 7), (7, 3)], seed=0, tol=1e-6)


class TestSigmoid:
    def test_zero_maps_to_half(self):
        assert T.sigmoid(T.constant([[0.0]])).data[0, 0] == 0.5

    def test_symmetry(self):
        x = np.linspace(-20, 20, 17).reshape(1, -1)
        s_pos = T.sigmoid(T.constant(x)).data
        s_neg = T.sigmoid(T.constant(-x)).data
        np.testing.assert_allclose(s_pos + s_neg, 1.0, atol=1e-15)

    def test_extreme_inputs_stay_finite_and_open(self):
        out = T.sigmoid(T.constant([[-1e6, -710.0, 710.0, 1e6]])).data
        assert np.all(np.isfinite(out))
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_gradient_at_zero(self):
        p = T.Parameter("x", np.zeros((1, 1)))

        def loss_fn():
            return T.sum_all(T.sigmoid(p))

        recorded_backward(loss_fn)
        assert p.grad[0, 0] == pytest.approx(0.25, abs=1e-12)
        assert T.gradcheck(loss_fn, [p], tol=1e-8).passed


# a layernorm's gain and bias that leave its standardized rows as they are
UNIT_AFFINE = (T.constant([[1.0]]), T.constant([[0.0]]))


class TestElementwise:
    def test_concat_cols(self):
        out = T.concat_cols(T.constant([[1.0, 2.0]]), T.constant([[3.0]]))
        assert np.array_equal(out.data, [[1, 2, 3]])
        # one row, per sample or for all samples, repeats down a's rows
        out = T.concat_cols(T.constant(np.zeros((2, 3, 1))), T.constant([[[5.0]], [[7.0]]]))
        np.testing.assert_array_equal(out.data[..., 1], [[5, 5, 5], [7, 7, 7]])
        out = T.concat_cols(T.constant(np.zeros((3, 1))), T.constant([[5.0, 6.0]]))
        np.testing.assert_array_equal(out.data, [[0, 5, 6]] * 3)
        # rows neither 1 nor a's count, then a stack of another length (or under a matrix)
        for a_shape, b_shape in [((3, 2), (2, 1)), ((2, 3, 2), (2, 2, 1)),
                                 ((2, 3, 2), (3, 1, 1)), ((2, 3, 2), (1, 1, 1)), ((3, 2), (2, 1, 1))]:
            with pytest.raises(ShapeError, match=re.escape(f"{a_shape} vs {b_shape}")):
                T.concat_cols(T.constant(np.zeros(a_shape)), T.constant(np.zeros(b_shape)))

    def test_concat_cols_row_gradient_sums_over_rows(self):
        p = T.Parameter("ctx", np.array([[0.3, -0.8]]))

        def loss_fn():
            return T.sum_all(T.concat_cols(T.constant(np.zeros((7, 1))), p))

        recorded_backward(loss_fn)
        np.testing.assert_allclose(p.grad, 7.0)
        assert T.gradcheck(loss_fn, [p], tol=1e-8).passed

    def test_softmax_uniform(self):
        out = R.softmax_rows(T.constant([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = R.softmax_rows(T.constant(rng.normal(scale=30, size=(11, 7))))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    def test_layernorm_constant_row_is_zero(self):
        out = T.layernorm_rows(T.constant([[3.0, 3.0, 3.0, 3.0]]), *UNIT_AFFINE)
        np.testing.assert_allclose(out.data, 0.0)

    def test_layernorm_row_stats(self):
        rng = np.random.default_rng(2)
        out = T.layernorm_rows(T.constant(rng.normal(size=(9, 32))), *UNIT_AFFINE).data
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-4)

    def test_shape_mismatch(self):
        """b's matrices must be a's shape, a 1xn row, an mx1 column or 1x1, and b one
        matrix or a stack whose length divides a's; the error names both shapes."""
        a = T.constant(np.zeros((2, 3)))
        stack = T.constant(np.zeros((2, 2, 3)))
        for op in (T.add, T.mul):
            # the last: b of higher rank than a
            for b_shape in [(3, 2), (2, 2), (1, 2), (3, 1), (3, 3), (4, 2, 3)]:
                with pytest.raises(ShapeError, match=re.escape(f"(2, 3) vs {b_shape}")):
                    op(a, T.constant(np.zeros(b_shape)))
            # a stack whose length does not divide a's
            for b_shape in [(3, 2, 3), (4, 2, 3)]:
                with pytest.raises(ShapeError, match=re.escape(f"(2, 2, 3) vs {b_shape}")):
                    op(stack, T.constant(np.zeros(b_shape)))
            # a stack of one row serves the whole stack, bit for bit as the row does
            rng = np.random.default_rng(3)
            a3, row = T.constant(rng.normal(size=(2, 2, 3))), rng.normal(size=(1, 3))
            assert op(a3, T.constant(row[None])).data.tobytes() == op(a3, T.constant(row)).data.tobytes()
            # the first operand may not be the smaller one
            with pytest.raises(ShapeError):
                op(T.constant(np.zeros((1, 3))), a)
            with pytest.raises(ShapeError):
                op(T.constant(np.zeros((1, 1))), a)


# an (N, M, ...) first operand against grouped stacks of K = 1, N / 2 and N matrices
N, M, MID, COLS = 6, 3, 5, 4


def grouped_cases(k):
    """(op, a's shape, b's shape) for each grouped second operand of k matrices."""
    cases = [(op, (N, M, COLS), (k, p, q)) for op in (T.add, T.mul)
             for p, q in [(M, COLS), (1, COLS), (M, 1), (1, 1)]]
    cases.append((T.matmul, (N, M, MID), (k, MID, COLS)))
    return cases


def case_id(case):
    op, sa, sb = case
    return f"{op.__name__}-{sb}"


@pytest.mark.parametrize("k", [1, N // 2, N])
class TestGroupedOperand:
    """A stack of K matrices as second operand: matrix j serves the j-th run of
    N / K consecutive matrices of the first."""

    def test_each_group_is_the_matrix_op_bit_for_bit(self, k):
        rng = np.random.default_rng(k)
        g = N // k
        for op, sa, sb in grouped_cases(k):
            a, b = rng.normal(size=sa), rng.normal(size=sb)
            out = op(T.constant(a), T.constant(b)).data
            for j in range(k):
                want = op(T.constant(a[j * g : (j + 1) * g]), T.constant(b[j])).data
                assert out[j * g : (j + 1) * g].tobytes() == want.tobytes(), case_id((op, sa, sb))

    def test_vjps_match_an_einsum_oracle(self, k):
        """The loss sum(op(a, b) * W): a's gradient per group, b's summed over its group."""
        rng = np.random.default_rng(10 + k)
        g = N // k
        for op, sa, sb in grouped_cases(k):
            a, b = rng.normal(size=sa), rng.normal(size=sb)
            x, y = T.Tensor(a, np.zeros_like(a)), T.Tensor(b, np.zeros_like(b))
            with T.Tape() as tape:
                out = op(x, y)
                w = rng.normal(size=out.data.shape)
                loss = T.sum_all(T.mul(out, T.constant(w)))
            tape.backward(loss)
            a4, w4 = a.reshape(k, g, *sa[1:]), w.reshape(k, g, *w.shape[1:])
            if op is T.matmul:
                want_a = np.einsum("kgmn,krn->kgmr", w4, b)
                want_b = np.einsum("kgmr,kgmn->krn", a4, w4)
            else:
                # b's own axes: m and n where b has a's rows and columns
                sub = "k" + "m" * (sb[1] == M) + "n" * (sb[2] == COLS)
                b_sq = b.reshape([d for d, keep in zip(sb, (True, sb[1] == M, sb[2] == COLS)) if keep])
                if op is T.add:
                    want_a = w4
                    want_b = np.einsum(f"kgmn->{sub}", w4)
                else:
                    want_a = np.einsum(f"kgmn,{sub}->kgmn", w4, b_sq)
                    want_b = np.einsum(f"kgmn,kgmn->{sub}", w4, a4)
            np.testing.assert_allclose(x.grad, want_a.reshape(sa), rtol=1e-12, atol=1e-13,
                                       err_msg=case_id((op, sa, sb)))
            np.testing.assert_allclose(y.grad, want_b.reshape(sb), rtol=1e-12, atol=1e-13,
                                       err_msg=case_id((op, sa, sb)))

    def test_gradients_match_central_differences(self, k):
        for i, (op, sa, sb) in enumerate(grouped_cases(k)):
            fd_check(lambda ps: op(ps[0], ps[1]), [sa, sb], seed=20 + i)


@pytest.mark.parametrize("k", [N // 2, N])
def test_grouped_operand_length_must_divide(k):
    """A stack of K matrices against a stack of N + 1, which K does not divide."""
    for op, sa, sb in grouped_cases(k):
        a = T.constant(np.zeros((N + 1, *sa[1:])))
        with pytest.raises(ShapeError, match=re.escape(f"{a.shape} vs {sb}")):
            op(a, T.constant(np.zeros(sb)))


# a parameter operand's leading axes: one matrix, or a stack of N or N / 2
# matrices against a first operand of N
OPERAND_KINDS = {"matrix": (), "same-length stack": (N,), "grouped stack": (N // 2,)}


def assert_fused_matches(kind, fused, composed, arrays, tracked=(0, 1, 2)):
    """The fused op records one op of `kind`, and its output and the gradient
    of each operand in `tracked` (the others are constants), under the loss
    sum(out * W), equal those of the op sequence it replaces bit for bit."""
    results = []
    for op in (fused, composed):
        operands = [T.Tensor(x, np.zeros_like(x)) if i in tracked else T.Tensor(x)
                    for i, x in enumerate(arrays)]
        with T.Tape() as tape:
            out = op(*operands)
            kinds = [name for name, _, _ in tape._steps]
            w = np.random.default_rng(0).normal(size=out.data.shape)
            loss = T.sum_all(T.mul(out, T.constant(w)))
        tape.backward(loss)
        results.append((out.data.tobytes(), [None if x.grad is None else x.grad.tobytes() for x in operands]))
        if op is fused:
            assert kinds == [kind]
    (got, got_grads), (want, want_grads) = results
    shapes = [x.shape for x in arrays]
    assert got == want, f"output differs, operands {shapes}"
    for i, (g, w) in enumerate(zip(got_grads, want_grads)):
        assert g == w, f"gradient of operand {i} differs, operands {shapes}, tracked {tracked}"


@pytest.mark.parametrize("bias_kind", OPERAND_KINDS)
@pytest.mark.parametrize("w_kind", OPERAND_KINDS)
class TestBiasMatmul:
    """`matmul(a, w, bias)` is `add(matmul(a, w), bias)` as one op."""

    def test_is_matmul_then_add_bit_for_bit(self, w_kind, bias_kind):
        rng = np.random.default_rng(1)
        for bias_shape in [(1, COLS), (M, COLS), (M, 1), (1, 1)]:
            arrays = [rng.normal(size=(N, M, MID)), rng.normal(size=(*OPERAND_KINDS[w_kind], MID, COLS)),
                      rng.normal(size=(*OPERAND_KINDS[bias_kind], *bias_shape))]
            # every operand, then the parameters of a constant input
            for tracked in [(0, 1, 2), (1, 2)]:
                assert_fused_matches("matmul", T.matmul, R.bias_matmul, arrays, tracked)

    def test_gradients_match_central_differences(self, w_kind, bias_kind):
        shapes = [(N, M, MID), (*OPERAND_KINDS[w_kind], MID, COLS), (*OPERAND_KINDS[bias_kind], 1, COLS)]
        fd_check(lambda ps: T.matmul(*ps), shapes, seed=3)


def test_bias_matmul_of_a_matrix_first_operand():
    """A matrix times a matrix, plus a bias; and a bias stack whose length
    does not divide the product's is refused."""
    rng = np.random.default_rng(2)
    shapes = [(M, MID), (MID, COLS), (1, COLS)]
    assert_fused_matches("matmul", T.matmul, R.bias_matmul, [rng.normal(size=s) for s in shapes])
    fd_check(lambda ps: T.matmul(*ps), shapes, seed=4)
    with pytest.raises(ShapeError, match=re.escape(f"matmul shapes incompatible: {(N, M, COLS)} vs (4, 1, {COLS})")):
        T.matmul(T.constant(np.zeros((N, M, MID))), T.constant(np.zeros((MID, COLS))),
                 T.constant(np.zeros((4, 1, COLS))))


@pytest.mark.parametrize("bias_kind", OPERAND_KINDS)
@pytest.mark.parametrize("gain_kind", OPERAND_KINDS)
class TestAffineLayernorm:
    """`layernorm_rows(x, gain, bias)` is the standardized rows times `gain`
    plus `bias` as one op. Rows are MID = 5 wide: a division by a power of two
    would round alike however it is grouped."""

    def test_is_layernorm_mul_add_bit_for_bit(self, gain_kind, bias_kind):
        rng = np.random.default_rng(5)
        for row in [(1, MID), (M, MID)]:
            arrays = [rng.normal(size=(N, M, MID)), rng.normal(size=(*OPERAND_KINDS[gain_kind], *row)),
                      rng.normal(size=(*OPERAND_KINDS[bias_kind], *row))]
            for tracked in [(0, 1, 2), (0,), (1, 2)]:
                assert_fused_matches("layernorm_rows", T.layernorm_rows, R.affine_layernorm, arrays, tracked)

    def test_gradients_match_central_differences(self, gain_kind, bias_kind):
        shapes = [(N, M, MID), (*OPERAND_KINDS[gain_kind], 1, MID), (*OPERAND_KINDS[bias_kind], 1, MID)]
        fd_check(lambda ps: T.layernorm_rows(*ps), shapes, seed=6)


def test_affine_layernorm_of_a_matrix():
    rng = np.random.default_rng(7)
    arrays = [rng.normal(size=(M, MID)), rng.normal(size=(1, MID)), rng.normal(size=(1, MID))]
    assert_fused_matches("layernorm_rows", T.layernorm_rows, R.affine_layernorm, arrays)
    fd_check(lambda ps: T.layernorm_rows(*ps), [x.shape for x in arrays], seed=8)
    with pytest.raises(ShapeError, match=r"layernorm_rows shapes incompatible: \(3, 5\) vs \(1, 3\)"):
        T.layernorm_rows(T.constant(arrays[0]), T.constant(np.ones((1, 3))), T.constant(arrays[2]))


def key_bias(lengths, t):
    """The encoder's additive key mask: 0 at each sample's valid keys, -1e9 past them."""
    return np.where(np.arange(t) < np.asarray(lengths)[:, None], 0.0, -1e9)[:, None, :]


@pytest.mark.parametrize("n_heads", [1, 2, 4])
class TestAttention:
    """`attention` is the head split, scaled and masked logits, row softmax,
    weighted values and head merge as one op."""

    def test_is_the_composed_ops_bit_for_bit(self, n_heads):
        rng = np.random.default_rng(n_heads)
        bias = key_bias([7, 3, 1, 6, 7], 7)
        arrays = [rng.normal(size=(5, 7, 8)) for _ in range(3)]
        # the shared head gradients serve whichever operands track one
        for tracked in [(0, 1, 2), (0, 1), (0, 2), (1, 2), (0,), (1,), (2,)]:
            assert_fused_matches("softmax_rows", lambda q, k, v: T.attention(q, k, v, bias, n_heads),
                                 lambda q, k, v: R.attention(q, k, v, bias, n_heads), arrays, tracked)

    def test_gradients_match_central_differences(self, n_heads):
        bias = key_bias([4, 2], 4)
        fd_check(lambda ps: T.attention(*ps, bias, n_heads), [(2, 4, 4 * n_heads)] * 3, seed=9)

    def test_shape_errors(self, n_heads):
        x = T.constant(np.zeros((2, 3, 4)))
        for q, k, v, bias, heads in [(x, T.constant(np.zeros((2, 4, 4))), x, key_bias([3, 3], 3), n_heads),
                                     (x, x, x, key_bias([3, 3], 4), n_heads),
                                     (x, x, x, key_bias([3, 3, 3], 3), n_heads),
                                     (x, x, x, key_bias([3, 3], 3), 3)]:
            with pytest.raises(ShapeError, match="attention shapes incompatible"):
                T.attention(q, k, v, bias, heads)


def test_ops_outside_a_block_build_no_vjps(monkeypatch):
    """Outside every block each op gives the value it records inside one, and
    hands `_out` nothing."""
    rng = np.random.default_rng(11)
    x, ctx = rng.normal(size=(N, M, MID)), rng.normal(size=(N, 1, MID))
    params = [make_leaf(f"p{i}", rng.normal(size=s)) for i, s in
              enumerate([(2 * MID, COLS), (1, COLS), (N // 2, 1, COLS), (1, COLS), (COLS, 3)])]

    def forward():
        h = T.matmul(T.concat_cols(T.constant(x), T.constant(ctx)), params[0], params[1])
        h = T.attention(h, T.relu(h), T.sigmoid(h), key_bias([M] * N, M), 2)
        h = T.layernorm_rows(T.mul(T.add(h, T.constant(x[..., :COLS])), T.constant(x[..., :1])),
                             params[2], params[3])
        logits = T.matmul(T.matmul(T.constant(np.full((N, 1, M), 1.0 / M)), h), params[4])
        return T.sum_all(T.cross_entropy(logits, [0, 1, 2, 0, 1, 2]))

    with T.Tape():
        recorded = forward().data.tobytes()

    def refuse(name, *args):
        raise AssertionError(f"{name} built its vjps outside a block")

    monkeypatch.setattr(T, "_out", refuse)
    assert forward().data.tobytes() == recorded


class TestTranspose:
    def test_swaps_a_matrix(self):
        out = R.transpose(T.constant([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), (2, 3), (1, 0), (3, 2))
        assert np.array_equal(out.data, [[1, 4], [2, 5], [3, 6]])

    def test_head_split_and_merge(self):
        """Row i*H + j of the split holds head j of sample i; the merge undoes the split."""
        b, t, h, dh = 3, 4, 2, 5
        x = np.random.default_rng(0).normal(size=(b, t, h * dh))
        split = R.transpose(T.constant(x), (b, t, h, dh), (0, 2, 1, 3), (b * h, t, dh))
        keys = R.transpose(T.constant(x), (b, t, h, dh), (0, 2, 3, 1), (b * h, dh, t))
        for i in range(b):
            for j in range(h):
                np.testing.assert_array_equal(split.data[i * h + j], x[i, :, j * dh:(j + 1) * dh])
                np.testing.assert_array_equal(keys.data[i * h + j], x[i, :, j * dh:(j + 1) * dh].T)
        merged = R.transpose(split, (b, h, t, dh), (0, 2, 1, 3), (b, t, h * dh))
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
        with pytest.raises(ShapeError, match=message):
            R.transpose(T.constant(np.zeros((2, 3))), shape, axes, out_shape)


@pytest.mark.parametrize("seed", range(10))
def test_randomized_primitive_gradients(seed):
    """Each primitive against central finite differences, random shapes, on
    matrices and on stacks."""
    rng = np.random.default_rng(seed)
    m, k, n = rng.integers(1, 8, size=3)
    fd_check(lambda ps: T.matmul(ps[0], ps[1]), [(m, k), (k, n)], seed)
    # b of a's shape, then broadcast as a row, a column and a scalar
    for b_shape in [(m, n), (1, n), (m, 1), (1, 1)]:
        fd_check(lambda ps: T.add(ps[0], ps[1]), [(m, n), b_shape], seed)
        fd_check(lambda ps: T.mul(ps[0], ps[1]), [(m, n), b_shape], seed)
    fd_check(lambda ps: T.sigmoid(ps[0]), [(m, n)], seed)
    fd_check(lambda ps: R.softmax_rows(ps[0]), [(m, n)], seed)
    # width >= 3: a 2-wide layernorm row is constant up to sign, a flat
    # direction where FD noise swamps the structurally-zero gradient
    w = max(n, 3)
    fd_check(lambda ps: T.layernorm_rows(ps[0], ps[1], ps[2]), [(m, w), (1, w), (1, w)], seed)
    # b of a's rows, then one row repeated down them
    for b_shape in [(m, n), (1, n)]:
        fd_check(lambda ps: T.concat_cols(ps[0], ps[1]), [(m, k), b_shape], seed)
    fd_check(lambda ps: R.transpose(ps[0], (m, n), (1, 0), (n, m)), [(m, n)], seed)

    # the same on (B, m, n) stacks
    b = int(rng.integers(1, 5))
    fd_check(lambda ps: T.matmul(ps[0], ps[1]), [(b, m, k), (b, k, n)], seed)
    # a stack times a matrix
    fd_check(lambda ps: T.matmul(ps[0], ps[1]), [(b, m, k), (k, n)], seed)
    # b of the stack's shape, per-sample rows and columns, then one matrix for all samples
    for b_shape in [(b, m, n), (b, 1, n), (b, m, 1), (m, n), (1, n), (m, 1), (1, 1)]:
        fd_check(lambda ps: T.add(ps[0], ps[1]), [(b, m, n), b_shape], seed)
        fd_check(lambda ps: T.mul(ps[0], ps[1]), [(b, m, n), b_shape], seed)
    fd_check(lambda ps: T.sigmoid(ps[0]), [(b, m, n)], seed)
    fd_check(lambda ps: T.relu(ps[0]), [(b, m, n)], seed)
    fd_check(lambda ps: R.softmax_rows(ps[0]), [(b, m, n)], seed)
    fd_check(lambda ps: T.layernorm_rows(ps[0], ps[1], ps[2]), [(b, m, w), (1, w), (1, w)], seed)
    # b of the stack's rows, one row per sample, then one row for all samples
    for b_shape in [(b, m, n), (b, 1, n), (1, n)]:
        fd_check(lambda ps: T.concat_cols(ps[0], ps[1]), [(b, m, k), b_shape], seed)
    fd_check(lambda ps: R.transpose(ps[0], (b, m, n), (0, 2, 1), (b, n, m)), [(b, m, n)], seed)
    # attention's head split of a (b, m, k*n) stack into b*k heads of width n, the
    # split of keys straight to their transpose, and the merge back
    heads = (b, m, k, n)
    fd_check(lambda ps: R.transpose(ps[0], heads, (0, 2, 1, 3), (b * k, m, n)),
             [(b, m, k * n)], seed)
    fd_check(lambda ps: R.transpose(ps[0], heads, (0, 2, 3, 1), (b * k, n, m)),
             [(b, m, k * n)], seed)
    fd_check(lambda ps: R.transpose(ps[0], (b, k, m, n), (0, 2, 1, 3), (b, m, k * n)),
             [(b * k, m, n)], seed)
    labels = rng.integers(0, n + 1, size=b)
    fd_check(lambda ps: T.cross_entropy(ps[0], labels), [(b, 1, n + 1)], seed)


@pytest.mark.parametrize("seed", range(100))
def test_composition_gradients_many_seeds(seed):
    """Three-layer random composition of primitives vs finite differences."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 6)), int(rng.integers(3, 6))

    def op(ps):
        x = T.sigmoid(T.matmul(ps[0], ps[1]))
        x = T.layernorm_rows(T.add(x, ps[2]), *UNIT_AFFINE)
        return R.softmax_rows(T.mul(x, x))

    fd_check(op, [(m, n), (n, n), (m, n)], seed)


class TestTapeSemantics:
    def test_gradient_accumulation_doubles(self):
        p = T.Parameter("x", np.array([[1.5, -0.5]]))

        def g(x):
            return T.sum_all(T.sigmoid(x))

        recorded_backward(lambda: g(p))
        g_single = p.grad.copy()

        p.zero_grad()
        recorded_backward(lambda: T.add(g(p), g(p)))
        np.testing.assert_array_equal(p.grad, 2.0 * g_single)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))

        def run():
            out = R.softmax_rows(T.matmul(T.sigmoid(T.constant(a)), T.constant(b)))
            return out.data.copy()

        assert np.array_equal(run(), run())

    def test_nonfinite_diagnostic_names_op(self):
        p = T.Parameter("x", np.array([[1e308]]))

        def loss_fn():
            return T.sum_all(T.mul(T.matmul(p, p), T.constant([[2.0]])))

        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="matmul"):
            recorded_backward(loss_fn)

    def test_vjp_of_a_constant_operand_is_never_called(self):
        """Backward calls an operand's vjp only when the operand tracks a gradient."""
        p = T.Parameter("p", np.array([[2.0, -1.0]]))
        c = T.constant([[3.0, 5.0]])
        called = []

        def share(name, other):
            def vjp(g):
                called.append(name)
                return g * other.data
            return vjp

        def loss_fn():
            product = T._out("product", p.data * c.data, (p, share("p", c)), (c, share("c", p)))
            return T.sum_all(product)

        recorded_backward(loss_fn)
        assert called == ["p"]
        np.testing.assert_array_equal(p.grad, [[3.0, 5.0]])


class TestParameters:
    def test_data_and_grad_cannot_be_rebound(self):
        p = T.Parameter("x", np.ones((2, 2)))
        data, grad = p.data, p.grad
        with pytest.raises(AttributeError, match="x.data cannot be rebound"):
            p.data = np.zeros((2, 2))
        with pytest.raises(AttributeError, match="x.grad cannot be rebound"):
            p.grad = np.zeros((2, 2))
        # an in-place operator assigns back the same array
        p.data *= 3.0
        assert p.data is data and p.grad is grad
        np.testing.assert_array_equal(p.data, 3.0)

    def test_flat_parameters_are_views_of_one_vector(self):
        a = T.Parameter("a", np.array([[1.0, 2.0]]))
        b = T.Parameter("b", np.array([[3.0], [4.0], [5.0]]))
        flat = T.FlatParameters([a, b])
        assert list(flat) == [a, b]
        np.testing.assert_array_equal(flat.data, [1.0, 2.0, 3.0, 4.0, 5.0])
        flat.data += 10.0
        flat.grad[...] = np.arange(5.0)
        np.testing.assert_array_equal(a.data, [[11.0, 12.0]])
        np.testing.assert_array_equal(b.data, [[13.0], [14.0], [15.0]])
        np.testing.assert_array_equal(a.grad, [[0.0, 1.0]])
        np.testing.assert_array_equal(b.grad, [[2.0], [3.0], [4.0]])
        b.zero_grad()
        np.testing.assert_array_equal(flat.grad, [0.0, 1.0, 0.0, 0.0, 0.0])
        assert [flat.name_at(i) for i in range(5)] == ["a", "a", "b", "b", "b"]
        halves = flat.split(np.arange(5.0))
        assert [h.shape for h in halves] == [(1, 2), (3, 1)]
        np.testing.assert_array_equal(halves[1], [[2.0], [3.0], [4.0]])


def nan_gradient(x):
    """The identity, whose vjp hands its input a NaN gradient."""
    return T._out("nan_gradient", x.data.copy(), (x, lambda g: g * np.nan))


class TestGradientBuffers:
    """`Tape.backward` gives each recorded output a zeroed view of one of the
    tape's buffers, which the tape's next backward reuses."""

    W = np.array([[0.3, -1.2, 0.8], [1.1, 0.4, -0.6]])

    @classmethod
    def loss(cls, tape, p, rows, poison=False):
        """A 5-op loss of `rows` input rows, recorded on `tape`."""
        with tape:
            x = T.constant(np.linspace(-1.0, 1.0, 2 * rows).reshape(rows, 2))
            h = T.sigmoid(T.add(T.matmul(x, T.constant(cls.W)), p))
            if poison:
                h = nan_gradient(h)
            return T.sum_all(T.mul(h, h))

    @classmethod
    def fresh_grad(cls, p, rows):
        p.zero_grad()
        tape = T.Tape()
        tape.backward(cls.loss(tape, p, rows))
        return p.grad.copy()

    def test_gradient_is_given_at_backward(self):
        p = T.Parameter("b", np.array([[0.1, -0.2, 0.3]]))
        tape = T.Tape()
        loss = self.loss(tape, p, 3)
        outs = [out for _, out, _ in tape._steps]
        with pytest.raises(ValueError):
            outs[0].grad += 1.0
        tape.backward(loss)
        assert len(outs) == len(tape._buffers) == 5
        assert all(np.shares_memory(out.grad, buf) for out, buf in zip(outs, tape._buffers))

    def test_reused_buffers_give_a_fresh_tape_gradient(self):
        """Buffers left dirty (NaN) by one backward, then kept through a backward
        that raised NonFiniteError, are re-zeroed by the next; a shorter input
        reuses them and gets a fresh tape's gradient bit for bit."""
        p = T.Parameter("b", np.array([[0.1, -0.2, 0.3]]))
        want = self.fresh_grad(p, 3)
        p.zero_grad()
        tape = T.Tape()
        tape.backward(self.loss(tape, p, 5, poison=True))
        buffers = tape._buffers
        first = list(buffers)
        assert np.isnan(p.grad).all()
        bad = T.Parameter("b", np.array([[np.nan, 0.0, 0.0]]))
        with pytest.raises(NonFiniteError):
            tape.backward(self.loss(tape, bad, 5))
        p.zero_grad()
        tape.backward(self.loss(tape, p, 3))
        assert tape._buffers is buffers
        assert all(np.shares_memory(a, b) for a, b in zip(first, buffers))
        np.testing.assert_array_equal(p.grad, want)

    def test_buffers_too_small_are_replaced(self):
        p = T.Parameter("b", np.array([[0.1, -0.2, 0.3]]))
        want = self.fresh_grad(p, 6)
        p.zero_grad()
        tape = T.Tape()
        tape.backward(self.loss(tape, p, 2))
        p.zero_grad()
        tape.backward(self.loss(tape, p, 6))
        assert len(tape._buffers) == 5
        np.testing.assert_array_equal(p.grad, want)


class TestReusedTape:
    """A tape that raised records afresh: its next backward replays no stale step.

    While `p` holds a NaN, a stale step's backward would add NaN to `p.grad`."""

    @staticmethod
    def next_step_matches_a_fresh_tape(tape, p):
        want = TestGradientBuffers.fresh_grad(p, 3)
        p.zero_grad()
        tape.backward(TestGradientBuffers.loss(tape, p, 3))
        assert len(tape._buffers) == 5
        np.testing.assert_array_equal(p.grad, want)

    def test_after_a_nonfinite_loss(self):
        p = T.Parameter("b", np.array([[0.1, -0.2, 0.3]]))
        tape = T.Tape()
        p.data[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            tape.backward(TestGradientBuffers.loss(tape, p, 4))
        p.data[0, 0] = 0.1
        assert not tape._steps
        self.next_step_matches_a_fresh_tape(tape, p)

    def test_after_a_shape_error_mid_forward(self):
        p = T.Parameter("b", np.array([[0.1, -0.2, 0.3]]))
        tape = T.Tape()
        p.data[0, 0] = np.nan
        with pytest.raises(ShapeError):
            with tape:
                h = T.sigmoid(T.add(T.constant(np.zeros((4, 3))), p))
                T.matmul(h, T.constant(np.zeros((4, 3))))
        p.data[0, 0] = 0.1
        assert not tape._steps
        self.next_step_matches_a_fresh_tape(tape, p)


class TestNoGrad:
    """Ops record onto the tape of the innermost open `with tape:` block;
    outside every block they record nothing and give constants."""

    @staticmethod
    def recorder(*tapes):
        """Which of `tapes` records an op run now, or None if none does."""
        before = [len(tape._steps) for tape in tapes]
        out = T.sigmoid(T.Parameter("x", np.ones((1, 2))))
        grown = [tape for tape, n in zip(tapes, before) if len(tape._steps) > n]
        assert len(grown) <= 1 and (out.grad is None) == (not grown)
        return grown[0] if grown else None

    def test_nests_and_restores(self):
        outer, inner = T.Tape(), T.Tape()
        assert self.recorder(outer, inner) is None
        with outer:
            assert self.recorder(outer, inner) is outer
            with inner:
                assert self.recorder(outer, inner) is inner
                with outer:
                    assert self.recorder(outer, inner) is outer
                assert self.recorder(outer, inner) is inner
            assert self.recorder(outer, inner) is outer
        assert self.recorder(outer, inner) is None
        assert len(outer._steps) == 3 and len(inner._steps) == 2

    def test_restores_recording_after_an_exception(self):
        """Leaving a block by an exception restores the outer tape and drops the
        steps that block recorded, a re-entered tape's included."""
        outer, inner = T.Tape(), T.Tape()
        with outer:
            self.recorder(outer, inner)
            for tape in (inner, outer):
                with pytest.raises(LabelError):
                    with tape:
                        assert self.recorder(outer, inner) is tape
                        T.cross_entropy(T.constant([[0.0, 0.0]]), 5)
                assert self.recorder(outer, inner) is outer
        assert self.recorder(outer, inner) is None
        assert len(outer._steps) == 3 and not inner._steps

    def test_backward_of_an_unrecorded_loss_is_a_config_error(self):
        p = T.Parameter("x", np.array([[0.5, -1.0]]))
        tape = T.Tape()
        with tape:
            pass
        loss = T.sum_all(T.sigmoid(p))
        assert loss.grad is None
        with pytest.raises(ConfigError, match="this tape recorded"):
            tape.backward(loss)
        assert not p.grad.any()

    def test_backward_refuses_a_loss_of_another_tape(self):
        p = T.Parameter("x", np.array([[0.5, -1.0]]))
        ours, theirs = T.Tape(), T.Tape()
        with theirs:
            loss = T.sum_all(T.sigmoid(p))
        with pytest.raises(ConfigError, match="this tape recorded"):
            ours.backward(loss)
        assert not p.grad.any()
        theirs.backward(loss)
        s = T.sigmoid(T.constant(p.data)).data
        np.testing.assert_array_equal(p.grad, s * (1.0 - s))

    def test_second_backward_of_a_loss_is_a_config_error(self):
        p = T.Parameter("x", np.array([[0.5, -1.0]]))
        tape = T.Tape()
        with tape:
            loss = T.sum_all(T.sigmoid(p))
        tape.backward(loss)
        once = p.grad.copy()
        with pytest.raises(ConfigError, match="has not yet differentiated"):
            tape.backward(loss)
        np.testing.assert_array_equal(p.grad, once)

    def test_a_block_records_only_its_own_thread(self):
        """A block open in one thread leaves ops in another thread unrecorded,
        both ways round."""
        p = T.Parameter("x", np.ones((1, 2)))
        main_tape, thread_tape = T.Tape(), T.Tape()
        opened, released = threading.Event(), threading.Event()
        outs = {}

        def worker():
            outs["thread, no block"] = T.sigmoid(p)
            with thread_tape:
                opened.set()
                released.wait(timeout=30)
                outs["thread, in block"] = T.sigmoid(p)

        with main_tape:
            outs["main, in block"] = T.sigmoid(p)
            thread = threading.Thread(target=worker)
            thread.start()
            assert opened.wait(timeout=30)
        outs["main, no block"] = T.sigmoid(p)
        released.set()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert [out for _, out, _ in main_tape._steps] == [outs["main, in block"]]
        assert [out for _, out, _ in thread_tape._steps] == [outs["thread, in block"]]
        assert outs["thread, no block"].grad is None and outs["main, no block"].grad is None


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = T.cross_entropy(T.constant([[1.0, 1.0, 1.0]]), 1)
        assert loss.item() == pytest.approx(np.log(3.0), abs=1e-12)

    def test_confident_correct(self):
        assert T.cross_entropy(T.constant([[20.0, -20.0]]), 0).item() < 1e-9

    def test_label_out_of_range(self):
        with pytest.raises(LabelError):
            T.cross_entropy(T.constant([[0.0, 0.0]]), 2)

    def test_stack_gives_one_loss_per_row(self):
        rng = np.random.default_rng(8)
        logits, labels = rng.normal(size=(4, 1, 3)), [2, 0, 1, 2]
        losses = T.cross_entropy(T.constant(logits), labels).data
        assert losses.shape == (4, 1, 1)
        for i in range(4):
            row = T.cross_entropy(T.constant(logits[i]), labels[i]).data
            np.testing.assert_array_equal(losses[i], row)
        with pytest.raises(ShapeError):
            T.cross_entropy(T.constant(logits), [0, 1])

    def test_gradient(self):
        rng = np.random.default_rng(9)
        p = T.Parameter("logits", rng.normal(size=(1, 4)))

        def loss_fn():
            return T.cross_entropy(p, 2)

        assert T.gradcheck(loss_fn, [p], tol=1e-6).passed


class TestGradcheckHarness:
    def test_quadratic(self):
        p = T.Parameter("x", np.array([[3.0]]))

        def loss_fn():
            return T.sum_all(T.mul(p, p))

        report = T.gradcheck(loss_fn, [p], tol=1e-9)
        assert report.passed and report.worst < 1e-9

    def test_corrupted_gradient_detected(self):
        p = T.Parameter("x", np.array([[3.0]]))

        def wrong_square(x):
            """x * x whose vjp gives x instead of 2x."""
            return T._out("wrong_square", x.data * x.data, (x, lambda g: g * x.data))

        def loss_fn():
            return T.sum_all(wrong_square(p))

        assert not T.gradcheck(loss_fn, [p]).passed

    def test_a_probe_that_raises_leaves_the_parameter_as_it_was(self):
        p = T.Parameter("x", np.array([[3.0, -2.0]]))
        before = p.data.copy()
        calls = []

        def loss_fn():
            # the first call is the analytic pass, the second the first probe
            calls.append(len(calls))
            if len(calls) == 2:
                raise RuntimeError("probe failed")
            return T.sum_all(T.mul(p, p))

        with pytest.raises(RuntimeError, match="probe failed"):
            T.gradcheck(loss_fn, [p])
        assert p.data.tobytes() == before.tobytes()

    def test_nan_off_the_base_point_fails(self):
        """A loss that turns NaN when the first entry moves fails that entry, and a
        finite later entry does not hide it."""
        p = T.Parameter("x", np.array([[3.0, 2.0]]))

        def loss_fn():
            shift = T.constant([[0.0 if p.data[0, 0] == 3.0 else np.nan]])
            return T.sum_all(T.mul(T.add(p, shift), p))

        report = T.gradcheck(loss_fn, [p])
        assert not report.passed and np.isnan(report.worst)
