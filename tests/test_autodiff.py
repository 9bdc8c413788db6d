import numpy as np
import pytest

from adpm.autodiff import Tape, scalar
from adpm.errors import ShapeError, UsageError
from adpm.priors import _softmax_rows

from gradcheck import finite_diff, rel_err


def test_matmul_identity():
    tape = Tape()
    m = tape.const([[1.0, 2.0], [3.0, 4.0]])
    eye = tape.const(np.eye(2))
    out = tape.matmul(eye, m)
    assert np.array_equal(out.value, m.value)


def test_matmul_hand_case():
    tape = Tape()
    out = tape.matmul(tape.const([[1.0, 2.0], [3.0, 4.0]]), tape.const([[1.0], [1.0]]))
    assert np.array_equal(out.value, [[3.0], [7.0]])


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expected[i, j] += a[i, k] * b[k, j]
    tape = Tape()
    out = tape.matmul(tape.const(a), tape.const(b))
    assert np.allclose(out.value, expected, rtol=0, atol=1e-12)


def test_matmul_trans_b():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((2, 4))
    tape = Tape()
    out = tape.matmul(tape.const(a), tape.const(b), trans_b=True)
    assert np.allclose(out.value, a @ b.T, rtol=0, atol=0)


def test_matmul_shape_error():
    tape = Tape()
    with pytest.raises(ShapeError):
        tape.matmul(tape.const(np.ones((2, 3))), tape.const(np.ones((2, 3))))


def test_elementwise_trivial_cases():
    tape = Tape()
    zero = tape.const(np.zeros((2, 3)))
    assert np.array_equal(tape.tanh(zero).value, np.zeros((2, 3)))


def test_add_matches_loop_oracle():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 5))
    b = rng.standard_normal((4, 5))
    expected = np.array([[a[i, j] + b[i, j] for j in range(5)] for i in range(4)])
    tape = Tape()
    out = tape.add(tape.const(a), tape.const(b))
    assert np.array_equal(out.value, expected)


def test_elementwise_shape_error():
    tape = Tape()
    with pytest.raises(ShapeError):
        tape.add(tape.const(np.ones((2, 2))), tape.const(np.ones((3, 2))))


# the row softmax is no tape op: the prior network, its only user, is
# trained outside the tape, so these cases check the prior's numpy softmax

def test_softmax_symmetry_and_stability():
    out = _softmax_rows(np.array([[0.0, 0.0, 0.0]]))
    assert np.allclose(out, [[1 / 3, 1 / 3, 1 / 3]], rtol=0, atol=1e-15)
    big = _softmax_rows(np.array([[1000.0, 1000.0]]))
    assert np.array_equal(big, [[0.5, 0.5]])


def test_softmax_against_high_precision_oracle():
    # exp-normalize of [1, 2, 3] recomputed with mpmath at 30 digits
    expected = [0.09003057317038046, 0.24472847105479764, 0.6652409557748219]
    out = _softmax_rows(np.array([[1.0, 2.0, 3.0]]))
    assert np.allclose(out[0], expected, rtol=0, atol=1e-15)
    assert abs(out.sum() - 1.0) < 1e-12


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(10)
    out = _softmax_rows(rng.standard_normal((6, 4)) * 50)
    sums = out.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) < 1e-12)
    assert np.all(out >= 0)


def test_backward_sum_of_entries_is_all_ones():
    rng = np.random.default_rng(11)
    w = rng.standard_normal((3, 4))
    tape = Tape()
    wv = tape.param(w)
    # 1^T W 1 is the sum of W's entries
    root = tape.matmul(tape.matmul(tape.const(np.ones((1, 3))), wv),
                       tape.const(np.ones((4, 1))))
    grads = tape.backward(root)
    assert np.allclose(grads[wv], np.ones((3, 4)), rtol=0, atol=1e-15)


def test_backward_quadratic_hand_derivative():
    # d/dW ||W x||^2 = 2 (W x) x^T
    rng = np.random.default_rng(12)
    w = rng.standard_normal((3, 2))
    x = rng.standard_normal((2, 1))
    tape = Tape()
    wv = tape.param(w)
    root = tape.sum_sq(tape.matmul(wv, tape.const(x)))
    grads = tape.backward(root)
    assert np.allclose(grads[wv], 2.0 * (w @ x) @ x.T, rtol=1e-12, atol=1e-12)


def test_backward_requires_scalar_root():
    tape = Tape()
    v = tape.param(np.ones((2, 2)))
    with pytest.raises(UsageError):
        tape.backward(v)


@pytest.mark.parametrize("op", ["matmul", "affine", "add", "sub", "mul", "scale",
                                "tanh", "sumsq", "concat", "rows", "rbf_mean",
                                "rbf_mean_aliased"])
def test_gradient_check_per_op(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal({"affine": (4, 4), "rbf_mean": (5, 4)}.get(op, (3, 4)))
    operands = [a, b] + ([rng.standard_normal((1, 4))] if op == "affine" else [])

    def build():
        tape = Tape()
        vs = [tape.param(x) for x in operands]
        av, bv = vs[:2]
        if op == "matmul":
            out = tape.matmul(av, bv, trans_b=True)
        elif op == "affine":
            out = tape.affine(av, bv, vs[2])
        elif op == "add":
            out = tape.add(av, bv)
        elif op == "sub":
            out = tape.sub(av, bv)
        elif op == "mul":
            out = tape.mul(av, bv)
        elif op == "scale":
            out = tape.scale(av, -1.7)
        elif op == "tanh":
            out = tape.tanh(av)
        elif op == "sumsq":
            out = tape.sum_sq(av)
        elif op == "concat":
            out = tape.concat_cols(av, bv)
        elif op == "rows":
            out = tape.rows(av, 1, 3)
        elif op == "rbf_mean":
            out = tape.rbf_mean(av, bv, 1.3)
        elif op == "rbf_mean_aliased":
            # the K(pred, pred) form: both operands are one node
            out = tape.rbf_mean(av, av, 1.3)
        # scalarize through a curved function so adjoints are nontrivial
        root = tape.sum_sq(tape.tanh(out)) if out.shape != (1, 1) else out
        return tape, vs, root

    tape, vs, root = build()
    grads = tape.backward(root)

    def loss():
        _, _, r = build()
        return scalar(r)

    checked = 0
    for var, arr in zip(vs, operands):
        if var in grads:
            fd = finite_diff(loss, arr)
            assert rel_err(grads[var], fd).max() < 1e-4, op
            checked += 1
    assert op != "affine" or checked == 3


@pytest.mark.parametrize("n", [1, 2, 7])
def test_affine_matches_ones_column_bias_bitwise(n):
    # value and every adjoint must equal the matmul(ones(n, 1), b) + add
    # formulation bit for bit, under the same upstream gradient
    rng = np.random.default_rng(20 + n)
    x, w = rng.standard_normal((n, 5)), rng.standard_normal((5, 6))
    b, upstream = rng.standard_normal((1, 6)), rng.standard_normal((n, 6))

    def run(fused):
        tape = Tape()
        xv, wv, bv = tape.param(x), tape.param(w), tape.param(b)
        if fused:
            out = tape.affine(xv, wv, bv)
        else:
            out = tape.add(tape.matmul(xv, wv),
                           tape.matmul(tape.const(np.ones((n, 1))), bv))
        grads = tape.backward(tape.sum_sq(tape.mul(out, tape.const(upstream))))
        return [out.value] + [grads[v] for v in (xv, wv, bv)]

    for got, want in zip(run(True), run(False)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_rows_and_concat_rows_invert_each_other():
    # the parts are stacked as batch_loss stacks its branches, into one const
    rng = np.random.default_rng(21)
    parts = [rng.standard_normal((n, 3)) for n in (2, 1, 4)]
    tape = Tape()
    stacked = tape.const(np.concatenate(parts))
    for (lo, hi), p in zip(((0, 2), (2, 3), (3, 7)), parts):
        assert np.array_equal(tape.rows(stacked, lo, hi).value, p)
    with pytest.raises(ShapeError):
        tape.rows(stacked, 3, 3)
    with pytest.raises(ShapeError):
        tape.rows(stacked, 0, 8)
    with pytest.raises(ShapeError):
        tape.rbf_mean(stacked, tape.const(np.ones((1, 2))), 1.0)


def test_affine_shape_error():
    tape = Tape()
    x, w = tape.const(np.ones((2, 3))), tape.const(np.ones((3, 4)))
    with pytest.raises(ShapeError):
        tape.affine(x, w, tape.const(np.ones((2, 4))))
    with pytest.raises(ShapeError):
        tape.affine(x, tape.const(np.ones((2, 4))), tape.const(np.ones((1, 4))))


def test_forward_deterministic_bitwise():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((3, 5))

    def run():
        tape = Tape()
        hidden = tape.tanh(tape.matmul(tape.const(a), tape.const(b)))
        return hidden.value.tobytes() + tape.rbf_mean(hidden, hidden, 0.7).value.tobytes()

    assert run() == run()


def test_tape_ids_topologically_ordered():
    tape = Tape()
    a = tape.param(np.ones((2, 2)))
    b = tape.tanh(a)
    c = tape.add(a, b)
    for idx, node in enumerate(tape.nodes):
        assert all(i < idx for i in node.inputs)
    assert c.idx == len(tape.nodes) - 1


def test_backward_skips_nodes_no_param_reaches():
    c, w = np.array([[1.0, 2.0]]), np.array([[0.5, -1.0]])
    tape = Tape()
    cv, wv = tape.const(c), tape.param(w)
    const_only = tape.tanh(tape.mul(cv, cv))
    grads = tape.backward(tape.sum_sq(tape.add(tape.mul(wv, cv), const_only)))
    assert cv not in grads and const_only not in grads
    assert np.array_equal(grads[cv], np.zeros((1, 2)))
    # d/dw sum((w c + tanh(c^2))^2) = 2 (w c + tanh(c^2)) c
    assert wv in grads
    assert np.allclose(grads[wv], 2.0 * (w * c + np.tanh(c * c)) * c, rtol=1e-15, atol=0)
