"""Tensor primitives against brute-force index oracles."""

import io

import numpy as np
import pytest

from triscope import (
    InvalidInputError,
    fold,
    frobenius_norm,
    mode_multiply,
    read_tensor_text,
    reconstruct,
    tensor3,
    unfold,
    write_tensor_text,
)
from triscope.tensor import _BLOCK, matrix, write_matrix_text


def column_index(mode, i, j, k, dims):
    """Documented column of entry (i, j, k) in the mode-n unfolding."""
    _, J, K = dims
    if mode == 1:
        return j * K + k
    if mode == 2:
        return i * K + k
    return i * dims[1] + j


class TestConstruction:
    def test_flat_values_with_dims(self):
        t = tensor3([1, 2, 3, 4, 5, 6], dims=(1, 2, 3))
        assert t.shape == (1, 2, 3)
        assert t[0, 1, 2] == 6.0

    def test_linearization_is_c_order(self):
        rng = np.random.default_rng(0)
        t = tensor3(rng.normal(size=(3, 4, 5)))
        flat = t.ravel()
        for i in range(3):
            for j in range(4):
                for k in range(5):
                    assert flat[i * 20 + j * 5 + k] == t[i, j, k]

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            tensor3([[[np.nan]]])

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidInputError):
            tensor3([1.0, 2.0], dims=(1, 1, 3))

    def test_result_is_frozen(self):
        t = tensor3(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            t[0, 0, 0] = 1.0

    def test_tensor3_leaves_input_writable(self):
        a = np.zeros((2, 3, 4))
        t = tensor3(a)
        assert a.flags.writeable and not t.flags.writeable
        a[0, 0, 0] = 1.0  # the caller still owns its array

    def test_matrix_leaves_input_writable(self):
        a = np.zeros((2, 3))
        m = matrix(a)
        assert a.flags.writeable and not m.flags.writeable
        a[0, 0] = 1.0


class TestUnfold:
    def test_degenerate_single_entry(self):
        t = tensor3([5.0], dims=(1, 1, 1))
        m = unfold(t, 1)
        assert m.shape == (1, 1)
        assert m[0, 0] == 5.0

    def test_zero_tensor_shapes(self):
        t = tensor3(np.zeros((2, 2, 2)))
        for mode, shape in ((1, (2, 4)), (2, (2, 4)), (3, (2, 4))):
            m = unfold(t, mode)
            assert m.shape == shape
            assert not m.any()

    def test_unfold_shapes(self):
        t = tensor3(np.zeros((3, 4, 5)))
        assert unfold(t, 1).shape == (3, 20)
        assert unfold(t, 2).shape == (4, 15)
        assert unfold(t, 3).shape == (5, 12)

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_index_map_oracle(self, mode):
        rng = np.random.default_rng(7)
        t = tensor3(rng.normal(size=(3, 4, 5)))
        m = unfold(t, mode)
        rows = {1: 0, 2: 1, 3: 2}[mode]
        for i in range(3):
            for j in range(4):
                for k in range(5):
                    row = (i, j, k)[rows]
                    col = column_index(mode, i, j, k, t.shape)
                    assert m[row, col] == t[i, j, k]

    def test_refold_is_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            dims = tuple(rng.integers(1, 7, size=3))
            t = tensor3(rng.normal(size=dims))
            for mode in (1, 2, 3):
                assert np.array_equal(fold(unfold(t, mode), mode, dims), t)

    def test_invalid_mode(self):
        t = tensor3(np.zeros((2, 2, 2)))
        for bad in (0, 4, -1):
            with pytest.raises(InvalidInputError):
                unfold(t, bad)


class TestModeMultiply:
    def test_identity_leaves_tensor(self):
        rng = np.random.default_rng(2)
        t = tensor3(rng.normal(size=(3, 4, 5)))
        for mode, n in ((1, 3), (2, 4), (3, 5)):
            np.testing.assert_allclose(mode_multiply(t, np.eye(n), mode), t, atol=1e-15)

    def test_ones_matrix_sums_mode(self):
        rng = np.random.default_rng(3)
        t = tensor3(rng.normal(size=(2, 3, 4)))
        out = mode_multiply(t, np.ones((1, 2)), 1)
        assert out.shape == (1, 3, 4)
        for j in range(3):
            for k in range(4):
                np.testing.assert_allclose(out[0, j, k], t[0, j, k] + t[1, j, k], rtol=1e-14)

    def test_distinct_modes_commute(self):
        rng = np.random.default_rng(4)
        t = tensor3(rng.normal(size=(4, 3, 5)))
        m1 = rng.normal(size=(2, 4))
        m2 = rng.normal(size=(6, 3))
        a = mode_multiply(mode_multiply(t, m1, 1), m2, 2)
        b = mode_multiply(mode_multiply(t, m2, 2), m1, 1)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_dimension_mismatch(self):
        t = tensor3(np.zeros((2, 3, 4)))
        with pytest.raises(InvalidInputError):
            mode_multiply(t, np.ones((1, 3)), 1)


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(tensor3(np.zeros((2, 3, 1)))) == 0.0

    def test_absolute_value(self):
        assert frobenius_norm(tensor3([-3.0], dims=(1, 1, 1))) == 3.0

    def test_sum_of_squares_oracle(self):
        rng = np.random.default_rng(5)
        t = tensor3(rng.normal(size=(2, 2, 2)))
        expected = np.sqrt(sum(t[i, j, k] ** 2 for i in range(2) for j in range(2) for k in range(2)))
        np.testing.assert_allclose(frobenius_norm(t), expected, rtol=1e-12)

    def test_unfolding_preserves_norm(self):
        rng = np.random.default_rng(6)
        t = tensor3(rng.normal(size=(3, 4, 2)))
        for mode in (1, 2, 3):
            np.testing.assert_allclose(
                frobenius_norm(t) ** 2, np.linalg.norm(unfold(t, mode)) ** 2, rtol=1e-12
            )


class TestReconstruct:
    def test_rank_one_all_ones(self):
        core = tensor3([1.0], dims=(1, 1, 1))
        out = reconstruct(core, np.ones((3, 1)), np.ones((4, 1)), np.ones((2, 1)))
        np.testing.assert_allclose(out, np.ones((3, 4, 2)), atol=1e-15)

    def test_identity_factors(self):
        rng = np.random.default_rng(8)
        x = tensor3(rng.normal(size=(3, 4, 2)))
        out = reconstruct(x, np.eye(3), np.eye(4), np.eye(2))
        np.testing.assert_allclose(out, x, atol=1e-15)

    def test_triple_sum_oracle(self):
        rng = np.random.default_rng(9)
        core = tensor3(rng.normal(size=(3, 2, 2)))
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(5, 2))
        c = rng.normal(size=(3, 2))
        out = reconstruct(core, a, b, c)
        for i in range(4):
            for j in range(5):
                for k in range(3):
                    expected = sum(
                        core[p, q, r] * a[i, p] * b[j, q] * c[k, r]
                        for p in range(3)
                        for q in range(2)
                        for r in range(2)
                    )
                    np.testing.assert_allclose(out[i, j, k], expected, atol=1e-12)

    def test_norm_invariant_under_factor_rotation(self):
        rng = np.random.default_rng(10)
        core = tensor3(rng.normal(size=(3, 3, 2)))
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(4, 3))
        c = rng.normal(size=(3, 2))
        rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        base = frobenius_norm(reconstruct(core, a, b, c))
        rotated = frobenius_norm(reconstruct(mode_multiply(core, rot.T, 1), a @ rot, b, c))
        np.testing.assert_allclose(base, rotated, atol=1e-10)

    def test_dimension_mismatch(self):
        core = tensor3(np.zeros((2, 2, 2)))
        with pytest.raises(InvalidInputError):
            reconstruct(core, np.ones((3, 1)), np.ones((3, 2)), np.ones((3, 2)))


class TestSerialization:
    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(11)
        t = tensor3(rng.normal(size=(3, 2, 4)) * 1e-7)
        buf = io.StringIO()
        write_tensor_text(t, buf)
        back = read_tensor_text(io.StringIO(buf.getvalue()))
        assert np.array_equal(back, t)
        assert back.shape == t.shape

    def test_malformed_header(self):
        with pytest.raises(InvalidInputError):
            read_tensor_text(io.StringIO("1 2\n"))

    def test_wrong_value_count(self):
        with pytest.raises(InvalidInputError):
            read_tensor_text(io.StringIO("1 1 2\n0.5\n"))

    def test_block_writer_bytes_equal_per_value_format(self):
        """The block writer emits the bytes of one ``format(v, ".17g")`` per
        line, across block boundaries and for signed zero, the smallest
        subnormal, the largest double and a non-terminating fraction."""
        special = [-0.0, 5e-324, 1.7976931348623157e308, 1 / 3]
        rng = np.random.default_rng(12)
        values = rng.normal(size=(3, 7, 1000)) * 10.0 ** rng.integers(-300, 300, size=(3, 7, 1000))
        assert values.size > _BLOCK
        flat = values.reshape(-1)
        for at in (0, _BLOCK - 2, _BLOCK, values.size - 4):
            flat[at : at + 4] = special
        t = tensor3(values)

        def per_value(header, arr):
            return header + "".join(format(float(v), ".17g") + "\n" for v in arr.ravel())

        buf = io.StringIO()
        write_tensor_text(t, buf)
        assert buf.getvalue() == per_value("3 7 1000\n", t)
        assert np.array_equal(read_tensor_text(io.StringIO(buf.getvalue())), t)
        assert "\n-0\n4.9406564584124654e-324\n1.7976931348623157e+308\n0.33333333333333331\n" in buf.getvalue()

        m = t.reshape(21, 1000)
        buf = io.StringIO()
        write_matrix_text(m, buf)
        assert buf.getvalue() == per_value("21 1000\n", m)
