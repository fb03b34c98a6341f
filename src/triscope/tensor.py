"""Dense 3-order tensor primitives.

Tensors are plain ``numpy`` arrays of shape ``(I, J, K)`` in C order, so the
flat value at index ``(i, j, k)`` lives at offset ``i*J*K + j*K + k``.
Matrices are 2-D arrays in row-major order. The :func:`tensor3` and
:func:`matrix` constructors validate finiteness and freeze the array;
the operations below only check shapes.

Unfolding column order (the remaining modes cycle in ascending index order,
last one fastest):

* mode 1: ``I x (J*K)``, column of ``(j, k)`` is ``j*K + k``
* mode 2: ``J x (I*K)``, column of ``(i, k)`` is ``i*K + k``
* mode 3: ``K x (I*J)``, column of ``(i, j)`` is ``i*J + j``

``fold(unfold(t, m), m, t.shape)`` reproduces ``t`` bit for bit.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "tensor3",
    "matrix",
    "unfold",
    "fold",
    "mode_multiply",
    "frobenius_norm",
    "reconstruct",
    "write_tensor_text",
    "read_tensor_text",
    "write_matrix_text",
]


def tensor3(values, dims: tuple[int, int, int] | None = None) -> np.ndarray:
    """Validate and freeze a 3-order tensor.

    ``values`` may be a nested array-like of shape (I, J, K), or a flat
    sequence combined with explicit ``dims``.
    """
    arr = np.asarray(values, dtype=np.float64)
    if dims is not None:
        if len(dims) != 3 or any(int(d) < 1 for d in dims):
            raise InvalidInputError(f"tensor dims must be three positive integers, got {dims}")
        if arr.size != dims[0] * dims[1] * dims[2]:
            raise InvalidInputError(
                f"expected {dims[0] * dims[1] * dims[2]} values for dims {dims}, got {arr.size}"
            )
        arr = arr.reshape(dims)
    if arr.ndim != 3:
        raise InvalidInputError(f"tensor must have exactly 3 modes, got shape {arr.shape}")
    if any(d < 1 for d in arr.shape):
        raise InvalidInputError(f"tensor extents must be positive, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("tensor values must all be finite")
    arr = np.ascontiguousarray(arr).view()  # freeze a view, never the caller's array
    arr.flags.writeable = False
    return arr


def matrix(values, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Validate and freeze a row-major matrix."""
    arr = np.asarray(values, dtype=np.float64)
    if shape is not None:
        if len(shape) != 2 or any(int(d) < 1 for d in shape):
            raise InvalidInputError(f"matrix shape must be two positive integers, got {shape}")
        arr = arr.reshape(shape)
    if arr.ndim != 2:
        raise InvalidInputError(f"matrix must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("matrix values must all be finite")
    arr = np.ascontiguousarray(arr).view()  # freeze a view, never the caller's array
    arr.flags.writeable = False
    return arr


def _check_mode(mode: int) -> int:
    if mode not in (1, 2, 3):
        raise InvalidInputError(f"mode must be 1, 2 or 3, got {mode!r}")
    return int(mode)


def _check_tensor(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 3:
        raise InvalidInputError(f"expected a 3-order tensor, got shape {t.shape}")
    return t


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-n unfolding with the documented column order."""
    t = _check_tensor(t)
    mode = _check_mode(mode)
    return np.moveaxis(t, mode - 1, 0).reshape(t.shape[mode - 1], -1)


def fold(m: np.ndarray, mode: int, dims: tuple[int, int, int]) -> np.ndarray:
    """Inverse of :func:`unfold` for a tensor of extents ``dims``."""
    mode = _check_mode(mode)
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got shape {m.shape}")
    moved = [dims[mode - 1]] + [d for i, d in enumerate(dims) if i != mode - 1]
    if m.shape[0] != moved[0] or m.size != dims[0] * dims[1] * dims[2]:
        raise InvalidInputError(f"matrix {m.shape} does not fold into dims {dims} at mode {mode}")
    return np.moveaxis(m.reshape(moved), 0, mode - 1)


def mode_multiply(t: np.ndarray, m: np.ndarray, mode: int) -> np.ndarray:
    """Mode-n product: replaces extent ``n`` of ``t`` by ``m.shape[0]``.

    Equals ``fold(m @ unfold(t, mode))``.
    """
    t = _check_tensor(t)
    mode = _check_mode(mode)
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got shape {m.shape}")
    if m.shape[1] != t.shape[mode - 1]:
        raise InvalidInputError(
            f"matrix columns ({m.shape[1]}) must match mode-{mode} extent ({t.shape[mode - 1]})"
        )
    dims = list(t.shape)
    dims[mode - 1] = m.shape[0]
    return fold(m @ unfold(t, mode), mode, tuple(dims))


def frobenius_norm(t: np.ndarray) -> float:
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(np.asarray(t, dtype=np.float64).ravel()))


def reconstruct(core: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Expand a core tensor through the three factor matrices.

    ``core`` has extents (P, Q, R) and the factors are I x P, J x Q, K x R;
    the result is the I x J x K tensor with entries
    ``sum_pqr core[p,q,r] * a[i,p] * b[j,q] * c[k,r]``.
    """
    core = _check_tensor(core)
    for name, f, ax in (("a", a, 0), ("b", b, 1), ("c", c, 2)):
        f = np.asarray(f)
        if f.ndim != 2 or f.shape[1] != core.shape[ax]:
            raise InvalidInputError(
                f"factor {name} must have {core.shape[ax]} columns, got shape {f.shape}"
            )
    out = mode_multiply(core, a, 1)
    out = mode_multiply(out, b, 2)
    return mode_multiply(out, c, 3)


# ---------------------------------------------------------------------------
# text serialization (CLI intermediates)
# ---------------------------------------------------------------------------


_BLOCK = 1 << 14  # values formatted per write; bounds the text held at once


def _write_values(f, values: np.ndarray) -> None:
    """One value per line in C order, 17 significant digits."""
    flat = values.ravel()
    for start in range(0, flat.size, _BLOCK):
        block = flat[start : start + _BLOCK].tolist()
        f.write(("%.17g\n" * len(block)) % tuple(block))


@contextmanager
def _opened(target, mode: str):
    """``target`` itself if it is a stream; a path is opened as UTF-8 text
    in ``mode``, with no newline translation, and closed on exit."""
    if isinstance(target, (str, Path)):
        with open(target, mode, encoding="utf-8", newline="\n") as f:
            yield f
    else:
        yield target


def write_tensor_text(t: np.ndarray, target) -> None:
    """Write ``I J K`` then one value per line, C-order, 17 significant digits."""
    t = _check_tensor(t)
    with _opened(target, "w") as f:
        f.write(f"{t.shape[0]} {t.shape[1]} {t.shape[2]}\n")
        _write_values(f, t)


def _read_block(tokens: list[str], pos: int, ndim: int, what: str) -> tuple[np.ndarray, int]:
    """Read the block ``what`` at text token ``pos``: ``ndim`` positive
    extents, then their product of values in C order. Returns the values
    shaped by the extents and the position after the block."""
    try:
        dims = tuple(int(x) for x in tokens[pos : pos + ndim])
        end = pos + ndim + math.prod(dims)
        values = [float(x) for x in tokens[pos + ndim : end]]
    except ValueError as exc:
        raise InvalidInputError(f"malformed {what}: {exc}") from exc
    if len(dims) != ndim or min(dims) < 1 or len(values) != end - pos - ndim:
        raise InvalidInputError(f"{what} is not {ndim} positive extents and their values")
    return np.array(values, dtype=np.float64).reshape(dims), end


def read_tensor_text(source) -> np.ndarray:
    """Read what :func:`write_tensor_text` wrote (any whitespace between tokens)."""
    with _opened(source, "r") as f:
        tokens = f.read().split()
    t, end = _read_block(tokens, 0, 3, "tensor text")
    if end != len(tokens):
        raise InvalidInputError(f"tensor text has {len(tokens) - end} values beyond its extents {t.shape}")
    return tensor3(t)


def write_matrix_text(m: np.ndarray, target) -> None:
    """Write ``rows cols`` then one value per line in row-major order."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got shape {m.shape}")
    with _opened(target, "w") as f:
        f.write(f"{m.shape[0]} {m.shape[1]}\n")
        _write_values(f, m)
