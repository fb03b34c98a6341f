"""Tucker3 fitting (HOSVD init + HOOI refinement), model selection and the
three-way ANOVA variance split.

The fit statistic throughout is explained variance as a percentage:
``100 * (1 - |X - Xhat|_F^2 / |X|_F^2)``. With orthonormal factors this
equals ``100 * |core|_F^2 / |X|_F^2``, which is what the sweep loop tracks.
Factor-column signs are fixed by making the largest-magnitude entry of each
column positive, so repeated runs give identical matrices.

The HOSVD factors, the leading left singular vectors of the three
unfoldings of ``x``, come from ``eigh`` of each unfolding's smaller Gram
matrix. A HOOI sweep contracts ``x`` with matmuls on its views
``x.reshape(I, J*K)`` and ``x.reshape(I*J, K)`` and takes each new factor
from the thin SVD of a small contracted unfolding. The scree fits each
distinct model once: a grid point whose rank exceeds the product of the
other two is the same model as its reduced triple (see ``_reduced``),
which CHull-style selection (Ceulemans & Kiers 2006) leaves out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, InvalidInputError, NumericalError
from .tensor import (
    _open_for,
    _read_block,
    frobenius_norm,
    matrix,
    reconstruct,
    tensor3,
    unfold,
    write_matrix_text,
    write_tensor_text,
)

__all__ = [
    "TuckerModel",
    "AnovaReport",
    "ScreeResult",
    "hosvd",
    "hooi",
    "fit_percent",
    "anova_interaction",
    "scree_select",
    "save_model",
    "load_model",
]


@dataclass(frozen=True, eq=False)
class TuckerModel:
    """Core tensor plus the three orthonormal factor matrices.

    ``converged`` is False for a HOOI fit that stopped after ``max_iter``
    sweeps without meeting its tolerance (True for HOSVD and loaded models).
    """

    core: np.ndarray
    factor_a: np.ndarray
    factor_b: np.ndarray
    factor_c: np.ndarray
    fit_percent: float
    converged: bool = True

    @property
    def p(self) -> int:
        return self.core.shape[0]

    @property
    def q(self) -> int:
        return self.core.shape[1]

    @property
    def r(self) -> int:
        return self.core.shape[2]

    def factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.factor_a, self.factor_b, self.factor_c

    def reconstruct(self) -> np.ndarray:
        return reconstruct(self.core, self.factor_a, self.factor_b, self.factor_c)


@dataclass(frozen=True)
class AnovaReport:
    """Percentages of corrected total SS for each term of the three-way
    decomposition. The seven values sum to 100."""

    main_effect_pct: tuple[float, float, float]
    two_way_pct: tuple[float, float, float]  # (1,2), (1,3), (2,3)
    three_way_pct: float

    @property
    def max_two_way_pct(self) -> float:
        return max(self.two_way_pct)

    def as_dict(self) -> dict:
        return {
            "main_effect_pct": list(self.main_effect_pct),
            "two_way_pct": list(self.two_way_pct),
            "three_way_pct": self.three_way_pct,
            "max_two_way_pct": self.max_two_way_pct,
        }


@dataclass(frozen=True)
class ScreeResult:
    """Fit over a (P, Q, R) grid plus the elbow-selected point, the model
    fitted there, and how many grid points' fits stopped at ``max_iter``."""

    grid: tuple[tuple[int, int, int, float], ...]
    selected: tuple[int, int, int]
    model: TuckerModel = field(compare=False, repr=False)
    fits_at_max_iter: int


def _check_params(x: np.ndarray, p: int, q: int, r: int) -> None:
    for name, k, ext in (("p", p, x.shape[0]), ("q", q, x.shape[1]), ("r", r, x.shape[2])):
        if not 1 <= int(k) <= ext:
            raise InvalidInputError(f"{name}={k} outside [1, {ext}]")


def _fix_signs(u: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[idx, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs[None, :]


def _leading_vectors(unf: np.ndarray, k: int) -> np.ndarray:
    """First k left singular vectors of a small matrix, sign-fixed; a k above
    its smaller extent takes the full SVD, which completes the basis."""
    u = np.linalg.svd(unf, full_matrices=k > min(unf.shape))[0]
    return _fix_signs(u[:, :k].copy())


def _unfolding_basis(x: np.ndarray, mode: int, k: int = 0) -> np.ndarray:
    """Left singular vectors of the mode-``mode`` unfolding of ``x``, leading
    first, from ``eigh`` of the smaller Gram matrix.

    A wide unfolding gives them directly from its row Gram. A tall one gives
    the right vectors V from its column Gram, and the left ones are the
    orthonormal factor of ``unf @ V``, one per column; a ``k`` above the
    column count takes the row Gram instead, whose basis is complete.
    """
    i, j, kk = x.shape
    if mode == 1:
        unf = x.reshape(i, j * kk)
    elif mode == 2:
        unf = unfold(x, 2)
    else:
        unf = x.reshape(i * j, kk).T
    rows, cols = unf.shape
    if rows <= cols or k > cols:
        return np.linalg.eigh(unf @ unf.T)[1][:, ::-1]
    v = np.linalg.eigh(unf.T @ unf)[1][:, ::-1]
    return np.linalg.qr(unf @ v)[0]


def _project(x: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Core ``x x1 a^T x2 b^T x3 c^T`` as three matmuls."""
    i, j, k = x.shape
    xa = (a.T @ x.reshape(i, j * k)).reshape(-1, j, k)
    return (np.matmul(b.T, xa).reshape(-1, k) @ c).reshape(a.shape[1], b.shape[1], c.shape[1])


def hosvd(x: np.ndarray, p: int, q: int, r: int, _bases=None) -> TuckerModel:
    """Truncated higher-order SVD.

    Each factor holds the leading left singular vectors of the matching
    unfolding; the core is the projection of ``x`` onto the factor bases.
    ``_bases`` (private) holds the three unfoldings' bases when a caller
    has computed them already.
    """
    x = tensor3(x)
    _check_params(x, p, q, r)
    ranks = (int(p), int(q), int(r))
    xnorm2 = frobenius_norm(x) ** 2
    if xnorm2 == 0.0:
        raise DegenerateInputError("cannot fit a Tucker model to the zero tensor")
    if _bases is None:
        _bases = [_unfolding_basis(x, mode, k) for mode, k in zip((1, 2, 3), ranks)]
    a, b, c = (_fix_signs(u[:, :k].copy()) for u, k in zip(_bases, ranks))
    core = _project(x, a, b, c)
    fit = 100.0 * (frobenius_norm(core) ** 2) / xnorm2
    return TuckerModel(core, a, b, c, float(fit))


def hooi(
    x: np.ndarray,
    p: int,
    q: int,
    r: int,
    tol: float = 1e-6,
    max_iter: int = 100,
    _bases=None,
) -> TuckerModel:
    """Higher-order orthogonal iteration starting from the HOSVD factors.

    Sweeps update one factor at a time from the SVD of the tensor contracted
    with the other two factors; iteration stops when the fit improves by less
    than ``tol`` percentage points in a sweep, or after ``max_iter`` sweeps
    (then the model's ``converged`` is False). Each contraction is a pair of
    matmuls on the unfoldings ``x.reshape(I, J*K)`` and ``x.reshape(I*J, K)``,
    which are views of ``x``.
    """
    if tol <= 0:
        raise InvalidInputError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise InvalidInputError(f"max_iter must be >= 1, got {max_iter}")
    model = hosvd(x, p, q, r, _bases=_bases)
    x = tensor3(x)
    i, j, k = x.shape
    p, q, r = model.p, model.q, model.r
    x1 = x.reshape(i, j * k)
    x3 = x.reshape(i * j, k)
    xnorm2 = frobenius_norm(x) ** 2
    a, b, c = model.factors()
    fit_prev = model.fit_percent
    core = model.core
    for sweep in range(1, max_iter + 1):
        # x x2 b^T x3 c^T, held as (I, R, Q)
        y = (x3 @ c).reshape(i, j, r).transpose(0, 2, 1).reshape(i * r, j) @ b
        a = _leading_vectors(y.reshape(i, r * q), p)
        # x x1 a^T x3 c^T, held as (P, J, R)
        xa = a.T @ x1
        y = (xa.reshape(p * j, k) @ c).reshape(p, j, r)
        b = _leading_vectors(y.transpose(1, 0, 2).reshape(j, p * r), q)
        # x x1 a^T x2 b^T, held as (P*Q, K)
        y = np.matmul(b.T, xa.reshape(p, j, k)).reshape(p * q, k)
        c = _leading_vectors(y.T, r)
        core = (y @ c).reshape(p, q, r)
        if not (np.all(np.isfinite(core)) and np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(c).all()):
            raise NumericalError(f"non-finite values in HOOI sweep {sweep}")
        fit = 100.0 * (frobenius_norm(core) ** 2) / xnorm2
        if fit < fit_prev - 1e-9:
            raise NumericalError(f"fit decreased in HOOI sweep {sweep}: {fit_prev} -> {fit}")
        done = (fit - fit_prev) < tol
        fit_prev = fit
        if done:
            break
    return TuckerModel(core, a, b, c, float(fit_prev), converged=done)


def fit_percent(x: np.ndarray, model: TuckerModel) -> float:
    """Explained variance of ``model`` on tensor ``x`` (may be negative)."""
    x = tensor3(x)
    xhat = model.reconstruct()
    if xhat.shape != x.shape:
        raise InvalidInputError(f"model reconstructs {xhat.shape}, tensor is {x.shape}")
    xnorm2 = frobenius_norm(x) ** 2
    if xnorm2 == 0.0:
        raise DegenerateInputError("fit is undefined for the zero tensor")
    return float(100.0 * (1.0 - (frobenius_norm(x - xhat) ** 2) / xnorm2))


def anova_interaction(x: np.ndarray) -> AnovaReport:
    """Classical balanced three-way ANOVA split of a tensor.

    Sums of squares of the grand-mean-corrected terms (three main effects,
    three two-way interactions, one three-way residual) are reported as
    percentages of the corrected total SS.
    """
    x = tensor3(x)
    i, j, k = x.shape
    if min(i, j, k) < 2:
        raise InvalidInputError(f"ANOVA needs every extent >= 2, got {x.shape}")
    gm = x.mean()
    ss_tot = float(((x - gm) ** 2).sum())
    if ss_tot == 0.0:
        raise DegenerateInputError("constant tensor has zero corrected total SS")

    ea = x.mean(axis=(1, 2)) - gm
    eb = x.mean(axis=(0, 2)) - gm
    ec = x.mean(axis=(0, 1)) - gm
    eab = x.mean(axis=2) - gm - ea[:, None] - eb[None, :]
    eac = x.mean(axis=1) - gm - ea[:, None] - ec[None, :]
    ebc = x.mean(axis=0) - gm - eb[:, None] - ec[None, :]
    eabc = (
        x
        - gm
        - ea[:, None, None]
        - eb[None, :, None]
        - ec[None, None, :]
        - eab[:, :, None]
        - eac[:, None, :]
        - ebc[None, :, :]
    )

    ss_a = j * k * float((ea**2).sum())
    ss_b = i * k * float((eb**2).sum())
    ss_c = i * j * float((ec**2).sum())
    ss_ab = k * float((eab**2).sum())
    ss_ac = j * float((eac**2).sum())
    ss_bc = i * float((ebc**2).sum())
    ss_abc = float((eabc**2).sum())

    def pct(ss: float) -> float:
        return 100.0 * ss / ss_tot

    return AnovaReport(
        main_effect_pct=(pct(ss_a), pct(ss_b), pct(ss_c)),
        two_way_pct=(pct(ss_ab), pct(ss_ac), pct(ss_bc)),
        three_way_pct=pct(ss_abc),
    )


def _subsample_levels(max_levels: tuple[int, int, int], budget: int) -> list[np.ndarray]:
    """Deterministic per-mode level subsets whose product fits the budget.

    Levels are evenly spaced integers always containing 1 and the mode
    maximum; the mode with the most levels is thinned first.
    """
    counts = [int(m) for m in max_levels]
    while counts[0] * counts[1] * counts[2] > budget:
        m = max(range(3), key=lambda ix: (counts[ix], ix))
        if counts[m] <= 1:
            break
        counts[m] -= 1
    return [
        np.unique(np.round(np.linspace(1, max_levels[m], counts[m])).astype(int))
        for m in range(3)
    ]


def _elbow_select(entries: list[tuple[int, int, int, float]]) -> tuple[int, int, int]:
    """Pick the grid point where the marginal fit gain drops the most.

    The fit curve is reduced to the upper convex hull of (complexity, fit)
    with complexity = P+Q+R, over the best fit per complexity and anchored
    at the virtual origin (0, 0). Each hull vertex has an incoming and an
    outgoing slope; the selected vertex maximizes the relative slope drop
    ``1 - outgoing/incoming`` (scale-free, so a dominant first component
    cannot mask a later elbow). The final vertex has no outgoing evidence
    and is only selectable when the hull holds a single vertex. Ties go to
    the lowest complexity, then lexicographically smallest (P, Q, R).
    """
    best_per_s: dict[int, float] = {}
    for p, q, r, f in entries:
        s = p + q + r
        if s not in best_per_s or f > best_per_s[s]:
            best_per_s[s] = f
    pts = [(0.0, 0.0)] + [(float(s), best_per_s[s]) for s in sorted(best_per_s)]

    hull: list[tuple[float, float]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) <= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)

    gains = [
        (hull[m][1] - hull[m - 1][1]) / (hull[m][0] - hull[m - 1][0])
        for m in range(1, len(hull))
    ]
    n_vertices = len(hull) - 1
    best_drop = -np.inf
    best_s = int(hull[1][0])
    for m in range(1, n_vertices + 1):
        g_in = gains[m - 1]
        if m < n_vertices:
            drop = 1.0 - gains[m] / g_in if g_in > 0 else -np.inf
        else:
            drop = 1.0 if n_vertices == 1 else 0.0
        if drop > best_drop + 1e-12:
            best_drop = drop
            best_s = int(hull[m][0])

    at_s = [e for e in entries if e[0] + e[1] + e[2] == best_s]
    at_s.sort(key=lambda e: (-e[3], e[0], e[1], e[2]))
    top_fit = at_s[0][3]
    winners = sorted((p, q, r) for p, q, r, f in at_s if f == top_fit)
    return winners[0]


def _reduced(p: int, q: int, r: int) -> tuple[int, int, int]:
    """The smallest ranks of the same model. A core with P > QR (or Q > PR,
    or R > PQ) has the same best fit as one with that rank cut to the
    product of the other two, so the ranks are cut until none changes."""
    ranks = (p, q, r)
    while True:
        p = min(p, q * r)
        q = min(q, p * r)
        r = min(r, p * q)
        if (p, q, r) == ranks:
            return ranks
        ranks = (p, q, r)


def scree_select(
    x: np.ndarray,
    max_p: int,
    max_q: int,
    max_r: int,
    sweep_budget: int | None = None,
    tol: float = 1e-6,
    max_iter: int = 50,
) -> ScreeResult:
    """Fit HOOI over the (P, Q, R) grid and select the elbow point.

    When the full grid exceeds ``sweep_budget`` points, each mode's levels
    are thinned to evenly spaced values (always keeping 1 and the bound)
    until the product fits. Each grid point maps to its reduced triple (see
    ``_reduced``), and HOOI runs once per distinct reduced triple, which may
    lie off a thinned grid. Every grid row carries its reduced triple's fit,
    but only rows that are their own reduced triple are selectable, so the
    selected point is the model's shape. The unfoldings' leading vectors are
    computed once and sliced by every fit.
    """
    x = tensor3(x)
    _check_params(x, max_p, max_q, max_r)
    if sweep_budget is not None and sweep_budget < 1:
        raise InvalidInputError(f"sweep_budget must be >= 1, got {sweep_budget}")

    maxes = (int(max_p), int(max_q), int(max_r))
    if sweep_budget is None or maxes[0] * maxes[1] * maxes[2] <= sweep_budget:
        levels = [np.arange(1, m + 1) for m in maxes]
    else:
        levels = _subsample_levels(maxes, sweep_budget)

    bases = [_unfolding_basis(x, mode) for mode in (1, 2, 3)]
    points = [(int(p), int(q), int(r)) for p in levels[0] for q in levels[1] for r in levels[2]]
    reduced = {pt: _reduced(*pt) for pt in points}
    models: dict[tuple[int, int, int], TuckerModel] = {}
    for pt in dict.fromkeys(reduced.values()):
        try:
            models[pt] = hooi(x, *pt, tol=tol, max_iter=max_iter, _bases=bases)
        except NumericalError as exc:
            raise NumericalError("grid point ({},{},{}): {}".format(*pt, exc)) from exc

    entries = [(*pt, models[reduced[pt]].fit_percent) for pt in points]
    selected = _elbow_select([e for e in entries if reduced[e[:3]] == e[:3]])
    return ScreeResult(
        grid=tuple(entries),
        selected=selected,
        model=models[selected],
        fits_at_max_iter=sum(not models[reduced[pt]].converged for pt in points),
    )


# ---------------------------------------------------------------------------
# model serialization
# ---------------------------------------------------------------------------

_MODEL_HEADER = "triscope tucker model v1"


def save_model(model: TuckerModel, target) -> None:
    """Text serialization: dims, fit, then core/factor blocks (17 sig digits)."""
    f, own = _open_for(target, "w")
    try:
        f.write(_MODEL_HEADER + "\n")
        f.write(f"{model.p} {model.q} {model.r}\n")
        f.write(f"fit {format(model.fit_percent, '.17g')}\n")
        f.write("core\n")
        write_tensor_text(model.core, f)
        for name, fac in (("factor_a", model.factor_a), ("factor_b", model.factor_b), ("factor_c", model.factor_c)):
            f.write(name + "\n")
            write_matrix_text(fac, f)
    finally:
        if own:
            f.close()


def load_model(source) -> TuckerModel:
    f, own = _open_for(source, "r")
    try:
        tokens = f.read().split()
    finally:
        if own:
            f.close()
    if tokens[:4] != _MODEL_HEADER.split():
        raise InvalidInputError("not a triscope tucker model file")
    try:
        p, q, r = (int(v) for v in tokens[4:7])
        fit = float(tokens[8])
    except (IndexError, ValueError) as exc:
        raise InvalidInputError(f"malformed model file: {exc}") from exc
    if tokens[7] != "fit":
        raise InvalidInputError(f"model file: label 'fit' missing, got {tokens[7]!r}")
    blocks, pos = [], 9
    for label, ndim in (("core", 3), ("factor_a", 2), ("factor_b", 2), ("factor_c", 2)):
        if tokens[pos : pos + 1] != [label]:
            raise InvalidInputError(f"model file: block {label!r} missing or out of place")
        block, pos = _read_block(tokens, pos + 1, ndim, f"model block {label!r}")
        blocks.append(block)
    model = TuckerModel(tensor3(blocks[0]), *(matrix(b) for b in blocks[1:]), fit)
    if model.factor_a.shape[1] != p or model.factor_b.shape[1] != q or model.factor_c.shape[1] != r:
        raise InvalidInputError("model dims disagree with factor shapes")
    return model
