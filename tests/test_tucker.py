"""Tucker fitting, ANOVA split and scree selection against independent oracles."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triscope import (
    DegenerateInputError,
    InvalidInputError,
    anova_interaction,
    fit_percent,
    fold,
    frobenius_norm,
    hooi,
    hosvd,
    load_model,
    mode_multiply,
    reconstruct,
    save_model,
    scree_select,
    tensor3,
    unfold,
)
from triscope.tucker import TuckerModel, _fix_signs, _reduced, _unfolding_basis


def random_orthonormal(rng, rows, cols):
    return np.linalg.qr(rng.normal(size=(rows, cols)))[0]


def planted_tensor(rng, dims, ranks, noise=0.0):
    """Tensor of exact multilinear rank ``ranks`` plus relative noise."""
    core = rng.normal(size=ranks)
    a = random_orthonormal(rng, dims[0], ranks[0])
    b = random_orthonormal(rng, dims[1], ranks[1])
    c = random_orthonormal(rng, dims[2], ranks[2])
    x = reconstruct(core, a, b, c)
    if noise > 0.0:
        e = rng.normal(size=dims)
        x = x + e * (noise * np.linalg.norm(x.ravel()) / np.linalg.norm(e.ravel()))
    return tensor3(x)


def assert_orthonormal(f, tol=1e-8):
    np.testing.assert_allclose(f.T @ f, np.eye(f.shape[1]), atol=tol)


def svd_leading(unf, k):
    u = np.linalg.svd(unf, full_matrices=k > min(unf.shape))[0]
    return _fix_signs(u[:, :k].copy())


def oracle_hooi(x, p, q, r, tol=1e-6, max_iter=100):
    """HOOI from thin SVDs of every unfolding with ``mode_multiply``
    contractions; returns the fit percent."""
    xnorm2 = frobenius_norm(x) ** 2
    a, b, c = (svd_leading(unfold(x, mode), k) for mode, k in ((1, p), (2, q), (3, r)))
    core = mode_multiply(mode_multiply(mode_multiply(x, a.T, 1), b.T, 2), c.T, 3)
    fit_prev = 100.0 * frobenius_norm(core) ** 2 / xnorm2
    for _ in range(max_iter):
        a = svd_leading(unfold(mode_multiply(mode_multiply(x, b.T, 2), c.T, 3), 1), p)
        xa = mode_multiply(x, a.T, 1)
        b = svd_leading(unfold(mode_multiply(xa, c.T, 3), 2), q)
        y = mode_multiply(xa, b.T, 2)
        c = svd_leading(unfold(y, 3), r)
        fit = 100.0 * frobenius_norm(mode_multiply(y, c.T, 3)) ** 2 / xnorm2
        done = fit - fit_prev < tol
        fit_prev = fit
        if done:
            break
    return fit_prev


class TestHosvd:
    def test_full_parameters_lossless(self):
        rng = np.random.default_rng(0)
        x = tensor3(rng.normal(size=(3, 4, 2)))
        m = hosvd(x, 3, 4, 2)
        assert abs(m.fit_percent - 100.0) < 1e-8

    def test_rank_one_exact(self):
        rng = np.random.default_rng(1)
        x = planted_tensor(rng, (5, 4, 3), (1, 1, 1))
        m = hosvd(x, 1, 1, 1)
        assert abs(m.fit_percent - 100.0) < 1e-8

    def test_truncation_error_bound(self):
        """HOSVD residual is bounded by the discarded singular values of the
        three unfoldings (each recomputed with an independent SVD call)."""
        rng = np.random.default_rng(2)
        x = tensor3(rng.normal(size=(4, 3, 3)))
        ranks = (2, 2, 2)
        m = hosvd(x, *ranks)
        err2 = np.linalg.norm((x - m.reconstruct()).ravel()) ** 2
        bound = 0.0
        for mode, k in zip((1, 2, 3), ranks):
            sv = np.linalg.svd(unfold(x, mode), compute_uv=False)
            bound += float((sv[k:] ** 2).sum())
        assert err2 <= bound + 1e-10

    def test_factors_orthonormal(self):
        rng = np.random.default_rng(3)
        x = tensor3(rng.normal(size=(5, 4, 3)))
        m = hosvd(x, 3, 2, 2)
        for f in m.factors():
            assert_orthonormal(f)

    def test_fit_monotone_in_each_mode(self):
        rng = np.random.default_rng(4)
        x = tensor3(rng.normal(size=(4, 4, 4)))
        for vary in range(3):
            fits = []
            for k in range(1, 5):
                params = [2, 2, 2]
                params[vary] = k
                fits.append(hosvd(x, *params).fit_percent)
            assert all(b >= a - 1e-9 for a, b in zip(fits, fits[1:]))

    def test_tall_unfolding_past_its_columns(self):
        """A rank above the column count of a tall unfolding still gets a
        complete orthonormal basis."""
        rng = np.random.default_rng(22)
        x = tensor3(rng.normal(size=(7, 2, 3)))
        m = hosvd(x, 7, 2, 3)
        assert_orthonormal(m.factor_a)
        assert abs(m.fit_percent - 100.0) < 1e-8
        assert abs(hooi(x, 7, 2, 3).fit_percent - 100.0) < 1e-8

    def test_parameter_bounds(self):
        x = tensor3(np.ones((2, 2, 2)))
        for bad in ((0, 1, 1), (3, 1, 1), (1, 1, 5)):
            with pytest.raises(InvalidInputError):
                hosvd(x, *bad)

    def test_zero_tensor_degenerate(self):
        with pytest.raises(DegenerateInputError):
            hosvd(tensor3(np.zeros((2, 2, 2))), 1, 1, 1)


class TestHooi:
    def test_exact_rank_converges_immediately(self):
        rng = np.random.default_rng(5)
        x = planted_tensor(rng, (6, 5, 4), (2, 2, 2))
        m = hooi(x, 2, 2, 2)
        assert abs(m.fit_percent - 100.0) < 1e-8

    def test_not_worse_than_hosvd(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = tensor3(rng.normal(size=(5, 4, 3)))
            assert hooi(x, 2, 2, 2).fit_percent >= hosvd(x, 2, 2, 2).fit_percent - 1e-9

    def test_full_rank_is_exact(self):
        rng = np.random.default_rng(7)
        x = tensor3(rng.normal(size=(4, 4, 4)))
        m = hooi(x, 4, 4, 4)
        assert abs(m.fit_percent - 100.0) < 1e-8
        rel = np.linalg.norm((x - m.reconstruct()).ravel()) / np.linalg.norm(x.ravel())
        assert rel < 1e-8

    def test_converged_flag_marks_fits_stopped_at_max_iter(self):
        rng = np.random.default_rng(9)
        x = tensor3(rng.normal(size=(6, 5, 4)))
        assert not hooi(x, 3, 3, 2, tol=1e-10, max_iter=1).converged
        assert hooi(x, 3, 3, 2, tol=1e-10, max_iter=500).converged
        assert hosvd(x, 3, 3, 2).converged

    def test_core_slices_all_orthogonal(self):
        """At convergence each factor is the SVD basis of its own contracted
        unfolding, so the core's mode-n slices are mutually orthogonal."""
        rng = np.random.default_rng(8)
        x = tensor3(rng.normal(size=(6, 5, 4)))
        m = hooi(x, 3, 3, 2, tol=1e-10, max_iter=500)
        for mode in (1, 2, 3):
            g = unfold(m.core, mode)
            gram = g @ g.T
            off = np.abs(gram - np.diag(np.diag(gram))).max()
            assert off / np.abs(np.diag(gram)).max() < 1e-6

    def test_invalid_controls(self):
        x = tensor3(np.ones((2, 2, 2)) + np.arange(8).reshape(2, 2, 2))
        with pytest.raises(InvalidInputError):
            hooi(x, 1, 1, 1, tol=0.0)
        with pytest.raises(InvalidInputError):
            hooi(x, 1, 1, 1, max_iter=0)


class TestUnfoldingBasis:
    @pytest.mark.parametrize(
        "dims,mode",
        [((4, 3, 5), 1), ((3, 6, 4), 2), ((2, 3, 9), 3), ((20, 2, 3), 1), ((2, 9, 2), 2), ((2, 2, 12), 3)],
    )
    def test_leading_vectors_match_svd(self, dims, mode):
        """Wide and tall unfoldings with a clear spectral gap: the leading
        vectors from the Gram matrix are the SVD's left singular vectors,
        sign for sign under ``_fix_signs``."""
        rng = np.random.default_rng(sum(dims) * mode)
        rows = dims[mode - 1]
        cols = dims[0] * dims[1] * dims[2] // rows
        k = min(rows, cols)
        s = 4.0 ** -np.arange(k)
        unf = random_orthonormal(rng, rows, k) @ (s[:, None] * random_orthonormal(rng, cols, k).T)
        x = tensor3(fold(unf, mode, dims))
        basis = _unfolding_basis(x, mode)
        assert_orthonormal(basis, tol=1e-12)
        got = _fix_signs(basis[:, :k].copy())
        np.testing.assert_allclose(got.T @ svd_leading(unfold(x, mode), k), np.eye(k), atol=1e-8)


class TestFitPercent:
    def test_exact_model(self):
        rng = np.random.default_rng(9)
        x = tensor3(rng.normal(size=(3, 3, 3)))
        m = hooi(x, 3, 3, 3)
        np.testing.assert_allclose(fit_percent(x, m), 100.0, atol=1e-8)

    def test_zero_core_explains_nothing(self):
        rng = np.random.default_rng(10)
        x = tensor3(rng.normal(size=(3, 3, 3)))
        m = hooi(x, 2, 2, 2)
        zero = TuckerModel(np.zeros((2, 2, 2)), m.factor_a, m.factor_b, m.factor_c, 0.0)
        np.testing.assert_allclose(fit_percent(x, zero), 0.0, atol=1e-10)

    def test_matches_triple_sum_reconstruction(self):
        rng = np.random.default_rng(11)
        x = tensor3(rng.normal(size=(3, 2, 3)))
        core = rng.normal(size=(2, 2, 2))
        a = rng.normal(size=(3, 2))
        b = rng.normal(size=(2, 2))
        c = rng.normal(size=(3, 2))
        model = TuckerModel(core, a, b, c, 0.0)
        xhat = np.zeros((3, 2, 3))
        for i in range(3):
            for j in range(2):
                for k in range(3):
                    xhat[i, j, k] = sum(
                        core[p, q, r] * a[i, p] * b[j, q] * c[k, r]
                        for p in range(2)
                        for q in range(2)
                        for r in range(2)
                    )
        expected = 100.0 * (
            1.0 - np.linalg.norm((x - xhat).ravel()) ** 2 / np.linalg.norm(x.ravel()) ** 2
        )
        np.testing.assert_allclose(fit_percent(x, model), expected, atol=1e-10)

    def test_zero_tensor_rejected(self):
        m = TuckerModel(np.ones((1, 1, 1)), np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 1)), 0.0)
        with pytest.raises(DegenerateInputError):
            fit_percent(tensor3(np.zeros((2, 2, 2))), m)

    def test_adversarial_model_goes_negative_unclamped(self):
        rng = np.random.default_rng(20)
        x = tensor3(rng.normal(size=(3, 3, 3)))
        good = hooi(x, 3, 3, 3)
        flipped = TuckerModel(-good.core, good.factor_a, good.factor_b, good.factor_c, 0.0)
        assert fit_percent(x, flipped) < -200.0


def brute_force_anova(x):
    """Term-by-term SS recomputation with explicit loops."""
    I, J, K = x.shape
    gm = x.mean()
    a = [x[i].mean() - gm for i in range(I)]
    b = [x[:, j].mean() - gm for j in range(J)]
    c = [x[:, :, k].mean() - gm for k in range(K)]
    ss = {"a": 0.0, "b": 0.0, "c": 0.0, "ab": 0.0, "ac": 0.0, "bc": 0.0, "abc": 0.0, "tot": 0.0}
    ss["a"] = J * K * sum(v * v for v in a)
    ss["b"] = I * K * sum(v * v for v in b)
    ss["c"] = I * J * sum(v * v for v in c)
    for i in range(I):
        for j in range(J):
            v = x[i, j].mean() - gm - a[i] - b[j]
            ss["ab"] += K * v * v
    for i in range(I):
        for k in range(K):
            v = x[i, :, k].mean() - gm - a[i] - c[k]
            ss["ac"] += J * v * v
    for j in range(J):
        for k in range(K):
            v = x[:, j, k].mean() - gm - b[j] - c[k]
            ss["bc"] += I * v * v
    for i in range(I):
        for j in range(J):
            for k in range(K):
                ab = x[i, j].mean() - gm - a[i] - b[j]
                ac = x[i, :, k].mean() - gm - a[i] - c[k]
                bc = x[:, j, k].mean() - gm - b[j] - c[k]
                v = x[i, j, k] - gm - a[i] - b[j] - c[k] - ab - ac - bc
                ss["abc"] += v * v
                ss["tot"] += (x[i, j, k] - gm) ** 2
    return ss


class TestAnova:
    def test_pure_main_effects_have_zero_interactions(self):
        f = np.array([1.0, 4.0, -2.0])
        g = np.array([0.5, -1.5, 3.0, 2.0])
        x = tensor3(f[:, None, None] + g[None, :, None] + np.zeros((3, 4, 3)))
        rep = anova_interaction(x)
        assert max(rep.two_way_pct) < 1e-9
        assert rep.three_way_pct < 1e-9

    def test_pure_two_way_interaction(self):
        u = np.array([1.0, -1.0, 2.0, -2.0])
        v = np.array([3.0, -1.0, -2.0])
        assert abs(u.sum()) < 1e-12 and abs(v.sum()) < 1e-12
        x = tensor3(np.repeat((u[:, None] * v[None, :])[:, :, None], 3, axis=2))
        rep = anova_interaction(x)
        np.testing.assert_allclose(rep.two_way_pct[0], 100.0, atol=1e-9)
        assert abs(rep.two_way_pct[1]) < 1e-9
        assert abs(rep.two_way_pct[2]) < 1e-9
        assert max(rep.main_effect_pct) < 1e-9
        assert rep.three_way_pct < 1e-9

    def test_matches_brute_force_and_sums_to_100(self):
        rng = np.random.default_rng(12)
        x = tensor3(rng.normal(size=(3, 3, 3)))
        rep = anova_interaction(x)
        total = sum(rep.main_effect_pct) + sum(rep.two_way_pct) + rep.three_way_pct
        np.testing.assert_allclose(total, 100.0, atol=1e-6)
        ss = brute_force_anova(np.asarray(x))
        np.testing.assert_allclose(rep.main_effect_pct[0], 100 * ss["a"] / ss["tot"], rtol=1e-9)
        np.testing.assert_allclose(rep.two_way_pct[0], 100 * ss["ab"] / ss["tot"], rtol=1e-9)
        np.testing.assert_allclose(rep.two_way_pct[2], 100 * ss["bc"] / ss["tot"], rtol=1e-9)
        np.testing.assert_allclose(rep.three_way_pct, 100 * ss["abc"] / ss["tot"], rtol=1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        x = tensor3(rng.normal(size=(4, 3, 5)))
        rep = anova_interaction(x)
        for axis in range(3):
            perm = rng.permutation(x.shape[axis])
            shuffled = tensor3(np.take(x, perm, axis=axis))
            rep2 = anova_interaction(shuffled)
            np.testing.assert_allclose(rep2.main_effect_pct, rep.main_effect_pct, atol=1e-9)
            np.testing.assert_allclose(rep2.two_way_pct, rep.two_way_pct, atol=1e-9)
            np.testing.assert_allclose(rep2.three_way_pct, rep.three_way_pct, atol=1e-9)

    def test_constant_tensor_rejected(self):
        with pytest.raises(DegenerateInputError):
            anova_interaction(tensor3(np.full((2, 2, 2), 3.0)))

    def test_small_extent_rejected(self):
        with pytest.raises(InvalidInputError):
            anova_interaction(tensor3(np.random.default_rng(0).normal(size=(1, 3, 3))))


class TestScree:
    def test_recovers_planted_rank(self):
        rng = np.random.default_rng(14)
        x = planted_tensor(rng, (20, 10, 30), (2, 2, 2), noise=0.01)
        res = scree_select(x, 4, 4, 4)
        assert res.selected == (2, 2, 2)
        assert len(res.grid) == 64

    def test_singleton_grid(self):
        rng = np.random.default_rng(15)
        x = tensor3(rng.normal(size=(3, 3, 3)))
        res = scree_select(x, 1, 1, 1)
        assert res.selected == (1, 1, 1)
        assert res.grid[0][:3] == (1, 1, 1)

    def test_rank_one_not_overfit_by_full_grid(self):
        rng = np.random.default_rng(16)
        x = planted_tensor(rng, (4, 4, 4), (1, 1, 1))
        res = scree_select(x, 4, 4, 4)
        assert res.selected == (1, 1, 1)

    def test_budget_subsampling_keeps_corners(self):
        rng = np.random.default_rng(17)
        x = tensor3(rng.normal(size=(6, 6, 6)))
        res = scree_select(x, 6, 6, 6, sweep_budget=30)
        assert len(res.grid) <= 30
        ps = {g[0] for g in res.grid}
        assert {1, 6} <= ps
        assert res.selected in {g[:3] for g in res.grid}

    def test_selected_always_on_grid(self):
        rng = np.random.default_rng(18)
        x = tensor3(rng.normal(size=(5, 4, 3)))
        res = scree_select(x, 3, 3, 3)
        assert res.selected in {g[:3] for g in res.grid}

    def test_counts_fits_stopped_at_max_iter(self):
        rng = np.random.default_rng(21)
        x = tensor3(rng.normal(size=(6, 5, 4)))
        cut = scree_select(x, 3, 3, 2, tol=1e-10, max_iter=1)
        assert 0 < cut.fits_at_max_iter <= len(cut.grid)
        assert scree_select(x, 3, 3, 2, tol=1e-10, max_iter=500).fits_at_max_iter == 0

    def test_model_is_the_selected_grid_fit(self):
        """The model carried by the result is the grid's fit at the selected
        point, and equals a fresh HOOI fit there bit for bit."""
        rng = np.random.default_rng(20)
        x = planted_tensor(rng, (12, 6, 9), (2, 1, 2), noise=0.05)
        res = scree_select(x, 3, 3, 3)
        m = res.model
        assert (m.p, m.q, m.r) == res.selected
        assert [g[3] for g in res.grid if g[:3] == res.selected] == [m.fit_percent]
        refit = hooi(x, *res.selected)
        assert np.array_equal(m.core, refit.core)
        for f1, f2 in zip(m.factors(), refit.factors()):
            assert np.array_equal(f1, f2)


GRID_CASES = st.tuples(
    st.integers(0, 2**32 - 1),
    st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    st.one_of(st.none(), st.integers(1, 30)),
)


class TestScreeReducedTriples:
    @settings(max_examples=60, deadline=None)
    @given(GRID_CASES)
    def test_each_model_fitted_once_and_selectable_only_unreduced(self, case):
        seed, dims, bounds, budget = case
        rng = np.random.default_rng(seed)
        x = tensor3(rng.normal(size=dims))
        bounds = tuple(min(b, d) for b, d in zip(bounds, dims))
        res = scree_select(x, *bounds, sweep_budget=budget)
        grid = {g[:3]: g[3] for g in res.grid}
        assert _reduced(*res.selected) == res.selected
        assert res.selected in grid
        fresh = {}
        for pqr, fit in grid.items():
            red = _reduced(*pqr)
            if red not in fresh:
                fresh[red] = hooi(x, *red, max_iter=50).fit_percent
            # a redundant row carries its reduced triple's fit, on the grid or off it
            assert fit == fresh[red]
            if red == pqr:
                assert abs(fit - oracle_hooi(x, *pqr, max_iter=50)) < 1e-9
        refit = hooi(x, *res.selected, max_iter=50)
        assert res.model.fit_percent == refit.fit_percent
        assert np.array_equal(res.model.core, refit.core)
        for f1, f2 in zip(res.model.factors(), refit.factors()):
            assert np.array_equal(f1, f2)

    def test_reduced_triples_of_the_default_grid(self):
        grid = [(p, q, r) for p in (1, 2, 3) for q in (1, 2, 3) for r in (1, 2, 3)]
        reduced = {_reduced(*pqr) for pqr in grid}
        assert len(reduced) == 15
        assert all(p <= q * r and q <= p * r and r <= p * q for p, q, r in reduced)
        assert _reduced(3, 1, 1) == (1, 1, 1)
        assert _reduced(3, 2, 1) == (2, 2, 1)


class TestModelSerialization:
    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(19)
        x = tensor3(rng.normal(size=(4, 3, 5)))
        m = hooi(x, 2, 2, 3)
        buf = io.StringIO()
        save_model(m, buf)
        back = load_model(io.StringIO(buf.getvalue()))
        assert back.fit_percent == m.fit_percent
        assert np.array_equal(back.core, m.core)
        for f1, f2 in zip(m.factors(), back.factors()):
            assert np.array_equal(f1, f2)

    def test_rejects_garbage(self):
        with pytest.raises(InvalidInputError):
            load_model(io.StringIO("not a model\n"))

    @pytest.mark.parametrize(
        "damage",
        ["truncated_core", "truncated_factor_a", "non_numeric", "missing_factor_c"],
    )
    def test_rejects_damaged_blocks(self, damage):
        rng = np.random.default_rng(21)
        buf = io.StringIO()
        save_model(hooi(tensor3(rng.normal(size=(4, 3, 5))), 2, 2, 3), buf)
        lines = buf.getvalue().splitlines()
        a = lines.index("factor_a")
        c = lines.index("factor_c")
        if damage == "truncated_core":
            lines = lines[: lines.index("core") + 4]
        elif damage == "truncated_factor_a":
            lines = lines[: a + 3]
        elif damage == "non_numeric":
            lines[a + 3] = "0.5x"
        else:
            lines = lines[:c]
        with pytest.raises(InvalidInputError):
            load_model(io.StringIO("\n".join(lines) + "\n"))
