"""Ward clustering against a from-scratch SS oracle and a full-scan
agglomeration; cuts against a union-find oracle; centers, events."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triscope import (
    Dendrogram,
    InvalidInputError,
    backends,
    clustering,
    Trajectories,
    center_trajectory,
    cut,
    detect_events,
    ward_cluster,
)


def within_cluster_ss(points, members):
    pts = points[list(members)]
    c = pts.mean(axis=0)
    return float(((pts - c) ** 2).sum())


def brute_force_ward(points):
    """Recompute the Ward objective from scratch at every step.

    Same conventions as the implementation: node ids 0..n-1 for leaves then
    n, n+1, ... per merge; height = sqrt(2 * SS increase); ties pick the
    lexicographically smallest (left, right) id pair.
    """
    n = points.shape[0]
    clusters = {i: (i,) for i in range(n)}
    merges = []
    next_id = n
    while len(clusters) > 1:
        best = None
        ids = sorted(clusters)
        for ai, a in enumerate(ids):
            for b in ids[ai + 1 :]:
                union = clusters[a] + clusters[b]
                delta = (
                    within_cluster_ss(points, union)
                    - within_cluster_ss(points, clusters[a])
                    - within_cluster_ss(points, clusters[b])
                )
                d = math.sqrt(max(2.0 * delta, 0.0))
                if best is None or d < best[0]:
                    best = (d, a, b)
        d, a, b = best
        union = clusters.pop(a) + clusters.pop(b)
        merges.append((a, b, d, len(union)))
        clusters[next_id] = union
        next_id += 1
    return merges


def full_scan_ward(points):
    """Ward agglomeration that scans every pair of active nodes at each merge.

    The same Lance-Williams arithmetic as ``backends.ward_linkage``, which
    caches each row's nearest neighbour instead: a row-major scan of the
    upper triangle of the (2n-1)^2 distance matrix picks the least distance
    and, on ties, the lexicographically smallest (left, right) pair. The
    kernel must reproduce these merges bit for bit.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    total = 2 * n - 1
    d2 = np.full((total, total), np.inf)
    sq = (pts * pts).sum(axis=1)
    block = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    np.maximum(block, 0.0, out=block)
    d2[:n, :n] = block
    np.fill_diagonal(d2, np.inf)

    active = np.zeros(total, dtype=bool)
    active[:n] = True
    sizes = np.zeros(total, dtype=np.int64)
    sizes[:n] = 1
    merges = np.empty((n - 1, 4))
    iu, ju = np.triu_indices(total, 1)
    for step in range(n - 1):
        flat = d2[iu, ju]
        k = int(np.argmin(flat))
        bi = int(iu[k])
        bj = int(ju[k])
        best = flat[k]
        new = n + step
        si = sizes[bi]
        sj = sizes[bj]
        merges[step] = (bi, bj, math.sqrt(best), si + sj)

        others = np.flatnonzero(active)
        others = others[(others != bi) & (others != bj)]
        if others.size:
            su = sizes[others]
            upd = ((si + su) * d2[bi, others] + (sj + su) * d2[bj, others] - su * best) / (
                si + sj + su
            )
            d2[new, others] = upd
            d2[others, new] = upd
        d2[[bi, bj], :] = np.inf
        d2[:, [bi, bj]] = np.inf
        active[[bi, bj]] = False
        active[new] = True
        sizes[new] = si + sj
    return merges


class TestWardCluster:
    def test_two_points_merge_at_distance(self):
        d = ward_cluster(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert d.n_leaves == 2
        left, right, height, size = d.merges[0]
        assert (left, right, size) == (0.0, 1.0, 2.0)
        np.testing.assert_allclose(height, 5.0, rtol=1e-12)

    def test_three_collinear_points(self):
        d = ward_cluster(np.array([[0.0], [1.0], [10.0]]))
        assert d.merges[0][:2].tolist() == [0.0, 1.0]
        np.testing.assert_allclose(d.merges[0][2], 1.0, rtol=1e-12)
        assert d.merges[1][:2].tolist() == [2.0, 3.0]
        # centroid {0,1} = 0.5, so SS increase = (2*1/3) * 9.5^2
        np.testing.assert_allclose(d.merges[1][2], math.sqrt(2 * (2 / 3) * 9.5**2), rtol=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 11))
            dim = int(rng.integers(1, 6))
            pts = rng.normal(size=(n, dim))
            got = ward_cluster(pts).merges
            expected = brute_force_ward(pts)
            for s, (a, b, d, size) in enumerate(expected):
                assert int(got[s, 0]) == a
                assert int(got[s, 1]) == b
                np.testing.assert_allclose(got[s, 2], d, rtol=1e-9, atol=1e-12)
                assert int(got[s, 3]) == size

    def test_heights_monotone(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(15, 3))
        d = ward_cluster(pts)
        assert np.all(np.diff(d.merges[:, 2]) >= -1e-12)

    def test_accepts_trajectories(self):
        trjs = Trajectories(("u0", "u1", "u2"), np.stack([np.full((4, 2), float(i)) for i in range(3)]))
        d = ward_cluster(trjs)
        assert d.n_leaves == 3

    def test_single_item_rejected(self):
        with pytest.raises(InvalidInputError):
            ward_cluster(np.array([[1.0, 2.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = np.array([[0.0, 0.0], [1.0, bad], [2.0, 2.0], [5.0, 5.0]])
        with pytest.raises(InvalidInputError, match="finite"):
            ward_cluster(pts)


def assert_same_merges(pts):
    got = backends.ward_linkage(pts)
    expected = full_scan_ward(pts)
    assert np.array_equal(got, expected)
    return got


class TestNearestNeighbourCache:
    """``backends.ward_linkage`` against the full scan, bit for bit."""

    def test_two_and_three_points(self):
        assert_same_merges(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert_same_merges(np.array([[0.0], [1.0], [10.0]]))
        assert_same_merges(np.array([[0.0], [10.0], [1.0]]))

    def test_random_points(self):
        rng = np.random.default_rng(11)
        for n in (4, 9, 17, 40, 75, 130):
            assert_same_merges(rng.normal(size=(n, int(rng.integers(1, 9)))))
        assert_same_merges(rng.normal(size=(300, 12)))

    def test_integer_grid_ties(self):
        """Every distance on a small grid occurs many times over, so each
        merge is decided by the tie-break."""
        g = np.stack(np.meshgrid(np.arange(5.0), np.arange(4.0)), axis=-1).reshape(-1, 2)
        merges = assert_same_merges(g)
        assert merges[0, :3].tolist() == [0.0, 1.0, 1.0]
        rng = np.random.default_rng(12)
        for _ in range(30):
            assert_same_merges(rng.integers(-2, 3, size=(int(rng.integers(2, 40)), 2)).astype(float))

    def test_duplicated_points(self):
        rng = np.random.default_rng(13)
        base = rng.normal(size=(12, 3))
        pts = base[rng.integers(0, 12, size=50)]
        merges = assert_same_merges(pts)
        assert np.count_nonzero(merges[:, 2] == 0.0) == 50 - np.unique(pts, axis=0).shape[0]

    def test_star_invalidates_most_caches(self):
        """Unit vectors around a hub with the largest id: every row's nearest
        neighbour is the hub, and then the cluster holding it, so each
        merge recomputes nearly every row."""
        n = 60
        pts = np.vstack([np.eye(n - 1), np.zeros((1, n - 1))])
        merges = assert_same_merges(pts)
        assert merges[0, :2].tolist() == [0.0, n - 1.0]
        assert merges[1:, 1].tolist() == list(range(n, 2 * n - 2))


def blob_points(rng):
    return np.vstack(
        [
            rng.normal(0.0, 0.2, size=(6, 2)),
            rng.normal(8.0, 0.2, size=(5, 2)),
            rng.normal((-7.0, 7.0), 0.2, size=(4, 2)),
        ]
    )


def union_find_cut(dendrogram, cutoff):
    """Labels by union-find: apply merges in order until the first whose
    normalized height is above the cutoff, then number the clusters by
    (-size, smallest leaf)."""
    n = dendrogram.n_leaves
    hmax = float(dendrogram.heights[-1]) if n > 1 else 0.0
    parent = np.arange(2 * n - 1)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for s in range(n - 1):
        h = dendrogram.merges[s, 2]
        if ((h / hmax) if hmax > 0 else 0.0) > cutoff:
            break
        left, right = int(dendrogram.merges[s, 0]), int(dendrogram.merges[s, 1])
        parent[find(left)] = n + s
        parent[find(right)] = n + s

    clusters = {}
    for leaf in range(n):
        clusters.setdefault(int(find(leaf)), []).append(leaf)
    ordered = sorted(clusters.values(), key=lambda leaves: (-len(leaves), leaves[0]))
    labels = np.empty(n, dtype=np.int64)
    for label, leaves in enumerate(ordered):
        labels[leaves] = label
    return labels


@st.composite
def dendrograms(draw):
    """Random merge orders over up to 30 leaves with integer heights from a
    small range, so equal heights, zero heights and an all-zero tree occur."""
    n = draw(st.integers(1, 30))
    heights = sorted(draw(st.lists(st.integers(0, 6), min_size=n - 1, max_size=n - 1)))
    active, size, merges = list(range(n)), {i: 1 for i in range(n)}, []
    for s, h in enumerate(heights):
        a = active.pop(draw(st.integers(0, len(active) - 1)))
        b = active.pop(draw(st.integers(0, len(active) - 1)))
        size[n + s] = size[a] + size[b]
        merges.append((min(a, b), max(a, b), h, size[n + s]))
        active.append(n + s)
    return Dendrogram(np.array(merges, dtype=np.float64).reshape(n - 1, 4), n)


class TestCut:
    @settings(max_examples=300, deadline=None)
    @given(dendrograms(), st.data())
    def test_labels_equal_union_find(self, d, data):
        """Cutoffs at a merge's own normalized height, as well as between
        heights, give the oracle's labels exactly."""
        hmax = float(d.heights[-1]) if d.n_leaves > 1 else 0.0
        at_heights = [float(h) / hmax for h in d.heights if h > 0]
        cutoff = data.draw(
            st.floats(1e-3, 1.5) | st.sampled_from(at_heights) if at_heights else st.floats(1e-3, 1.5)
        )
        assert np.array_equal(cut(d, cutoff), union_find_cut(d, cutoff))

    def test_cutoff_above_max_single_cluster(self):
        rng = np.random.default_rng(2)
        d = ward_cluster(rng.normal(size=(8, 2)))
        labels = cut(d, 1.0 + 1e-9)
        assert set(labels.tolist()) == {0}

    def test_just_below_final_merge_two_clusters(self):
        rng = np.random.default_rng(3)
        d = ward_cluster(blob_points(rng))
        last_norm = 1.0
        second_norm = d.merges[-2, 2] / d.merges[-1, 2]
        labels = cut(d, (last_norm + second_norm) / 2)
        assert len(set(labels.tolist())) == 2

    def test_three_blobs_recovered(self):
        rng = np.random.default_rng(4)
        labels = cut(ward_cluster(blob_points(rng)), 0.5)
        assert len(set(labels.tolist())) == 3
        assert len(set(labels[:6].tolist())) == 1
        assert len(set(labels[6:11].tolist())) == 1
        assert len(set(labels[11:].tolist())) == 1

    def test_labels_ordered_by_size(self):
        rng = np.random.default_rng(5)
        labels = cut(ward_cluster(blob_points(rng)), 0.5)
        sizes = np.bincount(labels)
        assert sizes.tolist() == sorted(sizes.tolist(), reverse=True)
        assert sizes.sum() == 15

    def test_partition_is_contiguous(self):
        rng = np.random.default_rng(6)
        labels = cut(ward_cluster(rng.normal(size=(10, 2))), 0.4)
        assert set(labels.tolist()) == set(range(labels.max() + 1))

    def test_nonpositive_cutoff_rejected(self):
        d = ward_cluster(np.array([[0.0], [1.0]]))
        with pytest.raises(InvalidInputError):
            cut(d, 0.0)


class TestCenterTrajectory:
    def test_singleton_is_member(self):
        t = Trajectories(("a",), np.arange(8.0).reshape(1, 4, 2))
        c = center_trajectory(t, [0])
        np.testing.assert_array_equal(c.coords, t.coords)
        assert c.ids == ("0",)

    def test_mirror_pair_cancels(self):
        rng = np.random.default_rng(7)
        coords = rng.normal(size=(5, 2))
        c = center_trajectory(Trajectories(("a", "b"), np.stack([coords, -coords])), [0, 0])
        np.testing.assert_allclose(c.coords, 0.0, atol=1e-15)

    def test_five_member_average(self):
        rng = np.random.default_rng(8)
        members = Trajectories(tuple("abcde"), rng.normal(size=(5, 6, 3)))
        c = center_trajectory(members, np.zeros(5, dtype=int))
        expected = members.coords.mean(axis=0)
        np.testing.assert_allclose(c.coords[0], expected, atol=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(9)
        members = Trajectories(tuple("abcd"), rng.normal(size=(4, 3, 2)))
        a = center_trajectory(members, [0, 0, 0, 0])
        b = center_trajectory(Trajectories(members.ids[::-1], members.coords[::-1]), [0, 0, 0, 0])
        np.testing.assert_array_equal(a.coords, b.coords)

    def test_empty_rejected(self):
        """Every label below the largest must have members."""
        with pytest.raises(InvalidInputError):
            center_trajectory(Trajectories(("a",), np.zeros((1, 3, 2))), [1])


class TestDetectEvents:
    def test_constant_center_degenerate(self):
        scan = detect_events(np.full((50, 2), 1.5), "c")
        assert scan.degenerate
        assert scan.windows == ()

    def test_planted_window_recovered_exactly(self):
        coords = np.zeros((720, 2))
        coords[100:141] = (10.0, 0.0)
        scan = detect_events(coords, "c")
        assert not scan.degenerate
        assert len(scan.windows) == 1
        w = scan.windows[0]
        assert (w.start_hour, w.end_hour) == (100, 140)
        assert w.severity > 0

    def test_one_hour_gap_bridged(self):
        coords = np.zeros((200, 1))
        coords[50:60] = 5.0
        coords[61:70] = 5.0  # hour 60 is quiet
        scan = detect_events(coords, "c")
        assert len(scan.windows) == 1
        assert (scan.windows[0].start_hour, scan.windows[0].end_hour) == (50, 69)

    def test_short_blips_dropped(self):
        coords = np.zeros((200, 1))
        coords[50:52] = 5.0
        scan = detect_events(coords, "c", min_duration=5)
        assert scan.windows == ()

    def test_windows_disjoint_and_sorted(self):
        rng = np.random.default_rng(10)
        coords = rng.normal(scale=0.05, size=(400, 2))
        coords[80:120] += 8.0
        coords[200:260] += 9.0
        scan = detect_events(coords, "c")
        assert len(scan.windows) >= 2
        for w1, w2 in zip(scan.windows, scan.windows[1:]):
            assert w1.end_hour < w2.start_hour

    def test_invalid_controls(self):
        t = np.zeros((10, 1))
        with pytest.raises(InvalidInputError):
            detect_events(t, min_duration=0)
        with pytest.raises(InvalidInputError):
            detect_events(t, gap_hours=-1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 4), st.sampled_from(["normal", "ties", "decades"]),
           st.integers(0, 2**32 - 1))
    def test_median_is_numpys(self, rows, cols, kind, seed):
        """The sort-based median of ``detect_events``, which keeps the
        ``numpy.ma`` import out of the events stage, gives the bytes of
        ``np.median`` along axis 0 and on a 1-D array, for odd and even
        counts, ties, and values spread over hundreds of decades."""
        rng = np.random.default_rng(seed)
        if kind == "normal":
            x = rng.normal(size=(rows, cols))
        elif kind == "ties":
            x = rng.integers(-3, 4, size=(rows, cols)).astype(float)
        else:
            x = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-150, 150, size=(rows, cols))
        assert clustering._median(x).tobytes() == np.median(x, axis=0).tobytes()
        assert clustering._median(x[:, 0]).tobytes() == np.median(x[:, 0]).tobytes()
