"""Log parsing, hourly inter-arrival splitting and tensor assembly."""

import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triscope import (
    FEATURE_NAMES,
    FeatureTensor,
    HmmConfig,
    HourlyDeltas,
    InvalidInputError,
    SynthConfig,
    baum_welch,
    build_feature_tensor,
    compute_deltas,
    extract_features,
    generate,
    hour_summary_features,
    parse_log,
    preprocess,
)
from triscope.ingest import PROV_FALLBACK, PROV_HOUR, PROV_ZERO


# log lines of a user id and a timestamp that may not be an int64 or a number
RECORDS = st.lists(
    st.tuples(st.text(max_size=4), st.one_of(st.integers(-(2**70), 2**70), st.text(max_size=6))),
    max_size=6,
).map(lambda rows: "".join(f"{u},{t}\n" for u, t in rows))


def log_from(text, **kw):
    return parse_log(io.StringIO(text), **kw)


class TestParseLog:
    def test_empty_file(self):
        log = log_from("user_id,timestamp\n", window_hours=24)
        assert log.n_records == 0
        assert log.window_start == 0

    def test_hand_fixture(self):
        text = "user_id,timestamp\nb,7200\na,100\nb,3700\na,50\n"
        log = log_from(text, window_start=0, window_hours=3)
        assert log.users.tolist() == ["a", "a", "b", "b"]
        assert log.timestamps.tolist() == [50, 100, 3700, 7200]

    def test_duplicate_line_removed(self):
        text = "user_id,timestamp\na,100\na,100\na,200\n"
        log = log_from(text, window_start=0, window_hours=1)
        assert log.timestamps.tolist() == [100, 200]

    def test_malformed_line_carries_number(self):
        text = "user_id,timestamp\na,100\nbroken line\n"
        with pytest.raises(InvalidInputError, match="line 3"):
            log_from(text, window_start=0, window_hours=1)

    def test_non_integer_timestamp(self):
        with pytest.raises(InvalidInputError, match="line 2"):
            log_from("user_id,timestamp\na,12.5\n", window_start=0, window_hours=1)

    def test_bad_header(self):
        with pytest.raises(InvalidInputError, match="line 1"):
            log_from("uid,ts\na,1\n", window_hours=1)

    def test_out_of_window_lists_offenders(self):
        text = "user_id,timestamp\na,100\na,99999\n"
        with pytest.raises(InvalidInputError, match="lines 3"):
            log_from(text, window_start=0, window_hours=1)

    def test_out_of_window_line_counts_blank_lines(self):
        text = "user_id,timestamp\n\n\nu1,0\nu2,99999999\n"
        with pytest.raises(InvalidInputError, match="lines 5$"):
            log_from(text, window_hours=2)

    def test_timestamp_beyond_int64_carries_number(self):
        text = "user_id,timestamp\nu1,0\n\nu2,-99999999999999999999999\n"
        with pytest.raises(InvalidInputError, match="line 4"):
            log_from(text, window_hours=2)

    def test_invalid_utf8_carries_number(self, tmp_path):
        data = b"user_id,timestamp\r\nu1,0\r\n" + b"u1,1\n" * 5000 + b"u1,\xff0\r\n"
        path = tmp_path / "log.csv"
        path.write_bytes(data)
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        for source in (io.BytesIO(data), path, text):
            with pytest.raises(InvalidInputError, match="line 5003: not valid UTF-8"):
                parse_log(source, window_hours=2)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.text(), st.binary(), RECORDS), st.integers(1, 10**6))
    def test_any_body_parses_or_raises_invalid_input(self, body, window_hours):
        """Whatever follows a valid header, parsing either succeeds or
        raises InvalidInputError, never another exception."""
        if isinstance(body, str):
            body = body.encode("utf-8", "surrogatepass")
        try:
            log = parse_log(io.BytesIO(b"user_id,timestamp\n" + body), window_hours=window_hours)
        except InvalidInputError:
            return
        assert log.n_records == log.users.size

    def test_window_start_derived_from_earliest(self):
        log = log_from("user_id,timestamp\na,7523\na,8000\n", window_hours=2)
        assert log.window_start == 7200

    def test_byte_stream_accepted(self):
        log = parse_log(io.BytesIO(b"user_id,timestamp\na,5\n"), window_start=0, window_hours=1)
        assert log.n_records == 1


DELTA_HOURS = 4
# up to five users, each with 1-12 messages; half of the draws land in the
# last hour
LOGS = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d", "e"]),
    st.lists(st.one_of(st.integers(0, DELTA_HOURS * 3600 - 1),
                       st.integers((DELTA_HOURS - 1) * 3600, DELTA_HOURS * 3600 - 1)),
             min_size=1, max_size=12),
    max_size=5,
)


def deltas_by_user_loop(log):
    """:func:`compute_deltas` as a walk over the records, one user at a
    time: (user ids, per-user tuples of per-hour arrays, counts)."""
    h = log.window_hours
    empty = np.empty(0)
    user_ids, all_deltas, counts_rows = [], [], []
    n = log.n_records
    start = 0
    while start < n:
        uid = log.users[start]
        stop = start
        while stop < n and log.users[stop] == uid:
            stop += 1
        ts = log.timestamps[start:stop].astype(np.int64)
        hours = (ts - log.window_start) // 3600
        counts_rows.append(np.bincount(hours, minlength=h).astype(np.int64))
        per_hour = [empty] * h
        if ts.size > 1:
            dt = np.diff(ts).astype(np.float64)
            bounds = np.searchsorted(hours[1:], np.arange(h + 1))
            per_hour = [dt[bounds[i] : bounds[i + 1]] for i in range(h)]
        user_ids.append(str(uid))
        all_deltas.append(tuple(per_hour))
        start = stop
    counts = np.vstack(counts_rows) if counts_rows else np.zeros((0, h), dtype=np.int64)
    return tuple(user_ids), all_deltas, counts


class TestComputeDeltas:
    def test_single_message_has_no_deltas(self):
        log = log_from("user_id,timestamp\na,100\n", window_start=0, window_hours=2)
        hd = compute_deltas(log)
        assert all(hd.deltas(0, h).size == 0 for h in range(2))
        assert hd.counts[0].tolist() == [1, 0]

    def test_hand_computed_assignment(self):
        """0 -> 100 lands in hour 0; 100 -> 4000 lands in hour 1."""
        log = log_from("user_id,timestamp\na,0\na,100\na,4000\n", window_start=0, window_hours=2)
        hd = compute_deltas(log)
        assert hd.deltas(0, 0).tolist() == [100.0]
        assert hd.deltas(0, 1).tolist() == [3900.0]
        assert hd.counts[0].tolist() == [2, 1]

    def test_users_never_mix(self):
        text = "user_id,timestamp\na,0\nb,10\na,100\nb,20\n"
        log = log_from(text, window_start=0, window_hours=1)
        hd = compute_deltas(log)
        assert hd.user_ids == ("a", "b")
        assert hd.deltas(0, 0).tolist() == [100.0]
        assert hd.deltas(1, 0).tolist() == [10.0]

    def test_window_series_matches_diff(self):
        rng = np.random.default_rng(0)
        ts = np.unique(rng.integers(0, 4 * 3600, size=50))
        text = "user_id,timestamp\n" + "".join(f"u,{t}\n" for t in ts)
        hd = compute_deltas(log_from(text, window_start=0, window_hours=4))
        np.testing.assert_array_equal(hd.window_series(0), np.diff(ts).astype(float))

    @settings(max_examples=100, deadline=None)
    @given(LOGS)
    @example({})
    @example({"a": [7], "b": [0, DELTA_HOURS * 3600 - 1], "c": [DELTA_HOURS * 3600 - 1]})
    def test_matches_per_user_loop(self, users):
        """The flat layout against a per-user loop over the log, bit for
        bit, on logs with no users, single-message users and messages in
        the last hour."""
        lines = "".join(f"{u},{t}\n" for u, ts in users.items() for t in ts)
        log = log_from("user_id,timestamp\n" + lines, window_start=0, window_hours=DELTA_HOURS)
        hd = compute_deltas(log)
        user_ids, deltas, counts = deltas_by_user_loop(log)
        assert hd.user_ids == user_ids
        assert not (hd.dt.flags.writeable or hd.bounds.flags.writeable)
        assert hd.counts.dtype == counts.dtype and np.array_equal(hd.counts, counts)
        for u, uid in enumerate(user_ids):
            for h in range(DELTA_HOURS):
                got = hd.deltas(u, h)
                assert got.dtype == np.float64 and got.tobytes() == deltas[u][h].tobytes()
            ts = np.unique(users[uid])
            assert hd.window_series(u).tobytes() == np.diff(ts).astype(np.float64).tobytes()


class TestHourSummaryFeatures:
    def test_empty_hour(self):
        np.testing.assert_array_equal(hour_summary_features([], 0), [0, 0, 0, 0])

    def test_singleton_reports_zeros(self):
        np.testing.assert_array_equal(hour_summary_features([42.0], 2), [0, 0, 0, 2])

    def test_equal_deltas(self):
        out = hour_summary_features([30.0, 30.0, 30.0], 4)
        np.testing.assert_allclose(out, [30.0, 0.0, 0.0, 4.0])

    def test_two_bin_example(self):
        out = hour_summary_features([10.0, 1000.0], 3)
        np.testing.assert_allclose(out, [505.0, 245025.0, np.log(2.0), 3.0], rtol=1e-12)

    def test_under_and_overflow_bins(self):
        # 0.5 s and 5000 s sit outside [1, 3600] but still occupy two bins
        out = hour_summary_features([0.5, 5000.0], 2)
        np.testing.assert_allclose(out[2], np.log(2.0), rtol=1e-12)


def dense_hourly(seed=0):
    """One user with a dense hour 1 and two values in hour 3, plus a
    silent user, over 4 hours."""
    rng = np.random.default_rng(seed)
    dt = np.concatenate([rng.exponential(120.0, size=20), [100.0, 200.0]])
    bounds = np.array([[0, 0, 20, 20, 22], [22, 22, 22, 22, 22]])
    counts = np.zeros((2, 4), dtype=np.int64)
    counts[0, 1] = 21
    counts[0, 3] = 2
    return HourlyDeltas(("active", "silent"), 4, dt, bounds, counts)


class TestBuildFeatureTensor:
    def test_shape_and_names(self):
        ft = build_feature_tensor(dense_hourly())
        assert ft.tensor.shape == (2, 10, 4)
        assert ft.feature_names == FEATURE_NAMES

    def test_silent_user_all_zero(self):
        ft = build_feature_tensor(dense_hourly())
        assert not ft.tensor[1].any()
        assert np.all(ft.provenance[1] == PROV_ZERO)

    def test_dense_hour_matches_direct_fit(self):
        hd = dense_hourly(seed=3)
        cfg = HmmConfig()
        ft = build_feature_tensor(hd, cfg)
        assert ft.provenance[0, 1] == PROV_HOUR
        direct = baum_welch(hd.deltas(0, 1), tol=cfg.tol, max_iter=cfg.max_iter)
        np.testing.assert_array_equal(ft.tensor[0, :6, 1], extract_features(direct))

    def test_sparse_hours_use_window_fallback(self):
        hd = dense_hourly()
        ft = build_feature_tensor(hd)
        assert ft.provenance[0, 0] == PROV_FALLBACK
        assert ft.provenance[0, 3] == PROV_FALLBACK
        # fallback features are identical across sparse hours of the user
        np.testing.assert_array_equal(ft.tensor[0, :6, 0], ft.tensor[0, :6, 3])

    def test_count_feature_totals_messages(self):
        hd = dense_hourly()
        ft = build_feature_tensor(hd)
        count_idx = FEATURE_NAMES.index("msg_count")
        np.testing.assert_array_equal(
            ft.tensor[:, count_idx, :].sum(axis=1), hd.counts.sum(axis=1).astype(float)
        )

    def test_summary_block_matches_per_hour_function(self):
        """Features 6-9, computed for all user-hours at once, against
        :func:`hour_summary_features` cell by cell: counts exact, the rest
        to 1e-12."""
        log, _ = generate(SynthConfig(n_users=12, window_hours=24, base_rate=3.0,
                                      burst_rate=40.0, persistent_anomalous=(4,), seed=2))
        hd = compute_deltas(log)
        ft = build_feature_tensor(hd)
        expect = np.array([
            [hour_summary_features(hd.deltas(u, h), int(hd.counts[u, h])) for h in range(24)]
            for u in range(len(hd.user_ids))
        ]).transpose(0, 2, 1)
        assert (hd.counts >= 3).any() and (hd.counts < 2).any()
        np.testing.assert_array_equal(ft.tensor[:, 9], expect[:, 3])
        np.testing.assert_allclose(ft.tensor[:, 6:9], expect[:, :3], rtol=1e-12, atol=0)

    def test_counts_fits_stopped_at_max_iter(self):
        hd = dense_hourly(seed=3)
        assert build_feature_tensor(hd).hmm_fits_at_max_iter == 0
        ft = build_feature_tensor(hd, HmmConfig(max_iter=1))
        assert ft.hmm_fits == 2  # the dense hour and the window fallback
        assert ft.hmm_fits_at_max_iter == 2

    def test_deterministic(self):
        a = build_feature_tensor(dense_hourly())
        b = build_feature_tensor(dense_hourly())
        np.testing.assert_array_equal(a.tensor, b.tensor)

    def test_hour_shift_moves_feature_slabs(self):
        """Shifting all timestamps by a whole hour shifts the slabs exactly."""
        rng = np.random.default_rng(9)
        ts = np.sort(rng.integers(0, 2 * 3600, size=30))
        ts = np.unique(ts)
        text = "user_id,timestamp\n" + "".join(f"u,{t}\n" for t in ts)
        shifted = "user_id,timestamp\n" + "".join(f"u,{t + 3600}\n" for t in ts)
        cfg = HmmConfig()
        base = build_feature_tensor(
            compute_deltas(log_from(text, window_start=0, window_hours=3)), cfg
        )
        moved = build_feature_tensor(
            compute_deltas(log_from(shifted, window_start=0, window_hours=3)), cfg
        )
        np.testing.assert_array_equal(moved.tensor[0, :, 1:3], base.tensor[0, :, 0:2])
        np.testing.assert_array_equal(moved.provenance[0, 1:3], base.provenance[0, 0:2])
        # the emptied leading hour gets the whole-window fallback for the
        # HMM features and zeros for the summary block
        assert moved.provenance[0, 0] == PROV_FALLBACK
        assert not moved.tensor[0, 6:, 0].any()


HOURS = 3
# one user's messages, as second offsets into a 3-hour window: up to 40 of
# them, so some hours get their own HMM fit and others the window fallback
STAMPS = st.lists(st.integers(0, HOURS * 3600 - 1), min_size=1, max_size=40)
# ids on both sides of "m" in sort order, so adding users moves m's index
USERS = st.dictionaries(st.sampled_from(["a", "b", "n", "y", "z"]), STAMPS, min_size=1, max_size=4)


def raw_features(users, **window):
    lines = [f"{u},{t}\n" for u, ts in users.items() for t in ts]
    return features_of(lines, **window)


def features_of(lines, **window):
    log = log_from("user_id,timestamp\n" + "".join(lines), window_hours=HOURS, **window)
    return build_feature_tensor(compute_deltas(log))


class TestFeatureInvariance:
    """A user's raw features depend only on that user's messages."""

    @settings(max_examples=40, deadline=None)
    @given(STAMPS, USERS)
    def test_other_users_do_not_matter(self, mine, others):
        alone = raw_features({"m": mine}, window_start=0)
        crowd = raw_features({"m": mine, **others}, window_start=0)
        u = crowd.user_ids.index("m")
        np.testing.assert_array_equal(crowd.tensor[u], alone.tensor[0])
        np.testing.assert_array_equal(crowd.provenance[u], alone.provenance[0])

    @settings(max_examples=40, deadline=None)
    @given(USERS, st.randoms(use_true_random=False))
    def test_line_order_and_duplicates_do_not_matter(self, users, rnd):
        lines = [f"{u},{t}\n" for u, ts in users.items() for t in ts]
        noisy = lines + rnd.sample(lines, rnd.randint(0, len(lines)))
        rnd.shuffle(noisy)
        base, got = features_of(lines), features_of(noisy)
        assert got.user_ids == base.user_ids
        np.testing.assert_array_equal(got.tensor, base.tensor)
        np.testing.assert_array_equal(got.provenance, base.provenance)

    @settings(max_examples=40, deadline=None)
    @given(USERS, st.integers(1, 500_000))
    def test_whole_hour_shift_does_not_matter(self, users, hours):
        """With the default window start, which follows the earliest message."""
        base = raw_features(users)
        moved = raw_features({u: [t + 3600 * hours for t in ts] for u, ts in users.items()})
        np.testing.assert_array_equal(moved.tensor, base.tensor)
        np.testing.assert_array_equal(moved.provenance, base.provenance)


class TestPreprocess:
    def test_moments_after_scaling(self):
        rng = np.random.default_rng(1)
        raw = rng.normal(5.0, 3.0, size=(4, 10, 6))
        ft = preprocess(FeatureTensor(raw, ("a", "b", "c", "d")))
        np.testing.assert_allclose(ft.tensor.mean(axis=(0, 2)), 0.0, atol=1e-10)
        np.testing.assert_allclose(ft.tensor.std(axis=(0, 2)), 1.0, atol=1e-10)

    def test_constant_feature_centered_only(self):
        raw = np.zeros((2, 10, 3))
        raw[:, 4, :] = 7.0
        ft = preprocess(FeatureTensor(raw, ("a", "b")))
        assert not ft.tensor[:, 4, :].any()
        assert ft.scale_sd[4] == 0.0

    def test_idempotent_on_standardized_input(self):
        rng = np.random.default_rng(2)
        ft = preprocess(FeatureTensor(rng.normal(size=(5, 10, 7)), tuple("abcde")))
        again = preprocess(ft)
        np.testing.assert_allclose(again.tensor, ft.tensor, atol=1e-12)

    def test_invertible(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(2.0, 5.0, size=(3, 10, 4))
        ft = preprocess(FeatureTensor(raw, ("a", "b", "c")))
        scale = np.where(ft.scale_sd > 0, ft.scale_sd, 1.0)
        restored = ft.tensor * scale[None, :, None] + ft.scale_mean[None, :, None]
        np.testing.assert_allclose(restored, raw, atol=1e-10)
