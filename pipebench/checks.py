"""Correctness checks on the files a `triscope pipeline` run leaves behind.

Every check recomputes its expectation with numpy from other files of the
same run (or from the input log), or tests a property the method must have.
None compares against a stored copy of earlier output, and none imports
triscope: the program under test is not trusted to check itself.

A check raises ``CheckFailed`` with a message naming the file and the
discrepancy; ``run_checks`` collects the messages of every failing check.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

HOUR = 3600
TOP_K = 5
MIN_JACCARD = 0.5
# outputs are written with 17 significant digits; these tolerances leave
# room for summation order only
RTOL = 1e-9
ATOL = 1e-9


class CheckFailed(Exception):
    """An output of the program is wrong."""


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------


def read_tensor(path: Path) -> np.ndarray:
    tokens = path.read_bytes().split()
    dims = tuple(int(t) for t in tokens[:3])
    return np.array(tokens[3:], dtype=np.float64).reshape(dims)


def read_model(path: Path) -> dict:
    """Parse ``model.txt``: header, dims, fit, then the core and the three
    factor blocks, each an extents line followed by one value per line."""
    lines = path.read_text(encoding="utf-8").split("\n")
    p, q, r = (int(v) for v in lines[1].split())
    out = {"dims": (p, q, r), "fit": float(lines[2].split()[1])}
    pos = 3
    for label in ("core", "factor_a", "factor_b", "factor_c"):
        if lines[pos] != label:
            raise CheckFailed(f"model.txt: expected block {label!r} at line {pos + 1}")
        shape = tuple(int(v) for v in lines[pos + 1].split())
        n = int(np.prod(shape))
        out[label] = np.array(lines[pos + 2 : pos + 2 + n], dtype=np.float64).reshape(shape)
        pos += 2 + n
    return out


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def read_coords(path: Path) -> dict[str, np.ndarray]:
    """``trajectories.csv`` / ``centers.csv`` as id -> (hours x components)."""
    _, rows = read_csv(path)
    out: dict[str, list] = {}
    for row in rows:
        out.setdefault(row[0], []).append((int(row[1]), [float(v) for v in row[2:]]))
    return {k: np.array([c for _, c in sorted(v)]) for k, v in out.items()}


def read_log_counts(path: Path, user_ids: list[str], window_start: int, hours: int) -> np.ndarray:
    """Users x hours message counts of the raw log, duplicates dropped."""
    raw = path.read_bytes().replace(b",", b"\n").split()
    users = np.array(raw[2::2])
    stamps = np.array(raw[3::2], dtype=np.int64)
    names, codes = np.unique(users, return_inverse=True)
    pairs = np.unique(np.stack([codes, stamps]), axis=1)
    index = {n.decode(): i for i, n in enumerate(names)}
    row_of = np.array([index.get(u, -1) for u in user_ids])
    cells = np.bincount(pairs[0] * hours + (pairs[1] - window_start) // HOUR,
                        minlength=names.size * hours).reshape(names.size, hours)
    if (row_of < 0).any():
        raise CheckFailed("tensor_meta.json lists users absent from the log")
    return cells[row_of]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _close(a, b) -> bool:
    return bool(np.allclose(a, b, rtol=RTOL, atol=ATOL))


def check_planted_top(out: Path, truth: dict) -> None:
    _, rows = read_csv(out / "ranking.csv")
    top = {row[1] for row in rows[:TOP_K]}
    missing = sorted(set(truth["anomalous_user_ids"]) - top)
    if missing:
        raise CheckFailed(f"ranking.csv: planted users {missing} not in the top {TOP_K}")


def check_event_found(out: Path, truth: dict) -> None:
    _, rows = read_csv(out / "events.csv")
    for ev in truth["events"]:
        lo, hi = ev["start_hour"], ev["end_hour"]
        best = 0.0
        for row in rows:
            s, e = int(row[1]), int(row[2])
            inter = max(0, min(hi, e) - max(lo, s) + 1)
            union = (hi - lo + 1) + (e - s + 1) - inter
            best = max(best, inter / union)
        if best < MIN_JACCARD:
            raise CheckFailed(f"events.csv: best Jaccard {best:.3f} with planted {lo}..{hi}")


def check_msg_count(out: Path, x: np.ndarray, meta: dict, log: Path) -> None:
    j = meta["feature_names"].index("msg_count")
    sd = meta["scale_sd"][j]
    counts = x[:, j, :] * (sd if sd > 0 else 1.0) + meta["scale_mean"][j]
    expect = read_log_counts(log, meta["user_ids"], meta["window_start"], meta["window_hours"])
    if counts.shape != expect.shape or not np.allclose(counts, expect, rtol=0, atol=1e-6):
        raise CheckFailed("tensor.txt: un-scaled msg_count slab differs from the log's counts")


def check_standardized(x: np.ndarray) -> None:
    mean = x.mean(axis=(0, 2))
    sd = x.std(axis=(0, 2))
    ok = (np.abs(mean) < 1e-9) & ((np.abs(sd - 1.0) < 1e-9) | (sd == 0.0))
    if not ok.all():
        bad = np.flatnonzero(~ok).tolist()
        raise CheckFailed(f"tensor.txt: feature slabs {bad} are not mean 0 / SD 1")


def check_orthonormal(model: dict) -> None:
    for name in ("factor_a", "factor_b", "factor_c"):
        f = model[name]
        if not np.allclose(f.T @ f, np.eye(f.shape[1]), rtol=0, atol=1e-8):
            raise CheckFailed(f"model.txt: {name} is not orthonormal")


def check_fit(out: Path, x: np.ndarray, model: dict) -> None:
    xhat = np.einsum("pqr,ip,jq,kr->ijk", model["core"], model["factor_a"],
                     model["factor_b"], model["factor_c"])
    fit = 100.0 * (1.0 - ((x - xhat) ** 2).sum() / (x**2).sum())
    if abs(fit - model["fit"]) > 1e-6:
        raise CheckFailed(f"model.txt: fit {model['fit']} but the factors reproduce {fit}")
    _, rows = read_csv(out / "scree.csv")
    chosen = [row for row in rows if row[4] == "1"]
    if len(chosen) != 1:
        raise CheckFailed(f"scree.csv: {len(chosen)} selected rows")
    if tuple(int(v) for v in chosen[0][:3]) != model["dims"] or abs(float(chosen[0][3]) - fit) > 1e-6:
        raise CheckFailed("scree.csv: selected row disagrees with model.txt")


def check_ranking(out: Path, model: dict, meta: dict) -> None:
    _, rows = read_csv(out / "ranking.csv")
    norms = dict(zip(meta["user_ids"], np.linalg.norm(model["factor_a"], axis=1)))
    if sorted(row[1] for row in rows) != sorted(norms):
        raise CheckFailed("ranking.csv: user ids differ from tensor_meta.json")
    if [int(row[0]) for row in rows] != list(range(1, len(rows) + 1)):
        raise CheckFailed("ranking.csv: ranks are not 1..n")
    dist = np.array([float(row[2]) for row in rows])
    if not _close(dist, [norms[row[1]] for row in rows]):
        raise CheckFailed("ranking.csv: distances differ from the row norms of factor A")
    if (np.diff(dist) > 0).any():
        raise CheckFailed("ranking.csv: distances are not non-increasing")


def check_trajectories(out: Path, x: np.ndarray, model: dict, meta: dict) -> dict:
    trj = read_coords(out / "trajectories.csv")
    if set(trj) != set(meta["user_ids"]):
        raise CheckFailed("trajectories.csv: user ids differ from tensor_meta.json")
    got = np.stack([trj[u] for u in meta["user_ids"]])
    expect = np.einsum("ujt,jq->utq", x, model["factor_b"])
    if got.shape != expect.shape or not _close(got, expect):
        raise CheckFailed("trajectories.csv: coordinates differ from X[u,:,t] . B")
    return trj


def check_centers(out: Path, trj: dict) -> None:
    _, rows = read_csv(out / "clusters.csv")
    centers = read_coords(out / "centers.csv")
    members: dict[str, list[str]] = {}
    for uid, lab in rows:
        members.setdefault(lab, []).append(uid)
    if set(members) != set(centers):
        raise CheckFailed("centers.csv: clusters differ from clusters.csv")
    for lab, uids in members.items():
        mean = np.mean([trj[u] for u in uids], axis=0)
        if not _close(centers[lab], mean):
            raise CheckFailed(f"centers.csv: center {lab} is not the mean of its members")


def check_anova(out: Path) -> None:
    rep = json.loads((out / "anova.json").read_text(encoding="utf-8"))
    total = sum(rep["main_effect_pct"]) + sum(rep["two_way_pct"]) + rep["three_way_pct"]
    if abs(total - 100.0) > 1e-6:
        raise CheckFailed(f"anova.json: percentages sum to {total}")


def run_checks(out: Path, log: Path, truth: dict) -> list[str]:
    """Every check on a finished pipeline's ``out`` directory; returns the
    failure messages (empty when all pass)."""
    failures: list[str] = []

    def attempt(fn, *args):
        try:
            return fn(*args)
        except CheckFailed as exc:
            failures.append(str(exc))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failures.append(f"{fn.__name__}: unreadable output: {exc!r}")
        return None

    meta = attempt(lambda: json.loads((out / "tensor_meta.json").read_text(encoding="utf-8")))
    x = attempt(read_tensor, out / "tensor.txt")
    model = attempt(read_model, out / "model.txt")
    attempt(check_planted_top, out, truth)
    attempt(check_event_found, out, truth)
    attempt(check_anova, out)
    if x is not None:
        attempt(check_standardized, x)
    if model is not None:
        attempt(check_orthonormal, model)
    if x is not None and model is not None:
        attempt(check_fit, out, x, model)
    if meta is not None:
        if x is not None:
            attempt(check_msg_count, out, x, meta, log)
        if model is not None:
            attempt(check_ranking, out, model, meta)
        if x is not None and model is not None:
            trj = attempt(check_trajectories, out, x, model, meta)
            if trj is not None:
                attempt(check_centers, out, trj)
    return failures


def run_retune_checks(out: Path) -> list[str]:
    """Checks on the files `cluster` and `events` rewrite: the new centers
    are the means of the new clusters' members, and events.csv parses."""
    try:
        trj = read_coords(out / "trajectories.csv")
        check_centers(out, trj)
        header, rows = read_csv(out / "events.csv")
        if header != ["cluster", "start_hour", "end_hour", "severity"]:
            raise CheckFailed("events.csv: unexpected header")
        for row in rows:
            if not 0 <= int(row[1]) <= int(row[2]):
                raise CheckFailed(f"events.csv: bad window {row}")
    except CheckFailed as exc:
        return [str(exc)]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"retune outputs unreadable: {exc!r}"]
    return []


def tree_digest(out: Path) -> str:
    """SHA-256 over every file name and content under ``out``."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
