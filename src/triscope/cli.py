"""Command-line pipeline: ingest -> decompose -> rank -> trajectories ->
cluster -> events, plus the synthetic-log generator.

Every stage persists its result as text (CSV / JSON / the tensor and model
formats), so stages compose across processes and any stage can be re-run
from the previous stage's files. ``pipeline`` hands each stage's arrays to
the next in memory and writes every file once; only the single-stage
commands read intermediates back, through the same stage functions. All
outputs are byte-deterministic for a fixed config (the synth seed included).

Exit codes: 0 ok, 2 config/usage, 3 ingest, 4 decomposition (incl. rank and
trajectories, which consume the model), 5 clustering/events, 6 I/O (missing
intermediates, unwritable outputs).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .anomaly import user_scores
from .clustering import center_trajectory, cut, detect_events, ward_cluster
from .errors import DegenerateInputError, InvalidInputError, NumericalError, TriscopeError
from .ingest import (
    FeatureTensor,
    HmmConfig,
    build_feature_tensor,
    compute_deltas,
    parse_log,
    preprocess,
    write_log,
)
from .synth import RNG_NAME, EventSpec, GroundTruth, SynthConfig, generate
from .tensor import read_tensor_text, write_tensor_text
from .trajectory import Trajectories, build_trajectories
# ``hooi`` is not called here; pipebench/tracer.py wraps ``cli.hooi``, so the
# name stays importable from this module
from .tucker import TuckerModel, anova_interaction, hooi, load_model, save_model, scree_select  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INGEST = 3
EXIT_DECOMPOSITION = 4
EXIT_CLUSTERING = 5
EXIT_IO = 6

_STAGE_EXIT = {
    "synth": EXIT_CONFIG,
    "ingest": EXIT_INGEST,
    "decompose": EXIT_DECOMPOSITION,
    "rank": EXIT_DECOMPOSITION,
    "trajectories": EXIT_DECOMPOSITION,
    "cluster": EXIT_CLUSTERING,
    "events": EXIT_CLUSTERING,
}


class StageError(Exception):
    """Wraps a stage failure with its exit code."""

    def __init__(self, stage: str, message: str, code: int):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
        self.code = code


@dataclass(frozen=True)
class PipelineConfig:
    log: str | None = None
    out_dir: str = "out"
    window_start: int | None = None
    window_hours: int = 720
    min_obs: int = 6
    hmm_tol: float = 1e-6
    hmm_max_iter: int = 200
    max_p: int = 3
    max_q: int = 3
    max_r: int = 3
    sweep_budget: int = 27
    tucker_tol: float = 1e-6
    tucker_max_iter: int = 50
    n_components: int | None = None
    cutoff: float = 0.7
    k_mad: float = 3.0
    min_duration: int = 5
    gap_hours: int = 2


def parse_window_start(value) -> int | None:
    """Accept integer Unix seconds or an ISO-8601 instant (UTC assumed)."""
    if value is None:
        return None
    if isinstance(value, int):
        return value
    text = str(value).strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(text)
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse window start {value!r}: {exc}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _fr(x) -> str:
    """Deterministic shortest-roundtrip float formatting."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# config assembly
# ---------------------------------------------------------------------------


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise InvalidInputError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInputError(f"config file {p} must hold a JSON object")
    return data


# JSON types a config-file value may take, by the base type of its field;
# window_start also takes an ISO-8601 string, null passes only where the
# default is None, and a tuple field takes a list of its item type
_FILE_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "EventSpec": (dict,)}
# config-file keys spelled apart from their field
_FILE_KEYS = {"event_specs": "events"}


def _check_file_types(data, cls=PipelineConfig, where="config") -> None:
    """Check a config-file object against the fields of ``cls``: no
    unknown key, every value of its field's JSON type, and every field of
    an event entry given."""
    if not isinstance(data, dict):
        raise InvalidInputError(f"{where} must be a JSON object, got {data!r}")
    keys = {_FILE_KEYS.get(f.name, f.name): f for f in fields(cls)}
    unknown = set(data) - set(keys)
    missing = set(keys) - set(data) if cls is EventSpec else set()
    if unknown or missing:
        raise InvalidInputError(f"{where}: unknown keys {sorted(unknown)}, missing keys {sorted(missing)}")
    for key, f in keys.items():
        if key not in data or (data[key] is None and f.default is None):
            continue
        base = f.type.split(" |")[0]
        values = data[key]
        if base.startswith("tuple["):
            if not isinstance(values, list):
                raise InvalidInputError(f"{where} key {key!r} must be a list, got {values!r}")
            base = base[len("tuple["):-len(", ...]")]
        else:
            values = [values]
        allowed = (int, str) if (cls, key) == (PipelineConfig, "window_start") else _FILE_TYPES[base]
        for value in values:
            if isinstance(value, bool) or not isinstance(value, allowed):
                kinds = " or ".join(t.__name__ for t in allowed)
                raise InvalidInputError(f"{where} key {key!r} must be {kinds}, got {value!r}")
            if base == "EventSpec":
                _check_file_types(value, EventSpec, f"{where} key {key!r} entry")


# the least value of each integer setting; min_obs needs two observations
# per HMM state, and n_components may be None (all components)
_AT_LEAST = {
    "window_hours": 1, "min_obs": 4, "hmm_max_iter": 1, "max_p": 1, "max_q": 1, "max_r": 1,
    "sweep_budget": 1, "tucker_max_iter": 1, "n_components": 1, "min_duration": 1, "gap_hours": 0,
}


def build_pipeline_config(args: argparse.Namespace) -> tuple[PipelineConfig, dict | None]:
    """Merge defaults < config file < CLI flags; returns (config, synth section)."""
    data = _load_config_file(getattr(args, "config", None))
    synth_section = data.pop("synth", None)

    _check_file_types(data)
    known = {f.name for f in fields(PipelineConfig)}
    cfg = PipelineConfig(**data)

    overrides = {}
    for name in known:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if "window_start" in overrides or cfg.window_start is not None:
        ws = overrides.get("window_start", cfg.window_start)
        overrides["window_start"] = parse_window_start(ws)
    cfg = replace(cfg, **overrides)

    for name, least in _AT_LEAST.items():
        value = getattr(cfg, name)
        if value is not None and value < least:
            raise InvalidInputError(f"{name} must be >= {least}, got {value}")
    for name in ("hmm_tol", "tucker_tol", "cutoff"):
        if not getattr(cfg, name) > 0:
            raise InvalidInputError(f"{name} must be positive, got {getattr(cfg, name)}")
    return cfg, synth_section


def build_synth_config(args: argparse.Namespace, section: dict | None) -> SynthConfig:
    _check_file_types({} if section is None else section, SynthConfig, "config 'synth'")
    data = dict(section or {})
    events = data.pop("events", None)
    if events is not None:
        data["event_specs"] = tuple(
            EventSpec(e["start_hour"], e["end_hour"], float(e["affected_fraction"])) for e in events
        )
    if "persistent_anomalous" in data:
        data["persistent_anomalous"] = tuple(data["persistent_anomalous"])

    if getattr(args, "users", None) is not None:
        data["n_users"] = args.users
    if getattr(args, "hours", None) is not None:
        data["window_hours"] = args.hours
    if getattr(args, "base_rate", None) is not None:
        data["base_rate"] = args.base_rate
    if getattr(args, "burst_rate", None) is not None:
        data["burst_rate"] = args.burst_rate
    if getattr(args, "anomalous", None):
        data["persistent_anomalous"] = tuple(
            int(tok) for tok in args.anomalous.split(",") if tok.strip() != ""
        )
    if getattr(args, "event", None):
        specs = []
        for text in args.event:
            parts = text.split(":")
            if len(parts) != 3:
                raise InvalidInputError(f"event spec must be start:end:fraction, got {text!r}")
            specs.append(EventSpec(int(parts[0]), int(parts[1]), float(parts[2])))
        data["event_specs"] = tuple(specs)
    if getattr(args, "seed", None) is not None:
        data["seed"] = args.seed
    if "n_users" not in data:
        raise InvalidInputError("synth needs --users or a config 'synth' section with n_users")
    return SynthConfig(**data)


# ---------------------------------------------------------------------------
# stage I/O helpers
# ---------------------------------------------------------------------------


def _out(cfg: PipelineConfig) -> Path:
    p = Path(cfg.out_dir)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _need(path: Path, stage: str) -> Path:
    if not path.exists():
        raise StageError(stage, f"required intermediate missing: {path}", EXIT_IO)
    return path


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _read_meta(out_dir: Path, stage: str) -> dict:
    path = _need(out_dir / "tensor_meta.json", stage)
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path} line {exc.lineno}: not valid JSON: {exc.msg}") from exc
    if not isinstance(meta, dict) or not {"user_ids", "feature_names"} <= meta.keys():
        raise InvalidInputError(f"{path} must hold an object with user_ids and feature_names")
    return meta


def _write_trajectories(path: Path, id_column: str, trajectories: Trajectories) -> None:
    _, hours, q = trajectories.coords.shape
    rows = trajectories.coords.reshape(-1, q).tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"{id_column},t," + ",".join(f"c{i + 1}" for i in range(q)) + "\n")
        for (item, t), row in zip(product(trajectories.ids, range(hours)), rows):
            f.write(f"{item},{t}," + ",".join(map(repr, row)) + "\n")


def _load_trajectories(path: Path) -> Trajectories:
    """Rows may come in any order; each id needs every hour 0..K-1 exactly
    once, the same K for every id. Items keep the order in which their ids
    first appear."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",") if lines else []
    if len(header) < 3 or header[1] != "t" or header[2] != "c1":
        raise InvalidInputError(f"{path} is not a trajectories CSV")
    first_seen: dict[str, int] = {}
    items, hours, values = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(header):
            raise InvalidInputError(f"{path} line {lineno}: expected {len(header)} fields, got {len(parts)}")
        try:
            hours.append(int(parts[1]))
            values.append([float(v) for v in parts[2:]])
        except ValueError as exc:
            raise InvalidInputError(f"{path} line {lineno}: {exc}") from exc
        items.append(first_seen.setdefault(parts[0], len(first_seen)))
    n = len(first_seen)
    k = len(hours) // max(n, 1)
    order = np.lexsort((hours, items))
    # sorted by (item, hour), block i of k rows must be item i's hours 0..k-1
    if n == 0 or n * k != len(hours) or (np.array(hours)[order].reshape(n, k) != np.arange(k)).any():
        raise InvalidInputError(f"{path}: every id needs the hours 0..K-1 once each, the same K for all")
    return Trajectories(tuple(first_seen), np.array(values)[order].reshape(n, k, -1))


def _load_inputs(stage: str, out: Path) -> tuple:
    """Read a stage's inputs back from the files earlier stages left in
    ``out``; ``pipeline`` hands them over in memory instead. A malformed
    file fails naming itself."""

    def read(reader, name: str):  # these readers take streams too, so their errors name no file
        path = _need(out / name, stage)
        try:
            return reader(path)
        except TriscopeError as exc:
            raise type(exc)(f"{path}: {exc}") from exc

    if stage == "decompose":
        return (read(read_tensor_text, "tensor.txt"),)
    if stage == "rank":
        model = read(load_model, "model.txt")
        return model, _read_meta(out, stage)["user_ids"]
    if stage == "trajectories":
        x = read(read_tensor_text, "tensor.txt")
        model = read(load_model, "model.txt")
        meta = _read_meta(out, stage)
        return FeatureTensor(x, tuple(meta["user_ids"]), tuple(meta["feature_names"])), model
    if stage == "cluster":
        return (_load_trajectories(_need(out / "trajectories.csv", stage)),)
    if stage == "events":
        path = _need(out / "centers.csv", stage)
        centers = _load_trajectories(path)
        bad = [cid for cid in centers.ids if not cid.isdecimal()]
        if bad:
            raise InvalidInputError(f"{path}: cluster id {bad[0]!r} is not a non-negative integer")
        return (centers,)
    return ()


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def stage_synth(cfg: PipelineConfig, synth_cfg: SynthConfig) -> GroundTruth:
    out = _out(cfg)
    log, truth = generate(synth_cfg)
    write_log(log, out / "log.csv")
    _write_json(
        out / "ground_truth.json",
        {
            "anomalous_user_ids": list(truth.anomalous_user_ids),
            "events": [dict(e) for e in truth.events],
            "rng": RNG_NAME,
            "seed": synth_cfg.seed,
        },
    )
    return truth


def stage_ingest(cfg: PipelineConfig) -> FeatureTensor:
    out = _out(cfg)
    log_path = cfg.log if cfg.log is not None else str(out / "log.csv")
    if not Path(log_path).exists():
        raise StageError("ingest", f"input log not found: {log_path}", EXIT_IO)
    log = parse_log(log_path, cfg.window_start, cfg.window_hours)
    hourly = compute_deltas(log)
    hmm = HmmConfig(min_obs=cfg.min_obs, tol=cfg.hmm_tol, max_iter=cfg.hmm_max_iter)
    ft = build_feature_tensor(hourly, hmm)
    print(
        f"ingest: {ft.hmm_fits_at_max_iter} of {ft.hmm_fits} HMM fits reached "
        f"max_iter={cfg.hmm_max_iter}",
        file=sys.stderr,
    )
    ft = preprocess(ft)
    write_tensor_text(ft.tensor, out / "tensor.txt")
    prov = ft.provenance
    _write_json(
        out / "tensor_meta.json",
        {
            "user_ids": list(ft.user_ids),
            "feature_names": list(ft.feature_names),
            "window_start": int(log.window_start),
            "window_hours": int(log.window_hours),
            "scale_mean": [float(v) for v in ft.scale_mean],
            "scale_sd": [float(v) for v in ft.scale_sd],
            "provenance_counts": {
                "hour_fit": int((prov == 2).sum()),
                "fallback": int((prov == 1).sum()),
                "zero": int((prov == 0).sum()),
            },
            "hmm": asdict(hmm),
        },
    )
    return ft


def stage_decompose(cfg: PipelineConfig, x: np.ndarray) -> TuckerModel:
    out = _out(cfg)
    i, j, k = x.shape

    report = anova_interaction(x)
    _write_json(out / "anova.json", report.as_dict())

    result = scree_select(
        x,
        min(cfg.max_p, i),
        min(cfg.max_q, j),
        min(cfg.max_r, k),
        sweep_budget=cfg.sweep_budget,
        tol=cfg.tucker_tol,
        max_iter=cfg.tucker_max_iter,
    )
    print(
        f"decompose: {result.fits_at_max_iter} of {len(result.grid)} HOOI fits reached "
        f"max_iter={cfg.tucker_max_iter}",
        file=sys.stderr,
    )
    with open(out / "scree.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("p,q,r,fit_percent,selected\n")
        for p, q, r, fit in result.grid:
            sel = 1 if (p, q, r) == result.selected else 0
            f.write(f"{p},{q},{r},{_fr(fit)},{sel}\n")

    save_model(result.model, out / "model.txt")
    return result.model


def stage_rank(cfg: PipelineConfig, model: TuckerModel, user_ids):
    out = _out(cfg)
    ranking = user_scores(model, user_ids, cfg.n_components)
    with open(out / "ranking.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("rank,user_id,distance,score\n")
        for pos, (uid, dist, score) in enumerate(
            zip(ranking.user_ids, ranking.distances, ranking.scores), start=1
        ):
            f.write(f"{pos},{uid},{_fr(dist)},{_fr(score)}\n")
    return ranking


def stage_trajectories(cfg: PipelineConfig, ft: FeatureTensor, model: TuckerModel) -> Trajectories:
    out = _out(cfg)
    trajectories = build_trajectories(ft, model)
    _write_trajectories(out / "trajectories.csv", "user_id", trajectories)
    return trajectories


def stage_cluster(cfg: PipelineConfig, trajectories: Trajectories) -> Trajectories:
    out = _out(cfg)
    labels = cut(ward_cluster(trajectories), cfg.cutoff)
    with open(out / "clusters.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("user_id,cluster\n")
        f.writelines(f"{uid},{lab}\n" for uid, lab in zip(trajectories.ids, labels.tolist()))
    centers = center_trajectory(trajectories, labels)
    _write_trajectories(out / "centers.csv", "cluster", centers)
    return centers


def stage_events(cfg: PipelineConfig, centers: Trajectories):
    out = _out(cfg)
    windows = []
    for cid, coords in zip(centers.ids, centers.coords):
        scan = detect_events(coords, cid, k_mad=cfg.k_mad, min_duration=cfg.min_duration, gap_hours=cfg.gap_hours)
        if scan.degenerate:
            print(f"events: cluster {cid} center is constant; skipped", file=sys.stderr)
        windows.extend(scan.windows)
    windows.sort(key=lambda w: (int(w.cluster_id), w.start_hour))
    with open(out / "events.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("cluster,start_hour,end_hour,severity\n")
        for w in windows:
            f.write(f"{w.cluster_id},{w.start_hour},{w.end_hour},{_fr(w.severity)}\n")
    return windows


def _write_manifest(cfg: PipelineConfig, command: str, out: Path) -> None:
    _write_json(
        out / "manifest.json",
        {
            "command": command,
            "config": asdict(cfg),
            "rng": RNG_NAME,
            "versions": {
                "triscope": __version__,
                "numpy": np.__version__,
                "python": ".".join(str(v) for v in sys.version_info[:3]),
                "blas": "{name} {version}".format_map(np.show_config(mode="dicts")["Build Dependencies"]["blas"]),
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            },
        },
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _run_stage(stage: str, fn, *args):
    try:
        return fn(*args)
    except StageError:
        raise
    except FileNotFoundError as exc:
        raise StageError(stage, f"file not found: {exc}", EXIT_IO) from exc
    except OSError as exc:
        raise StageError(stage, f"I/O failure: {exc}", EXIT_IO) from exc
    except (InvalidInputError, DegenerateInputError, NumericalError, TriscopeError) as exc:
        raise StageError(stage, str(exc), _STAGE_EXIT[stage]) from exc


def cmd_synth(args) -> int:
    cfg, synth_section = build_pipeline_config(args)
    synth_cfg = build_synth_config(args, synth_section)
    _run_stage("synth", stage_synth, cfg, synth_cfg)
    print(f"synth: wrote {Path(cfg.out_dir) / 'log.csv'} and ground_truth.json")
    return EXIT_OK


def cmd_single_stage(args) -> int:
    cfg, _ = build_pipeline_config(args)
    stage = args.stage_name
    fn = {
        "ingest": stage_ingest,
        "decompose": stage_decompose,
        "rank": stage_rank,
        "trajectories": stage_trajectories,
        "cluster": stage_cluster,
        "events": stage_events,
    }[stage]
    _run_stage(stage, lambda: fn(cfg, *_load_inputs(stage, Path(cfg.out_dir))))
    print(f"{stage}: ok ({cfg.out_dir})")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    cfg, synth_section = build_pipeline_config(args)
    if cfg.log is None and synth_section is not None:
        synth_cfg = build_synth_config(args, synth_section)
        _run_stage("synth", stage_synth, cfg, synth_cfg)
    ft = _run_stage("ingest", stage_ingest, cfg)
    model = _run_stage("decompose", stage_decompose, cfg, ft.tensor)
    _run_stage("rank", stage_rank, cfg, model, ft.user_ids)
    trajectories = _run_stage("trajectories", stage_trajectories, cfg, ft, model)
    centers = _run_stage("cluster", stage_cluster, cfg, trajectories)
    _run_stage("events", stage_events, cfg, centers)
    _write_manifest(cfg, "pipeline", _out(cfg))
    print(f"pipeline: ok ({cfg.out_dir})")
    return EXIT_OK


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--log", help="input notification log CSV")
    p.add_argument("--out-dir", dest="out_dir", help="output directory (default: out)")
    p.add_argument("--window-start", dest="window_start", help="ISO-8601 instant or Unix seconds")
    p.add_argument("--window-hours", dest="window_hours", type=int, help="window length in hours")
    p.add_argument("--min-obs", dest="min_obs", type=int, help="min inter-arrivals for an hourly HMM fit")
    p.add_argument("--max-p", dest="max_p", type=int, help="scree grid bound, user mode")
    p.add_argument("--max-q", dest="max_q", type=int, help="scree grid bound, feature mode")
    p.add_argument("--max-r", dest="max_r", type=int, help="scree grid bound, hour mode")
    p.add_argument("--sweep-budget", dest="sweep_budget", type=int, help="max scree grid points")
    p.add_argument("--n-components", dest="n_components", type=int, help="components used for ranking (default: all)")
    p.add_argument("--cutoff", type=float, help="normalized dendrogram cutoff (0, 1]")
    p.add_argument("--k-mad", dest="k_mad", type=float, help="MAD multiplier for event flagging")
    p.add_argument("--min-duration", dest="min_duration", type=int, help="shortest reported event (hours)")
    p.add_argument("--gap-hours", dest="gap_hours", type=int, help="quiet hours bridged inside an event")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triscope",
        description="Abnormal-user and network-event detection on notification logs "
        "via three-way tensor decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic log with planted ground truth")
    _add_pipeline_flags(p_synth)
    p_synth.add_argument("--users", type=int, help="number of users")
    p_synth.add_argument("--hours", type=int, help="window length in hours")
    p_synth.add_argument("--base-rate", dest="base_rate", type=float, help="normal messages/hour")
    p_synth.add_argument("--burst-rate", dest="burst_rate", type=float, help="anomalous messages/hour")
    p_synth.add_argument("--anomalous", help="comma-separated persistent-anomalous user indices")
    p_synth.add_argument("--event", action="append", help="planted event start:end:fraction (repeatable)")
    p_synth.add_argument("--seed", type=int, help="master seed")
    p_synth.set_defaults(func=cmd_synth)

    p_pipe = sub.add_parser("pipeline", help="run every stage end to end")
    _add_pipeline_flags(p_pipe)
    p_pipe.set_defaults(func=cmd_pipeline)

    for name, help_text in (
        ("ingest", "parse the log and build the preprocessed feature tensor"),
        ("decompose", "ANOVA, scree model selection and Tucker3 fit"),
        ("rank", "rank users by distance in the user-component space"),
        ("trajectories", "project per-hour feature vectors into trajectories"),
        ("cluster", "Ward-cluster trajectories and export cluster centers"),
        ("events", "detect event windows on cluster-center trajectories"),
    ):
        p_stage = sub.add_parser(name, help=help_text)
        _add_pipeline_flags(p_stage)
        p_stage.set_defaults(func=cmd_single_stage, stage_name=name)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (InvalidInputError, DegenerateInputError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
