"""Pipeline benchmark for triscope: log -> `triscope pipeline` -> retune.

    python3 pipebench/run.py --workload reference --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program is imported from ./src. For
the chosen workload the benchmark

1. makes four input logs with `triscope synth`, each twice (the set-up,
   timed; the two writes must match byte for byte),
2. visits the logs in turn until --seconds have gone by and the first log
   has been visited twice. A visit runs `triscope pipeline` on the log, then
   twice the retune: `triscope cluster --cutoff 0.5` and `triscope events
   --k-mad 4` on what the pipeline left. Every command is its own child
   process, one at a time. The first visit to a log checks its outputs;
   later visits must leave the same bytes,
3. prints every metric by name and unit, and as its last line one JSON
   object with `correct`, `attempted`, `failed` and `metrics`.

With --trace 1 it instead makes one log, times one untraced pipeline, then
the same pipeline and one synth under `tracer.py`, and reports the
per-layer metrics of the span tree and the tracing overhead.

An operation is one CLI child; it fails when it exits non-zero or a check of
its outputs fails. Exit code 2, without a result line, when ./src holds no
triscope package.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
MIB = 1024.0  # ru_maxrss is in KiB on Linux
RETUNE = (["cluster", "--cutoff", "0.5"], ["events", "--k-mad", "4"])
LOGS = 4  # distinct input logs per run; log i is made from synth seed LOGS * seed + i
SETUP_REPEATS = 2
RETUNE_REPEATS = 2


@dataclass(frozen=True)
class Workload:
    users: int
    hours: int
    base_rate: float
    burst_rate: float
    anomalous: tuple[int, ...]
    event: tuple[int, int, float]

    def synth_args(self, seed: int) -> list[str]:
        s, e, f = self.event
        return [
            "--users", str(self.users), "--hours", str(self.hours),
            "--base-rate", str(self.base_rate), "--burst-rate", str(self.burst_rate),
            "--anomalous", ",".join(str(u) for u in self.anomalous),
            "--event", f"{s}:{e}:{f}", "--seed", str(seed),
        ]


WORKLOADS = {
    "reference": Workload(100, 96, 2.0, 10.0, (7, 23, 61), (40, 51, 0.10)),
    "many-users": Workload(400, 48, 2.0, 10.0, (7, 230, 310), (20, 29, 0.10)),
}

END_TO_END = {
    "pipeline_s": "s",
    "pipeline_cpu_s": "s",
    "peak_rss_mib": "MiB",
    "retune_s": "s",
    "setup_s": "s",
}

STAGES = ("ingest", "decompose", "rank", "trajectories", "cluster", "events")
# per-layer metric -> (span name, counter or "s" for seconds, unit)
LAYER_SPANS = {
    "synth.generate_s": ("synth.generate", "s", "s"),
    "synth.write_log_s": ("synth.write_log", "s", "s"),
    "ingest.parse_log_s": ("ingest.parse_log", "s", "s"),
    "ingest.records": ("ingest.parse_log", "records", "count"),
    "ingest.compute_deltas_s": ("ingest.compute_deltas", "s", "s"),
    "ingest.summary_features_s": ("ingest.summary_features", "s", "s"),
    "ingest.summary_calls": ("ingest.summary_features", "calls", "count"),
    "ingest.build_feature_tensor_s": ("ingest.build_feature_tensor", "s", "s"),
    "ingest.preprocess_s": ("ingest.preprocess", "s", "s"),
    "hmm.baum_welch_many_s": ("hmm.baum_welch_many", "s", "s"),
    "hmm.fits": ("hmm.baum_welch_many", "fits", "count"),
    "hmm.em_iters": ("hmm.baum_welch_many", "em_iters", "count"),
    "hmm.em_steps": ("hmm.baum_welch_many", "em_steps", "count"),
    "hmm.fits_at_max_iter": ("hmm.baum_welch_many", "fits_at_max_iter", "count"),
    "tensor.write_text_s": ("tensor.write_text", "s", "s"),
    "tensor.read_text_s": ("tensor.read_text", "s", "s"),
    "tensor.read_calls": ("tensor.read_text", "calls", "count"),
    "tucker.anova_s": ("tucker.anova", "s", "s"),
    "tucker.scree_s": ("tucker.scree", "s", "s"),
    "tucker.grid_points": ("tucker.scree", "grid_points", "count"),
    "tucker.final_hooi_s": ("tucker.final_hooi", "s", "s"),
    "anomaly.user_scores_s": ("anomaly.user_scores", "s", "s"),
    "trajectory.build_s": ("trajectory.build", "s", "s"),
    "clustering.ward_s": ("clustering.ward", "s", "s"),
    "clustering.cut_s": ("clustering.cut", "s", "s"),
    "clustering.centers_s": ("clustering.centers", "s", "s"),
    "clustering.events_s": ("clustering.events", "s", "s"),
    "cli.load_trajectories_s": ("cli.load_trajectories", "s", "s"),
}


class Run:
    """Counts operations and collects the failures of one benchmark run."""

    def __init__(self, src: Path):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def child(self, argv: list[str]) -> dict:
        """Run one child to its end; wall seconds, CPU seconds, peak RSS."""
        self.attempted += 1
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stderr.close()
        if proc.returncode != 0:
            self.failed += 1
            print(f"FAILED ({proc.returncode}): {' '.join(argv)}\n{stderr.decode(errors='replace')}",
                  file=sys.stderr)
        return {"ok": proc.returncode == 0, "wall": wall,
                "cpu": usage.ru_utime + usage.ru_stime, "rss": usage.ru_maxrss / MIB}

    def triscope(self, *args: str) -> dict:
        return self.child([sys.executable, "-m", "triscope", *args])

    def verify(self, op: dict, failures: list[str]) -> None:
        """Count an operation that exited 0 but whose outputs are wrong."""
        if failures and op["ok"]:
            self.failed += 1
            op["ok"] = False
        self.wrong.extend(failures)
        for msg in failures:
            print(f"CHECK FAILED: {msg}", file=sys.stderr)


def make_logs(run: Run, wl: Workload, seed: int, work: Path,
              count: int) -> tuple[list[Path], list[float]]:
    """Synthesize ``count`` logs, each ``SETUP_REPEATS`` times; the repeats
    must write identical bytes. Returns the log directories and synth times."""
    dirs, times = [], []
    for i in range(count):
        d = work / f"log{i}"
        digests = set()
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(d, ignore_errors=True)
            op = run.triscope("synth", *wl.synth_args(LOGS * seed + i), "--out-dir", str(d))
            times.append(op["wall"])
            if op["ok"]:
                digests.add(checks.tree_digest(d))
        if len(digests) > 1:
            run.verify({"ok": True}, [f"{d}: synth wrote different bytes on a repeat"])
        dirs.append(d)
    return dirs, times


def pipeline(run: Run, log_dir: Path, wl: Workload) -> tuple[dict, Path]:
    out = log_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    op = run.triscope("pipeline", "--log", str(log_dir / "log.csv"),
                      "--window-hours", str(wl.hours), "--out-dir", str(out))
    return op, out


def check_pipeline(run: Run, op: dict, out: Path, log_dir: Path) -> str | None:
    """Every output check; returns the digest of the out dir (None if the
    pipeline failed)."""
    if not op["ok"]:
        return None
    truth = json.loads((log_dir / "ground_truth.json").read_text(encoding="utf-8"))
    run.verify(op, checks.run_checks(out, log_dir / "log.csv", truth))
    return checks.tree_digest(out)


def retune(run: Run, out: Path) -> tuple[dict, float]:
    """The retune children on a pipeline's out dir; the last child's
    operation and the summed wall time."""
    wall = 0.0
    for args in RETUNE:
        op = run.triscope(*args, "--out-dir", str(out))
        wall += op["wall"]
    return op, wall


def same_as_first(run: Run, op: dict, out: Path, first: str | None, what: str) -> None:
    if op["ok"] and first is not None and checks.tree_digest(out) != first:
        run.verify(op, [f"{out}: {what} differs from the first pass byte for byte"])


def measure(run: Run, wl: Workload, logs: list[Path], seconds: float) -> dict:
    """Visits the logs in turn, each visit a pipeline followed by
    ``RETUNE_REPEATS`` retunes, until ``seconds`` have gone by and the first
    log has been visited twice. The first visit to a log checks every output
    of its pipeline and first retune; later visits must leave byte-identical
    out dirs. Each metric is the median over every pipeline (or retune) of
    the run."""
    samples = {name: [] for name in ("pipeline_s", "pipeline_cpu_s", "peak_rss_mib", "retune_s")}
    first: dict[tuple[int, str], str | None] = {}
    start = time.perf_counter()
    visits = 0
    # the last visit is the one that ends nearest ``seconds``
    while visits <= len(logs) or (time.perf_counter() - start) * (1 + 0.5 / visits) < seconds:
        i = visits % len(logs)
        log_dir = logs[i]
        op, out = pipeline(run, log_dir, wl)
        if visits < len(logs):
            first[i, "pipeline"] = check_pipeline(run, op, out, log_dir)
        else:
            same_as_first(run, op, out, first[i, "pipeline"], "pipeline output")
        samples["pipeline_s"].append(op["wall"])
        samples["pipeline_cpu_s"].append(op["cpu"])
        samples["peak_rss_mib"].append(op["rss"])

        for repeat in range(RETUNE_REPEATS):
            op, wall = retune(run, out)
            if visits < len(logs) and repeat == 0:
                run.verify(op, checks.run_retune_checks(out) if op["ok"] else [])
                first[i, "retune"] = checks.tree_digest(out) if op["ok"] else None
            else:
                same_as_first(run, op, out, first[i, "retune"], "retune output")
            samples["retune_s"].append(wall)
        visits += 1
    print(f"{visits} visits to {len(logs)} log(s) in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    for name, values in samples.items():
        print(f"{name}: {' '.join(f'{v:.3f}' for v in values)}", file=sys.stderr)
    return {name: statistics.median(values) for name, values in samples.items()}


def layer_metrics(tree: dict) -> dict:
    """Flatten the span tree into the per-layer metrics."""
    totals: dict[tuple[str, str], float] = {}

    def walk(node: dict) -> None:
        for child in node["children"].values():
            for key, value in (("s", child["s"]), ("calls", child["calls"]), *child["counters"].items()):
                if key != "rss_mib":
                    totals[(child["name"], key)] = totals.get((child["name"], key), 0) + value
            walk(child)

    walk(tree)
    out = {name: (totals.get((span, key), 0), unit) for name, (span, key, unit) in LAYER_SPANS.items()}
    steps = totals.get(("hmm.baum_welch_many", "em_steps"), 0)
    hmm_s = totals.get(("hmm.baum_welch_many", "s"), 0.0)
    out["hmm.ns_per_em_step"] = (1e9 * hmm_s / steps if steps else 0.0, "ns")
    hooi = totals.get(("tucker.hooi", "calls"), 0) + totals.get(("tucker.final_hooi", "calls"), 0)
    out["tucker.hooi_calls"] = (hooi, "count")
    out["tucker.model_io_s"] = (totals.get(("tucker.save_model", "s"), 0.0)
                                + totals.get(("tucker.load_model", "s"), 0.0), "s")
    stages = tree["children"]
    for stage in STAGES:
        node = stages.get(f"cli.stage_{stage}")
        if node is None:
            continue
        self_s = node["s"] - sum(c["s"] for c in node["children"].values())
        out[f"cli.{stage}.self_s"] = (self_s, "s")
        out[f"cli.{stage}.rss_mib"] = (node["counters"]["rss_mib"], "MiB")
    return out


def traced(run: Run, wl: Workload, seed: int, logs: list[Path], work: Path) -> dict:
    """One untraced and one traced pipeline on the first log, one traced
    synth; per-layer metrics plus the tracing overhead."""
    log_dir = logs[0]
    op, out = pipeline(run, log_dir, wl)
    untraced = op["wall"]
    digest = check_pipeline(run, op, out, log_dir)

    tracer = [sys.executable, str(HERE / "tracer.py"), "--src", run.env["PYTHONPATH"], "--spans"]
    synth_spans = work / "spans_synth.json"
    run.child([*tracer, str(synth_spans), "--", "synth", *wl.synth_args(LOGS * seed),
               "--out-dir", str(work / "traced_synth")])
    shutil.rmtree(out, ignore_errors=True)
    spans = work / "spans_pipeline.json"
    op = run.child([*tracer, str(spans), "--", "pipeline", "--log", str(log_dir / "log.csv"),
                    "--window-hours", str(wl.hours), "--out-dir", str(out)])
    traced_digest = check_pipeline(run, op, out, log_dir)
    if digest is not None and traced_digest is not None and digest != traced_digest:
        run.verify(op, [f"{out}: traced pipeline wrote different bytes"])
    if not (synth_spans.exists() and spans.exists()):
        return {}
    tree = json.loads(spans.read_text(encoding="utf-8"))
    tree["children"].update(json.loads(synth_spans.read_text(encoding="utf-8"))["children"])
    print(render_tree(tree), file=sys.stderr)
    metrics = layer_metrics(tree)
    metrics["tensor.text_mib"] = ((out / "tensor.txt").stat().st_size / 2**20, "MiB")
    metrics["trace.pipeline_s"] = (op["wall"], "s")
    metrics["trace.overhead_s"] = (op["wall"] - untraced, "s")
    return metrics


def render_tree(node: dict, depth: int = 0) -> str:
    counters = " ".join(f"{k}={v:g}" for k, v in node["counters"].items())
    lines = [f"{'  ' * depth}{node['name']:<{40 - 2 * depth}} {node['calls']:>7} "
             f"{node['s']:10.4f} s  {counters}"]
    lines += [render_tree(c, depth + 1) for c in node["children"].values()]
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description="triscope pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = Path.cwd() / "src"
    if not (src / "triscope" / "__init__.py").is_file():
        print(f"error: no triscope package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = Path.cwd() / ".bench_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    run = Run(src)
    logs, setup_times = make_logs(run, wl, args.seed, work, 1 if args.trace else LOGS)
    if args.trace:
        metrics = traced(run, wl, args.seed, logs, work)
    else:
        values = measure(run, wl, logs, args.seconds)
        values["setup_s"] = statistics.median(setup_times)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}

    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:14.6f} {unit}")
    result = {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
