"""Run one triscope command in this process with spans around the calls
into each module's public functions, then write the span tree as JSON.

    python3 pipebench/tracer.py --src src --spans spans.json -- pipeline --log L --out-dir D

The spans are recorded from here, by rebinding names in the triscope
modules before the command runs; nothing inside triscope is changed. A span
is aggregated per (parent path, name): calls, total seconds and counters.
Each ``cli.stage_*`` span also records the peak resident set reached by the
end of the stage.
"""

from __future__ import annotations

import argparse
import inspect
import json
import resource
import sys
import time
from pathlib import Path


def _node(name: str) -> dict:
    return {"name": name, "calls": 0, "s": 0.0, "counters": {}, "children": {}}


class Tracer:
    """Nested spans kept in memory as a tree of aggregates."""

    def __init__(self):
        self.root = _node("root")
        self.stack = [self.root]

    def wrap(self, module, attr: str, span: str, count=None, rss: bool = False):
        fn = getattr(module, attr)
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            children = self.stack[-1]["children"]
            node = children.get(span) or children.setdefault(span, _node(span))
            self.stack.append(node)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                node["s"] += time.perf_counter() - t0
                node["calls"] += 1
                self.stack.pop()
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in count(bound.arguments, result).items():
                    node["counters"][key] = node["counters"].get(key, 0) + value
            if rss:
                node["counters"]["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            return result

        setattr(module, attr, traced)


def _hmm_counts(args, models) -> dict:
    """Fits, EM iterations, time steps (T times likelihood evaluations) and
    fits that stopped at ``max_iter``; degenerate (constant) sequences are
    not fitted and count only as fits."""
    max_iter = int(args["max_iter"])
    fitted = [(len(s), len(m.loglik_history))
              for s, m in zip(args["sequences"], models) if not m.degenerate]
    return {
        "fits": len(models),
        "em_iters": sum(e - 1 for _, e in fitted),
        "em_steps": sum(t * e for t, e in fitted),
        "fits_at_max_iter": sum(e == max_iter + 1 for _, e in fitted),
    }


def install(tracer: Tracer) -> None:
    from triscope import cli, ingest, tucker

    w = tracer.wrap
    for stage in ("synth", "ingest", "decompose", "rank", "trajectories", "cluster", "events"):
        w(cli, f"stage_{stage}", f"cli.stage_{stage}", rss=True)
    w(cli, "generate", "synth.generate")
    w(cli, "write_log", "synth.write_log")
    w(cli, "parse_log", "ingest.parse_log", lambda a, log: {"records": log.n_records})
    w(cli, "compute_deltas", "ingest.compute_deltas")
    w(cli, "build_feature_tensor", "ingest.build_feature_tensor")
    w(ingest, "hour_summary_features", "ingest.summary_features")
    w(ingest, "baum_welch_many", "hmm.baum_welch_many", _hmm_counts)
    w(cli, "preprocess", "ingest.preprocess")
    w(cli, "write_tensor_text", "tensor.write_text")
    w(cli, "read_tensor_text", "tensor.read_text")
    w(cli, "anova_interaction", "tucker.anova")
    w(cli, "scree_select", "tucker.scree", lambda a, res: {"grid_points": len(res.grid)})
    w(tucker, "hooi", "tucker.hooi")
    w(cli, "hooi", "tucker.final_hooi")
    w(cli, "save_model", "tucker.save_model")
    w(cli, "load_model", "tucker.load_model")
    w(cli, "user_scores", "anomaly.user_scores")
    w(cli, "build_trajectories", "trajectory.build")
    w(cli, "_load_trajectories", "cli.load_trajectories")
    w(cli, "ward_cluster", "clustering.ward")
    w(cli, "cut", "clustering.cut")
    w(cli, "center_trajectory", "clustering.centers")
    w(cli, "detect_events", "clustering.events")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory holding the triscope package")
    ap.add_argument("--spans", required=True, help="where to write the span tree (JSON)")
    ap.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the triscope command line")
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    sys.path.insert(0, str(Path(args.src).resolve()))
    from triscope import cli

    tracer = Tracer()
    install(tracer)
    t0 = time.perf_counter()
    code = cli.main(argv)
    tracer.root["s"] = time.perf_counter() - t0
    tracer.root["calls"] = 1
    Path(args.spans).write_text(json.dumps(tracer.root, indent=1) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
