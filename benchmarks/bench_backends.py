#!/usr/bin/env python3
"""Benchmark the hot kernels: the HMM forward, Viterbi and batched
Baum-Welch kernels, the Ward kernel, the tensor text writer and the Tucker3
scree.

Runs each kernel on representative inputs and reports its median per-call
time (the writer writes to the null device), and for each Baum-Welch batch
the EM steps (M-steps) of its fits.

Usage: python benchmarks/bench_backends.py [--repeats N]
"""

import argparse
import os
import time

# triscope first, so that numpy loads with the BLAS threads the CLI runs on
from triscope import backends, scree_select, write_tensor_text

import numpy as np


def median_time(fn, args, repeats, min_loops=1):
    times = []
    for _ in range(repeats):
        loops = min_loops
        while True:
            t0 = time.perf_counter()
            for _ in range(loops):
                fn(*args)
            dt = time.perf_counter() - t0
            if dt > 0.02 or loops >= 1024:
                times.append(dt / loops)
                break
            loops *= 4
    return float(np.median(times))


def hmm_case(rng, t):
    obs = np.concatenate([rng.exponential(10.0, t // 2), rng.exponential(500.0, t - t // 2)])
    rng.shuffle(obs)
    trans = np.array([[0.9, 0.1], [0.1, 0.9]])
    init = np.array([0.5, 0.5])
    means = np.array([10.0, 500.0])
    variances = np.array([100.0, 2.5e5])
    return obs, trans, init, means, variances


def slow_case(rng, t):
    """Regimes of 50 steps whose emissions overlap, from a sticky start: EM
    creeps, so most fits run many iterations."""
    regime = np.repeat(rng.integers(0, 2, t // 50 + 1), 50)[:t]
    obs = rng.normal(np.where(regime == 1, 11.0, 10.0), 3.0)
    trans = np.array([[0.999, 0.001], [0.001, 0.999]])
    return obs, trans, np.array([0.5, 0.5]), np.array([9.0, 13.0]), np.array([9.0, 9.0])


def batch_args(rng, lengths, case=hmm_case):
    """Arguments of the batched Baum-Welch entry point for one sequence per
    length (tol 1e-6, at most 200 EM iterations)."""
    per_seq = [case(rng, t) for t in lengths]
    obs = [c[0] for c in per_seq]
    params = [np.array([c[k] for c in per_seq]) for k in range(1, 5)]
    return (obs, *params, np.full(len(lengths), 1e-9), 1e-6, 200)


def cases(rng):
    _, *params_s = hmm_case(rng, 50)
    obs_l, *params_l = hmm_case(rng, 1500)
    with np.errstate(divide="ignore"):
        log_trans = np.log(params_s[0])
        log_init = np.log(params_s[1])
    yield "forward T=1500", backends.forward_loglik, (obs_l, *params_l)
    yield (
        "viterbi T=1500",
        backends.viterbi_kernel,
        (obs_l, log_trans, log_init, params_l[2], params_l[3]),
    )
    for name, lengths in (
        ("baum_welch B=1 T=50", [50]),
        ("baum_welch B=1 T=1500", [1500]),
        ("baum_welch B=100 T<=1500", rng.integers(50, 1501, size=100).tolist()),
        # long whole-window fits, where the engine's cost per time step shows
        ("baum_welch B=3 T~1000", rng.integers(950, 1051, size=3).tolist()),
        ("baum_welch B=100 T~300", rng.integers(250, 351, size=100).tolist()),
    ):
        yield name, backends.baum_welch_batch, batch_args(rng, lengths)
    # shaped like the pipeline benchmark's reference log, in one call: hour
    # fits, whole-window fits and three long planted windows (its own
    # generator, so the cases below keep their inputs)
    mixed = np.random.default_rng(1)
    lengths = np.concatenate(
        [mixed.integers(6, 21, size=460), mixed.integers(150, 291, size=97),
         mixed.integers(950, 1051, size=3)]
    ).tolist()
    yield "baum_welch B=560 mixed", backends.baum_welch_batch, batch_args(mixed, lengths)
    # short sequences only, like a batch of hour fits alone (its own generator)
    short = np.random.default_rng(2)
    lengths = short.integers(5, 21, size=400).tolist()
    yield "baum_welch B=400 T=5-20", backends.baum_welch_batch, batch_args(short, lengths)
    # slowly converging fits of several chunks each (its own generator)
    slow = np.random.default_rng(3)
    lengths = slow.integers(150, 401, size=50).tolist()
    yield "baum_welch B=50 slow", backends.baum_welch_batch, batch_args(slow, lengths, slow_case)
    # n=400 d=144 is the trajectory shape of the many-users workload
    for n, dim in ((120, 64), (400, 16), (400, 144), (1000, 96)):
        yield f"ward n={n} d={dim}", backends.ward_linkage, (rng.normal(size=(n, dim)),)
    # the preprocessed tensors of the many-users workload and of the month
    sink = open(os.devnull, "w", encoding="utf-8")
    for dims in ((400, 10, 48), (100, 10, 720)):
        name = "tensor write " + "x".join(str(d) for d in dims)
        yield name, write_tensor_text, (rng.normal(size=dims), sink)
    # the default 3 x 3 x 3 scree grid on the same shapes, a planted
    # (3, 3, 2) model under 30% noise
    for dims in ((400, 10, 48), (100, 10, 720)):
        core = rng.normal(size=(3, 3, 2))
        x = np.einsum("pqr,ip,jq,kr->ijk", core, *(rng.normal(size=(d, k)) for d, k in zip(dims, core.shape)))
        x = x + rng.normal(size=dims) * (0.3 * x.std())
        name = "scree_select " + "x".join(str(d) for d in dims)
        yield name, scree_select, (x, 3, 3, 3)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=7, help="timing repetitions per kernel")
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    print(f"{'kernel':<26} {'time (ms)':>12} {'EM steps':>10}")
    print("-" * 50)
    for name, fn, call_args in cases(rng):
        steps = fn(*call_args)[6][:, 0].sum() if fn is backends.baum_welch_batch else ""
        print(f"{name:<26} {median_time(fn, call_args, args.repeats) * 1e3:>12.3f} {steps:>10}")


if __name__ == "__main__":
    main()
