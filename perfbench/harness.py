"""Runs one workload: set-up, timed rounds, an optional traced pass, checks,
and the result line."""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import checks
import tracing
from workloads import WORKLOADS, Size


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_info() -> dict:
    libs = []
    try:
        cfg = np.show_config(mode="dicts")
        libs = [cfg["Build Dependencies"][k].get("name") for k in ("blas", "lapack")]
    except (TypeError, KeyError):
        pass
    return {"threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")), "libraries": libs}


def timed_rounds(workload, seconds: float, ops: dict) -> list[float]:
    """Whole rounds until ``seconds`` have passed (at least one)."""
    times = []
    start = time.perf_counter()
    while True:
        ops["attempted"] += workload.ops_per_round
        # start every round from the same heap state: garbage left by set-up or
        # by the previous round is not collected inside this round's timing
        gc.collect()
        try:
            elapsed, failed = workload.round()
        except Exception:
            traceback.print_exc()
            ops["failed"] += workload.ops_per_round
            ops["raised"] = True
            break
        ops["failed"] += failed
        times.append(elapsed)
        if time.perf_counter() - start >= seconds:
            return times
    return times


def run(name: str, seed: int, seconds: float, traced: bool, size: Size, out_dir) -> int:
    workload = WORKLOADS[name](size, seed)
    setup_times = []
    for _ in range(workload.setup_repeats):
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)

    ops = {"attempted": 0, "failed": 0, "raised": False}
    times = timed_rounds(workload, seconds, ops)
    if not times:
        print(f"error: the first {name} round raised; nothing was measured", file=sys.stderr)
        return 1
    # read before the traced pass and the checks, whose own work is not the workload's
    peak = peak_rss_mb()
    metrics = {}
    if traced:
        tracer = tracing.Tracer()
        tracer.install(tracing.TARGETS)
        try:
            traced_times = timed_rounds(workload, seconds, ops)
        finally:
            tracer.uninstall()
        overhead = (statistics.fmean(traced_times) - statistics.fmean(times)
                    if traced_times else 0.0)
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"trace-{name}-seed{seed}.jsonl")
        metrics = {k: {"value": v, "unit": tracing.unit_of(k)}
                   for k, v in tracing.layer_metrics(tracer, overhead).items()}
        if tracer.missing:
            print(f"trace: missing targets {tracer.missing}", file=sys.stderr)

    log = checks.CheckLog()
    if ops["raised"]:
        log.failed.append("round raised")
    else:
        try:
            workload.check(log)
        except Exception:
            traceback.print_exc()
            log.failed.append("checks raised")

    if not traced:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
            # the mean: the machine's speed drifts in phases of a few seconds, and
            # a median snaps to whichever phase held most rounds of the run
            "round_s": {"value": statistics.fmean(times), "unit": "s"},
        }
    info = {"workload": name, "seed": seed, "blas": blas_info(), "setup_times": setup_times,
            "round_times": times, "checks_passed": log.passed, "checks_failed": log.failed}
    print(json.dumps(info))
    print(json.dumps({"correct": log.correct, "attempted": ops["attempted"],
                      "failed": ops["failed"], "metrics": metrics}))
    return 0
