"""Paired before/after benchmark runs of two source checkouts.

    python3 tools/paired_bench.py run --parent ../restyle-parent --change . \
        --workloads finetune relevance transfer pretrain --seeds 111 112 113 \
        --log runs.jsonl
    python3 tools/paired_bench.py summary --log runs.jsonl --out BENCH.json

``run`` calls ``perfbench/run.py --workload W --seed N --seconds S --trace 0``
in each checkout, with S the ``run_seconds`` of the change checkout's
``BENCHMARK.json``, so both sides run as long as the benchmark does. It makes
one pair per (workload, seed), alternating which side goes first from pair to
pair so that a slow phase of the machine does not always land on the same
side. With ``--trace 1`` it runs the traced pass instead.
Every result line is appended to ``--log`` as soon as it exists, and pairs
already in the log are skipped, so an interrupted run resumes.

``summary`` reads the log and writes, per workload and end-to-end metric, the
per-pair values, extremes, medians and quartiles of each side, the
change/parent ratio of the medians, the number of pairs the change wins, the
parent's quartile range, and a verdict by the benchmark's rule: ``lower``
(``higher``) when every run of the change reads below (above) every run of the
parent; else ``unresolved`` when either side's quartile spread exceeds the
metric's bound in ``BENCHMARK.json``; else ``lower`` or ``higher`` when the
change wins (or loses) at least nine pairs in ten and its median moves by more
than the parent's quartile range; else ``no demonstrated change``. Each
workload also names the checks that failed, by side and seed, as the runs
reported them.
Traced runs are listed per layer metric, and ``--equivalence`` includes a
``tools/equivalence.py`` result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("setup_s", "peak_rss_mb", "round_s")
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def run_seconds(checkout: Path) -> float:
    return json.loads((checkout / "BENCHMARK.json").read_text())["run_seconds"]


def run_one(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    return {"returncode": 0, "info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def cmd_run(args) -> None:
    done = set()
    if args.log.exists():
        for line in args.log.read_text().splitlines():
            rec = json.loads(line)
            done.add((rec["workload"], rec["seed"], rec["trace"], rec["side"]))
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds = run_seconds(sides["change"])
    for workload in args.workloads:
        for i, seed in enumerate(args.seeds):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                if (workload, seed, args.trace, side) in done:
                    continue
                rec = run_one(sides[side], workload, seed, seconds, args.trace)
                rec.update(workload=workload, seed=seed, trace=args.trace, side=side,
                           position=order.index(side))
                with open(args.log, "a") as f:
                    f.write(json.dumps(rec) + "\n")
                value = rec.get("result", {}).get("metrics", {}).get("round_s", {})
                print(f"{workload} seed {seed} {side}: {value.get('value')}", flush=True)


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"min": min(values), "q1": q1, "median": q2, "q3": q3, "max": max(values),
            "spread": (q3 - q1) / q2 if q2 else None}


def machine() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {"platform": platform.platform(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu, "cpus": os.cpu_count()}


def verdict(vals: dict, stats: dict, bound: float) -> str:
    if max(vals["change"]) < min(vals["parent"]):
        return "lower"
    if min(vals["change"]) > max(vals["parent"]):
        return "higher"
    if max(stats[side]["spread"] for side in stats) > bound:
        return "unresolved"
    gap = stats["change"]["median"] - stats["parent"]["median"]
    iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
    pairs = list(zip(vals["parent"], vals["change"]))
    if 10 * sum(c < p for p, c in pairs) >= 9 * len(pairs) and -gap > iqr:
        return "lower"
    if 10 * sum(c > p for p, c in pairs) >= 9 * len(pairs) and gap > iqr:
        return "higher"
    return "no demonstrated change"


def cmd_summary(args) -> None:
    bounds = {m["name"]: m["bound"]
              for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    recs = [json.loads(line) for line in args.log.read_text().splitlines()]
    out = {"machine": machine(), "workloads": {}, "traced": {}}
    if args.equivalence:
        out["equivalence"] = json.loads(args.equivalence.read_text())
    for workload in dict.fromkeys(r["workload"] for r in recs):
        untraced = [r for r in recs if r["workload"] == workload and r["trace"] == 0]
        by_seed = {}
        for r in untraced:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r
        pairs = {s: v for s, v in by_seed.items() if {"parent", "change"} <= set(v)}
        seeds = sorted(pairs)
        entry = {"seeds": seeds, "pairs": len(seeds),
                 "all_checks_passed": all(p["result"]["correct"]
                                          for v in pairs.values() for p in v.values()),
                 "checks_failed": {side: {str(s): pairs[s][side]["info"]["checks_failed"]
                                          for s in seeds
                                          if pairs[s][side]["info"]["checks_failed"]}
                                   for side in ("parent", "change")},
                 "failed_operations": {side: sum(pairs[s][side]["result"]["failed"]
                                                 for s in seeds)
                                       for side in ("parent", "change")},
                 "first_in_pair": {str(s): min(pairs[s], key=lambda k: pairs[s][k]["position"])
                                   for s in seeds},
                 "metrics": {}}
        for m in METRICS:
            vals = {side: [pairs[s][side]["result"]["metrics"][m]["value"] for s in seeds]
                    for side in ("parent", "change")}
            stats = {side: quartiles(v) for side, v in vals.items()}
            entry["metrics"][m] = {
                "values": vals, **stats,
                "ratio_of_medians": stats["change"]["median"] / stats["parent"]["median"],
                "change_wins": sum(c < p for p, c in zip(vals["parent"], vals["change"])),
                "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
                "bound": bounds[m],
                "verdict": verdict(vals, stats, bounds[m]),
            }
        out["workloads"][workload] = entry
        traced = [r for r in recs if r["workload"] == workload and r["trace"] == 1]
        if traced:
            out["traced"][workload] = {
                r["side"]: {"seed": r["seed"],
                            "metrics": {k: v["value"]
                                        for k, v in r["result"]["metrics"].items()}}
                for r in traced}
    text = json.dumps(out, indent=1)
    args.out.write_text(text + "\n")
    print(text)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", type=Path, required=True)
    r.add_argument("--change", type=Path, required=True)
    r.add_argument("--workloads", nargs="+", required=True)
    r.add_argument("--seeds", type=int, nargs="+", required=True)
    r.add_argument("--trace", type=int, choices=[0, 1], default=0)
    r.add_argument("--log", type=Path, required=True)
    s = sub.add_parser("summary")
    s.add_argument("--log", type=Path, required=True)
    s.add_argument("--out", type=Path, required=True)
    s.add_argument("--equivalence", type=Path,
                   help="tools/equivalence.py output to include")
    args = ap.parse_args(argv)
    {"run": cmd_run, "summary": cmd_summary}[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
