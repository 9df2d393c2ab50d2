#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR WORKLOAD SEED PAIRS OUT

Each pair runs ``python3 perfbench/run.py --workload WORKLOAD --seed SEED
--seconds 30 --trace 0`` once in each checkout; the order flips from pair to
pair so slow drift of a shared host falls on both sides alike.  OUT (JSON)
gets every run's metrics, ``correct``, ``failed``, per-kind failure reasons,
per-kind median task times (``kind_p50_s``) and accuracy witnesses.  Per
metric, and per kind's median time, it also gets the median and quartiles
of each side plus how many pairs the change won (direction from
BENCHMARK.json; a kind's time is better lower).  Prints one line per run
and a final summary line per metric and per kind.
"""

import json
import os
import platform
import statistics
import subprocess
import sys


def _run(checkout, workload, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "30", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{checkout}: perfbench exited {proc.returncode}\n{proc.stderr}")
    report = json.loads(lines[-2])["report"]
    last = json.loads(lines[-1])
    return {"metrics": {k: v["value"] for k, v in last["metrics"].items()},
            "correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"],
            "failure_reasons": {k: v["reasons"] for k, v in report["per_kind"].items()},
            "kind_p50_s": {k: v["p50_s"] for k, v in report["per_kind"].items()},
            "witnesses": report["witnesses"]}


def _stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}


def main(argv):
    if len(argv) != 6:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change, workload, seed, pairs, out = argv
    seed, pairs = int(seed), int(pairs)
    if pairs < 2:
        print("PAIRS must be at least 2: quartiles need two runs per side", file=sys.stderr)
        return 2
    with open(os.path.join(change, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = _run(parent if side == "parent" else change, workload, seed)
            runs[side].append(run)
            print(f"pair {i} {side:6s} " + " ".join(
                f"{k}={v:.4g}" for k, v in run["metrics"].items()), flush=True)
    summary = {}
    for name, direction in better.items():
        a = [r["metrics"][name] for r in runs["parent"]]
        b = [r["metrics"][name] for r in runs["change"]]
        wins = sum((y > x) if direction == "higher" else (y < x) for x, y in zip(a, b))
        summary[name] = {"better": direction, "parent": _stats(a), "change": _stats(b),
                         "change_wins": wins, "pairs": pairs}
        print(f"{name:14s} parent {summary[name]['parent']['median']:.4g} "
              f"(IQR {summary[name]['parent']['iqr']:.3g})  change "
              f"{summary[name]['change']['median']:.4g}  change wins {wins}/{pairs}")
    kinds = {}
    for kind in runs["parent"][0]["kind_p50_s"]:
        a = [r["kind_p50_s"][kind] for r in runs["parent"]]
        b = [r["kind_p50_s"][kind] for r in runs["change"]]
        kinds[kind] = {"parent": _stats(a), "change": _stats(b),
                       "change_wins": sum(y < x for x, y in zip(a, b)), "pairs": pairs}
        print(f"p50 {kind:22s} parent {kinds[kind]['parent']['median']:.4g} s  change "
              f"{kinds[kind]['change']['median']:.4g} s  change wins "
              f"{kinds[kind]['change_wins']}/{pairs}")
    result = {"workload": workload, "seed": seed, "pairs": pairs,
              "command": "python3 perfbench/run.py --seconds 30 --trace 0",
              "host": {"platform": platform.platform(), "python": platform.python_version(),
                       "cpus": os.cpu_count()},
              "runs": runs, "summary": summary, "kind_p50_s": kinds}
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
