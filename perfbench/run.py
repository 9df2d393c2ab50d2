"""Benchmark of seeded design-and-verify tasks on the mcdesign package.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload scatter_sweep --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: tasks from a list generated from
``--seed`` run back to back, one round (every kind of the workload) at a
time, for as many rounds as ``--seconds`` buys on the reference machine
(``ROUND_S``).  Every task is checked against the closed-form oracles in
``oracles.py``.  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` half as many
rounds run once untraced and once traced, and the last line carries the
per-layer metrics.  The lines before it are a readable summary and a JSON
report with per-kind failures, accuracy witnesses and provenance.  See
README.md.
"""

import time

_T0 = time.perf_counter()       # set-up is timed from here, before numpy loads

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

# single-threaded BLAS: the engine's matrices are 2N x 2N with N <= 3, and a
# shared machine gives steadier timings without a thread pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
ROUNDS = 64                     # rounds in the generated list; the loop cycles it
SETUP_REPEATS = 3
# Seconds one round takes on the reference machine (README.md).  --seconds
# buys round(seconds / ROUND_S) rounds, so every commit runs the same tasks
# and the latency percentiles sit at the same ranks; a run that overshoots
# 4 x --seconds stops after the round in flight.
ROUND_S = {"scatter_sweep": 1.3, "level_search": 10.0, "design_chain": 11.0}
WARMUP_KIND = {"scatter_sweep": "flux", "level_search": "walled_split",
               "design_chain": "bsec_tail"}
WORKLOAD_NAMES = tuple(WARMUP_KIND)


def _fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _import_program():
    """Import mcdesign from this checkout's src/ and the benchmark modules."""
    if not (SRC / "mcdesign" / "__init__.py").is_file():
        _fail(f"no mcdesign package under {SRC}; run from the root of a checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import mcdesign
    if not Path(mcdesign.__file__).resolve().is_relative_to(SRC.resolve()):
        _fail(f"imported mcdesign from {mcdesign.__file__}, not from {SRC}")
    import tasks
    return tasks


def _setup(tasks, workload: str, seed: int):
    """Task list plus one untimed warm-up task of the workload's cheapest kind."""
    task_list = tasks.generate(workload, seed, ROUNDS)
    warm = next(t for t in task_list if t["kind"] == WARMUP_KIND[workload])
    tasks.check(warm, tasks.KINDS[warm["kind"]].run(warm["params"]))
    return task_list


def _setup_times(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes: import, input generation, warm-up."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(seed), "--setup-only"],
                              capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            _fail(f"set-up process failed:\n{proc.stderr[-2000:]}", 3)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


# ---------------------------------------------------------------------------
# the closed loop


def _run_one(tasks, task: dict, tracer=None):
    """(latency_s, failure reason or None, checks, grid nodes) for one task."""
    kind = tasks.KINDS[task["kind"]]
    t0 = time.perf_counter()
    try:
        result = kind.run(task["params"])
    except Exception as exc:            # a raising task is a failed task
        return time.perf_counter() - t0, type(exc).__name__, {}, None
    latency = time.perf_counter() - t0
    nodes = result.get("nodes")
    try:
        if tracer is None:
            checks = tasks.check(task, result)
        else:
            with tracer.span("bench.verify"):
                checks = tasks.check(task, result)
    except Exception as exc:
        return latency, f"verify:{type(exc).__name__}", {}, nodes
    bad = sorted(name for name, (err, tol, _) in checks.items() if not err <= tol)
    return latency, ("check:" + ",".join(bad)) if bad else None, checks, nodes


def _known(kind, reason, known_defects) -> bool:
    """A failure every failed check of which is a documented defect."""
    return reason.startswith("check:") and all(
        (kind, name) in known_defects for name in reason[len("check:"):].split(","))


def run_loop(tasks, task_list, n_kinds, rounds, deadline, tracer=None):
    """``rounds`` whole rounds, or fewer if ``deadline`` seconds pass.

    Returns the task records and the wall time of each round.
    """
    records, round_walls = [], []
    start = time.perf_counter()
    for r in range(rounds):
        if r and time.perf_counter() - start > deadline:
            break
        t_round = time.perf_counter()
        for i in range(r * n_kinds, (r + 1) * n_kinds):
            task = task_list[i % len(task_list)]
            if tracer is None:
                rec = _run_one(tasks, task)
            else:
                tracer.task_id = i
                with tracer.span("bench.task"):
                    rec = _run_one(tasks, task, tracer)
            records.append((i % len(task_list),) + rec)
        round_walls.append(time.perf_counter() - t_round)
    return records, round_walls


def tail_percentile(latencies):
    """(percentile, value): the highest percentile with >= 10 samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return 0.0, xs[0]
    return 100.0 * (n - 10) / n, xs[n - 11]


# ---------------------------------------------------------------------------
# provenance


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _git_sha() -> str:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(str(ROOT / ".git" / ref))
        if not sha:
            for line in _read(str(ROOT / ".git" / "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or "unavailable"
    return head or "unavailable"


def _blas_threads():
    """OpenBLAS's own thread count, asked through the library numpy loaded."""
    import ctypes
    for line in _read("/proc/self/maps").splitlines():
        path = line.split()[-1] if "/" in line else ""
        if "openblas" not in path.lower():
            continue
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(workload, seed, task_list, tasks) -> dict:
    import numpy
    import scipy
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.is_dir() else []:
        level, kind = _read(str(idx / "level")), _read(str(idx / "type"))
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(str(idx / "size"))
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_hash = hashlib.sha256()
    for f in sorted((SRC / "mcdesign").glob("*.py")):
        src_hash.update(f.name.encode() + f.read_bytes())
    nproc = len(os.sched_getaffinity(0))
    threads = _blas_threads()
    return {
        "nproc": nproc, "cpu": cpu, "caches": caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads, "blas_threads_ok": threads is None or threads <= nproc,
        "git_sha": _git_sha(), "src_sha256": src_hash.hexdigest()[:16],
        "workload": workload, "seed": seed,
        "task_hash": tasks.task_hash(task_list), "tasks_listed": len(task_list),
    }


# ---------------------------------------------------------------------------
# reports


def _finite(x):
    return x if isinstance(x, (int, float)) and math.isfinite(x) else str(x)


def summarize(records, task_list, round_walls, known_defects):
    """End-to-end figures plus per-kind failure accounting and witnesses."""
    latencies = [r[1] for r in records]
    failed = [r for r in records if r[2] is not None]
    verified = [r for r in records if r[2] is None or r[2].startswith("check:")]
    kinds = defaultdict(lambda: {"attempted": 0, "failed": 0, "reasons": Counter(),
                                 "latencies": [], "nodes": set()})
    witnesses = defaultdict(float)
    failed_inputs = {}
    for idx, latency, reason, checks, nodes in records:
        task = task_list[idx]
        k = kinds[task["kind"]]
        k["attempted"] += 1
        k["latencies"].append(latency)
        if nodes:
            k["nodes"].add(nodes)
        if reason is not None:
            k["failed"] += 1
            k["reasons"][reason] += 1
            failed_inputs[idx] = {"kind": task["kind"], "reason": reason,
                                  "params": task["params"],
                                  "errors": {n: _finite(c[0]) for n, c in checks.items()}}
            continue
        # witnesses describe the accuracy of verified results; a failed task's
        # errors are kept with its inputs instead
        for err, _, witness in checks.values():
            witnesses[witness] = max(witnesses[witness], err)
    pct, tail = tail_percentile(latencies)
    unexpected = sorted({task_list[r[0]]["kind"] for r in failed
                         if not _known(task_list[r[0]]["kind"], r[2], known_defects)})
    per_kind = {name: {"attempted": k["attempted"], "failed": k["failed"],
                       "reasons": dict(k["reasons"]),
                       "p50_s": statistics.median(k["latencies"]),
                       "grid_nodes": [min(k["nodes"]), max(k["nodes"])] if k["nodes"] else None}
                for name, k in kinds.items()}
    return {
        # tasks that ran to their verdict, pass or fail (failures have their
        # own metric); the median round stands in for every round, which keeps
        # the shared machine's short stalls out; wall_s is the plain total
        "tasks_per_s": len(verified) / (statistics.median(round_walls) * len(round_walls)),
        "task_p50_s": statistics.median(latencies),
        "task_tail_s": tail,
        "tail_percentile": pct,
        "tail_samples": len(latencies),
        "fail_frac": len(failed) / len(records),
        "verified_frac": 1.0 - len(failed) / len(records),
        "attempted": len(records),
        "failed": len(failed),
        # failures of a kind with a documented defect are counted, not excused:
        # they stay in failed, fail_frac and verified_frac
        "correct": not unexpected,
        "unexpected_failure_kinds": unexpected,
        "wall_s": sum(round_walls),
        "round_walls_s": round_walls,
        "per_kind": per_kind,
        "witnesses": {f"accuracy.{k}": v for k, v in sorted(witnesses.items())},
        "failed_inputs": list(failed_inputs.values()),
    }


def _metric_specs(section: str):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def _emit(summary_lines, report, metrics, section, correct, attempted, failed):
    specs = _metric_specs(section)
    missing = [name for name, _ in specs if name not in metrics]
    if missing:
        _fail(f"metrics not measured: {missing}", 3)
    for line in summary_lines:
        print(line)
    print(json.dumps({"report": report}, default=_finite))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in specs}}))


def _kind_lines(per_kind):
    out = []
    for name, k in per_kind.items():
        why = "; ".join(f"{r} x{n}" for r, n in sorted(k["reasons"].items()))
        out.append(f"  {name:22s} {k['attempted'] - k['failed']:3d}/{k['attempted']:<3d} passed"
                   f"  p50 {k['p50_s']:.3f} s" + (f"  failures: {why}" if why else ""))
    return out


def _rounds(args) -> int:
    return max(1, round(args.seconds / ROUND_S[args.workload]))


def untraced(tasks, args, task_list):
    setup = _setup_times(args.workload, args.seed)
    records, round_walls = run_loop(tasks, task_list, len(tasks.WORKLOADS[args.workload]),
                                    _rounds(args), 4.0 * args.seconds)
    s = summarize(records, task_list, round_walls, tasks.KNOWN_DEFECTS)
    metrics = {
        "tasks_per_s": s["tasks_per_s"], "task_p50_s": s["task_p50_s"],
        "task_tail_s": s["task_tail_s"], "verified_frac": s["verified_frac"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = dict(_metric_specs("end_to_end"))
    lines = [f"workload {args.workload}  seed {args.seed}  {s['attempted']} tasks in "
             f"{s['wall_s']:.1f} s"]
    lines += [f"  {name:14s} {value:.6g} {units[name]}" for name, value in metrics.items()]
    lines += [f"  {'fail_frac':14s} {s['fail_frac']:.6g} ratio",
              f"  tail is p{s['tail_percentile']:.1f} of {s['tail_samples']} tasks"]
    lines += [f"  {k:34s} {v:.3g}" for k, v in s["witnesses"].items()]
    lines += _kind_lines(s["per_kind"])
    report = {"provenance": provenance(args.workload, args.seed, task_list, tasks),
              "setup_samples_s": setup, **s}
    _emit(lines, report, metrics, "end_to_end", s["correct"], s["attempted"], s["failed"])


def traced(tasks, args, task_list):
    from spans import CUMULATIVE, Tracer
    n_kinds = len(tasks.WORKLOADS[args.workload])
    # the same rounds untraced, then traced: half the untraced run's work each
    plain, _ = run_loop(tasks, task_list, n_kinds, max(1, _rounds(args) // 2),
                        2.0 * args.seconds)
    rounds = len(plain) // n_kinds
    tracer = Tracer()
    with tracer.instrument():
        with tracer.span("bench.run"):
            records, round_walls = run_loop(tasks, task_list, n_kinds, rounds,
                                            4.0 * args.seconds, tracer=tracer)
    rows = tracer.summary()
    n = len(records)
    wall = rows["bench.run"]["total_s"]
    self_sum = sum(r["self_s"] for r in rows.values())
    c = tracer.counts

    def row(name, field):
        return rows.get(name, {}).get(field, 0.0) / n

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    metrics = {
        "domain.matrix_batch.points": c["domain.matrix_batch.points"] / n,
        "domain.matrix_batch.self_s": row("domain.matrix_batch", "self_s"),
        "engine.factory.builds": c["engine.factory.builds"] / n,
        "engine.factory.nodes": c["engine.factory.nodes"] / n,
        "engine.factory.builds_per_energy": ratio("scatter.factory_builds", "scatter.energies"),
        "engine.factory.self_s": row("engine.factory", "self_s"),
        "engine.propagators.calls": row("engine.propagators", "calls"),
        "engine.propagators.nodes": c["engine.propagators.nodes"] / n,
        "engine.propagators.bytes_computed": c["engine.propagators.bytes_computed"] / n,
        "engine.propagators.self_s": row("engine.propagators", "self_s"),
        "engine.transfer_product.per_energy": ratio("scatter.transfer_products",
                                                    "scatter.energies"),
        "engine.transfer_product.self_s": row("engine.transfer_product", "self_s"),
        "engine.propagate_trajectory.nodes": c["engine.propagate_trajectory.nodes"] / n,
        "engine.propagate_trajectory.self_s": row("engine.propagate_trajectory", "self_s"),
        "engine.clearance_point.self_s": row("engine.clearance_point", "self_s"),
        "engine.find_bound_states.energies_per_level": ratio("bound.energies", "bound.levels"),
        "engine.find_bound_states.total_s": row("engine.find_bound_states", "total_s"),
        "engine.estimate_resonance_width.energies_per_call":
            (c["resonance.energies"] / rows["engine.estimate_resonance_width"]["calls"]
             if "engine.estimate_resonance_width" in rows else 0.0),
        "engine.scattering_matrix.total_s": row("engine.scattering_matrix", "total_s"),
        "engine.integrate_jost.total_s": row("engine.integrate_jost", "total_s"),
        "engine.integrate_regular.total_s": row("engine.integrate_regular", "total_s"),
        "dressing.Dressing.builds": c["dressing.Dressing.builds"] / n,
        "dressing.Dressing.self_s": row("dressing.Dressing", "self_s"),
        "dressing.cumulative.self_s": sum(row(name, "self_s") for name in CUMULATIVE),
        "dressing.delta_v.self_s": row("dressing.delta_v", "self_s"),
        "dressing.map_values.self_s": row("dressing.map_values", "self_s"),
        "bench.verify.self_s": row("bench.verify", "self_s"),
        "bench.unattributed_s": row("bench.task", "self_s"),
        "bench.trace_overhead": 1.0 - _program_time(plain, n_kinds) / _program_time(records,
                                                                                n_kinds),
        "bench.traced_wall_s": wall / n,
        "bench.self_sum_s": self_sum / n,
    }
    for name in TRANSFORMS:
        metrics[f"{name}.self_s"] = row(name, "self_s")
    s = summarize(records, task_list, round_walls, tasks.KNOWN_DEFECTS)
    lines = [f"workload {args.workload}  seed {args.seed}  traced {n} tasks "
             f"({rounds} rounds) in {wall:.2f} s; self times sum to {self_sum:.6f} s",
             "  per-layer figures are per task; times in s"]
    lines += [f"  {k:52s} {v:.6g}" for k, v in metrics.items()]
    lines += _kind_lines(s["per_kind"])
    remainders = tracer.task_remainders()
    spans_file = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json"
    spans_file.parent.mkdir(exist_ok=True)
    t0 = tracer.spans[0][1]
    spans_file.write_text(json.dumps({
        "fields": ["name", "start_s", "end_s", "parent", "task"],
        "spans": [(name, a - t0, b - t0, parent, task)
                  for name, a, b, parent, task in tracer.spans]}))
    report = {"provenance": provenance(args.workload, args.seed, task_list, tasks),
              "spans": len(tracer.spans), "spans_file": str(spans_file.relative_to(ROOT)),
              "callables": rows,
              "task_remainder_s": {"median": statistics.median(remainders),
                                   "max": max(remainders), "sum": sum(remainders)},
              "self_sum_matches_wall": abs(self_sum - wall) <= 1e-6 * wall,
              **{k: s[k] for k in ("attempted", "failed", "per_kind", "witnesses")}}
    _emit(lines, report, metrics, "per_layer", s["correct"], s["attempted"], s["failed"])


def _program_time(records, n_kinds):
    """Summed task latency, leaving out the first round (first-call effects)
    when there is more than one."""
    skip = n_kinds if len(records) > n_kinds else 0
    return sum(r[1] for r in records[skip:])


TRANSFORMS = (
    "marchenko.create_reflectionless", "marchenko.create_two_states",
    "marchenko.add_bound_state", "marchenko.remove_bound_state", "marchenko.move_level",
    "gl.transform_bound_state", "gl.matched_bsec_weights", "gl.create_bsec",
    "susy.factorize", "susy.susy_partner", "bands.comb_system", "bands.monodromy_cos",
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        _fail("--seconds must be positive")
    tasks = _import_program()
    task_list = _setup(tasks, args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return
    if args.trace:
        traced(tasks, args, task_list)
    else:
        untraced(tasks, args, task_list)


if __name__ == "__main__":
    main()
