"""Self-test of the benchmark at tiny size.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

It checks that the task list is a function of the seed, that every kind runs
and that its verifier rejects a perturbed result, that one-round runs of
every workload print every metric of BENCHMARK.json with its unit (traced
and untraced), that the traced self times add up to the traced wall time,
and that the benchmark refuses to run without the package sources.  Exits
non-zero on the first failed check.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        sys.exit(1)


def perturbed(value):
    """The value with its first numeric leaf moved to 1.5 x + 0.1."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return 1.5 * value + 0.1, True
    if isinstance(value, list):
        out = list(value)
        for i, v in enumerate(out):
            out[i], done = perturbed(v)
            if done:
                return out, True
    return value, False


def check_hashes(tasks):
    for w in tasks.WORKLOADS:
        a = tasks.task_hash(tasks.generate(w, 11, 3))
        b = tasks.task_hash(tasks.generate(w, 11, 3))
        c = tasks.task_hash(tasks.generate(w, 12, 3))
        expect(a == b and a != c, f"{w}: same seed same task hash, other seed another")


def check_verifiers(tasks):
    """Each kind runs; a perturbed result fails its verifier."""
    for w in tasks.WORKLOADS:
        pending = set(tasks.WORKLOADS[w])
        for task in tasks.generate(w, 5, 3):
            kind = tasks.KINDS[task["kind"]]
            if task["kind"] not in pending:
                continue
            try:
                result = kind.run(task["params"])
            except Exception as exc:        # try the next draw of this kind
                print(f"     {task['kind']} raised {type(exc).__name__}; next draw")
                continue
            pending.discard(task["kind"])
            checks = tasks.check(task, result)
            passed = all(err <= tol for err, tol, _ in checks.values())
            bad = dict(result)
            bad[kind.perturb], done = perturbed(result[kind.perturb])
            rejected = any(not err <= tol for err, tol, _ in tasks.check(task, bad).values())
            expect(done and rejected,
                   f"{task['kind']}: runs ({'passes' if passed else 'fails'} its oracle), "
                   f"perturbed '{kind.perturb}' is rejected")
        expect(not pending, f"{w}: every kind ran ({sorted(pending) or 'all'})")


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def check_runs(root):
    for w in SPEC["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                                   w["name"], "--seed", "3", "--seconds", "0.01",
                                   "--trace", str(trace)],
                                  capture_output=True, text=True, timeout=300, cwd=root)
            expect(proc.returncode == 0, f"{w['name']} --trace {trace} exits 0")
            out = last_json(proc.stdout)
            expect(sorted(out) == ["attempted", "correct", "failed", "metrics"]
                   and out["attempted"] >= 1, f"{w['name']} --trace {trace}: result keys")
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            finite = all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                         for v in out["metrics"].values())
            expect(got == want and finite,
                   f"{w['name']} --trace {trace}: all {len(want)} {section} metrics with units")
            if trace:
                report = json.loads(proc.stdout.strip().splitlines()[-2])["report"]
                expect(report["self_sum_matches_wall"],
                       f"{w['name']}: self times plus remainder add up to the traced wall time")


def check_refuses_without_sources(root):
    bare = root / ".selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
                               "scatter_sweep", "--seed", "1", "--seconds", "1",
                               "--trace", "0"],
                              capture_output=True, text=True, timeout=170, cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "refuses to run without src/mcdesign, printing no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    root = Path.cwd()
    tasks = run._import_program()
    check_hashes(tasks)
    check_verifiers(tasks)
    check_runs(root)
    check_refuses_without_sources(root)
    print("self-test passed")


if __name__ == "__main__":
    main()
