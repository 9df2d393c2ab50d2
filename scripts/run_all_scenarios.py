#!/usr/bin/env python3
"""Run every bundled scenario into out/ and summarize the assertion results."""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mcdesign import cli  # noqa: E402
from mcdesign.scenarios import SCENARIOS  # noqa: E402


def main():
    outdir = sys.argv[1] if len(sys.argv) > 1 else "out"
    failures = 0
    for name in SCENARIOS:
        t0 = time.time()
        cfg = cli.load_config(name)
        code, manifest = cli.run_scenario(cfg, os.path.join(outdir, name))
        n_pass = sum(a["passed"] for a in manifest["assertions"])
        n_all = len(manifest["assertions"])
        status = "ok " if code == 0 else "FAIL"
        print(f"[{status}] {name:22s} {n_pass}/{n_all} assertions "
              f"({time.time() - t0:5.1f}s)")
        failures += code != 0
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
