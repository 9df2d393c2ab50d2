"""Scenario runner: ``mcdesign run|list|validate``.

Configs are JSON (schema 1): name, scenario dispatch key, parameters and a
list of assertions over the scenario's named metrics.  Each scenario key has
one bundled config (``configs/<key>.json`` in this package), the only record
of its default parameters; a user config's ``params`` overlay those defaults
and may only name keys the bundled config has, with values of the same JSON
type.  ``run`` emits one CSV
per output table (17 significant digits, written atomically) and a JSON
manifest with parameters, derived quantities and every assertion's measured
value.  Exit codes: 0 pass, 2 config error, 3 numerical error, 4 assertion
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from importlib import resources

import numpy as np

from . import scenarios
from .errors import (
    ConfigurationError,
    ConstructionInvalidError,
    DomainError,
    IntegrationOverflowError,
    InvalidSpecError,
    SingularTransformError,
    ThresholdSingularityError,
)

_OPS = {
    "<=": lambda m, v: m <= v,
    ">=": lambda m, v: m >= v,
    "<": lambda m, v: m < v,
    ">": lambda m, v: m > v,
    "==": lambda m, v: m == v,
    "!=": lambda m, v: m != v,
}

NUMERICAL_ERRORS = (ConfigurationError, ConstructionInvalidError, DomainError,
                    IntegrationOverflowError, InvalidSpecError,
                    SingularTransformError, ThresholdSingularityError)


class ConfigError(ValueError):
    pass


def validate_config(cfg: dict) -> dict:
    """Schema-check ``cfg``; returns it with ``params`` complete, the bundled
    defaults overlaid with the config's own."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    if cfg.get("schema") != 1:
        raise ConfigError("field 'schema': expected the integer 1")
    name = cfg.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError("field 'name': expected a non-empty string")
    key = cfg.get("scenario")
    if key not in scenarios.SCENARIOS:
        raise ConfigError(f"field 'scenario': unknown key {key!r}; "
                          f"known: {', '.join(sorted(scenarios.SCENARIOS))}")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("field 'params': expected an object")
    defaults = bundled_config(key)["params"]
    for field, value in params.items():
        if field not in defaults:
            raise ConfigError(f"params.{field}: not a parameter of scenario {key!r}; "
                              f"known: {', '.join(sorted(defaults))}")
        _check_type(f"params.{field}", value, defaults[field])
    assertions = cfg.get("assertions", [])
    if not isinstance(assertions, list):
        raise ConfigError("field 'assertions': expected a list")
    for i, a in enumerate(assertions):
        for field in ("name", "metric", "op", "value"):
            if field not in a:
                raise ConfigError(f"assertions[{i}]: missing field '{field}'")
        if a["op"] not in _OPS:
            raise ConfigError(f"assertions[{i}].op: unknown operator {a['op']!r}")
        if not isinstance(a["value"], (int, float)):
            raise ConfigError(f"assertions[{i}].value: expected a number")
    return {**cfg, "params": {**defaults, **params}}


def _json_type(value) -> str:
    for kind, types in (("boolean", bool), ("integer", int), ("number", float),
                        ("string", str), ("list", list), ("object", dict)):
        if isinstance(value, types):
            return kind
    return "null"


def _check_type(field: str, value, default):
    """``value`` must have the JSON type of the bundled default; an integer
    passes for a number, lists are checked element by element."""
    want, got = _json_type(default), _json_type(value)
    if got != want and not (want == "number" and got == "integer"):
        raise ConfigError(f"{field}: expected {want}, got {json.dumps(value)}")
    if want == "list" and default:
        for i, item in enumerate(value):
            _check_type(f"{field}[{i}]", item, default[0])


def bundled_config(key: str) -> dict:
    """The bundled config of scenario ``key``."""
    path = resources.files(__package__).joinpath("configs", f"{key}.json")
    return json.loads(path.read_text())


def load_config(ref: str) -> dict:
    """A config path, or the name of a bundled scenario."""
    if os.path.exists(ref):
        with open(ref) as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{ref}: invalid JSON ({exc})") from exc
        return validate_config(cfg)
    if ref in scenarios.SCENARIOS:
        return validate_config(bundled_config(ref))
    raise ConfigError(f"{ref!r} is neither a config file nor a bundled scenario name")


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, table: dict):
    lines = [",".join(table["columns"])]
    for row in table["data"]:
        lines.append(",".join(f"{v:.17g}" for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def run_scenario(cfg: dict, outdir: str, overrides: dict | None = None):
    """Execute one scenario; returns (exit_code, manifest)."""
    overrides = dict(overrides or {})
    os.makedirs(outdir, exist_ok=True)
    fn = scenarios.SCENARIOS[cfg["scenario"]]
    tables, metrics, derived = fn(cfg["params"], overrides)
    files = []
    for tname, table in tables.items():
        path = os.path.join(outdir, f"{cfg['name']}_{tname}.csv")
        _write_csv(path, table)
        files.append(os.path.basename(path))
    results = []
    all_passed = True
    for a in cfg.get("assertions", []):
        measured = metrics.get(a["metric"])
        if measured is None:
            passed = False
        else:
            passed = bool(_OPS[a["op"]](measured, a["value"]))
        all_passed &= passed
        results.append({"name": a["name"], "metric": a["metric"], "op": a["op"],
                        "value": a["value"],
                        "measured": _jsonable(measured), "passed": passed})
    manifest = {
        "schema": 1,
        "name": cfg["name"],
        "scenario": cfg["scenario"],
        "params": _jsonable(cfg["params"]),
        "overrides": _jsonable(overrides),
        "metrics": _jsonable(metrics),
        "derived": _jsonable(derived),
        "assertions": results,
        "files": files,
        "passed": bool(all_passed),
    }
    _atomic_write(os.path.join(outdir, f"{cfg['name']}_manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return (0 if all_passed else 4), manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mcdesign",
                                     description="coupled-channel design scenarios")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="print the bundled scenario names")
    p_val = sub.add_parser("validate", help="schema-check a config (file or name)")
    p_val.add_argument("config")
    p_run = sub.add_parser("run", help="run a scenario config (file or name)")
    p_run.add_argument("config")
    p_run.add_argument("outdir")
    p_run.add_argument("--grid-step", type=float, default=None,
                       help="override the integrator step")
    p_run.add_argument("--x-max", type=float, default=None,
                       help="override the domain half-width / extent")
    p_run.add_argument("--seed-tolerance", type=float, default=None,
                       help="override the seed-determinant floor for factorizations")
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in scenarios.SCENARIOS:
            print(name)
        return 0
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print(f"{cfg['name']}: ok")
        return 0
    overrides = {"grid_step": args.grid_step, "x_max": args.x_max,
                 "seed_tolerance": args.seed_tolerance}
    try:
        code, manifest = run_scenario(cfg, args.outdir, overrides)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    for a in manifest["assertions"]:
        mark = "pass" if a["passed"] else "FAIL"
        print(f"[{mark}] {a['name']}: {a['metric']} = {a['measured']} "
              f"{a['op']} {a['value']}")
    print(f"{cfg['name']}: {'all assertions passed' if code == 0 else 'ASSERTIONS FAILED'}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
