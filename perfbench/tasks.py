"""Seeded design-and-verify tasks, grouped into the benchmark's workloads.

A task is a JSON-serializable dict ``{"kind": ..., "params": ...}``.  Each
kind has three parts:

* ``draw(rng)`` makes the parameters from the workload's random generator;
* ``run(params)`` drives the public mcdesign API and returns what the
  program produced (this is the timed part of a task);
* ``verify(params, result)`` compares that result with the reference values
  of ``oracles`` and returns named checks ``(error, tolerance, witness)``.

``perturb`` names the result field the self-test corrupts to prove that the
verifier can fail.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from mcdesign import bands, engine, gl, marchenko, susy
from mcdesign.domain import ChannelSystem, PiecewiseConstant
from mcdesign.engine import SolverConfig

import oracles

# witness names; each check feeds the maximum of one of them.  FIT holds the
# relative errors of fitted quantities (resonance widths, tail slopes), which
# live on another scale than the closed-form comparisons under ORACLE.
LEVEL, UNITARITY, S_KEEP, ORACLE, FIT = ("level_err_max", "unitarity_max",
                                         "s_preservation_max", "oracle_err_max",
                                         "fit_err_max")


@dataclass(frozen=True)
class Kind:
    draw: Callable
    run: Callable
    verify: Callable
    perturb: str


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _levels(states):
    return [float(s.energy) for s in states]


def _level_errors(found, targets):
    """Largest |found - target| when the counts agree, else infinity."""
    if len(found) != len(targets):
        return math.inf
    return max((abs(a - b) for a, b in zip(sorted(found), sorted(targets))), default=0.0)


def _level_check(found, ref, tol, bracket, relative=False):
    """``{"levels": (error, tol, LEVEL)}`` for found against reference levels.

    Two count mismatches with a documented cause (README.md) get their own
    check names, so they stay apart from other misses:
    ``levels_closer_than_bracket`` when only levels lying closer together than
    the scan's ``bracket_step`` are missing, ``levels_duplicated`` when the
    only extra levels repeat a found energy (a rank deficiency counted twice).
    """
    found, ref = sorted(found), sorted(ref)

    def error(a, b):
        return abs(a - b) / (max(1.0, abs(b)) if relative else 1.0)

    if len(found) == len(ref):
        return {"levels": (max(map(error, found, ref), default=0.0), tol, LEVEL)}
    distinct = [e for i, e in enumerate(found) if i == 0 or e - found[i - 1] > 1e-9]
    if len(distinct) == len(ref) and max(map(error, distinct, ref), default=0.0) <= tol:
        return {"levels_duplicated": (math.inf, tol, LEVEL)}
    missing = [e for e in ref if not any(abs(e - f) < 1e-2 for f in found)]
    close = (len(found) < len(ref) and missing
             and all(any(0.0 < abs(e - o) < bracket for o in ref) for e in missing))
    return {"levels_closer_than_bracket" if close else "levels": (math.inf, tol, LEVEL)}


def _unitarity(s):
    s = np.asarray(s, dtype=complex)
    return float(np.max(np.abs(s.conj().T @ s - np.eye(s.shape[0]))))


def _cplx(m):
    """Complex matrix as nested [re, im] lists, so results stay JSON-clean."""
    m = np.asarray(m, dtype=complex)
    return [m.real.tolist(), m.imag.tolist()]


def _uncplx(pair):
    return np.asarray(pair[0]) + 1j * np.asarray(pair[1])


def _coupled_well(depth, coupling, width=math.pi):
    m = np.array([[depth, coupling], [coupling, depth]])
    return PiecewiseConstant(2, pieces=[(0.0, width, m)])


def _double_barrier(height, width, gap):
    a = 0.5 * gap
    return [(-a - width, -a, height), (a, a + width, height)]


# ---------------------------------------------------------------------------
# scatter_sweep: S-matrices and resonance widths, one factory per energy


def draw_resonance_width(rng):
    return {"height": _u(rng, 10.0, 14.0), "width": _u(rng, 0.4, 0.6),
            "gap": _u(rng, 2.0, 2.4), "window": [0.3, 3.0], "step": 2e-3}


def run_resonance_width(p):
    pieces = _double_barrier(p["height"], p["width"], p["gap"])
    pot = PiecewiseConstant(1, pieces=[(lo, hi, [[h]]) for lo, hi, h in pieces])
    system = ChannelSystem((0.0,), pot, "whole_line", 12.0)
    lo, hi = p["window"]
    est = engine.estimate_resonance_width(system, 0.5 * (lo + hi), 0.5 * (hi - lo), 0,
                                          SolverConfig(step=p["step"]))
    if est is None:
        return {"energy": None, "width_delay": None, "width_fit": None}
    return {"energy": est.energy, "width_delay": est.width_delay, "width_fit": est.width_fit}


def verify_resonance_width(p, r):
    if r["energy"] is None:
        return {"resonance_found": (math.inf, 0.0, FIT)}
    e_pk, fwhm = oracles.resonance_peak(_double_barrier(p["height"], p["width"], p["gap"]),
                                        *p["window"])
    return {
        "energy_vs_peak": (abs(r["energy"] - e_pk) / fwhm, 0.1, FIT),
        "delay_width_vs_fwhm": (abs(r["width_delay"] / fwhm - 1.0), 0.3, FIT),
        "fit_vs_delay_width": (abs(r["width_fit"] / r["width_delay"] - 1.0), 0.3, FIT),
    }


def draw_barrier_sweep(rng):
    height = _u(rng, 2.0, 6.0)
    # 20 energies on each system; offsets keep them off the barrier top and
    # off the second threshold, where the closed forms change branch
    e1 = np.linspace(0.3, 2.0 * height, 20) + rng.uniform(-0.02, 0.02, 20)
    e2 = np.linspace(0.2, 5.0, 20) + rng.uniform(-0.03, 0.03, 20)
    e1 = [float(e) for e in e1 if abs(e - height) > 1e-3]
    e2 = [float(e) for e in e2 if abs(e - 1.0) > 1e-3]
    return {"height": height, "width": _u(rng, 0.5, 1.5), "energies_1": e1,
            "depth": _u(rng, -6.0, -4.0), "coupling": _u(rng, 0.2, 0.6),
            "energies_2": e2, "step": 1e-3}


def run_barrier_sweep(p):
    cfg = SolverConfig(step=p["step"])
    a = 0.5 * p["width"]
    one = ChannelSystem((0.0,), PiecewiseConstant(1, pieces=[(-a, a, [[p["height"]]])]),
                        "whole_line", 12.0)
    t2 = [float(abs(engine.scattering_matrix(one, e, cfg).transmission_right[0, 0]) ** 2)
          for e in p["energies_1"]]
    two = ChannelSystem((0.0, 1.0), _coupled_well(p["depth"], p["coupling"]),
                        "half_line", 30.0)
    s = [_cplx(engine.scattering_matrix(two, e, cfg).s_matrix) for e in p["energies_2"]]
    return {"t2": t2, "s": s}


def verify_barrier_sweep(p, r):
    ref = [oracles.rect_barrier_t2(e, p["height"], p["width"]) for e in p["energies_1"]]
    return {
        "t2_vs_closed_form": (max(abs(a - b) for a, b in zip(r["t2"], ref)), 1e-6, ORACLE),
        "unitarity_2ch": (max(_unitarity(_uncplx(s)) for s in r["s"]), 1e-6, UNITARITY),
    }


def draw_flux(rng):
    return {"barrier": _u(rng, 4.0, 8.0), "coupling": _u(rng, 1.5, 3.5),
            "energies": rng.uniform(2.0, 4.0, 4).tolist(),
            "sides": ["right" if rng.random() < 0.5 else "left" for _ in range(4)],
            "step": 1e-3}


def run_flux(p):
    m_b = np.array([[p["barrier"], 0.0], [0.0, 0.0]])
    m_c = np.array([[0.0, p["coupling"]], [p["coupling"], 0.0]])
    pot = PiecewiseConstant(2, pieces=[(-2.0, -0.5, m_b), (0.5, 2.0, m_c)])
    system = ChannelSystem((0.0, 1.0), pot, "whole_line", 12.0)
    cfg = SolverConfig(step=p["step"])
    fluxes = []
    for e, side in zip(p["energies"], p["sides"]):
        xs, vals, ders = engine.scattering_state(system, e, [1.0, 0.0], side, cfg)
        fluxes.append([engine.total_flux(vals[i], ders[i], system, e)
                       for i in range(0, len(xs), max(1, len(xs) // 48))])
    return {"flux": fluxes, "nodes": len(xs)}


def verify_flux(p, r):
    var = max(float((max(f) - min(f)) / abs(f[0])) for f in r["flux"])
    return {"flux_variation": (var, 1e-8, UNITARITY)}


# ---------------------------------------------------------------------------
# level_search: bound-state scans, one factory per matcher


def draw_reflectionless_level(rng):
    e_b = _u(rng, -0.8, -0.3)
    return {"thresholds": [0.0, 1.0], "energy": e_b,
            "weights": [_u(rng, 0.5, 1.5), _u(rng, 0.5, 1.5)], "x_max": 40.0,
            "window": [e_b - 0.8, -0.05], "step": 1e-3, "bracket": 0.02}


def run_reflectionless_level(p):
    res = marchenko.create_reflectionless(p["thresholds"], p["energy"], p["weights"],
                                          p["x_max"])
    states = engine.find_bound_states(res.system, p["window"],
                                      SolverConfig(step=p["step"], bracket_step=p["bracket"]))
    return {"levels": _levels(states),
            "m_weights": [np.abs(s.m_datum.weights).tolist() for s in states],
            "nodes": len(states[0].grid) if states else 0}


def verify_reflectionless_level(p, r):
    checks = {"level": (_level_errors(r["levels"], [p["energy"]]), 1e-6, LEVEL)}
    if len(r["m_weights"]) == 1:
        w = np.asarray(p["weights"])
        checks["m_weights"] = (float(np.max(np.abs(np.asarray(r["m_weights"][0]) - w) / w)),
                               1e-3, ORACLE)
    return checks


def draw_near_degenerate_pair(rng):
    e1 = _u(rng, 0.4, 0.6)
    gap = float(10.0 ** rng.uniform(-3.0, -2.0))
    return {"thresholds": [1.0, 2.0], "energies": [e1, e1 + gap],
            "weights": [[0.0, _u(rng, 0.8, 1.2)], [_u(rng, 0.8, 1.2), _u(rng, 0.05, 0.2)]],
            "x_max": 40.0, "window": [e1 - 4.0 * gap, e1 + 5.0 * gap],
            "step": 2e-3, "bracket": gap / 5.0}


def run_near_degenerate_pair(p):
    (e1, e2), (m1, m2) = p["energies"], p["weights"]
    res = marchenko.create_two_states(p["thresholds"], (e1, m1), (e2, m2), p["x_max"])
    states = engine.find_bound_states(res.system, p["window"],
                                      SolverConfig(step=p["step"], bracket_step=p["bracket"]))
    return {"levels": _levels(states), "nodes": len(states[0].grid) if states else 0}


def verify_near_degenerate_pair(p, r):
    return {"levels": (_level_errors(r["levels"], p["energies"]), 1e-6, LEVEL)}


def draw_coupled_box(rng):
    boxes = []
    for n in (2, 3):
        c = rng.uniform(-1.5, 1.5, (n, n))
        c = 0.5 * (c + c.T)
        c[np.diag_indices(n)] = rng.uniform(-3.0, 0.0, n)
        thr = _u(rng, 0.0, 1.0)
        boxes.append({"thresholds": [thr] * n, "coupling": c.tolist(),
                      "width": _u(rng, 2.8, 3.3), "wall": _u(rng, 40.0, 120.0),
                      "window": [thr - 5.0, thr + 8.0]})
    return {"boxes": boxes, "step": 1e-3, "bracket": 0.05}


def run_coupled_box(p):
    cfg = SolverConfig(step=p["step"], bracket_step=p["bracket"])
    levels = []
    for b in p["boxes"]:
        n = len(b["thresholds"])
        pot = PiecewiseConstant(n, pieces=[(0.0, b["width"], b["coupling"]),
                                           (b["width"], math.inf, b["wall"] * np.eye(n))])
        system = ChannelSystem(tuple(b["thresholds"]), pot, "half_line", b["width"] + 1.0)
        states = engine.find_bound_states(system, b["window"], cfg)
        levels.append(_levels(states))
    return {"levels": levels, "nodes": len(states[0].grid) if states else 0}


def verify_coupled_box(p, r):
    checks = {}
    for b, found in zip(p["boxes"], r["levels"]):
        ref = oracles.coupled_box_levels(b["coupling"], b["thresholds"][0], b["width"],
                                         b["wall"], b["window"][1])
        ref = [e for e in ref if e > b["window"][0]]
        for name, check in _level_check(found, ref, 1e-6, p["bracket"]).items():
            if name not in checks or check[0] > checks[name][0]:
                checks[name] = check
    return checks


def draw_walled_split(rng):
    return {"coupling": _u(rng, 1.5, 2.5), "wall": 4e6, "levels": 3,
            "step": 1e-3, "bracket": 0.05}


def run_walled_split(p):
    w = p["coupling"]
    inner = np.array([[0.0, w], [w, 0.0]])
    pot = PiecewiseConstant(2, pieces=[(0.0, math.pi, inner),
                                       (math.pi, math.inf, p["wall"] * np.eye(2))])
    system = ChannelSystem((0.0, 0.0), pot, "half_line", math.pi + 0.25)
    n = p["levels"]
    window = (1.0 - w - 0.5, 0.5 * (n * n + (n + 1) ** 2))
    states = engine.find_bound_states(system, window,
                                      SolverConfig(step=p["step"], bracket_step=p["bracket"]))
    return {"levels": _levels(states), "nodes": len(states[0].grid) if states else 0}


def verify_walled_split(p, r):
    ref = oracles.split_box_levels(p["coupling"], p["levels"])
    return _level_check(r["levels"], ref, 1e-3, p["bracket"], relative=True)


# ---------------------------------------------------------------------------
# design_chain: transform, then verify the claim with the engine


def draw_move_level(rng):
    return {"depth": _u(rng, -5.2, -4.8), "coupling": _u(rng, 0.2, 0.5),
            "shift": _u(rng, 0.1, 0.4), "probes": [1.5, 3.5, 5.5],
            "step": 1e-3, "bracket": 0.05}


def run_move_level(p):
    cfg = SolverConfig(step=p["step"], bracket_step=p["bracket"])
    system = ChannelSystem((0.0, 1.0), _coupled_well(p["depth"], p["coupling"]),
                           "half_line", 30.0)
    window = (p["depth"] + 0.01, -0.02)
    states = engine.find_bound_states(system, window, cfg)
    gs = states[0]
    moved = marchenko.move_level(system, gs, gs.energy + p["shift"], cfg=cfg)
    found = engine.find_bound_states(moved.system, window, cfg)
    s_dev = max(float(np.max(np.abs(engine.scattering_matrix(moved.system, e, cfg).s_matrix
                                    - engine.scattering_matrix(system, e, cfg).s_matrix)))
                for e in p["probes"])
    return {"base": _levels(states), "moved": _levels(found), "s_dev": s_dev,
            "nodes": len(moved.grid)}


def verify_move_level(p, r):
    base = r["base"]
    targets = [base[0] + p["shift"]] + base[1:]
    return {"levels": (_level_errors(r["moved"], targets), 1e-5, LEVEL),
            "s_preserved": (r["s_dev"], 1e-4, S_KEEP)}


def draw_gl_lift(rng):
    return {"width": math.pi, "wall": 1e6, "lift": _u(rng, 0.5, 1.0),
            "step": 1e-3, "bracket": 0.05}


def _gl_window(p):
    e1 = (math.pi / p["width"]) ** 2
    return (0.2 * e1, 12.5 * e1)          # levels n^2 e1 for n = 1, 2, 3


def run_gl_lift(p):
    cfg = SolverConfig(step=p["step"], bracket_step=p["bracket"])
    box = PiecewiseConstant(1, pieces=[(p["width"], math.inf, [[p["wall"]]])])
    system = ChannelSystem((0.0,), box, "half_line", p["width"] + 0.2)
    window = _gl_window(p)
    states = engine.find_bound_states(system, window, cfg)
    gs = states[0]
    spec = gl.GlTransformSpec(system=system, state=gs, new_energy=gs.energy + p["lift"],
                              new_weights=gs.c_datum.weights)
    phi_new = engine.integrate_regular(system, spec.new_energy, cfg)
    lifted = gl.transform_bound_state(spec, phi_new, cfg)
    found = engine.find_bound_states(lifted.system, window, cfg)
    return {"base": _levels(states), "lifted": _levels(found), "nodes": len(lifted.grid)}


def verify_gl_lift(p, r):
    ref = oracles.finite_well_levels([0.0], p["width"], p["wall"], _gl_window(p)[1])
    targets = [ref[0] + p["lift"]] + ref[1:]
    return {"base_levels": (_level_errors(r["base"], ref), 1e-5, ORACLE),
            "lifted_levels": (_level_errors(r["lifted"], targets), 1e-5, LEVEL)}


def draw_add_level(rng):
    e_b = _u(rng, -0.8, -0.3)
    # the added potential decays like exp(-2 kappa |x|); the domain reaches
    # past the point where that tail drops below the engine's decay tolerance
    # for the shallowest level drawn (4 + 9 / sqrt(0.3) < 21)
    return {"heights": [_u(rng, 8.0, 14.0), _u(rng, 6.0, 10.0)],
            "energy": e_b, "weights": [_u(rng, 0.5, 1.5), _u(rng, 0.5, 1.5)],
            "x_max": 21.0, "probe": 2.0,
            "step": 1e-3, "bracket": 0.02}


def _barrier_pair_system(p):
    h1, h2 = p["heights"]
    a = np.diag([h1, 0.0])
    b = np.diag([0.0, h2])
    pieces = [(-1.6, -1.1, a), (1.1, 1.6, a), (-0.7, 0.7, b)]
    return ChannelSystem((0.0, 0.0), PiecewiseConstant(2, pieces=pieces),
                         "whole_line", p["x_max"])


def run_add_level(p):
    cfg = SolverConfig(step=p["step"], bracket_step=p["bracket"])
    system = _barrier_pair_system(p)
    res = marchenko.add_bound_state(system, p["energy"], p["weights"], cfg)
    found = engine.find_bound_states(res.system, (p["energy"] - 0.5, -0.05), cfg)
    d0 = engine.scattering_matrix(system, p["probe"], cfg)
    d1 = engine.scattering_matrix(res.system, p["probe"], cfg)
    t_col = (np.linalg.norm(d1.transmission_right, axis=0)
             - np.linalg.norm(d0.transmission_right, axis=0))
    return {"levels": _levels(found),
            "m_weights": [np.abs(s.m_datum.weights).tolist() for s in found],
            "s_dev": max(float(np.max(np.abs(d1.reflection_right - d0.reflection_right))),
                         float(np.max(np.abs(t_col)))),
            "nodes": len(res.grid)}


def verify_add_level(p, r):
    checks = {"level": (_level_errors(r["levels"], [p["energy"]]), 1e-5, LEVEL),
              "reflection_kept": (r["s_dev"], 1e-4, S_KEEP)}
    if len(r["m_weights"]) == 1:
        w = np.asarray(p["weights"])
        checks["m_weights"] = (float(np.max(np.abs(np.asarray(r["m_weights"][0]) - w) / w)),
                               1e-3, ORACLE)
    return checks


def draw_remove_level(rng):
    e_b = _u(rng, -0.8, -0.3)
    return {"thresholds": [0.0, 1.0], "energy": e_b,
            "weights": [_u(rng, 0.5, 1.5), _u(rng, 0.5, 1.5)], "x_max": 40.0,
            "window": [e_b - 0.7, -0.05], "probe": 2.0, "step": 2e-3, "bracket": 0.05}


def run_remove_level(p):
    cfg = SolverConfig(step=p["step"], bracket_step=p["bracket"])
    res = marchenko.create_reflectionless(p["thresholds"], p["energy"], p["weights"],
                                          p["x_max"])
    states = engine.find_bound_states(res.system, p["window"], cfg)
    removed = marchenko.remove_bound_state(res.system, states[0], cfg)
    v_max = float(np.max(np.abs(removed.potential.matrix_batch(removed.grid))))
    left = engine.find_bound_states(removed.system, p["window"], cfg)
    refl = engine.scattering_matrix(removed.system, p["probe"], cfg).reflection_right
    return {"base": _levels(states), "v_max": v_max, "left": _levels(left),
            "reflection": float(np.max(np.abs(refl))), "nodes": len(removed.grid)}


def verify_remove_level(p, r):
    # removing the only level of a reflectionless system restores free motion:
    # V = 0 on the whole domain, no level, no reflection
    return {"base_level": (_level_errors(r["base"], [p["energy"]]), 1e-5, LEVEL),
            "free_potential": (r["v_max"], 1e-5, ORACLE),
            "no_reflection": (r["reflection"], 1e-4, ORACLE),
            "no_level_left": (float(len(r["left"])), 0.0, LEVEL)}


def draw_bsec_tail(rng):
    # where the 50..200 fit window already sees the asymptotic 1/x law
    return {"depth": _u(rng, -5.2, -4.6), "coupling": _u(rng, 0.2, 0.5),
            "energy": _u(rng, 0.3, 0.7), "fit_window": [50.0, 200.0], "step": 1e-3}


def run_bsec_tail(p):
    cfg = SolverConfig(step=p["step"])
    system = ChannelSystem((0.0, 1.0), _coupled_well(p["depth"], p["coupling"]),
                           "half_line", 30.0)
    matched = gl.matched_bsec_weights(system, p["energy"], cfg)
    fit = tuple(p["fit_window"])
    res = gl.create_bsec(system, p["energy"], matched, cfg, fit_window=fit)
    off = gl.create_bsec(system, p["energy"], matched * np.array([1.1, 1.0]), cfg,
                         fit_window=fit)
    return {"kinds": [res.tail_kind, off.tail_kind], "slope": res.tail_slope_loglog,
            "nodes": len(res.grid)}


def verify_bsec_tail(p, r):
    # matched weights give a 1/x tail, any other ratio an exponential one
    want = ["power_law", "exponential"]
    return {"tail_kinds": (0.0 if r["kinds"] == want else math.inf, 0.0, ORACLE),
            "slope": (abs(r["slope"] + 1.0), 0.1, FIT)}


def draw_susy_flip(rng):
    return {"period": math.pi, "v1": _u(rng, 5.0, 7.0), "v2": _u(rng, 4.0, 6.0),
            "w": _u(rng, 0.5, 1.5), "thresholds": [0.0, 1.0],
            "factorization_energy": _u(rng, -2.5, -1.5),
            "probes": np.linspace(1.8, 15.0, 6).tolist(), "step": 1e-3}


def _comb_strength(p):
    return np.array([[p["v1"], p["w"]], [p["w"], p["v2"]]])


def run_susy_flip(p):
    cfg = SolverConfig(step=p["step"])
    spec = bands.CombSpec(p["period"], _comb_strength(p), tuple(p["thresholds"]))
    window = bands.comb_system(spec, n_periods=3)
    e_f = p["factorization_energy"]
    fac = susy.factorize(window, e_f, engine.integrate_jost(window, e_f, cfg))
    partner = susy.susy_partner(fac)
    flip = max(float(np.max(np.abs(b.strength + q.strength)))
               for b, q in zip(window.potential.delta_terms(),
                               partner.potential.delta_terms()))
    flipped = bands.CombSpec(spec.period, -spec.strength, spec.thresholds)
    mono = [_cplx(bands.monodromy_cos(flipped, e, cfg)) for e in p["probes"]]
    return {"flip_defect": flip, "monodromy": mono, "nodes": len(fac.grid)}


def verify_susy_flip(p, r):
    flipped = -_comb_strength(p)
    dev = max(oracles.pair_distance(_uncplx(m),
                                    oracles.comb_monodromy_cos(p["period"], flipped,
                                                               p["thresholds"], e))
              for m, e in zip(r["monodromy"], p["probes"]))
    return {"delta_flip": (r["flip_defect"], 1e-12, ORACLE),
            "monodromy_vs_cell_map": (dev, 1e-6, ORACLE)}


KINDS = {
    "resonance_width": Kind(draw_resonance_width, run_resonance_width,
                            verify_resonance_width, "width_delay"),
    "barrier_sweep": Kind(draw_barrier_sweep, run_barrier_sweep, verify_barrier_sweep, "t2"),
    "flux": Kind(draw_flux, run_flux, verify_flux, "flux"),
    "reflectionless_level": Kind(draw_reflectionless_level, run_reflectionless_level,
                                 verify_reflectionless_level, "levels"),
    "near_degenerate_pair": Kind(draw_near_degenerate_pair, run_near_degenerate_pair,
                                 verify_near_degenerate_pair, "levels"),
    "coupled_box": Kind(draw_coupled_box, run_coupled_box, verify_coupled_box, "levels"),
    "walled_split": Kind(draw_walled_split, run_walled_split, verify_walled_split, "levels"),
    "move_level": Kind(draw_move_level, run_move_level, verify_move_level, "moved"),
    "gl_lift": Kind(draw_gl_lift, run_gl_lift, verify_gl_lift, "lifted"),
    "add_level": Kind(draw_add_level, run_add_level, verify_add_level, "levels"),
    "remove_level": Kind(draw_remove_level, run_remove_level, verify_remove_level, "v_max"),
    "bsec_tail": Kind(draw_bsec_tail, run_bsec_tail, verify_bsec_tail, "slope"),
    "susy_flip": Kind(draw_susy_flip, run_susy_flip, verify_susy_flip, "monodromy"),
}

# (kind, check) pairs that fail through a documented defect of the package
# (README.md).  They are counted in ``failed`` like any other failure, but do
# not make a run incorrect; any other failed check or exception does.
KNOWN_DEFECTS = {
    ("remove_level", "free_potential"): "remove_bound_state leaves a remnant potential",
    ("remove_level", "no_reflection"): "and the remnant reflects",
    ("remove_level", "no_level_left"): "and a large remnant binds a level",
    ("coupled_box", "levels_closer_than_bracket"): "the scan misses two levels closer "
                                                    "than bracket_step",
    ("walled_split", "levels_closer_than_bracket"): "same blind spot",
    ("coupled_box", "levels_duplicated"): "a simple level is returned twice",
    ("walled_split", "levels_duplicated"): "same rank-test defect",
}

# One round of each workload, in running order.  Latency quantiles of a mix of
# kinds jump when they fall on the gap between two kinds' latencies, so
# walled_split and gl_lift appear twice per round: the median and the tail
# rank (see run.py) then land inside one kind's block.
WORKLOADS = {
    "scatter_sweep": ["resonance_width", "barrier_sweep", "flux"],
    "level_search": ["reflectionless_level", "near_degenerate_pair", "coupled_box",
                     "walled_split", "walled_split"],
    "design_chain": ["move_level", "gl_lift", "add_level", "remove_level", "bsec_tail",
                     "susy_flip", "gl_lift"],
}


def generate(workload: str, seed: int, rounds: int) -> list[dict]:
    """``rounds`` rounds of the workload's kinds, drawn from (seed, workload)."""
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    rng = np.random.default_rng([seed, tag])
    return [{"kind": k, "params": KINDS[k].draw(rng)}
            for _ in range(rounds) for k in WORKLOADS[workload]]


def task_hash(tasks: list[dict]) -> str:
    return hashlib.sha256(json.dumps(tasks, sort_keys=True).encode()).hexdigest()[:16]


def check(task: dict, result: dict) -> dict:
    """Named checks of one result; a check passes when error <= tolerance."""
    return KINDS[task["kind"]].verify(task["params"], result)
