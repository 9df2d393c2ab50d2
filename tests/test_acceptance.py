"""Acceptance criteria, one test per criterion, tolerances pinned.

Each test prints a single pass/fail line; run with ``pytest -s
tests/test_acceptance.py`` to see them inline.
"""

import math
import time

import numpy as np
import pytest

from mcdesign import bands, cli, engine, gl, marchenko, susy
from mcdesign.domain import (
    BoundState,
    ChannelSystem,
    PiecewiseConstant,
    make_datum,
)
from mcdesign.engine import SolverConfig

COUPLED = np.array([[-5.0, 0.3], [0.3, -5.0]])


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d}: {status} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def fig3_base():
    pot = PiecewiseConstant(2, pieces=[(0.0, math.pi, COUPLED)])
    system = ChannelSystem((0.0, 1.0), pot, "half_line", 30.0)
    cfg = SolverConfig(step=1e-3, bracket_step=0.05)
    states = engine.find_bound_states(system, (-4.99, -0.02), cfg)
    return system, states, cfg


def test_criterion_1_transparency():
    t0 = time.time()
    cfg = SolverConfig(step=1e-3, bracket_step=0.02)
    res = marchenko.create_reflectionless((0.0, 1.0), -0.5, [1.0, 1.0], x_max=40.0)
    found = engine.find_bound_states(res.system, (-1.3, -0.05), cfg)
    level_ok = len(found) == 1 and abs(found[0].energy + 0.5) <= 1e-6
    refl = max(np.max(np.abs(engine.scattering_matrix(res.system, e, cfg)
                             .reflection_right)) for e in (1.5, 2.0, 4.0))
    dt = time.time() - t0
    _report(1, level_ok and refl <= 1e-3 and dt < 10.0,
            f"one level at -0.5 (err {abs(found[0].energy + 0.5):.1e}), "
            f"max reflection {refl:.1e}, {dt:.1f}s")


def test_criterion_2_asymptotic_anomaly():
    t0 = time.time()
    report = marchenko.asymptotic_anomaly_report((0.0, 1.0), -0.5, [1.0, 1.0])
    rel = np.max(np.abs(report.fitted / report.expected - 1.0))
    dt = time.time() - t0
    _report(2, rel <= 0.02 and dt < 5.0,
            f"left exponents match -k1+2k2 and k2 within {rel:.1e}, {dt:.1f}s")


def test_criterion_3_effective_potential():
    t0 = time.time()
    red = marchenko.effective_one_channel((0.0, 1.0), -0.5, [1.0, 1.0])
    asym_err = abs(red.potential(np.array([-30.0]))[0] - red.asymptote)
    residual = red.residual()
    dt = time.time() - t0
    _report(3, asym_err <= 1e-6 and residual <= 1e-5 and dt < 2.0,
            f"asymptote error {asym_err:.1e}, reduced-equation residual "
            f"{residual:.1e}, {dt:.1f}s")


def test_criterion_4_level_shift_keeps_spectrum_and_s(fig3_base):
    t0 = time.time()
    system, states, cfg = fig3_base
    gs = states[0]
    moved = marchenko.move_level(system, gs, gs.energy + 0.3, cfg=cfg)
    found = engine.find_bound_states(moved.system, (-4.99, -0.02), cfg)
    targets = [gs.energy + 0.3] + [s.energy for s in states[1:]]
    levels_ok = (len(found) == len(targets)
                 and all(abs(a.energy - t) <= 1e-5 for a, t in zip(found, targets)))
    s_dev = 0.0
    for e_probe in (1.5, 2.5, 3.5, 4.5, 5.5):
        d0 = engine.scattering_matrix(system, e_probe, cfg)
        d1 = engine.scattering_matrix(moved.system, e_probe, cfg)
        s_dev = max(s_dev, float(np.max(np.abs(d1.s_matrix - d0.s_matrix))))
    dt = time.time() - t0
    _report(4, levels_ok and s_dev <= 1e-4 and dt < 30.0,
            f"ground shifted +0.3, others within 1e-5, |dS| = {s_dev:.1e}, {dt:.1f}s")


def test_criterion_5_involution(fig3_base):
    t0 = time.time()
    pot = PiecewiseConstant(1, pieces=[(0.0, math.pi, [[-5.0]])])
    system = ChannelSystem((0.0,), pot, "half_line", 25.0)
    cfg = SolverConfig(step=1e-3, bracket_step=0.05)
    gs = engine.find_bound_states(system, (-4.9, -0.1), cfg)[0]
    half = susy.double_susy_swv_scale(system, gs, 0.5)
    mid = BoundState(energy=gs.energy, grid=half.grid, values=half.state_values,
                     derivatives=half.state_derivatives, c_datum=None,
                     m_datum=gs.m_datum)
    back = susy.double_susy_swv_scale(half.system, mid, 2.0)
    dev = np.max(np.abs(back.potential.matrix_batch(back.grid)
                        - system.potential.matrix_batch(back.grid)))
    dt = time.time() - t0
    _report(5, dev <= 1e-7 and dt < 5.0,
            f"scale 0.5 then 2 restores the potential within {dev:.1e}, {dt:.1f}s")


def test_criterion_6_degenerate_pair():
    t0 = time.time()
    centroids = []
    for m2 in (1.01, 1.001, 1.0001):
        res = marchenko.create_two_states((0.0, 0.0), (-0.5, [1.0, 1.0]),
                                          (-0.5, [1.0, m2]), x_max=40.0)
        xs = np.linspace(-40.0, 10.0, 4000)
        v = res.potential.matrix_batch(xs)
        depth = -np.minimum(v[:, 0, 0] + v[:, 1, 1], 0.0)
        order = np.argsort(depth)[::-1]
        i1 = order[0]
        i2 = next(i for i in order if abs(xs[i] - xs[i1]) > 2.0)
        left_i = min(i1, i2)
        window = (xs > xs[left_i] - 3.0) & (xs < xs[left_i] + 3.0)
        centroids.append(float(np.sum(xs[window] * depth[window])
                               / np.sum(depth[window])))
    monotone = centroids[0] > centroids[1] > centroids[2]
    res = marchenko.create_two_states((0.0, 0.0), (-0.5, [1.0, 1.0]),
                                      (-0.5, [1.0, 1.01]), x_max=40.0)
    found = engine.find_bound_states(res.system, (-0.7, -0.3),
                                     SolverConfig(step=2e-3, bracket_step=0.02))
    rank_ok = len(found) == 2 and all(abs(s.energy + 0.5) < 1e-6 for s in found)
    dt = time.time() - t0
    _report(6, monotone and rank_ok and dt < 60.0,
            f"left block centroids {np.round(centroids, 2)} decrease; "
            f"two states at -0.5 via rank test, {dt:.1f}s")


def test_criterion_7_band_structure():
    t0 = time.time()
    spec = bands.CombSpec(math.pi, np.array([[6.0, 1.0], [1.0, 5.0]]), (0.0, 1.0))
    rng = np.random.default_rng(11)
    worst = 0.0
    cfg = SolverConfig(step=1e-3)
    for _ in range(200):
        v1, v2 = rng.uniform(-5.0, 7.0, size=2)
        w = rng.uniform(-2.0, 2.0)
        a = rng.uniform(0.8, 2.8)
        e = rng.uniform(-0.8, 14.0)
        draw = bands.CombSpec(a, np.array([[v1, w], [w, v2]]), (0.0, 1.0))
        closed = bands.band_coupled(draw, e)[0]
        mono = bands.monodromy_cos(draw, e, cfg)
        worst = max(worst, bands.pair_deviation(closed, mono))
    es = np.linspace(-1.0, 20.0, 3000)
    spec0 = bands.CombSpec(spec.period, np.diag(np.diag(spec.strength)),
                           spec.thresholds)
    red = np.sort(bands.band_coupled(spec0, es).real, axis=1)
    unc = np.sort(np.stack([bands.band_uncoupled(spec.strength[i, i],
                                                 spec.thresholds[i], spec.period, es)
                            for i in range(2)], axis=-1), axis=1)
    red_dev = float(np.max(np.abs(red - unc)))
    b1, b2 = unc[:, 0], unc[:, 1]
    diff = bands.band_uncoupled(6.0, 0.0, math.pi, es) \
        - bands.band_uncoupled(5.0, 1.0, math.pi, es)
    gaps = []
    for i in np.nonzero(diff[:-1] * diff[1:] < 0)[0]:
        pair = bands.band_coupled(spec, 0.5 * (es[i] + es[i + 1]))[0]
        if abs(pair[0].imag) < 1e-12:
            gaps.append(float(pair[1].real - pair[0].real))
    dt = time.time() - t0
    ok = worst <= 1e-6 and red_dev <= 1e-12 and gaps and min(gaps) > 0.0
    _report(7, ok and dt < 60.0,
            f"monodromy within {worst:.1e} on 200 draws, W=0 reduction "
            f"{red_dev:.1e}, min quasi-crossing gap {min(gaps):.3f}, {dt:.1f}s")


def test_criterion_8_gap_creation():
    t0 = time.time()
    period = math.pi
    ratio = 0.8
    v0 = np.array([[-12.0, 1.0], [1.0, -9.0]])
    cfg = SolverConfig(step=1e-3)
    lam, vec = np.linalg.eigh(v0)
    e_n = float(lam[0] + 1.0)
    xs = engine.build_grid(0.0, period, cfg.step)
    amp = math.sqrt(2.0 / period)
    psi = amp * np.outer(np.sin(xs), vec[:, 0])
    dpsi = amp * np.outer(np.cos(xs), vec[:, 0])
    block_pot = PiecewiseConstant(2, pieces=[(0.0, period, v0)])
    block_sys = ChannelSystem((0.0, 0.0), block_pot, "half_line", period)
    state = BoundState(energy=e_n, grid=xs, values=psi, derivatives=dpsi,
                       c_datum=make_datum(block_sys, e_n, "C", dpsi[0]),
                       m_datum=make_datum(block_sys, e_n, "M", psi[-1]))
    raked = susy.double_susy_swv_scale(block_sys, state, ratio)
    growth = bands.bloch_growth_factor(raked.system, e_n,
                                       raked.state_derivatives[0], cfg)
    per_sys = bands.periodized_system(raked.potential, (0.0, 0.0), period, 4, cfg)
    grid4 = engine.system_grid(per_sys, cfg)
    fac4 = engine.PropagatorFactory(per_sys, grid4)
    y0 = np.concatenate([np.zeros(2), raked.state_derivatives[0]])
    traj = engine.propagate_trajectory(fac4.propagators(e_n), grid4, y0[:, None])
    ratios = []
    prev = np.max(np.abs(y0[2:]))
    for j in range(1, 5):
        i = int(np.argmin(np.abs(grid4 - j * period)))
        cur = np.max(np.abs(traj[i, 2:, 0]))
        ratios.append(cur / prev)
        prev = cur
    growth_dev = max(abs(r / abs(growth.theta) - 1.0) for r in ratios)
    dt = time.time() - t0
    ok = (abs(growth.theta) > 1.0 and growth.alpha_spread <= 1e-4
          and growth_dev <= 0.05 and growth.forbidden)
    _report(8, ok and dt < 60.0,
            f"Theta = {growth.theta:.6f} (spread {growth.alpha_spread:.1e}), "
            f"4-period growth within {growth_dev:.1e} of Theta, {dt:.1f}s")


def test_criterion_9_susy(fig3_base):
    t0 = time.time()
    system, states, _ = fig3_base
    cfg = SolverConfig(step=1e-3)
    # delta flip
    comb = bands.comb_system(bands.CombSpec(math.pi,
                                            np.array([[6.0, 1.0], [1.0, 5.0]]),
                                            (0.0, 1.0)), n_periods=3)
    seed = engine.integrate_jost(comb, -2.0, cfg)
    fac = susy.factorize(comb, -2.0, seed)
    partner = susy.susy_partner(fac)
    flip = max(float(np.max(np.abs(b.strength + p.strength)))
               for b, p in zip(comb.potential.delta_terms(),
                               partner.potential.delta_terms()))
    # intertwining on 5 probe solutions of the coupled well
    seed2 = engine.integrate_jost(system, -6.0, cfg)
    fac2 = susy.factorize(system, -6.0, seed2)
    partner2 = susy.susy_partner(fac2)
    inter = 0.0
    for e_probe in (-3.0, -1.0, 1.5, 2.5, 4.0):
        sol = engine.integrate_regular(system, e_probe, cfg)
        inter = max(inter, susy.intertwining_defect(fac2, partner2, sol))
    # double-step weight scale equals the origin-anchored transform
    pot1 = PiecewiseConstant(1, pieces=[(0.0, math.pi, [[-5.0]])])
    sys1 = ChannelSystem((0.0,), pot1, "half_line", 25.0)
    cfg1 = SolverConfig(step=1e-3, bracket_step=0.05)
    gs = engine.find_bound_states(sys1, (-4.9, -0.1), cfg1)[0]
    via_susy = susy.double_susy_swv_scale(sys1, gs, 0.6)
    # the general two-term dressing at the same energy with weights times 0.6
    spec = gl.GlTransformSpec(system=sys1, state=gs, new_energy=gs.energy,
                              new_weights=0.6 * gs.c_datum.weights)
    via_gl = gl.transform_bound_state(spec, engine.integrate_regular(sys1, gs.energy, cfg1),
                                      cfg1)
    dev = float(np.max(np.abs(via_susy.potential.matrix_batch(via_susy.grid)
                              - via_gl.potential.matrix_batch(via_susy.grid))))
    dt = time.time() - t0
    ok = flip == 0.0 and inter <= 1e-4 and dev <= 1e-5
    _report(9, ok and dt < 60.0,
            f"delta flip exact, intertwining {inter:.1e}, double-step vs "
            f"origin transform {dev:.1e}, {dt:.1f}s")


def test_criterion_10_resonance_phenomena():
    t0 = time.time()
    tables, metrics, derived = cli.scenarios.SCENARIOS["resonance_tunneling"](
        cli.load_config("resonance_tunneling")["params"], {})
    tun_ok = (metrics["channel1_transmission"] > 0.99
              and metrics["channel2_reflection"] > 0.5)
    tables, metrics, derived = cli.scenarios.SCENARIOS["resonance_widths"](
        cli.load_config("resonance_widths")["params"], {})
    width_ok = (metrics["ratio_rel_error"] <= 0.3
                and metrics["coupled_ratio"] > 2.0
                and metrics["same_energy_gap"] < 0.05)
    dt = time.time() - t0
    _report(10, tun_ok and width_ok and dt < 120.0,
            f"tunneling T1 > 0.99 with R2 > 0.5; width ratio matches uncoupled "
            f"within {metrics['ratio_rel_error']:.2f}, {dt:.1f}s")


def test_criterion_11_embedded_state_tails(fig3_base):
    t0 = time.time()
    system, _, _ = fig3_base
    cfg = SolverConfig(step=1e-3)
    matched = gl.matched_bsec_weights(system, 0.5, cfg)
    res_m = gl.create_bsec(system, 0.5, matched, cfg, fit_window=(50.0, 200.0))
    res_p = gl.create_bsec(system, 0.5, matched * np.array([1.1, 1.0]), cfg,
                           fit_window=(50.0, 200.0))
    ok = (res_m.tail_kind == "power_law"
          and abs(res_m.tail_slope_loglog + 1.0) <= 0.1
          and res_p.tail_kind == "exponential")
    dt = time.time() - t0
    _report(11, ok and dt < 60.0,
            f"matched slope {res_m.tail_slope_loglog:.3f} (power law), perturbed "
            f"falls exponentially, {dt:.1f}s")


def test_criterion_12_engine_hygiene(fig3_base):
    t0 = time.time()
    system, states, cfg = fig3_base
    unit = max(engine.scattering_matrix(system, e, cfg).unitarity_defect
               for e in (1.5, 2.5, 4.0, 6.0))
    m = np.array([[-5.0, 0.3], [0.3, -5.0]])
    pot = PiecewiseConstant(2, pieces=[(-1.5, 1.5, m)])
    wsys = ChannelSystem((0.0, 1.0), pot, "whole_line", 12.0)
    xs, vals, ders = engine.scattering_state(wsys, 3.0, [1.0, 0.0], "right", cfg)
    idx = np.linspace(0, len(xs) - 1, 50).astype(int)
    flux = [engine.total_flux(vals[i], ders[i], wsys, 3.0) for i in idx]
    flux_var = (max(flux) - min(flux)) / abs(flux[0])
    deep = PiecewiseConstant(2, pieces=[(0.0, math.pi, -25.0 * np.eye(2))])
    dsys = ChannelSystem((0.0, 1.0), deep, "half_line", 20.0)
    dstates = engine.find_bound_states(dsys, (-24.9, -15.0),
                                       SolverConfig(step=1e-3, bracket_step=0.1))
    ortho = engine.orthonormality_check(dstates[:3])
    e_h = engine.find_bound_states(system, (-4.6, -3.9),
                                   SolverConfig(step=1e-3, bracket_step=0.1))[0].energy
    e_h2 = engine.find_bound_states(system, (-4.6, -3.9),
                                    SolverConfig(step=5e-4, bracket_step=0.1))[0].energy
    s_h = engine.scattering_matrix(system, 2.5, SolverConfig(step=1e-3)).s_matrix
    s_h2 = engine.scattering_matrix(system, 2.5, SolverConfig(step=5e-4)).s_matrix
    grid_ok = abs(e_h - e_h2) < 1e-7 and np.max(np.abs(s_h - s_h2)) < 1e-6
    dt = time.time() - t0
    ok = unit <= 1e-6 and flux_var <= 1e-8 and ortho <= 1e-6 and grid_ok
    _report(12, ok and dt < 60.0,
            f"unitarity {unit:.1e}, flux drift {flux_var:.1e}, orthonormality "
            f"{ortho:.1e}, grid-halving stable, {dt:.1f}s")
