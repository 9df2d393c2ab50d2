import gc
import math
import multiprocessing
import os
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcdesign import bands, engine, marchenko
from mcdesign.domain import (
    ChannelSystem,
    DeltaTerm,
    PiecewiseConstant,
    free_potential,
)
from mcdesign.engine import SolverConfig
from mcdesign.errors import (
    ConfigurationError,
    IntegrationOverflowError,
    ThresholdSingularityError,
)


def test_regular_solution_free_motion(cfg):
    system = ChannelSystem((0.0,), free_potential(1), "half_line", 10.0)
    sol = engine.integrate_regular(system, 1.0, cfg)
    assert np.max(np.abs(sol.values[:, 0, 0] - np.sin(sol.grid))) < 1e-10
    assert np.max(np.abs(sol.derivatives[:, 0, 0] - np.cos(sol.grid))) < 1e-10


def test_constant_coupling_changes_the_wavenumber(cfg):
    # identical boundary data in both channels oscillate at sqrt(E - W)
    w = 1.5
    m = np.array([[0.0, w], [w, 0.0]])
    pot = PiecewiseConstant(2, pieces=[(0.0, 8.0, m)])
    system = ChannelSystem((0.0, 0.0), pot, "half_line", 10.0)
    e = 4.0
    sol = engine.integrate_regular(system, e, cfg)
    combo = sol.values @ np.array([1.0, 1.0])
    k = math.sqrt(e - w)
    inside = sol.grid < 8.0
    expected = np.sin(k * sol.grid[inside]) / k
    assert np.max(np.abs(combo[inside, 0] - expected)) < 1e-8
    combo_minus = sol.values @ np.array([1.0, -1.0])
    k2 = math.sqrt(e + w)
    assert np.max(np.abs(combo_minus[inside, 0] - np.sin(k2 * sol.grid[inside]) / k2)) < 1e-8


def test_regular_solution_grid_convergence(coupled_well_system):
    e = -3.0
    sol_h = engine.integrate_regular(coupled_well_system, e, SolverConfig(step=1e-3))
    sol_h2 = engine.integrate_regular(coupled_well_system, e, SolverConfig(step=5e-4))
    i_h = np.searchsorted(sol_h.grid, math.pi)
    i_h2 = np.searchsorted(sol_h2.grid, math.pi)
    assert np.max(np.abs(sol_h.values[i_h] - sol_h2.values[i_h2])) < 1e-7


def test_regular_residual_bound(coupled_well_system, cfg):
    e = -3.0
    sol = engine.integrate_regular(coupled_well_system, e, cfg)
    assert engine.solution_residual(coupled_well_system, sol) < 1e-6 * (1 + abs(e))


def test_jost_free_single_channel(cfg):
    system = ChannelSystem((0.0,), free_potential(1), "half_line", 10.0)
    sol = engine.integrate_jost(system, -1.0, cfg)
    assert np.max(np.abs(sol.values[:, 0, 0] - np.exp(-sol.grid))) < 1e-10


def test_jost_free_two_channels(cfg):
    system = ChannelSystem((0.0, 1.0), free_potential(2), "half_line", 10.0)
    sol = engine.integrate_jost(system, -0.5, cfg)
    k1, k2 = math.sqrt(0.5), math.sqrt(1.5)
    assert np.max(np.abs(sol.values[:, 0, 0] - np.exp(-k1 * sol.grid))) < 1e-10
    assert np.max(np.abs(sol.values[:, 1, 1] - np.exp(-k2 * sol.grid))) < 1e-10
    assert np.max(np.abs(sol.values[:, 0, 1])) == 0.0


def test_jost_reproduces_created_bound_column(cfg):
    res = marchenko.create_reflectionless((0.0, 1.0), -0.5, [1.0, 1.0], x_max=30.0)
    sol = engine.integrate_jost(res.system, -0.5, cfg)
    combo = sol.values @ np.array([1.0, 1.0])
    psi, _ = res.potential.state(sol.grid)
    # backward integration seeds the leftward-growing solution at machine
    # level, so the comparison is meaningful right of the far-left tail only
    region = sol.grid >= -10.0
    assert np.max(np.abs(combo[region] - psi[region])) < 1e-6


def test_jost_requires_decayed_potential(cfg):
    pot = PiecewiseConstant(1, pieces=[(0.0, 9.9, [[-2.0]])])
    system = ChannelSystem((0.0,), pot, "half_line", 10.0)
    with pytest.raises(ConfigurationError):
        engine.integrate_jost(system, -1.0, SolverConfig(step=1e-3, x_match=5.0))


def test_deep_well_spectrum_is_box_like():
    pot = PiecewiseConstant(1, pieces=[(math.pi, math.inf, [[1e6]])])
    system = ChannelSystem((0.0,), pot, "half_line", math.pi + 0.2)
    states = engine.find_bound_states(system, (0.3, 12.2),
                                      SolverConfig(step=1e-3, bracket_step=0.1))
    assert len(states) == 3
    for n, st_ in enumerate(states, start=1):
        assert abs(st_.energy - n ** 2) / n ** 2 < 1e-3


def test_degenerate_pair_detected_by_rank(cfg_fast):
    res = marchenko.create_two_states((0.0, 0.0), (-0.5, [1.0, 1.0]),
                                      (-0.5, [1.0, 1.01]), x_max=40.0)
    states = engine.find_bound_states(res.system, (-0.7, -0.3),
                                      SolverConfig(step=2e-3, bracket_step=0.02))
    assert len(states) == 2
    assert all(abs(s.energy + 0.5) < 1e-6 for s in states)
    assert engine.orthonormality_check(states) < 1e-5


def test_constant_coupling_splits_box_levels():
    w = 2.0
    inner = np.array([[0.0, w], [w, 0.0]])
    pot = PiecewiseConstant(2, pieces=[(0.0, math.pi, inner),
                                       (math.pi, math.inf, 4e6 * np.eye(2))])
    system = ChannelSystem((0.0, 0.0), pot, "half_line", math.pi + 0.2)
    states = engine.find_bound_states(system, (-1.5, 6.5),
                                      SolverConfig(step=1e-3, bracket_step=0.1))
    targets = sorted([1 - w, 1 + w, 4 - w, 4 + w])
    assert len(states) == 4
    for s, t in zip(states, targets):
        assert abs(s.energy - t) / max(1.0, abs(t)) < 1e-3


def test_empty_window_returns_empty_list(free_two_channel, cfg):
    assert engine.find_bound_states(free_two_channel, (-3.0, -1.0), cfg) == []


def test_window_above_threshold_rejected(free_two_channel, cfg):
    with pytest.raises(ConfigurationError):
        engine.find_bound_states(free_two_channel, (-1.0, 0.5), cfg)


def test_whole_line_free_scattering_is_trivial(cfg):
    system = ChannelSystem((0.0, 1.0), free_potential(2), "whole_line", 8.0)
    d = engine.scattering_matrix(system, 3.0, cfg)
    assert np.max(np.abs(d.transmission_right - np.eye(2))) < 1e-12
    assert np.max(np.abs(d.reflection_right)) < 1e-12


def test_symmetric_incidence_is_transparent_antisymmetric_reflects(cfg):
    v = 3.0
    m = np.array([[v, -v], [-v, v]])
    pot = PiecewiseConstant(2, pieces=[(0.0, 2.0, m)])
    system = ChannelSystem((0.0, 0.0), pot, "whole_line", 8.0)
    d = engine.scattering_matrix(system, 2.5, cfg)
    sym = np.array([1.0, 1.0]) / math.sqrt(2)
    asym = np.array([1.0, -1.0]) / math.sqrt(2)
    assert np.linalg.norm(d.transmission_right @ sym) ** 2 > 1.0 - 1e-9
    assert np.linalg.norm(d.reflection_right @ asym) ** 2 > 0.5


def test_created_level_system_is_reflectionless(cfg):
    res = marchenko.create_reflectionless((0.0, 1.0), -0.5, [1.0, 1.0], x_max=40.0)
    d = engine.scattering_matrix(res.system, 2.0, cfg)
    assert np.max(np.abs(d.reflection_right)) <= 1e-3


@settings(max_examples=8, deadline=None)
@given(st.floats(min_value=1.2, max_value=8.0))
def test_unitarity_at_random_energies(energy):
    m = np.array([[-5.0, 0.3], [0.3, -5.0]])
    pot = PiecewiseConstant(2, pieces=[(0.0, math.pi, m)])
    system = ChannelSystem((0.0, 1.0), pot, "half_line", 10.0)
    d = engine.scattering_matrix(system, energy, SolverConfig(step=2e-3))
    assert d.unitarity_defect < 1e-6


def test_smatrix_grid_convergence(coupled_well_system):
    d1 = engine.scattering_matrix(coupled_well_system, 2.5, SolverConfig(step=1e-3))
    d2 = engine.scattering_matrix(coupled_well_system, 2.5, SolverConfig(step=5e-4))
    assert np.max(np.abs(d1.s_matrix - d2.s_matrix)) < 1e-6


def test_threshold_singularity_guard(coupled_well_system, cfg):
    with pytest.raises(ThresholdSingularityError):
        engine.scattering_matrix(coupled_well_system, 1.0 + 1e-12, cfg)


def test_plane_wave_flux():
    system = ChannelSystem((0.0,), free_potential(1), "whole_line", 8.0)
    k = 1.7
    psi = np.array([np.exp(1j * k * 0.3)])
    dpsi = np.array([1j * k * np.exp(1j * k * 0.3)])
    assert engine.total_flux(psi, dpsi, system, k ** 2) == pytest.approx(k)


def test_total_flux_conserved_partial_flux_not(cfg):
    m = np.array([[-5.0, 0.3], [0.3, -5.0]])
    pot = PiecewiseConstant(2, pieces=[(-1.5, 1.5, m)])
    system = ChannelSystem((0.0, 1.0), pot, "whole_line", 10.0)
    e = 3.0
    xs, vals, ders = engine.scattering_state(system, e, [1.0, 0.0], "right", cfg)
    idx = np.linspace(0, len(xs) - 1, 40).astype(int)
    total = [engine.total_flux(vals[i], ders[i], system, e) for i in idx]
    assert (max(total) - min(total)) / abs(total[0]) < 1e-8
    partial = [float(np.imag(np.conj(vals[i, 0]) * ders[i, 0])) for i in idx]
    assert max(partial) - min(partial) > 1e-3


def test_featureless_potential_has_no_resonance(cfg_fast):
    pot = PiecewiseConstant(1, pieces=[(-1.0, 1.0, [[2.0]])])
    system = ChannelSystem((0.0,), pot, "whole_line", 8.0)
    assert engine.estimate_resonance_width(system, 3.0, 1.5, 0, cfg_fast) is None


def test_double_barrier_width_estimators_agree(cfg_fast):
    pieces = [(-1.5, -1.0, [[50.0]]), (1.0, 1.5, [[50.0]])]
    pot = PiecewiseConstant(1, pieces=pieces)
    system = ChannelSystem((0.0,), pot, "whole_line", 8.0)
    est = engine.estimate_resonance_width(system, 1.5, 1.3, 0, cfg_fast)
    assert est is not None
    assert abs(est.width_fit / est.width_delay - 1.0) < 0.2


def test_orthonormality_single_state(one_channel_well_states):
    s = one_channel_well_states[0]
    assert engine.orthonormality_check([s]) < 1e-8


def test_orthonormality_three_lowest(cfg):
    pot = PiecewiseConstant(2, pieces=[(0.0, math.pi, -25.0 * np.eye(2))])
    system = ChannelSystem((0.0, 1.0), pot, "half_line", 20.0)
    states = engine.find_bound_states(system, (-24.9, -15.0),
                                      SolverConfig(step=1e-3, bracket_step=0.1))
    assert len(states) >= 3
    assert engine.orthonormality_check(states[:3]) < 1e-6


def test_bound_state_energies_converge_with_grid(coupled_well_system):
    a = engine.find_bound_states(coupled_well_system, (-4.6, -3.8),
                                 SolverConfig(step=1e-3, bracket_step=0.1))
    b = engine.find_bound_states(coupled_well_system, (-4.6, -3.8),
                                 SolverConfig(step=5e-4, bracket_step=0.1))
    assert abs(a[0].energy - b[0].energy) < 1e-7


def test_overflow_carries_location():
    pot = PiecewiseConstant(1, pieces=[(1.0, math.inf, [[1e6]])])
    system = ChannelSystem((0.0,), pot, "half_line", 30.0)
    with pytest.raises(IntegrationOverflowError) as err:
        engine.integrate_regular(system, 1.0, SolverConfig(step=1e-3))
    assert err.value.x is None or np.isfinite(err.value.x) or np.isnan(err.value.x)


def test_eigenbasis_expansion_reconstructs_a_test_function(cfg):
    # completeness over the discrete box basis: expand and rebuild
    pot = PiecewiseConstant(1, pieces=[(math.pi, math.inf, [[1e6]])])
    system = ChannelSystem((0.0,), pot, "half_line", math.pi + 0.2)
    states = engine.find_bound_states(system, (0.3, 160.0),
                                      SolverConfig(step=1e-3, bracket_step=0.2))
    assert len(states) >= 12
    xs = states[0].grid
    target = np.exp(-(xs - 1.4) ** 2 / 0.2) * (xs < math.pi)
    recon = np.zeros_like(target)
    from scipy.integrate import simpson
    for s in states:
        c = simpson(target * s.values[:, 0], x=xs)
        recon += c * s.values[:, 0]
    inside = (xs > 0.4) & (xs < math.pi - 0.4)
    rel = np.max(np.abs(recon[inside] - target[inside])) / np.max(np.abs(target))
    assert rel < 5e-3


def test_reciprocity_of_the_side_blocks(cfg):
    m_b = np.array([[6.0, 0.0], [0.0, 0.0]])
    m_c = np.array([[0.0, 2.5], [2.5, 0.0]])
    pot = PiecewiseConstant(2, pieces=[(-2.0, -0.5, m_b), (0.5, 2.0, m_c)])
    system = ChannelSystem((0.0, 1.0), pot, "whole_line", 12.0)
    d = engine.scattering_matrix(system, 3.0, cfg)
    assert np.max(np.abs(d.transmission_left - d.transmission_right.T)) < 1e-10
    assert np.max(np.abs(d.reflection_right - d.reflection_right.T)) < 1e-10
    assert np.max(np.abs(d.reflection_left - d.reflection_left.T)) < 1e-10


def _delta_pair(g, a):
    pot = PiecewiseConstant(1, deltas=[DeltaTerm(-a, [[g]]), DeltaTerm(a, [[g]])])
    return ChannelSystem((0.0,), pot, "whole_line", 8.0)


def _delta_pair_t2(g, a, e):
    # psi' jumps by g psi at each delta; |t|^2 from the product of the two
    # jump matrices and the free propagation between them
    k = math.sqrt(e)
    jump = np.array([[1.0, 0.0], [g, 1.0]])
    free = np.array([[math.cos(2 * a * k), math.sin(2 * a * k) / k],
                     [-k * math.sin(2 * a * k), math.cos(2 * a * k)]])
    m = jump @ free @ jump
    return 4.0 / (m[0, 0] ** 2 + m[1, 1] ** 2 + (k * m[0, 1]) ** 2 + (m[1, 0] / k) ** 2 + 2.0)


def test_delta_pair_transmission_matches_the_closed_form(cfg):
    g, a, e = 3.0, 2.0, 2.0
    d = engine.scattering_matrix(_delta_pair(g, a), e, cfg)
    assert abs(abs(d.transmission_right[0, 0]) ** 2 - _delta_pair_t2(g, a, e)) < 1e-10


def test_comb_window_smatrix_does_not_depend_on_the_match_point(cfg):
    spec = bands.CombSpec(1.0, np.array([[2.0, 0.8], [0.8, -1.0]]), (0.0, 0.5))
    window = bands.comb_system(spec, n_periods=3)      # deltas at 0, 1, 2
    auto = engine.scattering_matrix(window, 2.3, cfg).s_matrix
    explicit = engine.scattering_matrix(
        window, 2.3, SolverConfig(step=cfg.step, x_match=2.5)).s_matrix
    assert np.max(np.abs(auto - explicit)) < 1e-10


def test_match_point_inside_the_delta_span_is_rejected(cfg):
    spec = bands.CombSpec(1.0, np.array([[2.0, 0.8], [0.8, -1.0]]), (0.0, 0.5))
    window = bands.comb_system(spec, n_periods=3)
    with pytest.raises(ConfigurationError):
        engine.scattering_matrix(window, 2.3, SolverConfig(step=cfg.step, x_match=1.5))


@pytest.mark.parametrize("energy", [0.3, 2.0, 4.5])
def test_half_line_smatrix_is_the_odd_part_of_the_mirrored_whole_line(cfg, energy):
    # a Dirichlet wall at 0 keeps the odd solutions of the mirror-symmetric
    # whole-line system, whose S in that sector is t_R - r_R
    m = np.array([[3.0, 1.2], [1.2, -2.0]])
    half = ChannelSystem((0.0, 0.5), PiecewiseConstant(2, pieces=[(0.0, 1.0, m)]),
                         "half_line", 10.0)
    whole = ChannelSystem((0.0, 0.5), PiecewiseConstant(2, pieces=[(-1.0, 1.0, m)]),
                          "whole_line", 10.0)
    s = engine.scattering_matrix(half, energy, cfg).s_matrix
    d = engine.scattering_matrix(whole, energy, cfg)
    assert s.shape == d.transmission_right.shape
    assert np.max(np.abs(s - (d.transmission_right - d.reflection_right))) < 1e-10


def _barrier_with_delta():
    m = np.array([[3.0, 1.2], [1.2, -2.0]])
    pot = PiecewiseConstant(2, pieces=[(-1.0, 1.0, m)],
                            deltas=[DeltaTerm(1.5, [[0.7, 0.2], [0.2, -0.4]])])
    return ChannelSystem((0.0, 0.5), pot, "whole_line", 10.0)


def test_swept_energies_equal_cold_ones_exactly(cfg):
    # one system swept (its S plan reused) against a fresh equal system per
    # energy (a new plan each time): the reuse must not move a single bit
    energies = [0.3, 1.0, 2.0, 3.1, 4.5]
    system = _barrier_with_delta()
    warm = []
    for e in energies:
        d = engine.scattering_matrix(system, e, cfg)
        amps = np.ones(int(np.sum(d.open_mask)))
        warm.append((d.s_matrix, *engine.scattering_state(system, e, amps, "left", cfg)))
    for e, got in zip(energies, warm):
        d = engine.scattering_matrix(_barrier_with_delta(), e, cfg)
        amps = np.ones(int(np.sum(d.open_mask)))
        want = (d.s_matrix,
                *engine.scattering_state(_barrier_with_delta(), e, amps, "left", cfg))
        assert all(np.array_equal(x, y) for x, y in zip(got, want))


def test_each_new_system_gets_its_own_plan(cfg):
    # systems built and dropped one after another may reuse a freed address;
    # a plan of the previous delta pair would give its transmission instead
    for i in range(20):
        g = 0.5 + 0.25 * i
        d = engine.scattering_matrix(_delta_pair(g, 2.0), 2.0, cfg)
        assert abs(abs(d.transmission_right[0, 0]) ** 2 - _delta_pair_t2(g, 2.0, 2.0)) < 1e-10


def test_the_plan_does_not_keep_its_system_alive(cfg):
    system = _delta_pair(3.0, 2.0)
    ref = weakref.ref(system)
    engine.scattering_matrix(system, 2.0, cfg)
    del system
    gc.collect()
    assert ref() is None


def test_a_failed_decay_check_is_not_cached(cfg):
    pot = PiecewiseConstant(1, pieces=[(-1.0, 50.0, [[0.3]])])
    system = ChannelSystem((0.0,), pot, "whole_line", 10.0)
    for _ in range(2):
        with pytest.raises(ConfigurationError):
            engine.scattering_matrix(system, 2.0, cfg)


def test_complex_energy_is_rejected_by_the_step_matrices():
    system = ChannelSystem((0.0,), free_potential(1), "half_line", 5.0)
    fac = engine.PropagatorFactory(system, np.linspace(0.0, 1.0, 11))
    with pytest.raises(ConfigurationError):
        fac.propagators(1.2 - 0.02j)


def _mixed_factory(n, forward):
    # coupled pieces, a delta on a node, and thresholds that split the channels
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n))
    b = rng.normal(size=(n, n))
    pot = PiecewiseConstant(n, pieces=[(-1.0, 0.3, a + a.T), (0.3, 2.0, b + b.T)],
                            deltas=[DeltaTerm(0.7, 0.5 * np.eye(n))])
    system = ChannelSystem(tuple(0.5 * i for i in range(n)), pot, "whole_line", 5.0)
    xs = engine.build_grid(-2.0, 2.5, 2e-3, [-1.0, 0.3, 0.7, 2.0])
    return engine.PropagatorFactory(system, xs if forward else xs[::-1])


def _bits(a):
    return a.view(np.int64)


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("forward", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_step_matrices_built_in_parts_equal_the_serial_build(monkeypatch, n, forward, parts):
    fac = _mixed_factory(n, forward)
    assert fac._jumps
    monkeypatch.setattr(engine, "_pool", None)
    for e in (-3.7, 0.0, 0.37, 12.5):
        monkeypatch.setattr(engine, "_SPLIT_WORK", 10 ** 12)
        serial = fac.propagators(e)
        monkeypatch.setattr(engine, "_SPLIT_WORK", 1)
        monkeypatch.setattr(engine, "_PARTS", parts)
        split = fac.propagators(e)
        assert np.array_equal(_bits(split), _bits(serial))


@pytest.mark.parametrize("where", ["first", "last"])
def test_overflowing_steps_raise_in_whichever_part_overflows(monkeypatch, where):
    # V ~ 1e200 squares past the float range in the products of the step
    piece = (0.0, 0.2) if where == "first" else (1.8, 2.0)
    pot = PiecewiseConstant(1, pieces=[(*piece, [[1e200]])])
    system = ChannelSystem((0.0,), pot, "half_line", 5.0)
    fac = engine.PropagatorFactory(system, np.linspace(0.0, 2.0, 2001))
    monkeypatch.setattr(engine, "_pool", None)
    monkeypatch.setattr(engine, "_SPLIT_WORK", 1)
    monkeypatch.setattr(engine, "_PARTS", 2)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            fac.propagators(0.5)
    with np.errstate(over="ignore"):
        assert not np.all(np.isfinite(fac.propagators(0.5)))


def _propagators_in_child(conn, fac, energy):
    conn.send(fac.propagators(energy))
    conn.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_builds_its_own_step_matrices(monkeypatch):
    monkeypatch.setattr(engine, "_pool", None)
    monkeypatch.setattr(engine, "_SPLIT_WORK", 1)
    monkeypatch.setattr(engine, "_PARTS", 2)
    fac = _mixed_factory(2, True)
    want = fac.propagators(0.37)          # the parent's pool now has a worker
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_propagators_in_child, args=(send, fac, 0.37))
    child.start()
    try:
        assert recv.poll(60), "the forked child did not finish its step matrices"
        got = recv.recv()
        child.join(10)
        assert not child.is_alive() and child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join(10)
    assert np.array_equal(_bits(got), _bits(want))


def test_concurrent_callers_share_the_pool_safely(monkeypatch):
    # more calling threads than cores, each splitting its own builds, with
    # frequent thread switches; every build must equal the serial one
    monkeypatch.setattr(engine, "_pool", None)
    fac = _mixed_factory(2, False)
    monkeypatch.setattr(engine, "_SPLIT_WORK", 10 ** 12)
    energies = [-3.7, -1.0, 0.37, 2.5, 12.5]
    want = [fac.propagators(e) for e in energies]
    monkeypatch.setattr(engine, "_SPLIT_WORK", 1)
    monkeypatch.setattr(engine, "_PARTS", 3)
    bad = []

    def caller(k):
        for i in range(10):
            j = (i + k) % len(energies)
            if not np.array_equal(_bits(fac.propagators(energies[j])), _bits(want[j])):
                bad.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(k,)) for k in range(6)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert bad == []


class _NoPool:
    def submit(self, *args):
        raise AssertionError("a part was handed to the pool")


def test_complex_energy_is_rejected_before_any_part_starts(monkeypatch):
    monkeypatch.setattr(engine, "_pool", _NoPool())
    monkeypatch.setattr(engine, "_SPLIT_WORK", 1)
    monkeypatch.setattr(engine, "_PARTS", 2)
    before = set(threading.enumerate())
    fac = _mixed_factory(2, True)
    with pytest.raises(ConfigurationError):
        fac.propagators(1.2 - 0.02j)
    assert set(threading.enumerate()) <= before


def test_a_level_search_evaluates_each_energy_once(monkeypatch):
    seen, grids = [], []
    orig = engine._WholeLineMatcher.matching_matrix
    grid = engine.system_grid

    def matching_matrix(self, energy):
        seen.append((id(self), float(energy)))
        return orig(self, energy)

    def system_grid(*args):
        grids.append(args)
        return grid(*args)

    monkeypatch.setattr(engine._WholeLineMatcher, "matching_matrix", matching_matrix)
    monkeypatch.setattr(engine, "system_grid", system_grid)
    pot = PiecewiseConstant(2, pieces=[(-1.5, 1.5, [[-6.0, 0.4], [0.4, -5.0]])])
    system = ChannelSystem((0.0, 0.5), pot, "whole_line", 20.0)
    states = engine.find_bound_states(system, (-5.9, -0.05), SolverConfig(bracket_step=0.05))
    assert len(states) >= 3
    assert len(seen) == len(set(seen))
    assert len(grids) == 1
