import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcdesign import engine, gl, susy
from mcdesign.domain import BoundState, ChannelSystem, MatrixSolution, PiecewiseConstant
from mcdesign.dressing import Dressing, DressingTerm
from mcdesign.engine import SolverConfig
from mcdesign.errors import ConfigurationError, SingularTransformError
from scipy.integrate import simpson


def test_ratio_one_is_identity(one_channel_well_system, one_channel_well_states):
    res = susy.double_susy_swv_scale(one_channel_well_system,
                                   one_channel_well_states[0], 1.0)
    assert np.max(np.abs(res.delta_v)) == 0.0
    assert np.max(np.abs(res.state_values - one_channel_well_states[0].values)) == 0.0


def test_rake_produces_barrier_then_well(one_channel_well_system,
                                         one_channel_well_states):
    gs = one_channel_well_states[0]
    res = susy.double_susy_swv_scale(one_channel_well_system, gs, 0.5)
    xs = res.grid
    centroid = float(np.sum(xs * gs.values[:, 0] ** 2) / np.sum(gs.values[:, 0] ** 2))
    dv = res.delta_v[:, 0, 0]
    assert dv[xs < centroid].max() > 0.1
    assert dv[xs > centroid].min() < -0.1


def test_scale_then_inverse_restores_potential(one_channel_well_system,
                                               one_channel_well_states):
    gs = one_channel_well_states[0]
    half = susy.double_susy_swv_scale(one_channel_well_system, gs, 0.5)
    mid_state = BoundState(energy=gs.energy, grid=half.grid,
                           values=half.state_values,
                           derivatives=half.state_derivatives,
                           c_datum=None, m_datum=gs.m_datum)
    back = susy.double_susy_swv_scale(half.system, mid_state, 2.0)
    v0 = one_channel_well_system.potential.matrix_batch(back.grid)
    v2 = back.potential.matrix_batch(back.grid)
    assert np.max(np.abs(v2 - v0)) < 1e-7


@settings(max_examples=6, deadline=None)
@given(st.floats(min_value=0.3, max_value=3.0))
def test_scaled_weight_and_spectrum(ratio):
    pot = PiecewiseConstant(1, pieces=[(0.0, math.pi, [[-5.0]])])
    system = ChannelSystem((0.0,), pot, "half_line", 25.0)
    cfg = SolverConfig(step=2e-3, bracket_step=0.1)
    states = engine.find_bound_states(system, (-4.9, -0.1), cfg)
    res = susy.double_susy_swv_scale(system, states[0], ratio)
    new_states = engine.find_bound_states(res.system, (-4.9, -0.1), cfg)
    assert len(new_states) == len(states)
    for a, b in zip(new_states, states):
        assert abs(a.energy - b.energy) < 1e-5
    got = abs(new_states[0].c_datum.weights[0] / states[0].c_datum.weights[0])
    assert abs(got - ratio) < 1e-5 * max(1.0, ratio)


def test_identity_spec_builder_cancels(coupled_well_system, coupled_well_states, cfg):
    gs = coupled_well_states[0]
    spec = gl.GlTransformSpec(system=coupled_well_system, state=gs,
                              new_energy=gs.energy,
                              new_weights=gs.c_datum.weights)
    assert spec.is_identity
    phi = engine.integrate_regular(coupled_well_system, gs.energy, cfg)
    res = gl.transform_bound_state(spec, phi, cfg)
    assert np.max(np.abs(res.potential.matrix_batch(res.grid)
                         - coupled_well_system.potential.matrix_batch(res.grid))) < 1e-9


def test_energy_shift_moves_one_level(coupled_well_system, coupled_well_states, cfg):
    gs = coupled_well_states[0]
    spec = gl.GlTransformSpec(system=coupled_well_system, state=gs,
                              new_energy=gs.energy + 0.3,
                              new_weights=gs.c_datum.weights)
    phi = engine.integrate_regular(coupled_well_system, spec.new_energy, cfg)
    res = gl.transform_bound_state(spec, phi, cfg)
    # requested weights realized exactly at the origin
    assert np.allclose(res.state.derivatives[0], spec.new_weights, atol=1e-12)
    assert abs(simpson(np.sum(res.state.values ** 2, axis=1), x=res.grid) - 1.0) < 1e-9
    found = engine.find_bound_states(res.system, (-4.99, -0.02), cfg)
    targets = [gs.energy + 0.3] + [s.energy for s in coupled_well_states[1:]]
    assert len(found) == len(targets)
    for s, t in zip(found, targets):
        assert abs(s.energy - t) < 1e-5
    ms = MatrixSolution(res.state.energy, "regular", res.grid,
                        res.state.values, res.state.derivatives)
    assert engine.solution_residual(res.system, ms) < 1e-5


def test_rule_two_barrier_at_antinode(one_channel_well_system,
                                      one_channel_well_states, cfg):
    # lifting a level puts a barrier at the state's bump
    gs = one_channel_well_states[0]
    spec = gl.GlTransformSpec(system=one_channel_well_system, state=gs,
                              new_energy=gs.energy + 0.4,
                              new_weights=gs.c_datum.weights)
    phi = engine.integrate_regular(one_channel_well_system, spec.new_energy, cfg)
    res = gl.transform_bound_state(spec, phi, cfg)
    dv = res.potential.matrix_batch(res.grid)[:, 0, 0] \
        - one_channel_well_system.potential.matrix_batch(res.grid)[:, 0, 0]
    i_bump = int(np.argmax(np.abs(gs.values[:, 0])))
    assert dv[i_bump] > 0.05


def test_weight_fidelity_and_isospectrality_random_draws(coupled_well_system):
    cfg = SolverConfig(step=2e-3, bracket_step=0.05)
    rng = np.random.default_rng(7)
    coupled_well_states = engine.find_bound_states(coupled_well_system,
                                                   (-4.99, -0.02), cfg)
    gs = coupled_well_states[0]
    for _ in range(3):
        de = float(rng.uniform(0.1, 0.5))
        scale = rng.uniform(0.6, 1.6, size=2)
        new_w = gs.c_datum.weights * scale
        spec = gl.GlTransformSpec(system=coupled_well_system, state=gs,
                                  new_energy=gs.energy + de, new_weights=new_w)
        phi = engine.integrate_regular(coupled_well_system, spec.new_energy, cfg)
        res = gl.transform_bound_state(spec, phi, cfg)
        found = engine.find_bound_states(res.system, (-4.99, -0.02), cfg)
        targets = [gs.energy + de] + [s.energy for s in coupled_well_states[1:]]
        assert len(found) == len(targets)
        assert all(abs(s.energy - t) < 1e-5 for s, t in zip(found, targets))
        got = found[0].c_datum.weights
        got = got * np.sign(got[0]) * np.sign(new_w[0])
        assert np.max(np.abs(got / new_w - 1.0)) < 1e-5


def test_shift_changes_s_phase_by_the_level_factor(cfg_fast):
    # the origin-anchored shift keeps |S| = 1 but rotates the phase by the
    # bound-pole factor; check against the analytic prediction
    pot = PiecewiseConstant(1, pieces=[(0.0, math.pi, [[-5.0]])])
    system = ChannelSystem((0.0,), pot, "half_line", 60.0)
    states = engine.find_bound_states(system, (-4.9, -0.1), cfg_fast)
    gs = states[0]
    de = 0.3
    spec = gl.GlTransformSpec(system=system, state=gs, new_energy=gs.energy + de,
                              new_weights=gs.c_datum.weights)
    phi = engine.integrate_regular(system, spec.new_energy, cfg_fast)
    res = gl.transform_bound_state(spec, phi, cfg_fast)
    kap_old = math.sqrt(-gs.energy)
    kap_new = math.sqrt(-(gs.energy + de))
    for e_probe in (1.5, 3.0):
        d0 = engine.scattering_matrix(system, e_probe, cfg_fast)
        d1 = engine.scattering_matrix(res.system, e_probe, cfg_fast)
        k = math.sqrt(e_probe)
        predicted = 4.0 * (math.atan(kap_new / k) - math.atan(kap_old / k))
        measured = np.angle(d1.s_matrix[0, 0] / d0.s_matrix[0, 0])
        assert abs(measured - predicted) < 1e-4
        assert abs(abs(d1.s_matrix[0, 0]) - 1.0) < 1e-8


def test_boosting_one_weight_concentrates_that_channel(coupled_well_system,
                                                       coupled_well_states, cfg):
    gs = coupled_well_states[0]
    frac1_before = simpson(gs.values[:, 0] ** 2, x=gs.grid)
    new_w = gs.c_datum.weights * np.array([40.0, 1.0])
    spec = gl.GlTransformSpec(system=coupled_well_system, state=gs,
                              new_energy=gs.energy, new_weights=new_w)
    phi = engine.integrate_regular(coupled_well_system, gs.energy, cfg)
    res = gl.transform_bound_state(spec, phi, cfg)
    frac1_after = simpson(res.state.values[:, 0] ** 2, x=res.grid)
    assert frac1_after > frac1_before
    assert frac1_after > 0.9


def test_reducing_a_weight_does_not_empty_the_channel(coupled_well_system,
                                                      coupled_well_states, cfg):
    gs = coupled_well_states[0]
    new_w = gs.c_datum.weights * np.array([1e-4, 1.0])
    spec = gl.GlTransformSpec(system=coupled_well_system, state=gs,
                              new_energy=gs.energy, new_weights=new_w)
    phi = engine.integrate_regular(coupled_well_system, gs.energy, cfg)
    res = gl.transform_bound_state(spec, phi, cfg)
    frac1 = simpson(res.state.values[:, 0] ** 2, x=res.grid)
    assert frac1 > 1e-3      # coupling keeps feeding the drained channel


def test_nonnormalized_removal_term_is_singular(coupled_well_states):
    gs = coupled_well_states[0]
    kappa = np.sqrt(np.array([0.0, 1.0]) - gs.energy)
    bad = DressingTerm(1.3 * gs.values, 1.3 * gs.derivatives, -1.0,
                       tail_rates=kappa)
    with pytest.raises(SingularTransformError):
        Dressing(gs.grid, [bad], "origin")


# ---------------------------------------------------------------------------
# embedded states


def test_uncoupled_bsec_is_an_ordinary_bound_state_in_the_closed_channel(cfg):
    # channel 2 holds a well; its level sits inside channel 1's continuum
    m = np.zeros((2, 2))
    m[1, 1] = -5.0
    pot = PiecewiseConstant(2, pieces=[(0.0, math.pi, m)])
    system = ChannelSystem((0.0, 1.0), pot, "half_line", 30.0)
    e_emb = 0.2     # above threshold 0, below threshold 1
    res = gl.create_bsec(system, e_emb, [0.0, 1.0], cfg, fit_window=(40.0, 120.0))
    assert res.tail_kind == "exponential"
    # the state is confined to channel 2
    frac2 = simpson(res.state_values[:, 1] ** 2, x=res.grid)
    total = simpson(np.sum(res.state_values ** 2, axis=1), x=res.grid)
    assert frac2 / total > 1.0 - 1e-10


def test_matched_weights_give_inverse_power_tail(coupled_well_system, cfg):
    e_emb = 0.5
    w = gl.matched_bsec_weights(coupled_well_system, e_emb, cfg)
    res = gl.create_bsec(coupled_well_system, e_emb, w, cfg, fit_window=(50.0, 200.0))
    assert res.matched
    assert res.tail_kind == "power_law"
    assert abs(res.tail_slope_loglog + 1.0) < 0.1


def test_perturbed_weights_give_exponential_tail(coupled_well_system, cfg):
    e_emb = 0.5
    w = gl.matched_bsec_weights(coupled_well_system, e_emb, cfg)
    res = gl.create_bsec(coupled_well_system, e_emb, w * np.array([1.1, 1.0]),
                         cfg, fit_window=(50.0, 200.0))
    assert not res.matched
    assert res.tail_kind == "exponential"


def test_bsec_state_solves_the_transformed_system(coupled_well_system, cfg):
    e_emb = 0.5
    w = gl.matched_bsec_weights(coupled_well_system, e_emb, cfg)
    res = gl.create_bsec(coupled_well_system, e_emb, w, cfg)
    ms = MatrixSolution(e_emb, "regular", res.grid, res.state_values,
                        res.state_derivatives)
    assert engine.solution_residual(res.system, ms) < 1e-5


def test_bsec_blocks_track_the_state_bumps(coupled_well_system, cfg):
    # each diagonal potential block follows a bump of the partial wave
    e_emb = 0.5
    w = gl.matched_bsec_weights(coupled_well_system, e_emb, cfg)
    res = gl.create_bsec(coupled_well_system, e_emb, w, cfg)
    xs = np.linspace(6.0, 46.0, 4000)
    psi, dpsi = res.far.state(xs)
    dv = res.far.delta_v(xs)
    # one well+barrier block (two sign changes of dV_11) per bump of psi_1
    sign_changes = int(np.sum(np.diff(np.sign(dv[:, 0, 0])) != 0))
    extrema = int(np.sum(np.diff(np.sign(dpsi[:, 0])) != 0))
    assert abs(sign_changes // 2 - extrema) <= 1


def test_bsec_rejects_zero_weights(coupled_well_system, cfg):
    with pytest.raises(ConfigurationError):
        gl.create_bsec(coupled_well_system, 0.5, [0.0, 0.0], cfg)


def test_unnormalized_state_with_small_ratio_is_singular(one_channel_well_system,
                                                         one_channel_well_states):
    gs = one_channel_well_states[0]
    bloated = BoundState(energy=gs.energy, grid=gs.grid, values=1.5 * gs.values,
                         derivatives=1.5 * gs.derivatives, c_datum=gs.c_datum,
                         m_datum=gs.m_datum)
    with pytest.raises(SingularTransformError) as err:
        susy.double_susy_swv_scale(one_channel_well_system, bloated, 0.25)
    assert err.value.x is not None
