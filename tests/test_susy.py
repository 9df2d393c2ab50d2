import math

import numpy as np
import pytest

from mcdesign import engine, gl, marchenko, susy
from mcdesign.domain import (
    ChannelSystem,
    DeltaComb,
    MatrixSolution,
    PiecewiseConstant,
    free_potential,
)
from mcdesign.engine import SolverConfig
from mcdesign.errors import SingularTransformError


def _free_cosh_seed(system, kap, cfg):
    xs = engine.system_grid(system, cfg)
    vals = np.cosh(kap * xs)[:, None, None]
    ders = kap * np.sinh(kap * xs)[:, None, None]
    return MatrixSolution(-kap ** 2, "regular", xs, vals, ders)


def test_exponential_seed_gives_constant_superpotential(cfg):
    system = ChannelSystem((0.0,), free_potential(1), "whole_line", 8.0)
    xs = engine.system_grid(system, cfg)
    kap = 0.9
    seed = MatrixSolution(-kap ** 2, "regular", xs,
                          np.exp(kap * xs)[:, None, None],
                          kap * np.exp(kap * xs)[:, None, None])
    fac = susy.factorize(system, -kap ** 2, seed)
    assert np.max(np.abs(fac.w - kap)) < 1e-12
    partner = susy.susy_partner(fac)
    v1 = partner.potential.matrix_batch(xs)
    assert np.max(np.abs(v1)) < 1e-10        # free stays free


def test_cosh_seed_gives_tanh_superpotential_and_soliton_partner(cfg):
    system = ChannelSystem((0.0,), free_potential(1), "whole_line", 9.0)
    kap = 0.8
    fac = susy.factorize(system, -kap ** 2, _free_cosh_seed(system, kap, cfg))
    xs = fac.grid
    assert np.max(np.abs(fac.w[:, 0, 0] - kap * np.tanh(kap * xs))) < 1e-12
    partner = susy.susy_partner(fac)
    v1 = partner.potential.matrix_batch(xs)[:, 0, 0]
    expected = -2 * kap ** 2 / np.cosh(kap * xs) ** 2
    assert np.max(np.abs(v1 - expected)) < 1e-10
    states = engine.find_bound_states(partner, (-1.5, -0.05),
                                      SolverConfig(step=2e-3, bracket_step=0.05))
    assert len(states) == 1
    assert abs(states[0].energy + kap ** 2) < 1e-6


def test_seed_maps_to_zero(cfg):
    system = ChannelSystem((0.0,), free_potential(1), "whole_line", 8.0)
    kap = 0.8
    seed = _free_cosh_seed(system, kap, cfg)
    fac = susy.factorize(system, -kap ** 2, seed)
    image = susy.map_solution(fac, seed)
    assert np.max(np.abs(image.values)) < 1e-10 * np.max(np.abs(seed.values))


def test_mapped_free_wave_solves_the_soliton_partner(cfg):
    system = ChannelSystem((0.0,), free_potential(1), "whole_line", 9.0)
    kap = 0.8
    fac = susy.factorize(system, -kap ** 2, _free_cosh_seed(system, kap, cfg))
    partner = susy.susy_partner(fac)
    xs = fac.grid
    k = 1.3
    base = MatrixSolution(k ** 2, "regular", xs, np.sin(k * xs)[:, None, None],
                          k * np.cos(k * xs)[:, None, None])
    mapped = susy.map_solution(fac, base)
    expected = -k * np.cos(k * xs) + kap * np.tanh(kap * xs) * np.sin(k * xs)
    assert np.max(np.abs(mapped.values[:, 0, 0] - expected)) < 1e-12
    assert engine.solution_residual(partner, mapped) < 1e-5


def test_factorization_of_the_coupled_well_with_jost_seed(coupled_well_system, cfg):
    seed = engine.integrate_jost(coupled_well_system, -6.0, cfg)
    fac = susy.factorize(coupled_well_system, -6.0, seed)
    assert fac.symmetry_defect < 1e-6
    partner = susy.susy_partner(fac)
    probe = engine.integrate_regular(coupled_well_system, 3.0, cfg)
    mapped = susy.map_solution(fac, probe)
    assert engine.solution_residual(partner, mapped) < 1e-5


def test_intertwining_on_probe_solutions(coupled_well_system, cfg):
    seed = engine.integrate_jost(coupled_well_system, -6.0, cfg)
    fac = susy.factorize(coupled_well_system, -6.0, seed)
    partner = susy.susy_partner(fac)
    for e_probe in (-3.0, -1.0, 1.5, 2.5, 4.0):
        sol = engine.integrate_regular(coupled_well_system, e_probe, cfg)
        assert susy.intertwining_defect(fac, partner, sol) < 1e-4


def test_comb_partner_flips_every_delta(cfg_fast):
    comb = DeltaComb(2, period=math.pi, strength=[[6.0, 1.0], [1.0, 5.0]],
                     j_min=0, j_max=2)
    system = ChannelSystem((0.0, 1.0), comb, "whole_line",
                           2 * math.pi + 0.5 * math.pi)
    seed = engine.integrate_jost(system, -2.0, cfg_fast)
    fac = susy.factorize(system, -2.0, seed)
    partner = susy.susy_partner(fac)
    base_deltas = {d.location: d.strength for d in comb.delta_terms()}
    part_deltas = {d.location: d.strength for d in partner.potential.delta_terms()}
    assert set(base_deltas) == set(part_deltas)
    for loc, s in base_deltas.items():
        assert np.array_equal(part_deltas[loc], -s)


def test_double_susy_involution_restores_the_potential(cfg):
    system = ChannelSystem((0.0,), free_potential(1), "whole_line", 9.0)
    kap = 0.8
    seed1 = _free_cosh_seed(system, kap, cfg)

    def complement_image(fac):
        xs = fac.grid
        comp = MatrixSolution(fac.energy, "regular", xs,
                              (np.sinh(kap * xs) / kap)[:, None, None],
                              np.cosh(kap * xs)[:, None, None])
        return susy.image_seed(fac, comp)

    out = susy.double_susy(system, -kap ** 2, seed1, complement_image)
    xs = engine.system_grid(system, cfg)
    v2 = out.system.potential.matrix_batch(xs)
    assert np.max(np.abs(v2)) < 1e-7


def test_double_susy_weight_scale_equals_the_origin_transform(
        one_channel_well_system, one_channel_well_states, cfg):
    # the general two-term dressing at the same energy with weights times r
    gs = one_channel_well_states[0]
    ratio = 0.7
    via_susy = susy.double_susy_swv_scale(one_channel_well_system, gs, ratio)
    spec = gl.GlTransformSpec(system=one_channel_well_system, state=gs,
                              new_energy=gs.energy,
                              new_weights=ratio * gs.c_datum.weights)
    phi = engine.integrate_regular(one_channel_well_system, gs.energy, cfg)
    via_gl = gl.transform_bound_state(spec, phi, cfg)
    xs = via_susy.grid
    dev = via_susy.potential.matrix_batch(xs) - via_gl.potential.matrix_batch(xs)
    assert np.max(np.abs(dev)) < 1e-5
    assert np.max(np.abs(via_susy.state_values - via_gl.state.values)) < 1e-8


def test_double_susy_removal_drops_one_level(cfg_fast):
    cfg = SolverConfig(step=2e-3, bracket_step=0.05)
    m = np.array([[-3.0, 0.4], [0.4, -2.0]])
    pot = PiecewiseConstant(2, pieces=[(-1.5, 1.5, m)])
    base = ChannelSystem((0.0, 1.0), pot, "whole_line", 25.0)
    added = marchenko.add_bound_state(base, -1.8, [1.0, 0.7], cfg)
    removed = susy.double_susy_remove(added.system, added.state)
    after = engine.find_bound_states(removed.system, (-3.0, -0.05), cfg)
    base_states = engine.find_bound_states(base, (-3.0, -0.05), cfg)
    assert len(after) == len(base_states)
    for a, b in zip(after, base_states):
        assert abs(a.energy - b.energy) < 1e-5
    xs = removed.grid
    inner = (xs > -12.0) & (xs < 12.0)
    dev = removed.potential.matrix_batch(xs[inner]) - base.potential.matrix_batch(xs[inner])
    assert np.max(np.abs(dev)) < 2e-4


def test_partner_spectrum_relation():
    # whole line, factorization below the spectrum: partner keeps every level
    cfg2 = SolverConfig(step=2e-3, bracket_step=0.05)
    m = np.array([[-3.0, 0.4], [0.4, -2.0]])
    pot = PiecewiseConstant(2, pieces=[(-1.5, 1.5, m)])
    base = ChannelSystem((0.0, 1.0), pot, "whole_line", 20.0)
    seed = engine.integrate_jost(base, -6.0, cfg2)
    fac = susy.factorize(base, -6.0, seed)
    partner = susy.susy_partner(fac)
    base_states = engine.find_bound_states(base, (-3.0, -0.05), cfg2)
    part_states = engine.find_bound_states(partner, (-3.0, -0.05), cfg2)
    assert len(part_states) == len(base_states)
    for a, b in zip(part_states, base_states):
        assert abs(a.energy - b.energy) < 1e-5


def test_singular_seed_is_reported_with_location(cfg):
    system = ChannelSystem((0.0,), free_potential(1), "whole_line", 8.0)
    xs = engine.system_grid(system, cfg)
    kap = 0.7
    seed = MatrixSolution(-kap ** 2, "regular", xs,
                          np.sinh(kap * xs)[:, None, None],
                          kap * np.cosh(kap * xs)[:, None, None])
    with pytest.raises(SingularTransformError) as err:
        susy.factorize(system, -kap ** 2, seed)
    assert err.value.x is not None
