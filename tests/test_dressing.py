import numpy as np

from mcdesign.dressing import (Dressing, DressingTerm, cumulative_from_start,
                               interval_contributions, rank_one)


def test_interval_contributions_are_exact_for_quadratics_on_uniform_runs():
    # even and odd run lengths, each run with its own spacing; a single
    # interval would fall back to the trapezoid rule
    steps = np.concatenate([np.full(10, 0.1), np.full(7, 0.05), np.full(2, 0.3),
                            np.full(4, 0.02), np.full(3, 0.2)])
    x = np.concatenate([[0.0], np.cumsum(steps)])
    y = 2.0 - 3.0 * x + 1.5 * x ** 2
    antiderivative = 2.0 * x - 1.5 * x ** 2 + 0.5 * x ** 3
    got = interval_contributions(x, y)
    assert np.max(np.abs(got - np.diff(antiderivative))) < 1e-14


def test_rank_one_is_the_one_term_origin_dressing():
    x = np.linspace(0.0, 4.0, 2001)
    u = np.stack([np.sin(2.0 * x), 0.5 * np.sinh(0.3 * x)], axis=1)
    du = np.stack([2.0 * np.cos(2.0 * x), 0.15 * np.cosh(0.3 * x)], axis=1)
    general = Dressing(x, [DressingTerm(u, du, +1.0)], "origin")
    den = 1.0 + cumulative_from_start(x, np.sum(u ** 2, axis=1))
    dv, psi, dpsi = rank_one(x, u, du, den, 1.0)
    vals, ders = general.state(0)
    assert np.max(np.abs(dv - general.delta_v())) < 1e-12
    assert np.max(np.abs(psi - vals)) < 1e-14
    assert np.max(np.abs(dpsi - ders)) < 1e-13
