"""Matrix Darboux partner construction.

A matrix solution Psi0 of the base system at the factorization energy gives
the superpotential W = Psi0' Psi0^{-1}; the partner interaction is
V1 = V0 - 2 dW/dx, whose smooth part evaluates to V0 + 2(W^2 - V0 - eps + E_f)
between point interactions while every delta strength flips sign (the jump of
W across a delta equals the delta strength, and d/dx of that jump is the
flipped delta).  Solutions map through psi -> W psi - psi', which lands in
the kernel of the map exactly on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .domain import (ChannelSystem, GridSampled, MatrixSolution, SumPotential,
                     require_same_grid)
from .dressing import cumulative_from_start, interval_contributions, rank_one
from .errors import ConfigurationError, SingularTransformError
from . import engine


@dataclass
class Factorization:
    """Seed matrix solution and its superpotential on the solver grid."""

    system: ChannelSystem
    energy: float
    grid: np.ndarray
    seed_values: np.ndarray        # (m, N, N)
    seed_derivatives: np.ndarray
    w: np.ndarray                  # (m, N, N)
    symmetry_defect: float


def factorize(system: ChannelSystem, energy: float, seed: MatrixSolution,
              det_floor: float = 1e-12) -> Factorization:
    """Factorize the Hamiltonian through a matrix seed solution.

    The seed must be invertible on the whole grid (the caller picks a
    nodeless-determinant combination; a singular seed raises with the
    location).  The symmetry defect of W is reported; it vanishes for
    self-transposed-Wronskian seeds.
    """
    vals = np.asarray(seed.values, dtype=float)
    ders = np.asarray(seed.derivatives, dtype=float)
    n = system.n_channels
    scale = np.max(np.abs(vals), axis=(1, 2))
    dets = np.linalg.det(vals)
    bad = np.abs(dets) < det_floor * np.maximum(scale, 1e-300) ** n
    if np.any(bad):
        raise SingularTransformError(float(seed.grid[int(np.argmax(bad))]),
                                     "seed matrix is singular on the grid")
    w = np.linalg.solve(np.swapaxes(vals, 1, 2), np.swapaxes(ders, 1, 2))
    w = np.swapaxes(w, 1, 2)
    defect = float(np.max(np.abs(w - np.swapaxes(w, 1, 2))))
    return Factorization(system, float(seed.energy), seed.grid, vals, ders, w, defect)


def susy_partner(fac: Factorization) -> ChannelSystem:
    """Partner system V1 = V0 - 2 dW/dx.

    Between point interactions V1 = -V0 - 2 eps + 2 E_f + 2 W^2; the jump of
    W across a delta equals the delta strength, so all delta peaks flip sign.
    The base potential enters the sum with weight -1 (keeping its steps and
    deltas exact) and the smooth 2 W^2 + 2(E_f - eps) part is sampled.
    """
    system = fac.system
    eps = np.diag(np.asarray(system.thresholds, dtype=float))
    smooth = 2.0 * np.matmul(fac.w, fac.w) \
        + 2.0 * (fac.energy * np.eye(system.n_channels) - eps)
    smooth = 0.5 * (smooth + np.swapaxes(smooth, 1, 2))
    grid_part = GridSampled(fac.grid, smooth,
                            tail_left=smooth[0], tail_right=smooth[-1])
    pot = SumPotential([(-1.0, system.potential), (1.0, grid_part)],
                       params={"transform": "susy_partner", "energy": fac.energy})
    return replace(system, potential=pot)


def map_solution(fac: Factorization, sol: MatrixSolution) -> MatrixSolution:
    """Map a base solution to the partner system at the same energy.

    psi1 = W psi - psi' and psi1' = (E - E_f) psi - W psi1, so no numerical
    differentiation enters.  The seed itself maps to zero.
    """
    require_same_grid(sol.grid, fac.grid, "solution and factorization")
    vals = np.asarray(sol.values)
    ders = np.asarray(sol.derivatives)
    squeeze = vals.ndim == 2
    if squeeze:
        vals = vals[:, :, None]
        ders = ders[:, :, None]
    w = fac.w.astype(vals.dtype)
    out_v = np.matmul(w, vals) - ders
    out_d = (sol.energy - fac.energy) * vals - np.matmul(w, out_v)
    if squeeze:
        out_v = out_v[:, :, 0]
        out_d = out_d[:, :, 0]
    return MatrixSolution(sol.energy, sol.kind, sol.grid, out_v, out_d)


def intertwining_defect(fac: Factorization, partner: ChannelSystem,
                        sol: MatrixSolution) -> float:
    """Discrete check of (-d/dx + W) H0 psi = H1 (-d/dx + W) psi.

    Both sides are built with centered differences on the grid, away from
    breakpoints; normalized by the solution scale.
    """
    base = fac.system
    xs = sol.grid
    idx = engine.stencil_nodes(base, xs, 8, 4.5)

    def h_apply(system, vals, i):
        hh = (xs[i] - xs[i - 1])[:, None, None]
        d2 = (vals[i + 1] - 2 * vals[i] + vals[i - 1]) / hh ** 2
        a = system.potential.matrix_batch(xs[i]) + np.diag(system.thresholds)
        return -d2 + np.matmul(a, vals[i])

    def ddx(vals, i):
        hh = (xs[i] - xs[i - 1])[:, None, None]
        return (vals[i + 1] - vals[i - 1]) / (2 * hh)

    # H0 psi on the inner stencil, then A- of it (needs values at i +- 1)
    idx_wide = np.unique(np.concatenate([idx - 1, idx, idx + 1]))
    h0psi = np.zeros_like(sol.values)
    h0psi[idx_wide] = h_apply(base, sol.values, idx_wide)
    lhs = np.matmul(fac.w[idx], h0psi[idx]) - ddx(h0psi, idx)
    apsi = np.matmul(fac.w, sol.values) - sol.derivatives
    rhs = h_apply(partner, apsi, idx)
    scale = float(np.max(np.abs(sol.values))) * max(1.0, abs(sol.energy))
    return float(np.max(np.abs(lhs - rhs))) / scale


def image_seed(fac: Factorization, sol: MatrixSolution) -> MatrixSolution:
    """Second-step seed from the partner image of an independent solution."""
    if abs(sol.energy - fac.energy) > 1e-12:
        raise ConfigurationError("image seed must be taken at the factorization energy")
    return map_solution(fac, sol)


@dataclass
class DoubleSusyResult:
    intermediate: ChannelSystem
    system: ChannelSystem
    first: Factorization
    second: Factorization


def double_susy(system: ChannelSystem, energy: float, seed1: MatrixSolution,
                seed2_builder) -> DoubleSusyResult:
    """Two partner steps at one energy; ``seed2_builder(fac1)`` supplies the
    second seed as a solution of the intermediate system."""
    fac1 = factorize(system, energy, seed1)
    mid = susy_partner(fac1)
    seed2 = seed2_builder(fac1)
    fac2 = factorize(mid, energy, seed2)
    final = susy_partner(fac2)
    return DoubleSusyResult(mid, final, fac1, fac2)


@dataclass
class PairTransformResult:
    system: ChannelSystem
    potential: GridSampled
    grid: np.ndarray
    state_values: np.ndarray
    state_derivatives: np.ndarray
    delta_v: np.ndarray


def double_susy_swv_scale(system: ChannelSystem, state, ratio: float) -> PairTransformResult:
    """Composite of two partner steps at a bound level: scale its weights.

    The two superpotentials telescope to W1 + W2 = lam psi psi^T / D with
    lam = r^2 - 1 and D(x) = 1 + lam int_0^x psi^T psi dy, so the composite
    potential V0 - 2 d/dx [lam psi psi^T / D] never touches the singular
    intermediate.  The attached state r psi / D scales all origin weights by
    r and keeps unit norm; r = 1 is the exact identity.
    """
    if ratio <= 0:
        raise ConfigurationError("ratio must be positive")
    lam = ratio ** 2 - 1.0
    xs = state.grid
    den = 1.0 + lam * cumulative_from_start(xs, np.sum(state.values ** 2, axis=1))
    dv, psi, dpsi = rank_one(xs, state.values, state.derivatives, den, lam)
    pot = SumPotential([(1.0, system.potential), (1.0, GridSampled(xs, dv))],
                       params={"transform": "double_susy_swv_scale",
                               "ratio": float(ratio), "energy": state.energy})
    return PairTransformResult(replace(system, potential=pot), pot, xs,
                               ratio * psi, ratio * dpsi, dv)


def double_susy_remove(system: ChannelSystem, state) -> PairTransformResult:
    """Composite two-step removal of a whole-line level.

    W1 + W2 telescopes to psi psi^T / S with S(x) the norm accumulated from
    the left, so V1 = V0 - 2 d/dx [psi psi^T / S]; the level disappears and
    the scattering matrix is untouched.
    """
    if system.domain_kind != "whole_line":
        raise ConfigurationError("smooth exact removal needs the whole line")
    xs = state.grid
    kappa = np.sqrt(system.effective_thresholds() - state.energy)
    # rescale to exact quadrature norm; a 1e-9 deficit would leave a
    # far-out remnant of the removed level
    dens0 = np.sum(state.values ** 2, axis=1)
    total = float(np.sum(interval_contributions(xs, dens0))) \
        + float(np.sum(state.values[0] ** 2 / (2.0 * kappa))) \
        + float(np.sum(state.values[-1] ** 2 / (2.0 * kappa)))
    psi = state.values / math.sqrt(total)
    dpsi = state.derivatives / math.sqrt(total)
    left_tail = float(np.sum(psi[0] ** 2 / (2.0 * kappa)))
    s = left_tail + cumulative_from_start(xs, np.sum(psi ** 2, axis=1))
    dv = rank_one(xs, psi, dpsi, s, 1.0)[0]
    pot = SumPotential([(1.0, system.potential), (1.0, GridSampled(xs, dv))],
                       params={"transform": "double_susy_remove", "energy": state.energy})
    return PairTransformResult(replace(system, potential=pot), pot, xs,
                               np.zeros_like(psi), np.zeros_like(dpsi), dv)
