"""Periodic multichannel systems.

Exact dispersion for coupled delta combs, allowed/forbidden zone scans,
monodromy-based cross checks, and the per-period growth factor of a
periodized interaction block (the gap-creation diagnostic).  Closed channels
are continued with real cosh/sinh arithmetic; the coupled two-channel comb
dispersion is

    cos(Ka)_{1,2} = (c1 + c2)/2 +- sqrt((c1 - c2)^2/4 + W^2 s1 s2 / 4)

with c_a = cos(k_a a) + V_a sin(k_a a)/(2 k_a) and s_a = sin(k_a a)/k_a,
which is real or a conjugate pair; a branch is allowed where its value is
real with modulus <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import ChannelSystem, DeltaComb
from .errors import ConfigurationError, ConstructionInvalidError
from . import engine
from .engine import SolverConfig


@dataclass(frozen=True)
class CombSpec:
    """Coupled Dirac comb: period, constant strength matrix, thresholds."""

    period: float
    strength: np.ndarray
    thresholds: tuple[float, ...]

    def __post_init__(self):
        if self.period <= 0:
            raise ConfigurationError("period must be positive")
        s = np.asarray(self.strength, dtype=float)
        if not np.array_equal(s, s.T):
            raise ConfigurationError("strength matrix must be symmetric")
        object.__setattr__(self, "strength", s)
        object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))


def _free_dispersion(energy, threshold, period):
    """cos(k a) and sin(k a)/k continued through the threshold."""
    energy = np.asarray(energy, dtype=float)
    de = energy - threshold
    c = np.empty_like(de)
    s = np.empty_like(de)
    above = de > 0
    k = np.sqrt(np.abs(de))
    c[above] = np.cos(k[above] * period)
    s[above] = np.sin(k[above] * period) / k[above]
    below = de < 0
    c[below] = np.cosh(k[below] * period)
    s[below] = np.sinh(k[below] * period) / k[below]
    at = de == 0
    c[at] = 1.0
    s[at] = period
    return c, s


def band_uncoupled(strength: float, threshold: float, period: float, energy):
    """cos(K a) of a one-channel comb (scalar or vectorized in energy)."""
    c, s = _free_dispersion(np.atleast_1d(energy), threshold, period)
    out = c + 0.5 * strength * s
    return out if np.ndim(energy) else float(out[0])


def band_coupled(spec: CombSpec, energy):
    """Both quasimomentum branches cos(Ka) of a two-channel comb.

    Returns a complex array (..., 2); a forbidden-by-complexity pair appears
    as complex conjugates.
    """
    if spec.strength.shape[0] != 2:
        raise ConfigurationError("the closed-form coupled dispersion is two-channel")
    energy = np.atleast_1d(np.asarray(energy, dtype=float))
    c1, s1 = _free_dispersion(energy, spec.thresholds[0], spec.period)
    c2, s2 = _free_dispersion(energy, spec.thresholds[1], spec.period)
    v1, v2 = spec.strength[0, 0], spec.strength[1, 1]
    w = spec.strength[0, 1]
    b1 = c1 + 0.5 * v1 * s1
    b2 = c2 + 0.5 * v2 * s2
    disc = np.asarray((b1 - b2) ** 2 + w ** 2 * s1 * s2, dtype=complex)
    root = np.sqrt(disc)
    out = np.empty(energy.shape + (2,), dtype=complex)
    out[..., 0] = 0.5 * (b1 + b2 - root)
    out[..., 1] = 0.5 * (b1 + b2 + root)
    return out


def comb_system(spec: CombSpec, n_periods: int = 1) -> ChannelSystem:
    """A finite window of the comb centered so sites are interior nodes."""
    n = len(spec.thresholds)
    half = 0.5 * spec.period
    comb = DeltaComb(n, spec.period, spec.strength,
                     j_min=0, j_max=n_periods - 1, offset=0.0)
    return ChannelSystem(spec.thresholds, comb, "whole_line",
                         x_max=half + (n_periods - 1) * spec.period + half)


def monodromy_cos(spec: CombSpec, energy: float,
                  cfg: SolverConfig = SolverConfig()) -> np.ndarray:
    """cos(Ka) branches from the eigenvalues of one engine-integrated period.

    The period cell runs from -a/2 to a/2 with the delta interior; the 2N
    eigenvalues of the transfer matrix come in reciprocal pairs whose
    (lambda + 1/lambda)/2 are the Bloch characteristics.
    """
    n = len(spec.thresholds)
    half = 0.5 * spec.period
    comb = DeltaComb(n, spec.period, spec.strength, j_min=0, j_max=0, offset=0.0)
    cell = ChannelSystem(spec.thresholds, comb, "whole_line", x_max=half)
    total = engine.segment(cell, -half, half, cfg).transfer(energy)
    lam = np.linalg.eigvals(total)
    cos_vals = 0.5 * (lam + 1.0 / lam)
    # the 2N values come in equal pairs (lambda and 1/lambda map to one
    # characteristic); pick the two most separated representatives
    first = cos_vals[0]
    second = cos_vals[int(np.argmax(np.abs(cos_vals - first)))]
    return np.sort_complex(np.array([first, second]))


def pair_deviation(a, b) -> float:
    """Distance between two branch pairs, insensitive to their ordering."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    direct = float(np.max(np.abs(a - b)))
    swapped = float(np.max(np.abs(a - b[::-1])))
    return min(direct, swapped)


@dataclass
class BandDiagram:
    energies: np.ndarray
    branches: np.ndarray                     # (m, 2) complex
    allowed: list                            # per-branch list of (lo, hi)
    uncoupled_allowed: list                  # per-channel list of (lo, hi)
    uncoupled_intersection: list


def _intervals_from_mask(es, mask, refine):
    """Allowed intervals from a boolean mask, edges refined by bisection."""
    out = []
    start = None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = es[i] if i == 0 else refine(es[i - 1], es[i])
        elif not flag and start is not None:
            out.append((float(start), float(refine(es[i], es[i - 1]))))
            start = None
    if start is not None:
        out.append((float(start), float(es[-1])))
    return out


def _bisect_edge(allowed_at, e_out, e_in, iters: int = 60):
    """Bisection from a forbidden sample toward an allowed one."""
    lo, hi = e_out, e_in
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if allowed_at(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _intersect(a, b):
    out = []
    for lo1, hi1 in a:
        for lo2, hi2 in b:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if hi > lo:
                out.append((lo, hi))
    return sorted(out)


def scan_zones(spec: CombSpec, e_range, n_samples: int = 2000) -> BandDiagram:
    """Allowed/forbidden zones of both branches over an energy range.

    Also reports the uncoupled per-channel allowed zones and their
    intersection (the naive propagation window when the coupling is off).
    """
    es = np.linspace(e_range[0], e_range[1], n_samples)
    branches = band_coupled(spec, es)
    allowed = []
    for b in range(2):
        vals = branches[:, b]
        mask = (np.abs(vals.imag) < 1e-12) & (np.abs(vals.real) <= 1.0)

        def allowed_at(e, _b=b):
            v = band_coupled(spec, e)[0, _b]
            return bool(abs(v.imag) < 1e-12 and abs(v.real) <= 1.0)

        allowed.append(_intervals_from_mask(
            es, mask, lambda eo, ei, f=allowed_at: _bisect_edge(f, eo, ei)))
    unc = []
    for a in range(2):
        vals = band_uncoupled(spec.strength[a, a], spec.thresholds[a], spec.period, es)
        mask = np.abs(vals) <= 1.0

        def allowed_at(e, _a=a):
            v = band_uncoupled(spec.strength[_a, _a], spec.thresholds[_a],
                               spec.period, e)
            return bool(abs(v) <= 1.0)

        unc.append(_intervals_from_mask(
            es, mask, lambda eo, ei, f=allowed_at: _bisect_edge(f, eo, ei)))
    return BandDiagram(es, branches, allowed, unc, _intersect(unc[0], unc[1]))


@dataclass
class GrowthFactor:
    theta: float
    alpha_spread: float
    boundary_defect: float
    forbidden: bool


def bloch_growth_factor(block_system: ChannelSystem, energy: float,
                        initial_slope, cfg: SolverConfig = SolverConfig(),
                        tol: float = 1e-4) -> GrowthFactor:
    """Per-period growth factor of a periodized block at one energy.

    The block (on [0, a]) must carry a solution vanishing at both ends whose
    derivative ratios are channel-independent; Theta is that common ratio
    psi_a'(a)/psi_a'(0).  |Theta| > 1 marks a forbidden energy of the
    periodized system.  A channel-dependent ratio means the periodization
    premise fails.
    """
    x_lo, x_hi = block_system.x_range()
    if block_system.domain_kind != "half_line":
        raise ConfigurationError("the block lives on [0, a]")
    d0 = np.asarray(initial_slope, dtype=float)
    y0 = np.concatenate([np.zeros_like(d0), d0])
    traj = engine.segment(block_system, x_lo, x_hi, cfg).trajectory(energy, y0[:, None])
    n = block_system.n_channels
    end_vals = traj[-1, :n, 0]
    end_ders = traj[-1, n:, 0]
    scale = float(np.max(np.abs(traj[:, :n, 0])))
    boundary_defect = float(np.max(np.abs(end_vals))) / scale
    if boundary_defect > 1e-5:
        raise ConstructionInvalidError(
            f"block solution does not vanish at the right edge (defect {boundary_defect:.2e})")
    ratios = end_ders / d0
    theta = float(np.mean(ratios))
    spread = float(np.max(np.abs(ratios - theta))) / abs(theta)
    if spread > tol:
        raise ConstructionInvalidError(
            f"derivative ratio varies across channels by {spread:.2e}")
    return GrowthFactor(theta, spread, boundary_defect, abs(theta) > 1.0 + 1e-9)


def periodized_system(block_potential, thresholds, period: float,
                      n_periods: int, cfg: SolverConfig = SolverConfig()) -> ChannelSystem:
    """Tile a block potential (defined on [0, a]) over n periods."""
    xs = engine.build_grid(0.0, period, cfg.step, block_potential.breakpoints())
    block = block_potential.matrix_batch(xs)
    grids = [xs + j * period for j in range(n_periods)]
    full_grid = np.concatenate([g[:-1] for g in grids] + [grids[-1][-1:]])
    samples = np.concatenate([block[:-1]] * n_periods + [block[-1:]])
    from .domain import GridSampled
    pot = GridSampled(full_grid, samples,
                      breakpoints_=tuple(j * period for j in range(n_periods + 1)))
    return ChannelSystem(thresholds, pot, "half_line", x_max=n_periods * period)
