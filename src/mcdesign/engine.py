"""Direct coupled-channel Schrodinger solver.

Everything is built on per-step one-step (classical 4th order) propagators of
the first-order 2N-dimensional system

    d/dx [psi; psi'] = [[0, I], [V(x) + diag(eps) - E, 0]] [psi; psi'],

assembled in vectorized form so that energy scans stay cheap.  Delta terms
enter as exact derivative jumps psi'(x0+) = psi'(x0-) + S psi(x0) at grid
nodes.  Bound states are located from sign changes and rank deficiencies of
the matching determinant between the regular solution and decaying
asymptotics; scattering data come from matching to per-channel exponentials
beyond the interaction region.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import functools
import math
import os
import threading
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson
from scipy.optimize import brentq, minimize_scalar

from .domain import (
    BoundState,
    ChannelSystem,
    MatrixSolution,
    ScatteringData,
)
from .errors import (
    ConfigurationError,
    IntegrationOverflowError,
    ThresholdSingularityError,
)

_EDGE_SHIFT = 1e-6          # fractional inset for sampling V inside a step
_DELTA_SNAP = 1e-9
_RANK_TOL = 1e-8            # smallest/largest singular value for degeneracy
_THRESHOLD_GUARD = 1e-9
# M * N^2 from which step matrices are built in parts: on a 2-core Xeon a
# two-part build broke even near 1.2e4 for N = 2 and 3 and 2e4 for N = 1
_SPLIT_WORK = 16384


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step integrator settings.

    ``step`` is the target grid spacing (segments between potential
    breakpoints are subdivided uniformly at or below it).  ``bracket_step``
    is the energy resolution of bound-state scans; ``x_match`` overrides the
    automatic matching point beyond the interaction region.
    """

    step: float = 1e-3
    match_tol: float = 1e-8
    bracket_step: float = 1e-3
    x_match: float | None = None

    def __post_init__(self):
        if self.step <= 0:
            raise ConfigurationError("step must be positive")


def build_grid(x0: float, x1: float, step: float, knots=()) -> np.ndarray:
    """Increasing grid from x0 to x1 whose nodes include every interior knot.

    Each segment between consecutive knots is subdivided uniformly with
    spacing <= step, so breakpoints and delta locations always sit on nodes.
    """
    if not x1 > x0:
        raise ConfigurationError(f"empty grid range [{x0}, {x1}]")
    pts = sorted({float(x0), float(x1), *(float(k) for k in knots if x0 < k < x1)})
    out = [np.array([x0])]
    for a, b in zip(pts, pts[1:]):
        n = max(1, int(math.ceil((b - a) / step - 1e-12)))
        out.append(np.linspace(a, b, n + 1)[1:])
    return np.concatenate(out)


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_PARTS = min(_cpus(), 4)    # the calling thread plus at most 3 workers
_pool = None                # created on the first split
_pool_lock = threading.Lock()


def _step_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = concurrent.futures.ThreadPoolExecutor(
                _PARTS - 1, thread_name_prefix="mcdesign-steps")
        return _pool


def _reset_pool():
    # a forked child inherits the executor object but none of its threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool)


def _in_parts(kernel, m: int, work: int):
    """Run ``kernel(lo, hi)`` over the node range [0, m).

    Below ``_SPLIT_WORK`` (and on one CPU) the range is one part on the
    calling thread.  Above it the range is cut into ``_PARTS`` contiguous
    parts: the calling thread runs the first and the pool the others, each
    under a copy of the caller's context, so numpy's error state (a context
    variable) applies in every part.  Every part is waited for before the
    first error in range order is raised.
    """
    if _PARTS < 2 or work < _SPLIT_WORK:
        kernel(0, m)
        return
    pool = _step_pool()
    cuts = [m * i // _PARTS for i in range(_PARTS + 1)]
    futures = [pool.submit(contextvars.copy_context().run, kernel, lo, hi)
               for lo, hi in zip(cuts[1:-1], cuts[2:])]
    try:
        kernel(cuts[0], cuts[1])
    finally:
        concurrent.futures.wait(futures)
    for fut in futures:
        fut.result()


class PropagatorFactory:
    """Precomputes potential samples on a path so per-energy work is small.

    ``xs`` is the node sequence in propagation order (increasing or
    decreasing); ``grid`` is the same nodes in increasing order.
    ``propagators(E)`` returns the (M, 2N, 2N) array of one-step transfer
    matrices, with delta jumps folded in at the nodes they occupy.  Stored
    derivatives at a delta node are always the left limit.  Each step
    matrix depends on its own node only, so large builds run in node-range
    parts on a small thread pool and equal the serial build bit for bit.
    """

    def __init__(self, system: ChannelSystem, xs: np.ndarray):
        self.xs = np.asarray(xs, dtype=float)
        self.h = np.diff(self.xs)
        if len(self.h) == 0 or (np.any(self.h > 0) and np.any(self.h < 0)):
            raise ConfigurationError("node sequence must be strictly monotonic")
        self.forward = bool(self.h[0] > 0)
        self.grid = self.xs if self.forward else self.xs[::-1]
        self.n = system.n_channels
        pot = system.potential
        x_lo = self.xs[:-1] + _EDGE_SHIFT * self.h
        x_mid = self.xs[:-1] + 0.5 * self.h
        x_hi = self.xs[1:] - _EDGE_SHIFT * self.h
        eps = np.diag(np.asarray(system.thresholds, dtype=float))
        self._b1 = pot.matrix_batch(x_lo) + eps
        self._bm = pot.matrix_batch(x_mid) + eps
        self._b4 = pot.matrix_batch(x_hi) + eps
        # energy-independent step-size factors of the four blocks
        h = self.h[:, None, None]
        self._h2_6 = h * h / 6.0
        self._h4_24 = h ** 4 / 24.0
        self._h3_6 = h ** 3 / 6.0
        self._h_6 = h / 6.0
        self._h3_12 = h ** 3 / 12.0
        self._jumps = self._locate_jumps(system)

    def _locate_jumps(self, system: ChannelSystem):
        # the system is not kept: a cached factory must not keep it alive
        jumps = []
        lo, hi = min(self.xs[0], self.xs[-1]), max(self.xs[0], self.xs[-1])
        for d in system.potential.delta_terms():
            idx = np.nonzero(np.abs(self.xs - d.location) < _DELTA_SNAP)[0]
            if idx.size == 0:
                if lo < d.location < hi:
                    raise ConfigurationError(
                        f"delta at {d.location} does not coincide with a grid node")
                continue
            jumps.append((int(idx[0]), d.strength))
        return jumps

    def propagators(self, energy: float) -> np.ndarray:
        n = self.n
        shift = energy * np.eye(n)
        if shift.dtype.kind == "c":
            raise ConfigurationError(f"energy must be real, got {energy!r}")
        m = len(self.h)
        p = np.empty((m, 2 * n, 2 * n))
        _in_parts(functools.partial(self._steps, shift, p), m, m * n * n)
        for idx, strength in self._jumps:
            jump = np.eye(2 * n)
            if self.forward:
                if idx < m:                       # jump applied when leaving the node
                    jump[n:, :n] = strength
                    p[idx] = p[idx] @ jump
            else:
                if idx > 0:                       # arriving from the right: to left limit
                    jump[n:, :n] = -strength
                    p[idx - 1] = jump @ p[idx - 1]
        return p

    def _steps(self, shift: np.ndarray, p: np.ndarray, lo: int, hi: int):
        """Step matrices of steps [lo, hi) into ``p[lo:hi]``; ``shift`` is E I."""
        n = self.n
        eye = np.eye(n)
        a1 = self._b1[lo:hi] - shift
        am = self._bm[lo:hi] - shift
        a4 = self._b4[lo:hi] - shift
        am_a1 = am @ a1
        a4_am = a4 @ am
        h = self.h[lo:hi, None, None]
        h2_6, h4_24 = self._h2_6[lo:hi], self._h4_24[lo:hi]
        p[lo:hi, :n, :n] = eye + h2_6 * (a1 + 2.0 * am) + h4_24 * am_a1
        p[lo:hi, :n, n:] = h * eye + self._h3_6[lo:hi] * am
        p[lo:hi, n:, :n] = (self._h_6[lo:hi] * (a1 + 4.0 * am + a4)
                            + self._h3_12[lo:hi] * (am_a1 + a4_am))
        p[lo:hi, n:, n:] = eye + h2_6 * (2.0 * am + a4) + h4_24 * a4_am

    def transfer(self, energy: float) -> np.ndarray:
        """Transfer matrix across the whole path, first node to last."""
        return transfer_product(self.propagators(energy))

    def trajectory(self, energy: float, y0: np.ndarray) -> np.ndarray:
        """Node states for initial data y0 at ``xs[0]``, in ``grid`` order."""
        return self._increasing(propagate_trajectory(self.propagators(energy), self.xs, y0))

    def _increasing(self, traj: np.ndarray) -> np.ndarray:
        return traj if self.forward else traj[::-1]


def transfer_product(props: np.ndarray) -> np.ndarray:
    """Ordered product P[-1] @ ... @ P[0] by pairwise tree reduction."""
    cur = props
    with np.errstate(over="ignore", invalid="ignore"):
        while cur.shape[0] > 1:
            m = cur.shape[0]
            even = 2 * (m // 2)
            pairs = np.matmul(cur[1:even:2], cur[0:even:2])
            cur = np.concatenate([pairs, cur[even:]], axis=0) if m % 2 else pairs
    total = cur[0]
    if not np.all(np.isfinite(total)):
        raise IntegrationOverflowError(float("nan"), "transfer product overflowed")
    return total


def propagate_trajectory(props: np.ndarray, xs: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """All node states for initial data y0 of shape (2N, ncols)."""
    out = np.empty((len(xs),) + y0.shape, dtype=np.result_type(props.dtype, y0.dtype))
    out[0] = y0
    y = y0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(props)):
            y = props[i] @ y
            out[i + 1] = y
    if not np.all(np.isfinite(out[-1])):
        finite = np.isfinite(out.reshape(len(xs), -1)).all(axis=1)
        bad = np.nonzero(~finite)[0]
        raise IntegrationOverflowError(float(xs[bad[0]]) if bad.size else float(xs[-1]))
    return out


def _match_pad(system: ChannelSystem) -> float:
    # a few decay lengths into the asymptotic region; more only breeds
    # exponential junk in the reconstructed tails (walls decay at sqrt(V))
    tail_scale = math.sqrt(max(1.0, float(np.max(np.abs(system.potential.tail())))))
    return min(1.0, 6.0 / tail_scale)


def right_match_point(system: ChannelSystem, cfg: SolverConfig) -> float:
    if cfg.x_match is not None:
        return float(cfg.x_match)
    hi = system.potential.support()[1]
    return min(system.x_range()[1], hi + _match_pad(system))


def left_match_point(system: ChannelSystem, cfg: SolverConfig) -> float:
    lo = system.potential.support()[0]
    return max(system.x_range()[0], lo - _match_pad(system))


def _check_decayed(system: ChannelSystem, x_from: float, x_to: float, tol: float = 1e-10):
    for d in system.potential.delta_terms():
        if d.location >= x_from:
            raise ConfigurationError(
                f"delta at {d.location} lies at or beyond the matching point {x_from}")
    xs = np.linspace(x_from, x_to, 24)
    dev = system.potential.matrix_batch(xs) - system.potential.tail()
    worst = float(np.max(np.abs(dev)))
    if worst > tol:
        raise ConfigurationError(
            f"potential not decayed beyond matching point (|V - tail| = {worst:.2e})")


def clearance_point(system: ChannelSystem, tol: float, side: str = "right") -> float:
    """Smallest |x| beyond which |V - tail| stays below tol (coarse probe).

    Delta locations count as potential that has not decayed, so no delta
    lies beyond the returned point.  Bound-state matching may stop where the
    residual tail can no longer move an energy at the working accuracy, well
    before the strict support edge; matching deep inside an exponentially
    long tail only erodes the determinant's conditioning.
    """
    lo, hi = system.potential.support()
    x_lo, x_hi = system.x_range()
    lo, hi = max(lo, x_lo), min(hi, x_hi)
    if hi <= lo:
        return hi if side == "right" else lo
    xs = np.linspace(lo, hi, 4096)
    dev = np.max(np.abs(system.potential.matrix_batch(xs) - system.potential.tail()),
                 axis=(1, 2))
    big = [*xs[dev > tol], *(d.location for d in system.potential.delta_terms())]
    if not big:
        return 0.5 * (lo + hi)      # effectively free: collapse to the middle
    return float(max(big) if side == "right" else min(big))


_BOUND_TAIL_TOL = 1e-5      # residual tail this small cannot move a level
_SCATTER_TAIL_TOL = 1e-8    # truncating |V| below this is invisible at 1e-6 in S


def _match_point(system: ChannelSystem, cfg: SolverConfig, tol: float, side: str) -> float:
    """Where the matchers stop: a pad beyond the point where |V - tail| < tol.

    ``cfg.x_match`` overrides the right point; neither point passes the
    strict support edge plus the pad.
    """
    if side == "right":
        if cfg.x_match is not None:
            return float(cfg.x_match)
        x_m = clearance_point(system, tol, "right") + _match_pad(system)
        return min(x_m, right_match_point(system, cfg))
    x_l = clearance_point(system, tol, "left") - _match_pad(system)
    return max(x_l, left_match_point(system, cfg))


def _interior_knots(system: ChannelSystem):
    """The knots every grid keeps as nodes: breakpoints and delta locations."""
    return [*system.potential.breakpoints(),
            *(d.location for d in system.potential.delta_terms())]


def segment(system: ChannelSystem, x_from: float, x_to: float,
            cfg: SolverConfig) -> PropagatorFactory:
    """The propagation path from x_from to x_to, in either direction.

    Its grid has spacing <= cfg.step and keeps every breakpoint and delta
    location as a node.
    """
    xs = build_grid(min(x_from, x_to), max(x_from, x_to), cfg.step, _interior_knots(system))
    return PropagatorFactory(system, xs if x_from < x_to else xs[::-1])


def system_grid(system: ChannelSystem, cfg: SolverConfig = SolverConfig(),
                extra_knots=()) -> np.ndarray:
    """The solver grid for a system: node-aligned breakpoints and deltas.

    All matching points are included as knots so that regular solutions, Jost
    solutions and bound states from one (system, config) pair share their
    nodes exactly; transforms rely on that alignment.
    """
    x_lo, x_hi = system.x_range()
    x_r = _match_point(system, cfg, _BOUND_TAIL_TOL, "right")
    knots = [*_interior_knots(system), right_match_point(system, cfg), x_r]
    if system.domain_kind == "whole_line":
        x_l = _match_point(system, cfg, _BOUND_TAIL_TOL, "left")
        knots += [left_match_point(system, cfg), x_l, 0.5 * (x_l + x_r)]
    knots.extend(extra_knots)
    return build_grid(x_lo, x_hi, cfg.step, knots)


def integrate_regular(system: ChannelSystem, energy: float,
                      cfg: SolverConfig = SolverConfig()) -> MatrixSolution:
    """Regular matrix solution Phi with Phi(0) = 0, Phi'(0) = I on [0, x_max]."""
    if system.domain_kind != "half_line":
        raise ConfigurationError("regular solutions are defined on half-line systems")
    xs = system_grid(system, cfg)
    n = system.n_channels
    y0 = np.vstack([np.zeros((n, n)), np.eye(n)])
    traj = PropagatorFactory(system, xs).trajectory(energy, y0)
    return MatrixSolution(float(energy), "regular", xs, traj[:, :n, :], traj[:, n:, :])


def integrate_jost(system: ChannelSystem, energy: float,
                   cfg: SolverConfig = SolverConfig()) -> MatrixSolution:
    """Jost matrix solution by backward integration from the right edge.

    Column a carries the boundary condition of channel a: exp(-i k_a x) in
    open channels, exp(-kappa_a x) in closed ones.  The potential must have
    decayed (to its constant tail) beyond the matching point.
    """
    x_m = right_match_point(system, cfg)
    x_lo, x_hi = system.x_range()
    _check_decayed(system, x_m, x_hi)
    xs = system_grid(system, cfg)
    n = system.n_channels
    eps_eff = system.effective_thresholds()
    any_open = bool(np.any(system.open_mask(energy)))
    if any_open:
        rates = np.asarray(-1j * system.channel_momenta(energy), dtype=complex)
    else:
        rates = -np.sqrt(eps_eff - energy)
    vals = np.exp(rates * x_hi)
    y_end = np.vstack([np.diag(vals), np.diag(rates * vals)])
    traj = PropagatorFactory(system, xs[::-1]).trajectory(energy, y_end)
    return MatrixSolution(float(energy), "jost", xs, traj[:, :n, :], traj[:, n:, :])


def stencil_nodes(system: ChannelSystem, xs: np.ndarray, stride: int,
                  margin: float) -> np.ndarray:
    """Every stride-th interior node whose five-point stencil has equal steps
    and lies more than ``margin`` largest steps away from every knot."""
    h = np.diff(xs)
    idx = np.arange(2, len(xs) - 2, stride)
    uniform = (np.isclose(h[idx - 2], h[idx - 1], rtol=1e-9)
               & np.isclose(h[idx - 1], h[idx], rtol=1e-9)
               & np.isclose(h[idx], h[idx + 1], rtol=1e-9))
    idx = idx[uniform]
    h_max = float(np.max(h))
    for s in _interior_knots(system):
        idx = idx[np.abs(xs[idx] - s) > margin * h_max]
    return idx


def solution_residual(system: ChannelSystem, sol: MatrixSolution, stride: int = 16) -> float:
    """Max re-substitution residual with five-point second differences.

    Checked on a strided subset of interior nodes, skipping windows around
    breakpoints and delta locations; normalized by the largest solution
    amplitude.
    """
    xs, v = sol.grid, sol.values
    h = np.diff(xs)
    idx = stencil_nodes(system, xs, stride, 3.5)
    if idx.size == 0:
        return 0.0
    num = (-v[idx - 2] + 16 * v[idx - 1] - 30 * v[idx]
           + 16 * v[idx + 1] - v[idx + 2]) / 12.0
    a = system.potential.matrix_batch(xs[idx]) + np.diag(system.thresholds) \
        - sol.energy * np.eye(system.n_channels)
    if v.ndim == 3:
        d2 = num / (h[idx - 1] ** 2)[:, None, None]
        res = d2 - a @ v[idx]
    else:
        d2 = num / (h[idx - 1] ** 2)[:, None]
        res = d2 - np.einsum("mij,mj->mi", a, v[idx])
    scale = float(np.max(np.abs(v))) or 1.0
    return float(np.max(np.abs(res))) / scale


# ---------------------------------------------------------------------------
# bound states


class _Matcher:
    """A matcher lives for one ``find_bound_states`` call.  The scan, the
    bisection and dip searches, the confirmation, the rank test and the
    reconstruction revisit energies; ``matrix(E)`` evaluates each energy's
    matching matrix once per matcher."""

    def __init__(self, system: ChannelSystem, cfg: SolverConfig):
        self.system = system
        self.cfg = cfg
        self._memo = {}

    def matrix(self, energy: float):
        key = float(energy)
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = self.matching_matrix(energy)
        return out


class _HalfLineMatcher(_Matcher):
    def __init__(self, system: ChannelSystem, cfg: SolverConfig):
        super().__init__(system, cfg)
        self.x_m = _match_point(system, cfg, _BOUND_TAIL_TOL, "right")
        self.fac = segment(system, 0.0, self.x_m, cfg)
        self.xs = self.fac.xs
        n = system.n_channels
        self.y0 = np.vstack([np.zeros((n, n)), np.eye(n)])
        self.eps_eff = system.effective_thresholds()

    def matching_matrix(self, energy: float):
        n = self.system.n_channels
        y = self.fac.transfer(energy) @ self.y0
        phi, dphi = y[:n], y[n:]
        kappa = np.sqrt(self.eps_eff - energy)
        g = kappa[:, None] * phi + dphi       # growing-part coefficients
        # scale each channel row by the solution magnitude, not by the row
        # itself: at an uncoupled root the whole row vanishes legitimately,
        # and rescaling it by its own maximum would bury the root in noise
        row = kappa * np.max(np.abs(phi), axis=1) + np.max(np.abs(dphi), axis=1)
        row[row == 0] = 1.0
        return g / row[:, None], np.ones(n)

    def _classical_turning(self, energy: float) -> float:
        """Last point where any local eigenchannel is classically allowed."""
        probe = np.linspace(self.xs[0], self.xs[-1], 600)
        mats = self.system.potential.matrix_batch(probe) \
            + np.diag(np.asarray(self.system.thresholds, dtype=float))
        lam = np.linalg.eigvalsh(mats)
        idx = np.nonzero(np.any(lam < energy, axis=1))[0]
        return float(probe[idx[-1]]) if idx.size else float(probe[0])

    def raw_states(self, energy: float, rank_def: int):
        """Two-sided reconstruction: regular piece up to an energy-adaptive
        midpoint, stable backward decaying piece beyond it.

        One-sided shooting would drag exponential null-vector junk through
        the tail once kappa * (x_m - turning point) grows past the float
        budget; integrating the decaying side backward keeps the tail clean
        for any domain.  Returns rank_def tuples
        (xs, values, derivatives, dec_right, dec_left).
        """
        n = self.system.n_channels
        kappa = np.sqrt(self.eps_eff - energy)
        x_c = min(float(self.x_m),
                  self._classical_turning(energy) + 12.0 / max(float(np.min(kappa)), 1e-6))
        i_c = int(np.searchsorted(self.xs, x_c))
        if i_c >= len(self.xs) - 2:
            m, scale = self.matrix(energy)
            _, _, vt = np.linalg.svd(m)
            traj = self.fac.trajectory(energy, self.y0)
            out = []
            for j in range(rank_def):
                coeffs = np.real(vt[-1 - j] / scale)
                vals = traj[:, :n, :] @ coeffs
                ders = traj[:, n:, :] @ coeffs
                dec = 0.5 * (vals[-1] - ders[-1] / kappa)
                out.append((self.xs, vals, ders, dec, None))
            return out
        # slices of the matcher's own grid, so the pieces join on its nodes
        fac_l = PropagatorFactory(self.system, self.xs[: i_c + 1])
        fac_r = PropagatorFactory(self.system, self.xs[i_c:][::-1])
        traj_l = fac_l.trajectory(energy, self.y0)
        # start the decaying columns at their natural size at x_c so both
        # blocks of the matching matrix meet at comparable magnitudes
        w = np.exp(-np.minimum(kappa * (self.x_m - self.xs[i_c]), 650.0))
        y_right = np.vstack([np.diag(w), np.diag(-kappa * w)])
        traj_r = fac_r.trajectory(energy, y_right)
        m = np.hstack([np.vstack([traj_l[-1, :n], traj_l[-1, n:]]),
                       -np.vstack([traj_r[0, :n], traj_r[0, n:]])])
        s = np.max(np.abs(m[:n]), axis=1) + np.max(np.abs(m[n:]), axis=1) / kappa
        s[s == 0] = 1.0
        m_s = m / np.concatenate([s, kappa * s])[:, None]
        _, _, vt = np.linalg.svd(m_s)
        out = []
        for j in range(rank_def):
            z = vt[-1 - j]
            c_l, c_r = z[:n], z[n:]
            vals = np.concatenate([traj_l[:, :n, :] @ c_l, traj_r[1:, :n, :] @ c_r])
            ders = np.concatenate([traj_l[:, n:, :] @ c_l, traj_r[1:, n:, :] @ c_r])
            out.append((self.xs, vals, ders, c_r * w, None))
        return out


class _WholeLineMatcher(_Matcher):
    def __init__(self, system: ChannelSystem, cfg: SolverConfig):
        super().__init__(system, cfg)
        self.x_l = _match_point(system, cfg, _BOUND_TAIL_TOL, "left")
        self.x_r = _match_point(system, cfg, _BOUND_TAIL_TOL, "right")
        self.x_c = 0.5 * (self.x_l + self.x_r)
        self.fac_left = segment(system, self.x_l, self.x_c, cfg)
        self.fac_right = segment(system, self.x_r, self.x_c, cfg)
        self.eps_eff = system.effective_thresholds()

    def _edge_data(self, energy: float):
        n = self.system.n_channels
        kappa = np.sqrt(self.eps_eff - energy)
        y_left = np.vstack([np.eye(n), np.diag(kappa)])      # ~ exp(+kappa x), x -> -inf
        y_right = np.vstack([np.eye(n), np.diag(-kappa)])    # ~ exp(-kappa x), x -> +inf
        return y_left, y_right, kappa

    def matching_matrix(self, energy: float):
        n = self.system.n_channels
        y_left, y_right, kappa = self._edge_data(energy)
        yl = self.fac_left.transfer(energy) @ y_left
        yr = self.fac_right.transfer(energy) @ y_right
        m = np.hstack([yl, -yr])
        # per-channel solution scales; value and derivative rows separately
        s = np.max(np.abs(m[:n]), axis=1) + np.max(np.abs(m[n:]), axis=1) / kappa
        s[s == 0] = 1.0
        m = m / np.concatenate([s, kappa * s])[:, None]
        col = np.max(np.abs(m), axis=0)
        col[col == 0] = 1.0
        return m / col[None, :], col

    def raw_states(self, energy: float, rank_def: int):
        n = self.system.n_channels
        y_left, y_right, kappa = self._edge_data(energy)
        m, scale = self.matrix(energy)
        _, _, vt = np.linalg.svd(m)
        traj_l = self.fac_left.trajectory(energy, y_left)
        traj_r = self.fac_right.trajectory(energy, y_right)
        xs = np.concatenate([self.fac_left.grid, self.fac_right.grid[1:]])
        out = []
        for j in range(rank_def):
            coeffs = np.real(vt[-1 - j] / scale)
            c_l, c_r = coeffs[:n], coeffs[n:]
            vals = np.concatenate([traj_l[:, :n, :] @ c_l, traj_r[1:, :n, :] @ c_r])
            ders = np.concatenate([traj_l[:, n:, :] @ c_l, traj_r[1:, n:, :] @ c_r])
            dec_right = 0.5 * (vals[-1] - ders[-1] / kappa)
            dec_left = 0.5 * (vals[0] + ders[0] / kappa)
            out.append((xs, vals, ders, dec_right, dec_left))
        return out


def _scan_roots(matcher, window, cfg: SolverConfig):
    e_lo, e_hi = window
    n_steps = max(2, int(math.ceil((e_hi - e_lo) / cfg.bracket_step)))
    energies = np.linspace(e_lo, e_hi, n_steps + 1)
    dets = np.empty_like(energies)
    sigma = np.empty_like(energies)
    for i, e in enumerate(energies):
        m, _ = matcher.matrix(e)
        dets[i] = np.linalg.det(m)
        s = np.linalg.svd(m, compute_uv=False)
        sigma[i] = s[-1] / s[0]

    def det_at(e):
        return float(np.linalg.det(matcher.matrix(e)[0]))

    def sigma_at(e):
        s = np.linalg.svd(matcher.matrix(e)[0], compute_uv=False)
        return float(s[-1] / s[0])

    roots = []
    for i in range(len(energies) - 1):
        if dets[i] * dets[i + 1] < 0:
            roots.append(brentq(det_at, energies[i], energies[i + 1],
                                xtol=1e-13, rtol=1e-14))
    # even-multiplicity zeros show up as dips of the smallest singular value
    floor = max(float(np.median(sigma)), 1e-12)
    for i in range(1, len(energies) - 1):
        if sigma[i] <= sigma[i - 1] and sigma[i] <= sigma[i + 1] and sigma[i] < 1e-2 * floor:
            res = minimize_scalar(sigma_at, bounds=(float(energies[i - 1]),
                                                    float(energies[i + 1])),
                                  method="bounded", options={"xatol": 1e-13})
            if sigma_at(float(res.x)) < 10 * _RANK_TOL:
                roots.append(float(res.x))
    roots.sort()
    merged = []
    for r in roots:
        if not merged or abs(r - merged[-1]) > 1e-8 * (1.0 + abs(r)):
            merged.append(r)
    return merged


def _tail_on_nodes(xs, x_from, coeffs, rates):
    """psi_a(x) = coeffs_a * exp(rates_a * (x - x_from)) on given nodes."""
    rel = (np.asarray(xs) - x_from)[:, None]
    with np.errstate(over="ignore"):
        vals = coeffs[None, :] * np.exp(rates[None, :] * rel)
    ders = rates[None, :] * vals
    return vals, ders


def find_bound_states(system: ChannelSystem, window, cfg: SolverConfig = SolverConfig()):
    """All normalized bound states with energies inside the window.

    Energies come from sign changes (and even-order dips) of the matching
    determinant, refined by bisection; rank deficiencies > 1 yield as many
    orthonormal states as the deficiency.  Each state carries C-type
    (half-line) and M-type spectral weight vectors.  A window without sign
    changes yields an empty list, not an error.
    """
    e_lo, e_hi = float(window[0]), float(window[1])
    eps_min = float(np.min(system.effective_thresholds()))
    if e_hi >= eps_min - _THRESHOLD_GUARD:
        raise ConfigurationError(
            "bound-state window must stay below the lowest effective threshold")
    make = _HalfLineMatcher if system.domain_kind == "half_line" else _WholeLineMatcher
    matcher = make(system, cfg)
    confirm = _confirmation_matcher(system, cfg, make)
    states, full = [], None
    for energy in _scan_roots(matcher, (e_lo, e_hi), cfg):
        if confirm is not None and not _confirm_root(confirm, energy):
            continue
        m, _ = matcher.matrix(energy)
        s = np.linalg.svd(m, compute_uv=False)
        rank_def = max(1, int(np.sum(s < _RANK_TOL * s[0])))
        if full is None:
            full = system_grid(system, cfg)
        group = [_raw_state(system, energy, raw, full)
                 for raw in matcher.raw_states(energy, rank_def)]
        states.extend(_orthonormalize(group))
    states.sort(key=lambda st: st.energy)
    return states


def _confirmation_matcher(system, cfg, make):
    """A second matcher with a shorter matching span.

    Long shallow potential tails erode the matching determinant's dynamic
    range; genuine levels barely feel those tails, so a root that a shorter
    matcher cannot reproduce is discarded as noise.
    """
    if cfg.x_match is not None:
        return None
    x_r = _match_point(system, cfg, 1e-3, "right")
    if x_r >= _match_point(system, cfg, _BOUND_TAIL_TOL, "right") - 1e-9:
        return None
    cfg2 = SolverConfig(step=cfg.step, match_tol=cfg.match_tol,
                        bracket_step=cfg.bracket_step, x_match=x_r)
    return make(system, cfg2)


def _confirm_root(matcher, energy, window=1e-6, dip_window=1e-2):
    lo = energy - window * (1.0 + abs(energy))
    hi = energy + window * (1.0 + abs(energy))
    d_lo = float(np.linalg.det(matcher.matrix(lo)[0]))
    d_hi = float(np.linalg.det(matcher.matrix(hi)[0]))
    if d_lo * d_hi < 0:
        return True

    def smin(e):
        s = np.linalg.svd(matcher.matrix(e)[0], compute_uv=False)
        return float(s[-1] / s[0])

    # even-order roots: require a localized dip, not just a small sigma (the
    # matching matrix is generically ill-conditioned at shallow energies)
    off = dip_window * (1.0 + abs(energy))
    ref = min(smin(energy - off), smin(energy + off))
    return smin(energy) < 1e-3 * ref


def _raw_state(system, energy, raw, full):
    """A raw state on the system grid ``full``, analytic tails beyond ``xs``."""
    xs, vals, ders, dec_r, dec_l = raw
    kappa = np.sqrt(system.effective_thresholds() - energy)
    i_lo = int(np.searchsorted(full, xs[0] - 1e-12))
    i_hi = i_lo + len(xs)
    if i_hi > len(full) or not np.allclose(full[i_lo:i_hi], xs, rtol=0.0, atol=1e-12):
        raise ConfigurationError("matcher grid is not a segment of the system grid")
    out_v = np.empty((len(full), vals.shape[1]))
    out_d = np.empty_like(out_v)
    out_v[i_lo:i_hi] = vals
    out_d[i_lo:i_hi] = ders
    if i_hi < len(full):
        vt, dt = _tail_on_nodes(full[i_hi:], xs[-1], dec_r, -kappa)
        out_v[i_hi:] = vt
        out_d[i_hi:] = dt
    if i_lo > 0:
        vt, dt = _tail_on_nodes(full[:i_lo], xs[0], dec_l, +kappa)
        out_v[:i_lo] = vt
        out_d[:i_lo] = dt
    return {"system": system, "energy": energy, "grid": full, "values": out_v,
            "derivatives": out_d, "dec_right": dec_r, "dec_left": dec_l, "kappa": kappa}


def _raw_inner(a, b):
    """Inner product of two raw states on a shared grid, tails included."""
    core = simpson(np.sum(a["values"] * b["values"], axis=1), x=a["grid"])
    kap = a["kappa"]
    core += float(np.sum(a["values"][-1] * b["values"][-1] / (2 * kap)))
    if a["dec_left"] is not None:
        core += float(np.sum(a["values"][0] * b["values"][0] / (2 * kap)))
    return core


def _orthonormalize(group):
    done = []
    for st in group:
        for prev, prev_raw in done:
            ov = _raw_inner(prev_raw, st)
            for key in ("values", "derivatives", "dec_right"):
                st[key] = st[key] - ov * prev_raw[key]
            if st["dec_left"] is not None:
                st["dec_left"] = st["dec_left"] - ov * prev_raw["dec_left"]
        nrm = math.sqrt(_raw_inner(st, st))
        if not (nrm > 0 and math.isfinite(nrm)):
            raise IntegrationOverflowError(
                float("nan"), "state reconstruction produced a non-normalizable result")
        for key in ("values", "derivatives", "dec_right"):
            st[key] = st[key] / nrm
        if st["dec_left"] is not None:
            st["dec_left"] = st["dec_left"] / nrm
        done.append((_finalize_state(st), st))
    return [fin for fin, _ in done]


def _finalize_state(st) -> BoundState:
    lead = int(np.argmax(np.abs(st["dec_right"])))
    if st["dec_right"][lead] < 0:
        for key in ("values", "derivatives", "dec_right"):
            st[key] = -st[key]
        if st["dec_left"] is not None:
            st["dec_left"] = -st["dec_left"]
    return BoundState.of(st["system"], st["energy"], st["grid"], st["values"],
                         st["derivatives"])


def orthonormality_check(states) -> float:
    """Gram-matrix defect max |<m|n> - delta_mn| over normalized states."""
    defect = 0.0
    for i in range(len(states)):
        for j in range(i, len(states)):
            a, b = states[i], states[j]
            ov = simpson(np.sum(a.values * b.values, axis=1), x=a.grid)
            defect = max(defect, abs(ov - (1.0 if i == j else 0.0)))
    return defect


# ---------------------------------------------------------------------------
# scattering


def _require_off_threshold(system, energy):
    gap = float(np.min(np.abs(energy - system.effective_thresholds())))
    if gap < _THRESHOLD_GUARD:
        raise ThresholdSingularityError(
            f"E = {energy} within {gap:.1e} of a channel threshold; offset the energy")


def scattering_matrix(system: ChannelSystem, energy: float,
                      cfg: SolverConfig = SolverConfig()) -> ScatteringData:
    """Open-channel scattering data at one energy (above >= 1 threshold)."""
    _require_off_threshold(system, energy)
    open_mask = system.open_mask(energy)
    if not np.any(open_mask):
        raise ConfigurationError("no open channel at this energy")
    # keep only the blocks, so one side's step matrices are freed before
    # the other side's are built
    if system.domain_kind == "half_line":
        s = -_incidence(system, energy, cfg, "right")[5]
        blocks = {}
    else:
        t_r, r_r = _incidence(system, energy, cfg, "right")[4:]
        t_l, r_l = _incidence(system, energy, cfg, "left")[4:]
        s = np.block([[t_r, r_l], [r_r, t_l]])
        blocks = {"transmission_right": t_r, "reflection_right": r_r,
                  "transmission_left": t_l, "reflection_left": r_l}
    defect = float(np.max(np.abs(s.conj().T @ s - np.eye(s.shape[0]))))
    phases = np.sort(np.angle(np.linalg.eigvals(s)) / 2.0)
    return ScatteringData(float(energy), open_mask, s, phases, defect, **blocks)


def _free_decompose(y, k, open_mask):
    """Per-channel exponential coefficients relative to a reference point.

    Returns (minus, plus, grow, decay): "minus"/"plus" multiply
    exp(-+ik(x-x_ref)) in open channels; "grow"/"decay" multiply
    exp(+-kappa(x-x_ref)) in closed ones.
    """
    n = len(open_mask)
    vals, ders = y[:n], y[n:]
    minus = np.zeros_like(vals)
    plus = np.zeros_like(vals)
    grow = np.zeros_like(vals)
    decay = np.zeros_like(vals)
    for a in range(n):
        if open_mask[a]:
            minus[a] = 0.5 * (vals[a] + 1j * ders[a] / k[a])
            plus[a] = 0.5 * (vals[a] - 1j * ders[a] / k[a])
        else:
            grow[a] = 0.5 * (vals[a] + ders[a] / k[a])
            decay[a] = 0.5 * (vals[a] - ders[a] / k[a])
    return minus, plus, grow, decay


class _ScatterPlan:
    """The energy-independent part of the S read-out for one (system, cfg):
    effective thresholds, the scatter match points (kept only once the decay
    check has passed) and, on first use, each incidence side's segment, all
    from the calls ``_incidence`` would make per energy.  The system is held
    weakly, so a plan never keeps it alive.
    """

    def __init__(self, system: ChannelSystem, cfg: SolverConfig):
        self.eps_eff = system.effective_thresholds()
        self.x_r = _match_point(system, cfg, _SCATTER_TAIL_TOL, "right")
        _check_decayed(system, self.x_r, system.x_range()[1], tol=_SCATTER_TAIL_TOL)
        self.x_l = (0.0 if system.domain_kind == "half_line"
                    else _match_point(system, cfg, _SCATTER_TAIL_TOL, "left"))
        self.cfg = cfg
        self.system = weakref.ref(system, _drop_plan)
        self._segments = {}

    def segment(self, system: ChannelSystem, side: str) -> PropagatorFactory:
        """From the start basis, on the side away from ``side``, to ``side``."""
        if side not in self._segments:
            x_in, x_out = (self.x_r, self.x_l) if side == "right" else (self.x_l, self.x_r)
            self._segments[side] = segment(system, x_out, x_in, self.cfg)
        return self._segments[side]


# one slot: sweeps reuse it, and no live system holds on to its segments
_last_plan: _ScatterPlan | None = None


def _drop_plan(ref):
    global _last_plan
    if _last_plan is not None and _last_plan.system is ref:
        _last_plan = None


def _scatter_plan(system: ChannelSystem, cfg: SolverConfig) -> _ScatterPlan:
    """The plan for (system, cfg): the kept one if it matches, else a new one.

    Systems match by identity, configs by equality.  A plan whose decay
    check fails raises from its constructor and is never kept.
    """
    global _last_plan
    plan = _last_plan
    if plan is None or plan.system() is not system or plan.cfg != cfg:
        plan = _last_plan = _ScatterPlan(system, cfg)
    return plan


def _incidence(system, energy, cfg, side):
    """Unit flux-normalized incidence from ``side`` in each open channel.

    The start basis sits on the side away from the incidence: regular at 0
    on the half line; transmitted or decaying on the whole line.  Propagated
    across the segment to the incidence side, it is combined so that each
    open channel carries one incoming wave and no closed channel grows.  Returns (segment, step
    matrices, start basis, combination, transmission, reflection); rows and
    columns of the blocks run over open channels.  Match points and segments
    come from the (system, cfg) plan; only the work below depends on E.
    """
    plan = _scatter_plan(system, cfg)
    n = system.n_channels
    open_mask = energy > plan.eps_eff
    k = np.sqrt(np.abs(energy - plan.eps_eff))
    if system.domain_kind == "half_line":
        y0 = np.vstack([np.zeros((n, n)), np.eye(n)])
    else:
        rates = (np.where(open_mask, -1j * k, k) if side == "right"   # toward -inf
                 else np.where(open_mask, 1j * k, -k))                  # toward +inf
        y0 = np.vstack([np.eye(n), np.diag(rates)]).astype(complex)
    x_in, x_out, sign = ((plan.x_r, plan.x_l, -1j) if side == "right"
                         else (plan.x_l, plan.x_r, 1j))
    fac = plan.segment(system, side)
    props = fac.propagators(energy)
    minus, plus, grow, decay = _free_decompose(
        np.asarray(transfer_product(props) @ y0, dtype=complex), k, open_mask)
    incoming, outgoing, growing = ((minus, plus, grow) if side == "right"
                                   else (plus, minus, decay))
    idx_open = np.nonzero(open_mask)[0]
    rhs = np.zeros((n, len(idx_open)), dtype=complex)
    for col, a in enumerate(idx_open):
        rhs[col, col] = np.exp(sign * k[a] * x_in) / math.sqrt(k[a])
    x_comb = np.linalg.solve(np.vstack([incoming[idx_open], growing[~open_mask]]), rhs)
    q = outgoing[idx_open] @ x_comb
    trans = np.empty((len(idx_open), len(idx_open)), dtype=complex)
    refl = np.empty_like(trans)
    for row, a in enumerate(idx_open):
        refl[row] = math.sqrt(k[a]) * np.exp(sign * k[a] * x_in) * q[row]
        trans[row] = math.sqrt(k[a]) * np.exp(-sign * k[a] * x_out) * x_comb[a]
    return fac, props, y0, x_comb, trans, refl


def scattering_state(system: ChannelSystem, energy: float, amplitudes,
                     side: str = "right", cfg: SolverConfig = SolverConfig()):
    """Physical whole-line scattering solution for given incidence amplitudes.

    ``amplitudes`` has one flux-normalized entry per open channel.  Returns
    (grid, values (m, N) complex, derivatives).
    """
    _require_off_threshold(system, energy)
    if system.domain_kind != "whole_line":
        raise ConfigurationError("scattering_state expects a whole-line system")
    fac, props, y0, x_comb, _, _ = _incidence(system, energy, cfg, side)
    n = system.n_channels
    combo = y0 @ (x_comb @ np.asarray(amplitudes, dtype=complex))
    traj = fac._increasing(propagate_trajectory(props.astype(complex), fac.xs,
                                                combo[:, None]))
    return fac.grid, traj[:, :n, 0], traj[:, n:, 0]


def total_flux(values, derivatives, system: ChannelSystem, energy: float) -> float:
    """Total probability current sum_a Im(psi_a^* psi_a') over open channels."""
    open_mask = system.open_mask(energy)
    v = np.asarray(values)[open_mask]
    d = np.asarray(derivatives)[open_mask]
    return float(np.sum(np.imag(np.conj(v) * d)))


# ---------------------------------------------------------------------------
# resonances


@dataclass(frozen=True)
class ResonanceEstimate:
    energy: float
    width_delay: float
    width_fit: float


def _entrance_amplitude(system, energy, channel, cfg):
    open_mask = system.open_mask(energy)
    pos = int(np.nonzero(np.nonzero(open_mask)[0] == channel)[0][0])
    trans, refl = _incidence(system, energy, cfg, "right")[4:]
    if system.domain_kind == "whole_line":
        return trans[pos, pos]
    return -refl[pos, pos]


def estimate_resonance_width(system: ChannelSystem, e_center: float, e_halfwidth: float,
                             entrance_channel: int, cfg: SolverConfig = SolverConfig(),
                             n_samples: int = 101):
    """Resonance position and width from the entrance-channel time delay.

    The phase of the entrance-channel amplitude (transmission for whole-line
    systems, S_aa for half-line) is swept over the window; the width follows
    from the peak phase derivative, Gamma = 2 / max(dphi/dE), cross-checked
    against the FWHM of the associated Lorentzian profile (|T_aa|^2 on the
    whole line, the delay curve itself on the half line).  Returns None when
    the window shows no resonance peak.
    """
    thr = float(system.effective_thresholds()[entrance_channel])
    e_lo = max(e_center - e_halfwidth, thr + 1e-6)
    e_hi = e_center + e_halfwidth
    if e_hi <= e_lo:
        return None

    def sweep(lo, hi, n):
        es = np.linspace(lo, hi, n)
        amp = np.array([_entrance_amplitude(system, e, entrance_channel, cfg) for e in es])
        phase = np.unwrap(np.angle(amp))
        delay = np.gradient(phase, es)
        return es, amp, delay

    es, amp, delay = sweep(e_lo, e_hi, n_samples)
    i_pk = int(np.argmax(delay))
    med = float(np.median(delay))
    spread = max(med - float(np.min(delay)), 1e-12)
    if i_pk in (0, len(es) - 1) or delay[i_pk] <= 0 or (delay[i_pk] - med) < 3.0 * spread:
        return None
    # shrink the window onto the peak until the sampling resolves the width
    gamma = 2.0 / float(delay[i_pk])
    e_res = float(es[i_pk])
    for _ in range(6):
        lo = max(e_res - 5 * gamma, e_lo)
        hi = min(e_res + 5 * gamma, e_hi)
        es, amp, delay = sweep(lo, hi, n_samples)
        i_pk = int(np.argmax(delay))
        if i_pk in (0, len(es) - 1):
            return None
        e_res = float(es[i_pk])
        gamma_new = 2.0 / float(delay[i_pk])
        converged = abs(gamma_new / gamma - 1.0) < 0.02
        gamma = gamma_new
        if converged:
            break
    profile = np.abs(amp) ** 2 if system.domain_kind == "whole_line" else delay
    width_fit = _fwhm(es, profile, i_pk)
    return ResonanceEstimate(e_res, gamma, width_fit)


def _fwhm(es, profile, i_pk):
    base = float(np.min(profile))
    half = base + 0.5 * (float(profile[i_pk]) - base)
    left = right = None
    for i in range(i_pk, 0, -1):
        if profile[i - 1] <= half <= profile[i]:
            f = (half - profile[i - 1]) / (profile[i] - profile[i - 1])
            left = es[i - 1] + f * (es[i] - es[i - 1])
            break
    for i in range(i_pk, len(es) - 1):
        if profile[i + 1] <= half <= profile[i]:
            f = (profile[i] - half) / (profile[i] - profile[i + 1])
            right = es[i] + f * (es[i + 1] - es[i])
            break
    if left is None or right is None:
        return float("nan")
    return float(right - left)
