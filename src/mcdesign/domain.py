"""Channel systems, interaction-matrix representations and spectral data.

Units: hbar^2 / 2m = 1 throughout, so the coupled equations read

    -psi_a''(x) + sum_b V_ab(x) psi_b(x) = (E - eps_a) psi_a(x)

with eps_a the channel thresholds.  Delta terms in the interaction are kept
as first-class (location, strength-matrix) pairs realized as derivative-jump
conditions psi'(x0+) - psi'(x0-) = S psi(x0); they are never smeared into
narrow smooth bumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError


def _as_symmetric(m, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigurationError(f"{name} must be square, got shape {m.shape}")
    if not np.array_equal(m, m.T):
        if np.max(np.abs(m - m.T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
            raise ConfigurationError(f"{name} must be symmetric")
        m = 0.5 * (m + m.T)
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class DeltaTerm:
    """A point interaction: strength matrix of a Dirac delta at ``location``."""

    location: float
    strength: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "strength", _as_symmetric(self.strength, "delta strength"))


class PotentialMatrix:
    """Base interface for symmetric real N x N interaction matrices V(x).

    Concrete variants implement the smooth part via ``matrix_batch`` and expose
    delta terms separately.  ``breakpoints`` lists discontinuities of the
    smooth part, ``support`` the interval outside of which the smooth part has
    decayed to its constant tail.
    """

    variant: str = "abstract"
    n_channels: int = 0
    deltas: tuple[DeltaTerm, ...] = ()

    def matrix(self, x: float) -> np.ndarray:
        return self.matrix_batch(np.array([float(x)]))[0]

    def matrix_batch(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        return ()

    def support(self) -> tuple[float, float]:
        """Interval outside of which |V(x) - tail| is negligible (< ~1e-12)."""
        return (0.0, 0.0)

    def tail(self) -> np.ndarray:
        """Constant asymptotic matrix (usually zero; walls for box models)."""
        return np.zeros((self.n_channels, self.n_channels))

    def delta_terms(self) -> tuple[DeltaTerm, ...]:
        return self.deltas


class PiecewiseConstant(PotentialMatrix):
    """Sum of constant matrices on intervals; optional delta terms.

    Overlapping intervals add (useful for per-channel structures).  An
    interval may extend to +/-inf (box walls).  At an interval edge the
    evaluated value is the average of the two one-sided limits, which keeps
    centered-difference residual checks clean.
    """

    variant = "piecewise_constant"

    def __init__(self, n_channels: int, pieces=(), deltas=()):
        self.n_channels = int(n_channels)
        norm_pieces = []
        for lo, hi, m in pieces:
            if not (lo < hi):
                raise ConfigurationError(f"empty interval [{lo}, {hi}]")
            norm_pieces.append((float(lo), float(hi), _as_symmetric(m, "piece")))
        norm_pieces.sort(key=lambda p: p[0])
        self.pieces = tuple(norm_pieces)
        self.deltas = tuple(deltas)

    def matrix_batch(self, xs):
        xs = np.asarray(xs, dtype=float)
        n = self.n_channels
        out = np.zeros(xs.shape + (n, n))
        for lo, hi, m in self.pieces:
            inside = (xs > lo) & (xs < hi)
            out[inside] += m
            out[np.isclose(xs, lo, rtol=0.0, atol=1e-14)] += 0.5 * m
            out[np.isclose(xs, hi, rtol=0.0, atol=1e-14)] += 0.5 * m
        return out

    def breakpoints(self):
        pts = []
        for lo, hi, _ in self.pieces:
            if math.isfinite(lo):
                pts.append(lo)
            if math.isfinite(hi):
                pts.append(hi)
        return tuple(sorted(set(pts)))

    def support(self):
        finite = [p for lohi in ((lo, hi) for lo, hi, _ in self.pieces)
                  for p in lohi if math.isfinite(p)]
        finite += [d.location for d in self.deltas]
        if not finite:
            return (0.0, 0.0)
        return (min(finite), max(finite))

    def tail(self):
        out = np.zeros((self.n_channels, self.n_channels))
        for lo, hi, m in self.pieces:
            if hi == math.inf:
                out = out + m
        return out


def free_potential(n_channels: int) -> PiecewiseConstant:
    return PiecewiseConstant(n_channels, pieces=())


class DeltaComb(PotentialMatrix):
    """Equally spaced point interactions sharing one strength matrix.

    Sites sit at ``offset + j * period`` for j in [j_min, j_max]; the smooth
    part is zero.  Infinite (band-structure) combs are handled analytically in
    the ``bands`` module; this class enumerates a finite window of sites for
    direct integration.
    """

    variant = "delta_comb"

    def __init__(self, n_channels: int, period: float, strength, j_min: int, j_max: int,
                 offset: float = 0.0):
        if period <= 0:
            raise ConfigurationError("period must be positive")
        self.n_channels = int(n_channels)
        self.period = float(period)
        self.offset = float(offset)
        self.j_min = int(j_min)
        self.j_max = int(j_max)
        strength = _as_symmetric(strength, "comb strength")
        self.strength = strength
        self.deltas = tuple(DeltaTerm(self.offset + j * self.period, strength)
                            for j in range(self.j_min, self.j_max + 1))

    def matrix_batch(self, xs):
        xs = np.asarray(xs, dtype=float)
        n = self.n_channels
        return np.zeros(xs.shape + (n, n))

    def support(self):
        locs = [d.location for d in self.deltas]
        return (min(locs), max(locs)) if locs else (0.0, 0.0)


class GridSampled(PotentialMatrix):
    """Matrix samples on a strictly increasing grid, linear interpolation.

    Outside the grid the potential takes the declared left/right tail values.
    Optional ``params`` records the generating closed-form parameters of a
    transform so the construction can be re-derived at another resolution.
    """

    variant = "grid_sampled"

    def __init__(self, grid, samples, deltas=(), tail_left=None, tail_right=None,
                 breakpoints_=(), params=None):
        grid = np.asarray(grid, dtype=float)
        samples = np.asarray(samples, dtype=float)
        if grid.ndim != 1 or np.any(np.diff(grid) <= 0):
            raise ConfigurationError("grid must be strictly increasing")
        if samples.shape[0] != grid.shape[0] or samples.ndim != 3:
            raise ConfigurationError("samples must have shape (len(grid), N, N)")
        asym = np.max(np.abs(samples - np.swapaxes(samples, 1, 2)))
        if asym > 1e-10 * max(1.0, float(np.max(np.abs(samples)))):
            raise ConfigurationError("sampled matrices must be symmetric")
        samples = 0.5 * (samples + np.swapaxes(samples, 1, 2))
        self.n_channels = samples.shape[1]
        self.grid = grid
        self.samples = samples
        self.deltas = tuple(deltas)
        n = self.n_channels
        self.tail_left = (np.zeros((n, n)) if tail_left is None
                          else _as_symmetric(tail_left, "tail_left"))
        self.tail_right = (np.zeros((n, n)) if tail_right is None
                           else _as_symmetric(tail_right, "tail_right"))
        self._breakpoints = tuple(breakpoints_)
        self.params = dict(params) if params else None

    def matrix_batch(self, xs):
        xs = np.asarray(xs, dtype=float)
        flat = xs.ravel()
        g = self.grid
        idx = np.clip(np.searchsorted(g, flat, side="right") - 1, 0, len(g) - 2)
        x0 = g[idx]
        w = (flat - x0) / (g[idx + 1] - x0)
        w = np.clip(w, 0.0, 1.0)
        out = (1.0 - w)[:, None, None] * self.samples[idx] + w[:, None, None] * self.samples[idx + 1]
        left = flat < g[0]
        right = flat > g[-1]
        if np.any(left):
            out[left] = self.tail_left
        if np.any(right):
            out[right] = self.tail_right
        return out.reshape(xs.shape + out.shape[1:])

    def breakpoints(self):
        return self._breakpoints

    def support(self):
        return (float(self.grid[0]), float(self.grid[-1]))

    def tail(self):
        return self.tail_right


class ClosedFormPotential(PotentialMatrix):
    """Base for hand-coded analytic interaction matrices.

    Subclasses set ``formula_id`` and implement ``matrix_batch`` plus
    ``parameters()`` so the construction is re-evaluable at any resolution.
    """

    variant = "closed_form"
    formula_id = "abstract"

    def parameters(self) -> dict:
        raise NotImplementedError


class SumPotential(PotentialMatrix):
    """Weighted sum of potentials, each kept in its own representation.

    Transforms return the base potential plus a sampled change through this
    class so that steps and walls of the base stay exact instead of being
    smeared by grid interpolation.  Delta strengths combine with the same
    weights.
    """

    variant = "sum"

    def __init__(self, terms, params=None):
        self.terms = tuple((float(w), p) for w, p in terms)
        if not self.terms:
            raise ConfigurationError("empty potential sum")
        self.n_channels = self.terms[0][1].n_channels
        if any(p.n_channels != self.n_channels for _, p in self.terms):
            raise ConfigurationError("mismatched channel counts in potential sum")
        merged: dict[float, np.ndarray] = {}
        for w, p in self.terms:
            for d in p.delta_terms():
                merged[d.location] = merged.get(d.location, 0.0) + w * d.strength
        self.deltas = tuple(DeltaTerm(loc, s) for loc, s in sorted(merged.items())
                            if np.max(np.abs(s)) > 0)
        self.params = dict(params) if params else None

    def matrix_batch(self, xs):
        xs = np.asarray(xs, dtype=float)
        out = self.terms[0][0] * self.terms[0][1].matrix_batch(xs)
        for w, p in self.terms[1:]:
            out = out + w * p.matrix_batch(xs)
        return out

    def breakpoints(self):
        pts = set()
        for _, p in self.terms:
            pts.update(p.breakpoints())
        return tuple(sorted(pts))

    def support(self):
        spans = [p.support() for _, p in self.terms]
        return (min(s[0] for s in spans), max(s[1] for s in spans))

    def tail(self):
        out = np.zeros((self.n_channels, self.n_channels))
        for w, p in self.terms:
            out = out + w * p.tail()
        return out


@dataclass(frozen=True)
class ChannelSystem:
    """N coupled channels: thresholds, domain and interaction matrix.

    ``domain_kind`` is "half_line" (regular boundary at x = 0, domain
    [0, x_max]) or "whole_line" (domain [-x_max, x_max]).
    """

    thresholds: tuple[float, ...]
    potential: PotentialMatrix
    domain_kind: str = "half_line"
    x_max: float | None = None

    def __post_init__(self):
        thr = tuple(float(t) for t in self.thresholds)
        object.__setattr__(self, "thresholds", thr)
        if self.domain_kind not in ("half_line", "whole_line"):
            raise ConfigurationError(f"unknown domain_kind {self.domain_kind!r}")
        if len(thr) != self.potential.n_channels:
            raise ConfigurationError("thresholds length must equal the number of channels")
        if any(b > a + 1e-15 for a, b in zip(thr[1:], thr[:-1])):
            raise ConfigurationError("thresholds must be nondecreasing")
        if self.x_max is None:
            object.__setattr__(self, "x_max", 30.0 if self.domain_kind == "half_line" else 40.0)
        lo, hi = self.x_range()
        for d in self.potential.delta_terms():
            if not (lo < d.location < hi):
                raise ConfigurationError(f"delta at {d.location} outside domain [{lo}, {hi}]")

    @property
    def n_channels(self) -> int:
        return self.potential.n_channels

    def x_range(self) -> tuple[float, float]:
        if self.domain_kind == "half_line":
            return (0.0, float(self.x_max))
        return (-float(self.x_max), float(self.x_max))

    def effective_thresholds(self) -> np.ndarray:
        """Asymptotic channel energies eps_a + V_aa(inf) (box walls included)."""
        tail = self.potential.tail()
        if np.max(np.abs(tail - np.diag(np.diag(tail)))) > 1e-12:
            raise ConfigurationError("asymptotic tail of the potential must be diagonal")
        return np.asarray(self.thresholds) + np.diag(tail)

    def open_mask(self, energy: float) -> np.ndarray:
        return energy > self.effective_thresholds()

    def channel_momenta(self, energy: float) -> np.ndarray:
        """k_a = sqrt(E - eps_a) for open channels, else i*kappa_a; complex array."""
        de = energy - self.effective_thresholds()
        return np.where(de >= 0, np.sqrt(np.abs(de)), 1j * np.sqrt(np.abs(de)))


def evaluate_potential(potential: PotentialMatrix, x: float,
                       x_range: tuple[float, float] | None = None):
    """Smooth part of V at x plus the delta terms registered exactly at x.

    Raises DomainError when ``x_range`` is given and x falls outside it.
    """
    x = float(x)
    if x_range is not None and not (x_range[0] <= x <= x_range[1]):
        raise DomainError(f"x = {x} outside domain [{x_range[0]}, {x_range[1]}]")
    smooth = potential.matrix(x)
    at_x = tuple(d for d in potential.delta_terms() if d.location == x)
    return smooth, at_x


@dataclass(frozen=True)
class SpectralDatum:
    """Energy plus a spectral weight vector.

    ``weight_kind`` "C" means derivative weights at the origin,
    psi_a'(0, E_n); "M" means asymptotic amplitudes,
    psi_a(x) -> M_a exp(-kappa_a x).  A datum whose energy lies at or above
    some effective threshold is flagged as BSEC-type (allowed).
    """

    energy: float
    weight_kind: str
    weights: np.ndarray
    is_bsec: bool = False

    def __post_init__(self):
        if self.weight_kind not in ("C", "M"):
            raise ConfigurationError("weight_kind must be 'C' or 'M'")
        w = np.asarray(self.weights, dtype=float).copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def make_datum(system: ChannelSystem, energy: float, weight_kind: str, weights) -> SpectralDatum:
    bsec = bool(np.any(energy >= system.effective_thresholds() - 1e-12))
    return SpectralDatum(float(energy), weight_kind, np.asarray(weights, float), is_bsec=bsec)


@dataclass
class MatrixSolution:
    """N x N solution matrix (regular or Jost) sampled with derivatives.

    Regular kind: values vanish at x = 0 and the derivative there is the
    identity.  Jost kind: columns approach decaying/outgoing exponentials at
    the right edge.  At delta locations the stored derivative is the left
    limit.
    """

    energy: float
    kind: str
    grid: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray

    def at(self, x: float):
        """Linear interpolation of (values, derivatives) at x."""
        i = int(np.clip(np.searchsorted(self.grid, x) - 1, 0, len(self.grid) - 2))
        w = (x - self.grid[i]) / (self.grid[i + 1] - self.grid[i])
        v = (1 - w) * self.values[i] + w * self.values[i + 1]
        d = (1 - w) * self.derivatives[i] + w * self.derivatives[i + 1]
        return v, d


@dataclass
class ScatteringData:
    """Open-channel scattering data at one energy.

    Half-line systems carry the unitary S over open channels.  Whole-line
    systems carry flux-normalized transmission/reflection blocks per incidence
    side ("right" incidence means an incoming exp(-ikx) wave at x -> +inf)
    plus the composed unitary S over both sides.
    """

    energy: float
    open_mask: np.ndarray
    s_matrix: np.ndarray
    eigenphases: np.ndarray
    unitarity_defect: float
    transmission_right: np.ndarray | None = None
    reflection_right: np.ndarray | None = None
    transmission_left: np.ndarray | None = None
    reflection_left: np.ndarray | None = None


@dataclass
class BoundState:
    """A normalized bound (or embedded) state of a channel system."""

    energy: float
    grid: np.ndarray
    values: np.ndarray          # (len(grid), N)
    derivatives: np.ndarray     # (len(grid), N)
    c_datum: SpectralDatum | None
    m_datum: SpectralDatum
    left_amplitudes: np.ndarray | None = None   # whole-line: psi -> L_a exp(+kappa_a x), x -> -inf

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    @classmethod
    def of(cls, system: ChannelSystem, energy: float, grid, values,
           derivatives) -> "BoundState":
        """The state with its weights read off the sampled values: C = psi'(0)
        on the half line, M = psi(x_end) exp(kappa x_end), and on the whole
        line the left amplitudes L = psi(x_start) exp(-kappa x_start)."""
        kappa = np.sqrt(system.effective_thresholds() - energy)
        c_datum = left = None
        with np.errstate(over="ignore", invalid="ignore"):
            m_weights = values[-1] * np.exp(kappa * grid[-1])
            if system.domain_kind == "whole_line":
                left = values[0] * np.exp(-kappa * grid[0])
        if system.domain_kind == "half_line":
            c_datum = make_datum(system, energy, "C", derivatives[0])
        return cls(float(energy), grid, values, derivatives, c_datum,
                   make_datum(system, energy, "M", m_weights), left)


def require_same_grid(a, b, what: str):
    """Raise ConfigurationError unless grids ``a`` and ``b`` coincide node by node."""
    if len(a) != len(b) or not np.allclose(a, b, rtol=0.0, atol=1e-12):
        raise ConfigurationError(f"{what} must share the solver grid (same system and config)")
