"""Origin-anchored closed-form transforms.

These change one bound state's spectral weight vector (the origin
derivatives C_a = psi_a'(0)) and/or its energy while leaving every other
piece of spectral data fixed, and create normalizable states at energies
above thresholds (BSEC) with controllable tails.  The rest of the spectrum
and the scattering matrix are untouched; that is what the engine verifies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .domain import (BoundState, ChannelSystem, GridSampled, MatrixSolution,
                     SumPotential, require_same_grid)
from .dressing import Dressing, DressingTerm, cumulative_from_start, rank_one
from .errors import ConfigurationError
from . import engine
from .engine import SolverConfig


@dataclass(frozen=True)
class GlTransformSpec:
    """One-level change of origin data on a half-line system.

    ``state`` is the engine-found normalized bound state to be modified,
    ``new_energy``/``new_weights`` the requested datum.  Weight kind is C.
    """

    system: ChannelSystem
    state: BoundState
    new_energy: float
    new_weights: np.ndarray

    def __post_init__(self):
        if self.system.domain_kind != "half_line":
            raise ConfigurationError("origin-anchored transforms need a half-line system")
        object.__setattr__(self, "new_weights", np.asarray(self.new_weights, dtype=float))

    @property
    def is_identity(self) -> bool:
        same_e = abs(self.new_energy - self.state.energy) < 1e-14
        return same_e and np.allclose(self.new_weights, self.state.c_datum.weights,
                                      rtol=1e-14, atol=0.0)


@dataclass
class GlTransformResult:
    system: ChannelSystem
    potential: GridSampled
    grid: np.ndarray
    state: BoundState
    dressing: Dressing

    def map_regular(self, sol: MatrixSolution) -> MatrixSolution:
        """Transformed regular solution at the probe energy of ``sol``."""
        require_same_grid(self.grid, sol.grid, "probe solutions")
        vals, ders = self.dressing.map_values(sol.values, sol.derivatives)
        return MatrixSolution(sol.energy, "regular", sol.grid, vals, ders)


def transform_bound_state(spec: GlTransformSpec, phi_new: MatrixSolution,
                          cfg: SolverConfig = SolverConfig()) -> GlTransformResult:
    """Move one level's energy and/or origin weights, all else fixed.

    ``phi_new`` is the engine's regular matrix solution of the *base* system
    at the requested new energy.  The old term uses the normalized bound
    state itself; the new one is Phi0(x, E_new) C_new.  Both enter a two-term
    origin-anchored dressing whose attached state is returned normalized with
    psi'(0) equal to the requested weights.
    """
    system = spec.system
    state = spec.state
    require_same_grid(state.grid, phi_new.grid, "bound state and regular solution")
    u_new = phi_new.values @ spec.new_weights
    du_new = phi_new.derivatives @ spec.new_weights
    kappa_old = np.sqrt(system.effective_thresholds() - state.energy)
    terms = [DressingTerm(u_new, du_new, +1.0),
             DressingTerm(state.values.copy(), state.derivatives.copy(), -1.0,
                          tail_rates=kappa_old, normalized=True)]
    dress = Dressing(state.grid, terms, "origin")
    dv = dress.delta_v()
    pot = SumPotential([(1.0, system.potential), (1.0, GridSampled(state.grid, dv))],
                       params={"transform": "gl_bound_state",
                               "old_energy": state.energy,
                               "new_energy": float(spec.new_energy),
                               "new_weights": [float(w) for w in spec.new_weights]})
    new_system = replace(system, potential=pot)
    vals, ders = dress.state(0)
    new_state = BoundState.of(new_system, spec.new_energy, state.grid, vals, ders)
    return GlTransformResult(new_system, pot, state.grid, new_state, dress)


# ---------------------------------------------------------------------------
# bound states embedded in the continuum


def matched_bsec_weights(system: ChannelSystem, energy: float,
                         cfg: SolverConfig = SolverConfig()) -> np.ndarray:
    """Origin weights proportional to the physical solution's coefficients.

    Singles out the combination of regular-solution columns whose closed
    channels decay; with these weights the embedded state (and its potential
    block) falls off like a power law instead of exponentially.
    """
    open_mask = system.open_mask(energy)
    if np.all(open_mask) or not np.any(open_mask):
        raise ConfigurationError("matched BSEC weights need both open and closed channels")
    x_m = engine.right_match_point(system, cfg)
    n = system.n_channels
    y0 = np.vstack([np.zeros((n, n)), np.eye(n)])
    y = engine.segment(system, 0.0, x_m, cfg).transfer(energy) @ y0
    phi, dphi = y[:n], y[n:]
    kappa = np.sqrt(np.abs(energy - system.effective_thresholds()))
    closed = ~open_mask
    grow = kappa[closed, None] * phi[closed] + dphi[closed]
    _, _, vt = np.linalg.svd(grow)
    c = vt[-1]
    c = c / c[int(np.argmax(np.abs(c)))]
    return c


@dataclass
class FarField:
    """Per-channel free-region representation of the dressing function.

    Open channels: u_a = p_a sin(k_a (x-x_j)) + q_a cos(k_a (x-x_j));
    closed channels: u_a = c_a exp(-kappa_a (x-x_j)) + d_a exp(+kappa_a (x-x_j)).
    """

    x_j: float
    open_mask: np.ndarray
    k: np.ndarray
    p: np.ndarray
    q: np.ndarray
    c: np.ndarray
    d: np.ndarray
    den_at_j: float

    def u(self, xs):
        xs = np.asarray(xs, dtype=float)
        rel = xs[:, None] - self.x_j
        n = len(self.open_mask)
        vals = np.zeros((len(xs), n))
        ders = np.zeros((len(xs), n))
        for a in range(n):
            ka = self.k[a]
            if self.open_mask[a]:
                vals[:, a] = self.p[a] * np.sin(ka * rel[:, 0]) + self.q[a] * np.cos(ka * rel[:, 0])
                ders[:, a] = ka * (self.p[a] * np.cos(ka * rel[:, 0])
                                   - self.q[a] * np.sin(ka * rel[:, 0]))
            else:
                em = np.exp(-ka * rel[:, 0])
                ep = np.exp(ka * rel[:, 0])
                vals[:, a] = self.c[a] * em + self.d[a] * ep
                ders[:, a] = ka * (-self.c[a] * em + self.d[a] * ep)
        return vals, ders

    def den(self, xs):
        """D(x) = D(x_j) + int_{x_j}^x sum_a u_a^2, in closed form."""
        xs = np.asarray(xs, dtype=float)
        xi = xs - self.x_j
        total = np.full(len(xs), self.den_at_j)
        for a in range(len(self.open_mask)):
            ka = self.k[a]
            if self.open_mask[a]:
                p, q = self.p[a], self.q[a]
                total += (p * p + q * q) * xi / 2.0 \
                    - (p * p - q * q) * np.sin(2 * ka * xi) / (4 * ka) \
                    + p * q * (1.0 - np.cos(2 * ka * xi)) / (2 * ka)
            else:
                c, d = self.c[a], self.d[a]
                total += c * c * (1.0 - np.exp(-2 * ka * xi)) / (2 * ka) \
                    + 2 * c * d * xi + d * d * (np.expm1(2 * ka * xi)) / (2 * ka)
        return total

    def _dressed(self, xs):
        vals, ders = self.u(xs)
        return rank_one(xs, vals, ders, self.den(xs), 1.0)

    def state(self, xs):
        _, psi, dpsi = self._dressed(xs)
        return psi, dpsi

    def delta_v(self, xs):
        return self._dressed(xs)[0]

    def envelope(self, xs):
        """Oscillation-free amplitude of the embedded state per channel."""
        vals, ders = self.u(xs)
        den = self.den(xs)
        amp = np.empty_like(vals)
        for a in range(len(self.open_mask)):
            if self.open_mask[a]:
                amp[:, a] = np.hypot(vals[:, a], ders[:, a] / self.k[a])
            else:
                amp[:, a] = np.abs(vals[:, a])
        return amp / den[:, None]


@dataclass
class BsecResult:
    system: ChannelSystem
    potential: "BsecPotential"
    energy: float
    weights: np.ndarray
    matched: bool
    grid: np.ndarray
    state_values: np.ndarray
    state_derivatives: np.ndarray
    far: FarField
    tail_kind: str
    tail_slope_loglog: float
    tail_slope_semilog: float


class BsecPotential(GridSampled):
    """The dressing change on a core grid joined to an analytic far field.

    Holds only the potential *change*; combine with the base through a
    ``SumPotential``.  Beyond the core grid the change continues in closed
    form, which keeps the slow (power-law) far field exact out to arbitrary
    distances.
    """

    variant = "closed_form"
    formula_id = "bsec_origin_dressing"

    def __init__(self, grid, dv_samples, far: FarField, **kw):
        super().__init__(grid, dv_samples, **kw)
        self.far = far

    def matrix_batch(self, xs):
        xs = np.asarray(xs, dtype=float)
        out = super().matrix_batch(xs)
        beyond = xs > self.grid[-1]
        if np.any(beyond):
            out[beyond] = self.far.delta_v(xs[beyond])
        return out

    def support(self):
        return (float(self.grid[0]), float(self.grid[-1]))

    def parameters(self):
        return dict(self.params or {})


def _fit_line(x, y):
    a = np.vstack([x, np.ones_like(x)]).T
    coef, res, _, _ = np.linalg.lstsq(a, y, rcond=None)
    pred = a @ coef
    ss = float(np.sum((y - pred) ** 2))
    return float(coef[0]), ss


def classify_tail(far: FarField, x_lo: float, x_hi: float, n: int = 200):
    """Power-law vs exponential falloff of the embedded state.

    Fits log(amplitude) of the slowest-decaying channel against log x and
    against x over [x_lo, x_hi]; the better fit wins.  Returns
    (kind, loglog_slope, semilog_slope).
    """
    xs = np.linspace(x_lo, x_hi, n)
    amp = far.envelope(xs)
    chan = int(np.argmax(amp[-1]))
    y = np.log(np.maximum(amp[:, chan], 1e-300))
    s_log, ss_log = _fit_line(np.log(xs), y)
    s_lin, ss_lin = _fit_line(xs, y)
    kind = "power_law" if ss_log <= ss_lin else "exponential"
    return kind, s_log, s_lin


def create_bsec(system: ChannelSystem, energy: float, weights,
                cfg: SolverConfig = SolverConfig(),
                fit_window: tuple[float, float] = (50.0, 200.0)) -> BsecResult:
    """Normalizable state at an energy above >= 1 threshold, by origin dressing.

    The core region is integrated directly; beyond the interaction support the
    dressing function continues analytically per channel, which keeps the
    matched cancellation of growing closed-channel parts exact out to
    arbitrary x.  Weights proportional to ``matched_bsec_weights`` give a
    power-law (~1/x) state; any other ratio gives exponential falloff.
    """
    weights = np.asarray(weights, dtype=float)
    if not np.any(weights):
        raise ConfigurationError("weights must not all vanish")
    open_mask = system.open_mask(energy)
    if not np.any(open_mask):
        raise ConfigurationError("BSEC creation needs at least one open channel")
    x_j = engine.right_match_point(system, cfg)
    fac = engine.segment(system, 0.0, x_j, cfg)
    xs = fac.grid
    n = system.n_channels
    y0 = np.vstack([np.zeros((n, n)), np.eye(n)])
    traj = fac.trajectory(energy, y0)
    u = traj[:, :n, :] @ weights
    du = traj[:, n:, :] @ weights
    # far-field decomposition at x_j
    k = np.sqrt(np.abs(energy - system.effective_thresholds()))
    p = np.zeros(n)
    q = np.zeros(n)
    c = np.zeros(n)
    d = np.zeros(n)
    for a in range(n):
        if open_mask[a]:
            q[a] = u[-1, a]
            p[a] = du[-1, a] / k[a]
        else:
            c[a] = 0.5 * (u[-1, a] - du[-1, a] / k[a])
            d[a] = 0.5 * (u[-1, a] + du[-1, a] / k[a])
    matched = False
    if np.any(~open_mask):
        ref = matched_bsec_weights(system, energy, cfg)
        cos = abs(float(weights @ ref)) / (np.linalg.norm(weights) * np.linalg.norm(ref))
        if cos > 1.0 - 1e-9:
            matched = True
            d[~open_mask] = 0.0         # exact cancellation of growing parts
    den = 1.0 + cumulative_from_start(xs, np.sum(u ** 2, axis=1))
    far = FarField(x_j, open_mask, k, p, q, c, d, float(den[-1]))
    dv, psi, dpsi = rank_one(xs, u, du, den, 1.0)
    dv_pot = BsecPotential(xs, dv, far,
                           params={"transform": "bsec", "energy": float(energy),
                                   "weights": [float(w) for w in weights],
                                   "matched": matched})
    pot = SumPotential([(1.0, system.potential), (1.0, dv_pot)],
                       params=dv_pot.params)
    new_system = replace(system, potential=pot)
    # norm must converge: D(x) has to keep growing
    probe = far.den(np.array([x_j + 50.0, x_j + 200.0]))
    if not probe[1] > probe[0] * (1.0 + 1e-12):
        raise ConfigurationError("embedded-state norm integral does not converge")
    kind, s_log, s_lin = classify_tail(far, *fit_window)
    return BsecResult(new_system, pot, float(energy), weights, matched, xs, psi, dpsi,
                      far, kind, s_log, s_lin)
