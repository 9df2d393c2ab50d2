"""Asymptotics-anchored transforms.

These fix the scattering matrix exactly while editing the discrete data:
reflectionless creation from free motion, two-level creation (including
degenerate pairs), bound-state addition or removal on an arbitrary decaying
background, and the level move that keeps S and every other level in place.
The spectral weights here are the asymptotic amplitudes M_a of the
normalized states, psi_a(x) -> M_a exp(-kappa_a x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .domain import (
    BoundState,
    ChannelSystem,
    ClosedFormPotential,
    GridSampled,
    MatrixSolution,
    SumPotential,
    free_potential,
    require_same_grid,
)
from .dressing import Dressing, DressingTerm
from .errors import ConfigurationError, InvalidSpecError, SingularTransformError
from . import engine
from .engine import SolverConfig


def _kappas(thresholds, energy):
    gaps = np.asarray(thresholds, dtype=float) - energy
    if np.any(gaps <= 0):
        raise InvalidSpecError("level energy must lie below every threshold")
    return np.sqrt(gaps)


def _probe_support(matrix_batch, x_center: float, direction: float,
                   scale: float, tol: float = 1e-12, x_cap: float = 150.0):
    """March outward until |V| stays below tol * scale.

    Near-degenerate closed forms carry a cancellation noise floor well above
    tol far from their blocks; a stalled decay below a loose bound is then
    treated as the end of the support (and the march is capped before the
    internal exponentials overflow).
    """
    x = x_center + direction
    prev = math.inf
    while abs(x) < x_cap:
        probe = float(np.max(np.abs(matrix_batch(np.linspace(x, x + direction * 5.0, 32)))))
        if probe < tol * scale:
            return x
        if probe < 1e-6 * scale and probe > 0.5 * prev:
            return x
        prev = probe
        x += direction * 5.0
    return math.copysign(x_cap, direction)


class ReflectionlessPotential(ClosedFormPotential):
    """One created level on free motion: transparent at every energy.

    V_ab(x) = 2 d/dx [ m_a m_b / D ],  m_a = M_a exp(-kappa_a x),
    D(x) = 1 + sum_c m_c^2 / (2 kappa_c),  kappa_a = sqrt(eps_a - E_b).
    The attached normalized state is psi_a = m_a / D.
    """

    formula_id = "reflectionless_one_level"

    def __init__(self, thresholds, energy: float, weights):
        self.thresholds = tuple(float(t) for t in thresholds)
        self.energy = float(energy)
        self.weights = np.asarray(weights, dtype=float)
        self.n_channels = len(self.thresholds)
        self.deltas = ()
        self.kappa = _kappas(self.thresholds, self.energy)
        self._scale = max(1.0, 2.0 * float(np.max(self.kappa)) ** 2)

    def parameters(self):
        return {"formula": self.formula_id, "thresholds": list(self.thresholds),
                "energy": self.energy, "weights": [float(w) for w in self.weights]}

    def _pieces(self, xs):
        xs = np.asarray(xs, dtype=float)
        m = self.weights[None, :] * np.exp(-self.kappa[None, :] * xs[:, None])
        den = 1.0 + np.sum(m ** 2 / (2.0 * self.kappa[None, :]), axis=1)
        dden = -np.sum(m ** 2, axis=1)
        return m, den, dden

    def matrix_batch(self, xs):
        xs = np.asarray(xs, dtype=float)
        m, den, dden = self._pieces(xs)
        num = np.einsum("ma,mb->mab", m, m)
        rate = -(self.kappa[None, :, None] + self.kappa[None, None, :])
        dnum = rate * num
        return 2.0 * (dnum * den[:, None, None] - num * dden[:, None, None]) \
            / den[:, None, None] ** 2

    def state(self, xs):
        """Normalized created state and its derivative, shapes (m, N)."""
        m, den, dden = self._pieces(xs)
        psi = m / den[:, None]
        dpsi = (-self.kappa[None, :] * m * den[:, None] - m * dden[:, None]) \
            / den[:, None] ** 2
        return psi, dpsi

    def support(self):
        if not np.any(self.weights):
            return (0.0, 0.0)
        cap = 300.0 / float(np.max(self.kappa))
        right = _probe_support(self.matrix_batch, 0.0, +1.0, self._scale, x_cap=cap)
        left = _probe_support(self.matrix_batch, 0.0, -1.0, self._scale, x_cap=cap)
        return (left, right)


@dataclass
class CreationResult:
    system: ChannelSystem
    potential: ReflectionlessPotential
    energy: float
    weights: np.ndarray
    degenerate_request: bool

    def state(self, xs):
        return self.potential.state(xs)


def create_reflectionless(thresholds, energy: float, weights,
                          x_max: float = 40.0) -> CreationResult:
    """Whole-line transparent system with exactly one bound state.

    All-zero weights are a degenerate request: the free system is returned,
    flagged.
    """
    weights = np.asarray(weights, dtype=float)
    _kappas(thresholds, energy)
    if not np.any(weights):
        pot = free_potential(len(thresholds))
        system = ChannelSystem(tuple(thresholds), pot, "whole_line", x_max)
        return CreationResult(system, pot, float(energy), weights, True)
    pot = ReflectionlessPotential(thresholds, energy, weights)
    system = ChannelSystem(tuple(thresholds), pot, "whole_line", x_max)
    return CreationResult(system, pot, float(energy), weights, False)


@dataclass
class AnomalyReport:
    """Fitted left-side exponents of the created state's channels."""

    fitted: np.ndarray
    expected: np.ndarray
    natural: np.ndarray
    anomalous: bool


def asymptotic_anomaly_report(thresholds, energy: float, weights,
                              fit_window=(-35.0, -20.0), n: int = 300) -> AnomalyReport:
    """Left-side falloff of the created state vs the naive per-channel rates.

    With distinct thresholds the lower-threshold channel is drained by the
    coupling and decays toward -inf at 2*kappa_max - kappa_min instead of its
    natural kappa_min; equal thresholds show no anomaly.
    """
    pot = ReflectionlessPotential(thresholds, energy, weights)
    kap = pot.kappa
    xs = np.linspace(fit_window[0], fit_window[1], n)
    psi, _ = pot.state(xs)
    fitted = np.array([np.polyfit(xs, np.log(np.abs(psi[:, a])), 1)[0]
                       for a in range(pot.n_channels)])
    natural = kap.copy()
    if np.ptp(kap) < 1e-12:
        return AnomalyReport(fitted, natural, natural, False)
    expected = np.where(kap == np.min(kap), 2.0 * np.max(kap) - kap, kap)
    return AnomalyReport(fitted, expected, natural, True)


@dataclass
class EffectiveReduction:
    asymptote: float
    thresholds: tuple
    energy: float
    weights: np.ndarray

    def potential(self, xs):
        return self._v_eff(np.asarray(xs, dtype=float))

    def _v_eff(self, xs):
        pot = ReflectionlessPotential(self.thresholds, self.energy, self.weights)
        v = pot.matrix_batch(xs)
        kap = pot.kappa
        ratio = (self.weights[1] / self.weights[0]) \
            * np.exp((kap[0] - kap[1]) * xs)
        return v[:, 0, 0] + v[:, 0, 1] * ratio

    def residual(self, x_lo=-20.0, x_hi=20.0, n=8001):
        """Max defect of psi_1 in the reduced one-channel equation."""
        xs = np.linspace(x_lo, x_hi, n)
        h = xs[1] - xs[0]
        pot = ReflectionlessPotential(self.thresholds, self.energy, self.weights)
        psi, _ = pot.state(xs)
        p1 = psi[:, 0]
        d2 = (p1[2:] - 2.0 * p1[1:-1] + p1[:-2]) / h ** 2
        v = self._v_eff(xs[1:-1])
        res = -d2 + v * p1[1:-1] - (self.energy - self.thresholds[0]) * p1[1:-1]
        return float(np.max(np.abs(res))) / float(np.max(np.abs(p1)))


def effective_one_channel(thresholds, energy: float, weights) -> EffectiveReduction:
    """Reduce the two-channel created state to one channel.

    psi_2 = (M_2/M_1) exp((kappa_1-kappa_2) x) psi_1 turns the first coupled
    equation into a one-channel equation with an energy-dependent potential
    whose left asymptote is 4 kappa_2 (kappa_2 - kappa_1).
    """
    weights = np.asarray(weights, dtype=float)
    if len(thresholds) != 2:
        raise InvalidSpecError("the effective reduction is a two-channel construction")
    if weights[0] == 0.0:
        raise InvalidSpecError("the reduction divides by M_1; it must not vanish")
    kap = _kappas(thresholds, energy)
    asym = 4.0 * kap[1] * (kap[1] - kap[0])
    return EffectiveReduction(float(asym), tuple(thresholds), float(energy), weights)


class TwoLevelPotential(ClosedFormPotential):
    """Two levels created on free whole-line motion (possibly degenerate).

    With F(x) the N x 2 matrix of column vectors M_a exp(-kappa_a x) and
    M'_a exp(-kappa'_a x), and P = I + integral_x^inf F^T F dy (all entries in
    closed form), the interaction is V = 2 d/dx [F P^{-1} F^T] and the matrix
    of normalized states is F P^{-1}.
    """

    formula_id = "two_level_creation"

    def __init__(self, thresholds, level1, level2):
        (e1, m1), (e2, m2) = level1, level2
        self.thresholds = tuple(float(t) for t in thresholds)
        self.n_channels = len(self.thresholds)
        self.deltas = ()
        self.e1, self.e2 = float(e1), float(e2)
        self.m1 = np.asarray(m1, dtype=float)
        self.m2 = np.asarray(m2, dtype=float)
        self.k1 = _kappas(self.thresholds, self.e1)
        self.k2 = _kappas(self.thresholds, self.e2)
        self._scale = max(1.0, 2.0 * float(np.max(self.k1)) ** 2,
                          2.0 * float(np.max(self.k2)) ** 2)

    def parameters(self):
        return {"formula": self.formula_id, "thresholds": list(self.thresholds),
                "energies": [self.e1, self.e2],
                "weights": [[float(w) for w in self.m1], [float(w) for w in self.m2]]}

    def _pieces(self, xs):
        xs = np.asarray(xs, dtype=float)
        f = np.empty((len(xs), self.n_channels, 2))
        f[:, :, 0] = self.m1[None, :] * np.exp(-self.k1[None, :] * xs[:, None])
        f[:, :, 1] = self.m2[None, :] * np.exp(-self.k2[None, :] * xs[:, None])
        df = np.empty_like(f)
        df[:, :, 0] = -self.k1[None, :] * f[:, :, 0]
        df[:, :, 1] = -self.k2[None, :] * f[:, :, 1]
        p = np.empty((len(xs), 2, 2))
        p[:, 0, 0] = 1.0 + np.sum(f[:, :, 0] ** 2 / (2.0 * self.k1[None, :]), axis=1)
        p[:, 1, 1] = 1.0 + np.sum(f[:, :, 1] ** 2 / (2.0 * self.k2[None, :]), axis=1)
        p[:, 0, 1] = np.sum(f[:, :, 0] * f[:, :, 1] / (self.k1 + self.k2)[None, :], axis=1)
        p[:, 1, 0] = p[:, 0, 1]
        dets = np.linalg.det(p)
        if np.any(dets <= 0) or np.any(~np.isfinite(dets)):
            raise SingularTransformError(float(xs[int(np.argmax(~(dets > 0)))]))
        t = np.linalg.inv(p)
        dp = -np.einsum("maj,mal->mjl", f, f)
        dt = -np.matmul(np.matmul(t, dp), t)
        return f, df, t, dt

    def matrix_batch(self, xs):
        xs = np.asarray(xs, dtype=float)
        f, df, t, dt = self._pieces(xs)
        d = (np.einsum("maj,mjl,mbl->mab", df, t, f)
             + np.einsum("maj,mjl,mbl->mab", f, t, df)
             + np.einsum("maj,mjl,mbl->mab", f, dt, f))
        return d + np.swapaxes(d, 1, 2)

    def states(self, xs):
        """Matrix of the two normalized states, values and derivatives (m, N, 2)."""
        f, df, t, dt = self._pieces(xs)
        vals = np.einsum("maj,mjl->mal", f, t)
        ders = np.einsum("maj,mjl->mal", df, t) + np.einsum("maj,mjl->mal", f, dt)
        return vals, ders

    def support(self):
        cap = 280.0 / float(np.max(self.k1) + np.max(self.k2))
        right = _probe_support(self.matrix_batch, 0.0, +1.0, self._scale, x_cap=cap)
        left = _probe_support(self.matrix_batch, 0.0, -1.0, self._scale, x_cap=cap)
        return (left, right)


@dataclass
class TwoLevelResult:
    system: ChannelSystem
    potential: TwoLevelPotential

    def states(self, xs):
        return self.potential.states(xs)


def create_two_states(thresholds, level1, level2, x_max: float = 40.0) -> TwoLevelResult:
    """Create two close (or exactly degenerate) levels on free motion.

    A degenerate pair is admissible only for linearly independent weight
    vectors; the dependent limit is the effective-annihilation singularity.
    """
    (e1, m1), (e2, m2) = level1, level2
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    if abs(e1 - e2) < 1e-12 and np.any(m1) and np.any(m2):
        rank = np.linalg.matrix_rank(np.vstack([m1, m2]), tol=1e-12)
        if rank < 2:
            raise SingularTransformError(
                None, "degenerate pair needs linearly independent weight vectors")
    pot = TwoLevelPotential(thresholds, (e1, m1), (e2, m2))
    system = ChannelSystem(tuple(thresholds), pot, "whole_line", x_max)
    return TwoLevelResult(system, pot)


# ---------------------------------------------------------------------------
# transforms on arbitrary decaying backgrounds


@dataclass
class MarchenkoTransformResult:
    system: ChannelSystem
    potential: GridSampled
    grid: np.ndarray
    state: BoundState | None
    dressing: Dressing

    def map_jost(self, sol: MatrixSolution) -> MatrixSolution:
        """Transformed Jost solution at the probe energy of ``sol``."""
        require_same_grid(sol.grid, self.grid, "probe solution and transform")
        momenta = self.system.channel_momenta(sol.energy)
        rates = np.asarray(1j * momenta)   # psi ~ exp(-ikx): rate +ik (Re >= 0)
        vals, ders = self.dressing.map_values(sol.values, sol.derivatives,
                                              tail_rates=rates)
        return MatrixSolution(sol.energy, "jost", sol.grid, vals, ders)


def _wrap_transformed(system, dress, grid, energy, params) -> MarchenkoTransformResult:
    dv = dress.delta_v()
    pot = SumPotential([(1.0, system.potential), (1.0, GridSampled(grid, dv))],
                       params=params)
    new_system = replace(system, potential=pot)
    state = None
    if energy is not None:
        vals, ders = dress.state(0)
        state = BoundState.of(new_system, energy, grid, vals, ders)
    return MarchenkoTransformResult(new_system, pot, grid, state, dress)


def add_bound_state(system: ChannelSystem, energy: float, weights,
                    cfg: SolverConfig = SolverConfig()) -> MarchenkoTransformResult:
    """Add one level at ``energy`` with asymptotic weights ``weights``.

    The base system keeps every existing level, all scattering probabilities
    and the right-incidence reflection amplitudes exactly; transmission
    phases pick up the unimodular bound-pole factor.  The new state is built
    from the base Jost solutions at the new energy.  Zero weights return the
    base system unchanged.
    """
    if system.domain_kind != "whole_line":
        raise ConfigurationError(
            "pure addition is a whole-line transform (a half-line level change "
            "must also rewind the scattering phase; use move_level)")
    weights = np.asarray(weights, dtype=float)
    kappa = _kappas(system.effective_thresholds(), energy)
    jost = engine.integrate_jost(system, energy, cfg)
    grid = jost.grid
    if not np.any(weights):
        pot = SumPotential([(1.0, system.potential)],
                           params={"transform": "add_bound_state", "identity": True})
        return MarchenkoTransformResult(replace(system, potential=pot), pot, grid,
                                        None, None)
    f = jost.values @ weights
    df = jost.derivatives @ weights
    dress = Dressing(grid, [DressingTerm(f, df, +1.0, tail_rates=kappa)], "infinity")
    res = _wrap_transformed(system, dress, grid, energy,
                            {"transform": "add_bound_state", "energy": float(energy),
                             "weights": [float(w) for w in weights]})
    return res


def remove_bound_state(system: ChannelSystem, state: BoundState,
                       cfg: SolverConfig = SolverConfig()) -> MarchenkoTransformResult:
    """Remove an existing level (whole line), keeping S and the other levels."""
    if system.domain_kind != "whole_line":
        raise ConfigurationError("exact removal without an origin defect needs the whole line")
    kappa = np.sqrt(system.effective_thresholds() - state.energy)
    term = DressingTerm(state.values.copy(), state.derivatives.copy(), -1.0,
                        tail_rates=kappa, left_tail_rates=kappa, normalized=True)
    dress = Dressing(state.grid, [term], "infinity")
    return _wrap_transformed(system, dress, state.grid, None,
                             {"transform": "remove_bound_state",
                              "energy": float(state.energy)})


def move_level(system: ChannelSystem, state: BoundState, new_energy: float,
               new_weights=None, cfg: SolverConfig = SolverConfig()) -> MarchenkoTransformResult:
    """Move one level's energy and/or asymptotic weights; S and the other
    levels stay exactly in place.

    ``state`` is the engine-found normalized level of the base system; its
    asymptotic weight vector is reused when ``new_weights`` is omitted.
    """
    kappa_new = _kappas(system.effective_thresholds(), new_energy)
    kappa_old = np.sqrt(system.effective_thresholds() - state.energy)
    if new_weights is None:
        new_weights = state.m_datum.weights
    new_weights = np.asarray(new_weights, dtype=float)
    jost_new = engine.integrate_jost(system, new_energy, cfg)
    require_same_grid(jost_new.grid, state.grid, "state and Jost solution")
    f_new = jost_new.values @ new_weights
    df_new = jost_new.derivatives @ new_weights
    old = DressingTerm(state.values.copy(), state.derivatives.copy(), -1.0,
                       tail_rates=kappa_old, normalized=True)
    if system.domain_kind == "whole_line":
        old.left_tail_rates = kappa_old
    terms = [DressingTerm(f_new, df_new, +1.0, tail_rates=kappa_new), old]
    dress = Dressing(state.grid, terms, "infinity")
    return _wrap_transformed(system, dress, state.grid, float(new_energy),
                             {"transform": "move_level",
                              "old_energy": state.energy,
                              "new_energy": float(new_energy),
                              "new_weights": [float(w) for w in new_weights]})
