"""Separable (degenerate-kernel) dressing transforms.

A finite change of discrete spectral data turns the inverse-problem integral
equation into algebra: with term functions f_j(x) (channel vectors built from
regular or Jost solutions) and signs s_j (+1 for data added, -1 for data
removed), the transform kernel is K(x, y) = A(x) F(y)^T with

    A = -F S (I + G S)^{-1},      G_jl(x) = integral of f_j^T f_l,

the integral running from the anchor (the origin for regular-solution data,
+infinity for asymptotic data).  The potential change is

    dV = -+ 2 d/dx [ F S (I + G S)^{-1} F^T ]      (- origin / + infinity)

and any base solution psi maps to psi + A(x) * integral(F^T psi).  The
normalized wave function attached to term j is s_j F S (I + G S)^{-1} e_j.
All derivatives are evaluated analytically via the product rule, never by
differencing.  A single origin term has the closed form ``rank_one``, which
the composed Darboux transforms and the BSEC far field share.

Numerical care: every Gram entry is accumulated from the side where it
vanishes, with analytic exponential tails beyond the grid.  The diagonal
complement 1 - G_jj of a removed normalized state must keep shrinking to
zero far from the anchor; forming it as "one minus a saturated cumulative
sum" would freeze it at roundoff and leave a spurious remnant of the removed
level, so it is accumulated from the opposite side instead, after rescaling
the state so its quadrature norm is exactly one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularTransformError

_DET_FLOOR = 1e-12


def interval_contributions(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-interval quadrature contributions (Simpson-order) on a piecewise-uniform grid.

    Returns an array c with c[i] ~ integral of y over [x[i], x[i+1]], computed
    from local quadratic interpolants so that tiny tail contributions keep full
    relative accuracy when summed from either side.
    """
    x = np.asarray(x, dtype=float)
    m = len(x) - 1
    out = np.zeros((m,) + y.shape[1:], dtype=y.dtype)
    h = np.diff(x)
    # uniform runs: split where the spacing changes
    changes = np.flatnonzero(~np.isclose(h[1:], h[:-1], rtol=1e-9, atol=0.0)) + 1
    breaks = [0, *changes.tolist(), m]
    for a, b in zip(breaks, breaks[1:]):
        n_int = b - a
        hh = h[a]
        if n_int == 1:
            out[a] = 0.5 * hh * (y[a] + y[a + 1])
            continue
        f0 = y[a:b - 1]
        f1 = y[a + 1:b]
        f2 = y[a + 2:b + 1]
        # quadratic through (i, i+1, i+2): first and second half-pair pieces
        first = hh * (5.0 * f0 + 8.0 * f1 - f2) / 12.0
        second = hh * (-f0 + 8.0 * f1 + 5.0 * f2) / 12.0
        idx = np.arange(a, b - 1)
        rel = idx - a
        use_first = (rel % 2) == 0
        out[a:b - 1][use_first] = first[use_first]
        out[a + 1:b][use_first[: n_int - 1]] = second[use_first[: n_int - 1]]
        if n_int % 2 == 1:
            out[b - 1] = hh * (-y[b - 2] + 8.0 * y[b - 1] + 5.0 * y[b]) / 12.0
    return out


def cumulative_from_start(x, y):
    c = interval_contributions(x, y)
    out = np.zeros((len(x),) + y.shape[1:], dtype=y.dtype)
    np.cumsum(c, axis=0, out=out[1:])
    return out


def cumulative_from_end(x, y, tail=0.0):
    """integral from x[i] to +infinity: reversed accumulation plus end tail."""
    c = interval_contributions(x, y)
    out = np.zeros((len(x),) + y.shape[1:], dtype=y.dtype)
    out[:-1] = np.cumsum(c[::-1], axis=0)[::-1]
    return out + tail


def rank_one(x, u, du, den, lam):
    """Closed-form one-term dressing with D' = lam u^T u.

    ``u``/``du`` are channel-vector samples (m, N) on the points ``x`` and
    ``den`` is D on the same points, e.g. c + lam * integral of u^T u.
    Returns dV = -2 d/dx [lam u u^T / D] (m, N, N) together with u/D and
    (u/D)', derivatives taken by the product rule.  A non-positive D is a
    forbidden parameter combination and raises with its location.
    """
    bad = ~(den > 0)
    if np.any(bad):
        raise SingularTransformError(float(x[int(np.argmax(bad))]))
    dden = lam * np.sum(u ** 2, axis=1)
    outer = np.einsum("ma,mb->mab", u, u)
    douter = np.einsum("ma,mb->mab", du, u) + np.einsum("ma,mb->mab", u, du)
    dv = -2.0 * lam * (douter * den[:, None, None] - outer * dden[:, None, None]) \
        / den[:, None, None] ** 2
    psi = u / den[:, None]
    dpsi = (du * den[:, None] - u * dden[:, None]) / den[:, None] ** 2
    return dv, psi, dpsi


@dataclass
class DressingTerm:
    """One spectral term: channel-vector samples with sign and tail data.

    ``tail_rates`` are the per-channel decay rates kappa_a of the term beyond
    the right grid end (f_a ~ f_a(x_end) exp(-kappa_a (x-x_end))); they are
    required for infinity-anchored transforms and for normalized removal
    terms.  ``left_tail_rates`` describe decay beyond the left end (whole
    line), f_a ~ f_a(x_0) exp(+kappa_a (x-x_0)).  ``normalized`` marks a term
    that is a unit-norm bound state entering with sign -1; its diagonal
    complement is then tracked stably from the far side.
    """

    values: np.ndarray       # (m, N)
    derivatives: np.ndarray  # (m, N)
    sign: float
    tail_rates: np.ndarray | None = None
    left_tail_rates: np.ndarray | None = None
    normalized: bool = False


class Dressing:
    def __init__(self, grid: np.ndarray, terms: list[DressingTerm], anchor: str):
        if anchor not in ("origin", "infinity"):
            raise ValueError("anchor must be 'origin' or 'infinity'")
        self.grid = np.asarray(grid, dtype=float)
        self.anchor = anchor
        self.n_terms = len(terms)
        self.sigma = np.array([t.sign for t in terms], dtype=float)
        self._rescale_normalized(terms)
        self.f = np.stack([t.values for t in terms], axis=-1)          # (m, N, T)
        self.df = np.stack([t.derivatives for t in terms], axis=-1)
        self.term_rates = (np.stack([t.tail_rates for t in terms], axis=-1)
                           if all(t.tail_rates is not None for t in terms) else None)
        prods = np.einsum("mnj,mnl->mjl", self.f, self.f)
        if anchor == "origin":
            self.g = cumulative_from_start(self.grid, prods)
            self.g_rate = prods
        else:
            if self.term_rates is None:
                raise ValueError("infinity-anchored terms need tail_rates")
            self.g = cumulative_from_end(self.grid, prods, self._tail_gram())
            self.g_rate = -prods
        core = np.eye(self.n_terms) + self.g * self.sigma[None, None, :]
        self._stabilize_complements(core, terms)
        dets = np.linalg.det(core)
        bad = (~np.isfinite(dets)) | (dets == 0.0) | (np.sign(dets) != np.sign(dets[0]))
        bad[1:-1] |= np.abs(dets[1:-1]) < _DET_FLOOR * np.minimum(np.abs(dets[:-2]),
                                                                  np.abs(dets[2:]))
        if np.any(bad):
            raise SingularTransformError(float(self.grid[int(np.argmax(bad))]))
        self.t = np.linalg.inv(core)
        gs = self.g_rate * self.sigma[None, None, :]
        self.t_rate = -np.matmul(np.matmul(self.t, gs), self.t)        # dT/dx
        self.fs = self.f * self.sigma[None, None, :]
        self.dfs = self.df * self.sigma[None, None, :]

    def _rescale_normalized(self, terms):
        """Scale removal states so their quadrature norm is exactly one."""
        for t in terms:
            if not (t.normalized and t.sign < 0):
                continue
            dens = np.sum(t.values ** 2, axis=1)
            total = float(np.sum(interval_contributions(self.grid, dens)))
            if t.tail_rates is not None:
                total += float(np.sum(t.values[-1] ** 2 / (2.0 * t.tail_rates)))
            if t.left_tail_rates is not None:
                total += float(np.sum(t.values[0] ** 2 / (2.0 * t.left_tail_rates)))
            s = 1.0 / np.sqrt(total)
            t.values = t.values * s
            t.derivatives = t.derivatives * s

    def _stabilize_complements(self, core, terms):
        """Recompute 1 - G_jj of removal states from the far side."""
        for j, t in enumerate(terms):
            if not (t.normalized and t.sign < 0):
                continue
            dens = np.sum(self.f[:, :, j] ** 2, axis=1)
            if self.anchor == "origin":
                if t.tail_rates is None:
                    raise ValueError("normalized removal terms need tail_rates")
                tail = float(np.sum(self.f[-1, :, j] ** 2 / (2.0 * t.tail_rates)))
                core[:, j, j] = cumulative_from_end(self.grid, dens, tail)
            else:
                left_tail = 0.0
                if t.left_tail_rates is not None:
                    left_tail = float(np.sum(self.f[0, :, j] ** 2
                                             / (2.0 * t.left_tail_rates)))
                core[:, j, j] = cumulative_from_start(self.grid, dens) + left_tail

    def _tail_gram(self) -> np.ndarray:
        end_vals = self.f[-1]                                          # (N, T)
        tail = np.empty((self.n_terms, self.n_terms))
        for j in range(self.n_terms):
            for l in range(self.n_terms):
                tail[j, l] = float(np.sum(end_vals[:, j] * end_vals[:, l]
                                          / (self.term_rates[:, j] + self.term_rates[:, l])))
        return tail

    def kernel_diagonal(self) -> np.ndarray:
        """F S (I + G S)^{-1} F^T on the grid, shape (m, N, N)."""
        return np.einsum("mnj,mjl,mkl->mnk", self.fs, self.t, self.f)

    def delta_v(self) -> np.ndarray:
        """Potential change on the grid, derivatives taken analytically."""
        t, tp = self.t, self.t_rate
        d = (np.einsum("mnj,mjl,mkl->mnk", self.dfs, t, self.f)
             + np.einsum("mnj,mjl,mkl->mnk", self.fs, t, self.df)
             + np.einsum("mnj,mjl,mkl->mnk", self.fs, tp, self.f))
        sign = -2.0 if self.anchor == "origin" else 2.0
        dv = sign * d
        return 0.5 * (dv + np.swapaxes(dv, 1, 2))

    def state(self, j: int):
        """Normalized wave function of term j: values and derivatives, (m, N)."""
        e = np.zeros(self.n_terms)
        e[j] = self.sigma[j]
        vals = np.einsum("mnj,mjl,l->mn", self.fs, self.t, e)
        ders = (np.einsum("mnj,mjl,l->mn", self.dfs, self.t, e)
                + np.einsum("mnj,mjl,l->mn", self.fs, self.t_rate, e))
        return vals, ders

    def map_values(self, values: np.ndarray, derivatives: np.ndarray,
                   tail_rates: np.ndarray | None = None):
        """Transform base-solution samples to the new system.

        ``values``/``derivatives`` have shape (m, N) or (m, N, cols);
        ``tail_rates`` (per channel, possibly complex) describe the solution
        beyond the grid end and are required for infinity-anchored
        transforms.
        """
        vals = np.asarray(values)
        ders = np.asarray(derivatives)
        squeeze = vals.ndim == 2
        if squeeze:
            vals = vals[:, :, None]
            ders = ders[:, :, None]
        fc = self.f.astype(vals.dtype)
        integrand = np.einsum("mnj,mnc->mjc", fc, vals)
        if self.anchor == "origin":
            j_int = cumulative_from_start(self.grid, integrand)
            rate_sign = 1.0
        else:
            if tail_rates is None:
                raise ValueError("infinity-anchored mapping needs solution tail_rates")
            rates = np.asarray(tail_rates)
            tail = np.zeros(integrand.shape[1:], dtype=vals.dtype)
            for j in range(self.n_terms):
                denom = (self.term_rates[:, j] + rates)[:, None]
                tail[j] = np.sum(self.f[-1][:, j][:, None] * vals[-1] / denom, axis=0)
            j_int = cumulative_from_end(self.grid, integrand, tail)
            rate_sign = -1.0
        a = -np.einsum("mnj,mjl->mnl", self.fs, self.t)
        da = -(np.einsum("mnj,mjl->mnl", self.dfs, self.t)
               + np.einsum("mnj,mjl->mnl", self.fs, self.t_rate))
        out_v = vals + np.einsum("mnl,mlc->mnc", a.astype(vals.dtype), j_int)
        dj = rate_sign * integrand
        out_d = (ders + np.einsum("mnl,mlc->mnc", da.astype(vals.dtype), j_int)
                 + np.einsum("mnl,mlc->mnc", a.astype(vals.dtype), dj))
        if squeeze:
            return out_v[:, :, 0], out_d[:, :, 0]
        return out_v, out_d
