"""Closed-form reference answers for the benchmark's verifiers.

Nothing here imports ``mcdesign``: every reference value is computed from
the task parameters alone, so a verdict never depends on the engine it
judges.  Units follow the package, hbar^2 / 2m = 1.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    """Root of f in [lo, hi] by bisection; f(lo) and f(hi) must differ in sign."""
    f_lo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        f_mid = f(mid)
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scan_roots(f, lo: float, hi: float, n: int = 4000) -> list[float]:
    """Every sign change of f on an n-point grid over [lo, hi], bisected."""
    es = np.linspace(lo, hi, n)
    vals = [f(float(e)) for e in es]
    return [bisect(f, float(es[i]), float(es[i + 1]))
            for i in range(n - 1) if (vals[i] < 0) != (vals[i + 1] < 0)]


# ---------------------------------------------------------------------------
# one-channel transmission


def rect_barrier_t2(energy: float, height: float, width: float) -> float:
    """|T|^2 of a rectangular barrier (height, width) at energy > 0."""
    e, v, a = float(energy), float(height), float(width)
    if e < v:
        q = math.sqrt(v - e)
        return 1.0 / (1.0 + v * v * math.sinh(q * a) ** 2 / (4.0 * e * (v - e)))
    q = math.sqrt(e - v)
    if q == 0.0:
        return 1.0 / (1.0 + v * a * a / 4.0)
    return 1.0 / (1.0 + v * v * math.sin(q * a) ** 2 / (4.0 * e * (e - v)))


def piecewise_transmission(energy: float, pieces) -> complex:
    """Transmission amplitude of a 1-channel piecewise-constant potential.

    ``pieces`` lists (lo, hi, height) intervals (overlaps add); outside them
    V = 0.  Starting from a pure transmitted wave exp(ikx) on the right, the
    amplitudes (A, B) of A exp(iqx) + B exp(-iqx) are matched across every
    interface from right to left; t = 1 / A in the left lead.
    """
    pts = sorted({float(p) for lo, hi, _ in pieces for p in (lo, hi)})

    def height(x):
        return sum(float(h) for lo, hi, h in pieces if lo < x < hi)

    seg = [0.0] + [height(0.5 * (a + b)) for a, b in zip(pts, pts[1:])] + [0.0]
    e = complex(energy)
    a, b = 1.0 + 0j, 0.0 + 0j
    for j in reversed(range(len(pts))):
        x0 = pts[j]
        q_r = cmath.sqrt(e - seg[j + 1])
        q_l = cmath.sqrt(e - seg[j])
        ep, em = cmath.exp(1j * q_r * x0), cmath.exp(-1j * q_r * x0)
        psi = a * ep + b * em
        dpsi = 1j * q_r * (a * ep - b * em)
        a = 0.5 * (psi + dpsi / (1j * q_l)) * cmath.exp(-1j * q_l * x0)
        b = 0.5 * (psi - dpsi / (1j * q_l)) * cmath.exp(1j * q_l * x0)
    return 1.0 / a


def resonance_peak(pieces, e_lo: float, e_hi: float, n: int = 4001):
    """(energy, FWHM) of the lowest |T|^2 peak of a double barrier in [e_lo, e_hi].

    The peak is the first local maximum of |T|^2 on an n-point grid, refined by
    golden-section search; the width is the distance between the two
    half-maximum crossings, each bisected.
    """
    def t2(e):
        return abs(piecewise_transmission(e, pieces)) ** 2

    es = np.linspace(e_lo, e_hi, n)
    vals = np.array([t2(float(e)) for e in es])
    peaks = [i for i in range(1, n - 1) if vals[i] >= vals[i - 1] and vals[i] > vals[i + 1]]
    if not peaks:
        raise ValueError("no transmission peak in the window")
    i = peaks[0]
    lo, hi = float(es[i - 1]), float(es[i + 1])
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(100):
        a = hi - g * (hi - lo)
        b = lo + g * (hi - lo)
        if t2(a) > t2(b):
            hi = b
        else:
            lo = a
    e_pk = 0.5 * (lo + hi)
    top = t2(e_pk)
    base = min(vals[: i + 1].min(), vals[i:].min())
    half = base + 0.5 * (top - base)
    j = i
    while j > 0 and vals[j] > half:
        j -= 1
    left = bisect(lambda e: t2(e) - half, float(es[j]), e_pk)
    j = i
    while j < n - 1 and vals[j] > half:
        j += 1
    right = bisect(lambda e: t2(e) - half, e_pk, float(es[j]))
    return e_pk, right - left


# ---------------------------------------------------------------------------
# bound levels


def finite_well_levels(depth_levels, width: float, wall: float, e_max: float):
    """Half-line box levels, psi(0) = 0, V = lam on [0, width], V = wall beyond.

    ``depth_levels`` holds the inner constant lam of each decoupled
    eigenchannel.  A level satisfies k cos(k w) + kappa sin(k w) = 0 with
    k = sqrt(E - lam), kappa = sqrt(wall - E).  Returns the sorted union of
    the roots below min(e_max, wall).
    """
    top = min(float(e_max), float(wall))
    out = []
    for lam in depth_levels:
        lam = float(lam)
        if lam >= top:
            continue

        def f(e, lam=lam):
            k = math.sqrt(max(e - lam, 0.0))
            kap = math.sqrt(max(wall - e, 0.0))
            return k * math.cos(k * width) + kap * math.sin(k * width)

        n = max(4000, int(40 * width * math.sqrt(top - lam)))
        out.extend(scan_roots(f, lam + 1e-12, top - 1e-12, n))
    return sorted(out)


def coupled_box_levels(coupling, threshold: float, width: float, wall: float,
                       e_max: float):
    """Levels of N equal-threshold channels with a constant symmetric coupling
    matrix on [0, width] and an equal wall beyond: one finite well per
    eigenchannel of the coupling."""
    lam = np.linalg.eigvalsh(np.asarray(coupling, dtype=float)) + float(threshold)
    return finite_well_levels(lam, width, threshold + wall, e_max)


def split_box_levels(coupling: float, n_levels: int):
    """Two identical infinite boxes of width pi coupled by a constant w: n^2 +- w."""
    return sorted(n * n + s * coupling for n in range(1, n_levels + 1) for s in (-1, 1))


# ---------------------------------------------------------------------------
# periodic comb


def comb_monodromy_cos(period: float, strength, thresholds, energy: float):
    """Bloch characteristics cos(Ka) of a coupled delta comb, from the exact cell map.

    The cell [-a/2, a/2] is free propagation over a/2, the derivative jump
    psi' -> psi' + S psi at the site, and free propagation again.  Returns the
    two distinct values (lambda + 1/lambda)/2 of its eigenvalues, sorted.
    """
    s = np.asarray(strength, dtype=float)
    n = s.shape[0]
    half = 0.5 * period
    free = np.zeros((2 * n, 2 * n))
    for a, eps in enumerate(thresholds):
        de = energy - eps
        if de > 0:
            k = math.sqrt(de)
            c, sn, sd = math.cos(k * half), math.sin(k * half) / k, -k * math.sin(k * half)
        elif de < 0:
            k = math.sqrt(-de)
            c, sn, sd = math.cosh(k * half), math.sinh(k * half) / k, k * math.sinh(k * half)
        else:
            c, sn, sd = 1.0, half, 0.0
        free[a, a] = c
        free[a, n + a] = sn
        free[n + a, a] = sd
        free[n + a, n + a] = c
    jump = np.eye(2 * n)
    jump[n:, :n] = s
    lam = np.linalg.eigvals(free @ jump @ free)
    vals = 0.5 * (lam + 1.0 / lam)
    first = vals[0]
    second = vals[int(np.argmax(np.abs(vals - first)))]
    return np.sort_complex(np.array([first, second]))


def pair_distance(a, b) -> float:
    """Distance between two unordered pairs of complex numbers."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return float(min(np.max(np.abs(a - b)), np.max(np.abs(a - b[::-1]))))
