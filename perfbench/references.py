"""Reference values computed without the package under test.

Nothing here imports ``hardylab``: each reference is a closed form, an
independent adaptive quadrature (QUADPACK through ``scipy.integrate.quad``)
or a direct use of numpy's Philox generator, so a defect in the package
cannot cancel out of a check.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import integrate


# ---------------------------------------------------------------------------
# decay: a(t) = int_0^inf e^{-iEt} conj(psi(E)) phi(E) S(E) dE
# ---------------------------------------------------------------------------

def lorentzian_scale(peak: float, fwhm: float) -> float:
    """1/sqrt(int_0^inf dE / ((E - peak)^2 + (fwhm/2)^2)), unit-norm coefficient."""
    half = fwhm / 2.0
    return 1.0 / np.sqrt((np.pi / 2.0 + np.arctan(peak / half)) / half)


def decay_integrand(peak: float, fwhm: float, e_r: float, gamma: float):
    """conj(psi) phi S for a Lorentzian pair and a unitary Breit-Wigner S.

    The observable psi has its pole at peak - i fwhm/2 and the state phi at
    peak + i fwhm/2, both with unit coefficient rescaled to unit norm on
    (0, inf).  On the real axis conj(psi) then equals phi, so the product is
    phi^2 S with S(E) = (E - E_r - i Gamma/2) / (E - E_r + i Gamma/2).
    """
    s = lorentzian_scale(peak, fwhm)
    upper = complex(peak, fwhm / 2.0)

    def g(e):
        phi = s / (e - upper)
        bw = (e - complex(e_r, gamma / 2.0)) / (e - complex(e_r, -gamma / 2.0))
        return phi * phi * bw

    return g


def decay_amplitude(t: float, peak: float, fwhm: float, e_r: float, gamma: float) -> complex:
    """a(t) by QUADPACK: plain quad at t = 0, QAWF cos/sin weights for t > 0."""
    g = decay_integrand(peak, fwhm, e_r, gamma)

    def re(e):
        return g(e).real

    def im(e):
        return g(e).imag

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if t == 0.0:
            opts = dict(epsabs=1e-15, epsrel=1e-13, limit=500)
            return complex(
                integrate.quad(re, 0.0, np.inf, **opts)[0],
                integrate.quad(im, 0.0, np.inf, **opts)[0],
            )

        def fourier(f, weight):
            return integrate.quad(f, 0.0, np.inf, weight=weight, wvar=t, epsabs=1e-15, limlst=100)[0]

        # e^{-iEt} (gr + i gi) = gr cos + gi sin + i (gi cos - gr sin)
        cr, sr = fourier(re, "cos"), fourier(re, "sin")
        ci, si = fourier(im, "cos"), fourier(im, "sin")
    return complex(cr + si, ci - sr)


def breit_wigner_phase(energies, e_r: float, gamma: float) -> np.ndarray:
    """delta(E) with e^{2 i delta} equal to the unitary Breit-Wigner S above."""
    return np.arctan2(gamma / 2.0, e_r - np.asarray(energies, dtype=float))


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def damped_sine_transform(omega, a: float, b: float) -> np.ndarray:
    """int_0^inf e^{i w t} e^{-b t} sin(a t) dt = a / (a^2 + (b - i w)^2)."""
    w = np.asarray(omega, dtype=float)
    return a / (a**2 + (b - 1j * w) ** 2)


def simple_pole(x, c: complex, p: complex) -> np.ndarray:
    """c / (x - p); Hardy from above when Im p < 0."""
    return c / (np.asarray(x, dtype=float) - p)


def simple_pole_line_integral(c: complex, p: complex, gamma: float) -> float:
    """int |c / (w + i gamma - p)|^2 dw = pi |c|^2 / (|Im p| + gamma) for Im p < 0."""
    return float(np.pi * abs(c) ** 2 / (abs(p.imag) + gamma))


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------

def philox_interval(seed: int, index: int, rate: float) -> float:
    """Record `index`'s decay interval: inverse CDF of one Philox(key=[seed, index]) draw."""
    key = np.array([seed, index], dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(key=key)).random()
    return float(-np.log1p(-u) / rate)


def survival_counts(t_param, t_grid) -> np.ndarray:
    """Records with t > grid time (t >= grid time at t = 0), by binary search."""
    ts = np.sort(np.asarray(t_param, dtype=float))
    grid = np.asarray(t_grid, dtype=float)
    side_right = ts.size - np.searchsorted(ts, grid, side="right")
    side_left = ts.size - np.searchsorted(ts, grid, side="left")
    return np.where(grid <= 0.0, side_left, side_right)


def wilson_band(k, n: int, z: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Wilson score interval for k successes of n, clamped to contain k/n."""
    phat = np.asarray(k, dtype=float) / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    lo = np.minimum(np.maximum(0.0, center - half), phat)
    hi = np.maximum(np.minimum(1.0, center + half), phat)
    return lo, hi


def max_abs_z(survival, theory, n: int) -> float:
    """max |S - P| / sqrt(P (1 - P) / n), theory rescaled to start at 1."""
    theory = np.asarray(theory, dtype=float)
    scaled = np.clip(theory / theory[0], 0.0, 1.0)
    sigma = np.sqrt(scaled * (1.0 - scaled) / n)
    diff = np.asarray(survival, dtype=float) - scaled
    if np.any((sigma == 0) & (diff != 0)):
        return float("inf")
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sigma == 0, 0.0, diff / sigma)
    return float(np.max(np.abs(z)))
