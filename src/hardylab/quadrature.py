"""Shared quadrature engines.

Three integral families recur throughout the package:

* principal-value integrals P int g(x)/(x - x0) dx on a finite grid,
  evaluated by subtracting the singularity and adding the analytic log term;
* half-line Fourier integrals int_0^inf e^{-i s x} g(x) dx, evaluated by
  Filon-type quadrature (oscillation integrated exactly against a piecewise
  parabola on uniform grids, a piecewise line on others) or, for rational
  integrands, by exact exponential-integral closed forms;
* tail corrections for integrals truncated at the grid edges, driven by an
  inverse-power expansion of the integrand fitted to the outer samples.

All estimates returned here are numerical error estimates, not proofs.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import fft
from scipy.special import exp1

from .errors import (
    NegativeTime,
    NonDecayingIntegrand,
    PoleOnContinuationLine,
    SingularityOutsideGrid,
    ToleranceNotMet,
)
from .models import AnalyticModel
from .sampled import SampledComplexFunction, is_uniform


class Method(enum.Enum):
    TRAPEZOID_UNIFORM = "trapezoid_uniform"
    ADAPTIVE_SIMPSON = "adaptive_simpson"


@dataclass(frozen=True)
class QuadratureSpec:
    method: Method = Method.ADAPTIVE_SIMPSON
    abs_tol: float = 1e-4
    rel_tol: float = 1e-4

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be strictly positive")

    def tolerance_for(self, value: complex) -> float:
        return max(self.abs_tol, self.rel_tol * abs(value))


class ValueWithError(NamedTuple):
    value: complex
    error: float


# ---------------------------------------------------------------------------
# exponential integrals and closed-form pole integrals
# ---------------------------------------------------------------------------

def _expscaled_e1_cf(z: complex, max_iter: int = 500, tol: float = 1e-16):
    """e^z E1(z) by the modified Lentz continued fraction; None if no convergence."""
    tiny = 1e-300
    f = z + 1.0
    if f == 0:
        f = tiny
    c_prev, d_prev = f, 0.0
    for k in range(1, max_iter):
        a = -k * k
        b = z + 2 * k + 1
        d_prev = b + a * d_prev
        if d_prev == 0:
            d_prev = tiny
        c_prev = b + a / c_prev
        if c_prev == 0:
            c_prev = tiny
        d_prev = 1.0 / d_prev
        delta = c_prev * d_prev
        f *= delta
        if abs(delta - 1.0) < tol:
            return 1.0 / f
    return None


def expscaled_e1(z: complex) -> complex:
    """e^z E1(z) for complex z off the negative real axis, overflow-safe."""
    z = complex(z)
    if abs(z) >= 30.0:
        out = _expscaled_e1_cf(z)
        if out is not None:
            return out
    # product path is safe while |Re z| stays well under log(float max)
    return complex(np.exp(z) * exp1(z))


def pole_fourier_integral(pole: complex, t: float) -> complex:
    """int_0^inf e^{-i E t} / (E - pole) dE for t > 0.

    Valid for any pole off the real axis and for real poles < 0 (integrand
    regular on the path).  Lower-half-plane poles pick up the enclosed-pole
    term -2*pi*i*e^{-i*pole*t}, the exponential that drives resonance decay.
    """
    pole = complex(pole)
    if t <= 0:
        raise ValueError("pole_fourier_integral needs t > 0; use the t=0 log form")
    if pole.imag == 0 and pole.real >= 0:
        raise ValueError("pole on the integration path")
    z = -1j * pole * t
    out = expscaled_e1(z)
    if pole.imag < 0:
        out = out - 2j * np.pi * np.exp(z)
    return out


def _require_order1_cancellation(terms):
    c1 = sum(c for c, _, m in terms if m == 1)
    scale = sum(abs(c) for c, _, m in terms if m == 1)
    if abs(c1) > 1e-9 * max(1.0, scale):
        raise NonDecayingIntegrand("order-1 residues do not cancel; the integral diverges")


def _check_time(t: float):
    """The semigroup contract t >= 0, for finite t only."""
    if t < 0:
        raise NegativeTime(f"t = {t} < 0")
    if not math.isfinite(t):
        raise ValueError(f"t = {t} is not finite")


def _rounding_error(magnitudes) -> float:
    """The pole route's rounding estimate: 1e-13 of the summed magnitudes of a sum's pieces."""
    return 1e-13 * max(1.0, sum(magnitudes))


def rational_halfline_fourier(terms, t: float) -> ValueWithError:
    """int_0^inf e^{-i E t} sum_k c_k / (E - p_k)**m_k dE, with its rounding estimate.

    Args:
        terms: iterable of (coefficient, pole, order) with order >= 1.
        t: time, must be finite and >= 0 (semigroup contract).

    At t = 0 the order-1 coefficients must cancel (otherwise the integral
    diverges logarithmically); the finite value is then the log form
    -sum c_k Log(-p_k) plus the elementary higher-order pieces.  The error is
    the rounding estimate of the pieces c_k K_k at t > 0, of the value at t = 0.
    """
    _check_time(t)
    terms = [(complex(c), complex(p), int(m)) for c, p, m in terms]
    for _, p, m in terms:
        if m < 1:
            raise ValueError("pole order must be >= 1")
        if p.imag == 0 and p.real >= 0:
            raise ValueError("pole on the integration path")

    if t == 0:
        _require_order1_cancellation(terms)
        total = 0j
        for c, p, m in terms:
            if m == 1:
                total += c * (-np.log(-p))
            else:
                total += c * (-p) ** (1 - m) / (m - 1)
        value = complex(total)
        return ValueWithError(value, _rounding_error([abs(value)]))

    # K_1 by exponential integral, higher orders by the recurrence
    # K_m = (-p)^{1-m}/(m-1) - (i t/(m-1)) K_{m-1}
    k_cache: dict[complex, list[complex]] = {}
    max_order: dict[complex, int] = {}
    for _, p, m in terms:
        max_order[p] = max(max_order.get(p, 0), m)
    for p, mmax in max_order.items():
        ks = [pole_fourier_integral(p, t)]
        for m in range(2, mmax + 1):
            ks.append((-p) ** (1 - m) / (m - 1) - 1j * t / (m - 1) * ks[-1])
        k_cache[p] = ks
    value = complex(sum(c * k_cache[p][m - 1] for c, p, m in terms))
    return ValueWithError(value, _rounding_error(abs(c) * abs(k_cache[p][m - 1]) for c, p, m in terms))


def rational_line_integral(terms) -> ValueWithError:
    """int over the real line of sum_k c_k / (E - p_k)**m_k dE for a list of (c_k, p_k, m_k).

    Orders >= 2 integrate to zero and order 1 gives i pi c_k sign(Im p_k), once the
    order-1 coefficients cancel (NonDecayingIntegrand otherwise).  A pole on the
    line raises PoleOnContinuationLine.
    """
    for _, p, _ in terms:
        if abs(p.imag) <= 1e-12 * max(1.0, abs(p)):
            raise PoleOnContinuationLine(f"pole at {p} lies on the integration line")
    _require_order1_cancellation(terms)
    pieces = [1j * np.pi * np.sign(p.imag) * c for c, p, m in terms if m == 1]
    return ValueWithError(complex(sum(pieces)), _rounding_error(abs(v) for v in pieces))


# ---------------------------------------------------------------------------
# partial fractions of products of pole sums
# ---------------------------------------------------------------------------

def _merge_poles(terms, rel_tol=1e-12) -> list:
    """(coefficient, pole) pairs with the coefficients of coincident poles summed onto the first."""
    merged: list[tuple[complex, complex]] = []
    for c, p in terms:
        for i, (d, q) in enumerate(merged):
            if abs(p - q) <= rel_tol * max(1.0, abs(p), abs(q)):
                merged[i] = (d + c, q)
                break
        else:
            merged.append((c, p))
    return merged


def _pole_product_partial_fractions(coeff: complex, poles) -> list:
    """Partial fractions of coeff * prod_j 1/(E - q_j), repeated poles allowed.

    For a pole p of multiplicity m the coefficient of (E-p)^{-k} is the
    Taylor coefficient of order m-k, at p, of the product of the remaining
    factors; each factor 1/(E-q) contributes the geometric series
    (-1)^n (E-p)^n / (p-q)^{n+1}, and series are multiplied by convolution.
    """
    groups = [(p, m) for m, p in _merge_poles([(1, p) for p in poles])]
    terms = []
    for p, m in groups:
        series = np.zeros(m, dtype=complex)
        series[0] = 1.0
        for q, mq in groups:
            if q == p:
                continue
            n = np.arange(m)
            factor = (-1.0) ** n / (p - q) ** (n + 1)
            for _ in range(mq):
                series = np.convolve(series, factor)[:m]
        for k in range(1, m + 1):
            terms.append((coeff * series[m - k], p, k))
    return terms


def pole_sum_product(factors) -> list:
    """Partial fractions of prod_f sum_k c_fk / (E - p_fk), as (coefficient, pole, order) terms.

    Each factor is a sequence of (coefficient, pole) pairs; a pole of None
    marks the factor's constant term.  The products are expanded in factor
    order, and each product's coefficient multiplies its constants first.
    """
    terms = []
    for choice in itertools.product(*factors):
        poles = [p for _, p in choice if p is not None]
        coeffs = [c for c, p in choice if p is None] + [c for c, p in choice if p is not None]
        terms.extend(_pole_product_partial_fractions(math.prod(coeffs[1:], start=coeffs[0]), poles))
    return terms


def modulus_squared_terms(model: AnalyticModel, y: float = 0.0) -> list:
    """Partial fractions of |model(E + i y)|^2 for real E: the poles move to p - i y.

    Terms at coincident poles are merged first, so nearly cancelling
    coefficients cancel before they are squared.
    """
    terms = _merge_poles([(c, p - 1j * y) for c, p in model.as_terms()])
    return pole_sum_product([[(np.conj(c), np.conj(q)) for c, q in terms], terms])


def power_tail_fourier(q: int, edge: float, t: float) -> complex:
    """T_q = int_edge^inf E^{-q} e^{-i E t} dE for integer q >= 1, t >= 0.

    T_1 at t > 0 equals E1(i*edge*t); higher q follow by parts.  At t = 0 the
    q = 1 case diverges and q >= 2 is elementary.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if edge <= 0:
        raise ValueError("edge must be positive")
    _check_time(t)
    if t == 0:
        if q == 1:
            raise NonDecayingIntegrand("1/E tail does not converge at t = 0")
        return edge ** (1 - q) / (q - 1)
    t1 = complex(exp1(1j * edge * t))
    if q == 1:
        return t1
    tq = t1
    for m in range(2, q + 1):
        tq = np.exp(-1j * edge * t) * edge ** (1 - m) / (m - 1) - 1j * t / (m - 1) * tq
    return complex(tq)


# ---------------------------------------------------------------------------
# tail expansions fitted to the outer samples
# ---------------------------------------------------------------------------

_GAUSS_N = 48
_gauss_x, _gauss_w = np.polynomial.legendre.leggauss(_GAUSS_N)
_GAUSS01_X = 0.5 * (_gauss_x + 1.0)
_GAUSS01_W = 0.5 * _gauss_w


@dataclass(frozen=True)
class TailExpansion:
    """f(x) ~ sum coeffs[k] * x**(-exponents[k]) near one edge of the grid.

    side = +1 describes x >= edge, side = -1 describes x <= -edge (edge > 0).
    residual is the rms misfit over the fitted window, fed to error estimates.
    """

    side: int
    edge: float
    exponents: tuple[int, ...]
    coeffs: tuple[complex, ...]
    residual: float


def fit_tail_expansion(
    f: SampledComplexFunction, side: int, n_terms: int = 3, fraction: float = 0.08
) -> TailExpansion:
    """Least-squares inverse-power expansion of f at one grid edge.

    The leading exponent comes from the attached tail model when it is a
    usable integer, otherwise from a log-log slope estimate.  All
    coefficients are fitted free; an exact single-power tail is reproduced to
    round-off and anything else shows up in the residual.
    """
    n = len(f)
    k = max(6, int(n * fraction))
    k = min(k, n // 2)
    sl = slice(n - k, n) if side > 0 else slice(0, k)
    x = f.grid[sl]
    v = f.values[sl]
    edge = abs(f.grid[-1]) if side > 0 else abs(f.grid[0])

    q0 = None
    if f.tail is not None and f.tail.integer_p is not None:
        q0 = f.tail.integer_p
    else:
        mask = (np.abs(x) > 0) & (np.abs(v) > 1e-300)
        if mask.sum() >= 3:
            slope, _ = np.polyfit(np.log(np.abs(x[mask])), np.log(np.abs(v[mask])), 1)
            q0 = max(1, round(-slope))
    if q0 is None:
        q0 = 1

    exponents = tuple(range(q0, q0 + n_terms))
    basis = np.stack([x.astype(float) ** (-q) for q in exponents], axis=1)
    coeffs, *_ = np.linalg.lstsq(basis, v, rcond=None)
    resid = v - basis @ coeffs
    return TailExpansion(
        side=1 if side > 0 else -1,
        edge=float(edge),
        exponents=exponents,
        coeffs=tuple(complex(c) for c in coeffs),
        residual=float(np.sqrt(np.mean(np.abs(resid) ** 2))),
    )


def power_kernel_tail(q, edge: float, z, side: int):
    """int over one tail of x^{-q} / (x - z) dx, for integer q >= 1 or a sequence of them.

    side = +1 integrates [edge, inf), side = -1 integrates (-inf, -edge].
    Evaluated by Gauss-Legendre after u = edge/|x|, exact for z off the tail
    ray; one matrix 1/(edge - side z u) serves every exponent.  Broadcasts
    over an array of targets z; a sequence q adds a last axis.
    """
    qs = np.asarray(q, dtype=float)
    q_row = qs.reshape(-1)
    u = _GAUSS01_X[:, None]
    weights = _GAUSS01_W[:, None] * float(side) ** (q_row + 1) * edge ** (1 - q_row) * u ** (q_row - 1)
    z = np.asarray(z, dtype=complex)[..., None]
    out = (1.0 / (edge - side * z * _GAUSS01_X)) @ weights
    out = out.reshape(out.shape[:-1] + qs.shape)
    return complex(out) if out.ndim == 0 else out


def cauchy_tail_correction(f: SampledComplexFunction, z) -> ValueWithError:
    """Correction int_{tails} f(x)/(x - z) dx for a two-sided grid.

    Uses fitted tail expansions on both sides.  Without a tail model the
    expansion is still fitted from the data, but the error estimate carries a
    conservative edge-magnitude term.  Supports an array of targets z (the
    error estimate is then the maximum over targets of the per-side bounds).
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    corr = np.zeros(z.shape, dtype=complex)
    err = 0.0
    span = f.grid[-1] - f.grid[0]
    for side in (+1, -1):
        edge = abs(f.grid[-1]) if side > 0 else abs(f.grid[0])
        if edge <= 1e-9 * span:
            # grid edge sits at the origin; no usable inverse-power region
            err += float(abs(f.values[-1 if side > 0 else 0]))
            continue
        exp_side = fit_tail_expansion(f, side)
        pieces = power_kernel_tail(exp_side.exponents, exp_side.edge, z, side) * np.array(exp_side.coeffs)
        corr = corr + pieces.sum(axis=-1)
        # the fit window cannot see terms past its highest exponent; score the
        # truncated series by a fraction of the last correction applied
        err += 0.25 * float(np.max(np.abs(pieces[..., -1])))
        dist = np.min(np.abs((exp_side.side * exp_side.edge) - z)) if z.size else exp_side.edge
        err += exp_side.residual * exp_side.edge / max(float(dist), exp_side.edge / 10.0)
        if f.tail is None:
            edge_val = abs(f.values[-1]) if side > 0 else abs(f.values[0])
            err += float(edge_val)
    if scalar:
        return ValueWithError(complex(corr), float(err))
    return ValueWithError(corr, float(err))  # type: ignore[arg-type]


def squared_tail_integral(f: SampledComplexFunction) -> ValueWithError:
    """int_{tails} |f(x)|^2 dx from the fitted tail expansions of both sides."""
    total = 0.0
    err = 0.0
    for side in (+1, -1):
        exp_side = fit_tail_expansion(f, side)
        x_edge = exp_side.edge
        for qa, ca in zip(exp_side.exponents, exp_side.coeffs):
            for qb, cb in zip(exp_side.exponents, exp_side.coeffs):
                m = qa + qb
                piece = (ca * np.conj(cb)) * x_edge ** (1 - m) / (m - 1)
                if exp_side.side < 0:
                    piece *= (-1) ** m
                total += piece.real
        err += 2.0 * exp_side.residual * max(abs(exp_side.coeffs[0]), exp_side.residual) * x_edge ** (
            1 - 2 * exp_side.exponents[0]
        )
        if f.tail is None:
            edge_val = abs(f.values[-1]) if side > 0 else abs(f.values[0])
            err += float(edge_val**2 * x_edge)
    return ValueWithError(complex(max(total, 0.0)), float(err))


# ---------------------------------------------------------------------------
# Toeplitz sums: kernels of the node offset, exact by FFT on uniform grids
# ---------------------------------------------------------------------------

def _toeplitz_apply(kernel, v):
    """T @ v for T[i, j] = kernel[i - j + n - 1] by one zero-padded FFT convolution.

    v has n rows (one column per vector when 2-D) and the result has
    len(kernel) - n + 1 rows; it equals the direct sum to rounding.
    """
    real = not (np.iscomplexobj(kernel) or np.iscomplexobj(v))
    size = fft.next_fast_len(kernel.size, real=real)
    forward, inverse = (fft.rfft, fft.irfft) if real else (fft.fft, fft.ifft)
    spectrum = forward(kernel, size).reshape((-1,) + (1,) * (v.ndim - 1))
    return inverse(spectrum * forward(v, size, axis=0), size, axis=0)[v.shape[0] - 1 : kernel.size]


def cauchy_sums(x, u, shift: complex = 0.0):
    """sum_j u_j / (x_j - x_i - shift) at every node x_i, dropping zero denominators.

    At shift = 0 that leaves out j = i.  u holds one column per sum.  Uniform
    grids take one FFT convolution, any other grid the direct O(n^2) sum.
    """
    return (_cauchy_sums_fft if is_uniform(x) else _cauchy_sums_direct)(x, u, shift)


def _inverse_or_zero(d):
    return np.divide(1.0, d, out=np.zeros_like(d), where=d != 0)


def _cauchy_sums_fft(x, u, shift=0.0):
    h = (x[-1] - x[0]) / (x.size - 1)
    # x_j - x_i = -(i - j) h on a uniform grid
    return _toeplitz_apply(_inverse_or_zero(-h * np.arange(1 - x.size, x.size) - shift), u)


def _cauchy_sums_direct(x, u, shift=0.0, chunk: int = 256):
    out = np.empty(x.shape + u.shape[1:], dtype=np.result_type(u, shift))
    for start in range(0, x.size, chunk):
        out[start : start + chunk] = _inverse_or_zero(x[None, :] - x[start : start + chunk, None] - shift) @ u
    return out


# ---------------------------------------------------------------------------
# principal-value integration
# ---------------------------------------------------------------------------

def _simpson_weights(n: int, h: float) -> np.ndarray:
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _local_cubic_value(x: np.ndarray, v: np.ndarray, x0: float) -> complex:
    """Value at x0 by cubic interpolation through the 4 nearest nodes.

    Linear interpolation is not good enough here: an O(h^2) error in the
    subtracted constant puts an O(h^2)/h spike into the regularized
    integrand right where the quadrature weights are least forgiving.
    """
    idx = int(np.searchsorted(x, x0))
    nearest = idx if idx < x.size and abs(x[idx] - x0) < abs(x[max(idx - 1, 0)] - x0) else max(idx - 1, 0)
    if abs(x[nearest] - x0) <= 1e-12 * (x[-1] - x[0]):
        return complex(v[nearest])
    lo = max(0, min(idx - 2, x.size - 4))
    xs = x[lo : lo + 4] - x0
    coeffs = np.polyfit(xs, v[lo : lo + 4], 3)
    return complex(coeffs[-1])


def grid_weights(grid: np.ndarray, method: Method) -> np.ndarray:
    """Quadrature weights on a fixed grid (Simpson where the grid allows it).

    Even-count uniform grids get Simpson weights on the first n-1 points plus
    a trapezoid close-out on the final interval.
    """
    n = grid.size
    d = np.diff(grid)
    if method is Method.ADAPTIVE_SIMPSON and is_uniform(grid) and n >= 3:
        h = float(d[0])
        if n % 2 == 1:
            return _simpson_weights(n, h)
        w = np.zeros(n)
        w[: n - 1] = _simpson_weights(n - 1, h)
        w[-2] += h / 2.0
        w[-1] += h / 2.0
        return w
    w = np.zeros(n)
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def pv_integral(
    g: SampledComplexFunction, singularity: float, spec: QuadratureSpec | None = None
) -> ValueWithError:
    """P int g(x) / (x - singularity) dx over the full line.

    The grid part uses the subtract-the-singularity scheme: the regularized
    integrand (g(x) - g(x0)) / (x - x0) is integrated on the native grid and
    the singular part contributes the exact log term g(x0) log((B-x0)/(x0-A)).
    When g carries a tail model the integral extends over the full line via
    fitted tail corrections; without one it is the principal value over the
    grid span alone.  Exact to round-off for constant g.
    """
    spec = spec or QuadratureSpec()
    x0 = float(singularity)
    a, b = g.span
    if not (a < x0 < b):
        raise SingularityOutsideGrid(f"singularity {x0} not strictly inside ({a}, {b})")

    x = g.grid
    v = g.values
    g0 = _local_cubic_value(x, v, x0)
    dx = x - x0
    phi = np.empty_like(v)
    near = np.abs(dx) <= 1e-12 * (b - a)
    phi[~near] = (v[~near] - g0) / dx[~near]
    if near.any():
        # value of the regularized integrand at the singular node is g'(x0)
        deriv = np.gradient(v, x)
        phi[near] = deriv[near]

    # conservative two-rule estimate: |Simpson - trapezoid| on the same span
    core_tr = complex(np.sum(grid_weights(x, Method.TRAPEZOID_UNIFORM) * phi))
    core_si = complex(np.sum(grid_weights(x, Method.ADAPTIVE_SIMPSON) * phi))
    core = core_tr if spec.method is Method.TRAPEZOID_UNIFORM else core_si
    est = abs(core_si - core_tr)

    log_term = g0 * np.log((b - x0) / (x0 - a))
    if g.tail is not None:
        tail_corr, tail_err = cauchy_tail_correction(g, x0)
    else:
        tail_corr, tail_err = 0j, 0.0

    value = core + log_term + tail_corr
    error = est + tail_err
    if error > spec.tolerance_for(value):
        raise ToleranceNotMet(
            f"pv_integral error estimate {error:.3e} exceeds tolerance "
            f"{spec.tolerance_for(value):.3e}"
        )
    return ValueWithError(complex(value), float(error))


# ---------------------------------------------------------------------------
# oscillatory integration
# ---------------------------------------------------------------------------

def _filon_parabolic_moments(theta):
    """m_k = int_{-1}^{1} u^k e^{-i theta u} du for k = 0, 1, 2, elementwise over theta."""
    small = np.abs(theta) < 0.15
    t2 = theta * theta
    t = np.where(small, 1.0, theta)  # the closed forms, kept off theta = 0
    s, c = np.sin(t), np.cos(t)
    series = (
        2.0 * (1 - t2 / 6 + t2 * t2 / 120 - t2 * t2 * t2 / 5040),
        -2j * theta * (1 / 3 - t2 / 30 + t2 * t2 / 840 - t2 * t2 * t2 / 45360),
        2.0 * (1 / 3 - t2 / 10 + t2 * t2 / 168 - t2 * t2 * t2 / 6480),
    )
    closed = (2.0 * s / t, -2j * (s - t * c) / t**2, 2.0 * ((t**2 - 2) * s + 2 * t * c) / t**3)
    return tuple(np.where(small, a, b) for a, b in zip(series, closed))


def filon_integral(x: np.ndarray, g: np.ndarray, s: float) -> complex:
    """int e^{-i s x} g(x) dx over the grid, the oscillation integrated exactly.

    On a uniform grid g is taken piecewise parabolic over pairs of intervals,
    and an even point count is closed out with the linear rule on the final
    interval; on any other grid g is taken piecewise linear.
    """
    return complex(_filon(x, g, s, is_uniform(x)))


def _filon(x: np.ndarray, g: np.ndarray, s, uniform: bool):
    """Filon rule for a scalar s, or for a uniform array s when the grid is uniform."""
    n = x.size
    if n < 3 or not uniform:
        return _filon_linear(x, g, s)
    if n % 2 == 0:
        return _filon(x[:-1], g[:-1], s, True) + _filon_linear(x[-2:], g[-2:], s)
    h = float(x[1] - x[0])
    m0, m1, m2 = _filon_parabolic_moments(s * h)
    w_ac = 0.5 * m2
    # weights of each parabola's left, middle and right sample, and those samples
    weights = (w_ac - 0.5 * m1, m0 - m2, w_ac + 0.5 * m1)
    samples = (g[:-2:2], g[1::2], g[2::2])
    xm = x[1::2]
    if np.ndim(s) == 0:
        return h * np.sum(np.exp(-1j * s * xm) * sum(w * v for w, v in zip(weights, samples)))
    sums = _chirp_z(xm, np.stack(samples, axis=1), s)
    return h * sum(w * sums[:, k] for k, w in enumerate(weights))


def _chirp_z(xm: np.ndarray, v: np.ndarray, s: np.ndarray):
    """sum_k v[k] e^{-i s_m xm[k]} per column of v and per entry of a uniform array s.

    The chirp-z transform (Bluestein): with x_k = x_r + k' dx and
    s_m = s_r + m' ds, s_m x_k = s_m x_r + s_r k' dx + m' k' ds dx and
    2 m' k' = m'^2 + k'^2 - (m' - k')^2, so the sums are one Toeplitz
    convolution.  The reference nodes are the middles, to keep phases small.
    """
    kr, mr = xm.size // 2, s.size // 2
    alpha = 0.5 * (s[-1] - s[0]) / (s.size - 1) * (xm[-1] - xm[0]) / max(xm.size - 1, 1)
    k, m = np.arange(xm.size) - kr, np.arange(s.size) - mr
    pre = np.exp(-1j * s[mr] * (xm - xm[kr])) * np.conj(_square_chirp(alpha, k))
    chirp = _square_chirp(alpha, np.arange(1 - xm.size, s.size) - (mr - kr))
    post = np.exp(-1j * s * xm[kr]) * np.conj(_square_chirp(alpha, m))
    return post[:, None] * _toeplitz_apply(chirp, pre[:, None] * v)


def _square_chirp(alpha: float, j: np.ndarray):
    """e^{i alpha j^2} for integers j.  These phases grow far past the s x they combine
    into, so alpha splits into a head with exact products alpha j^2 and a small tail."""
    bits = 53 - int(np.max(j * j)).bit_length() - np.frexp(alpha)[1]
    head = np.ldexp(np.round(np.ldexp(alpha, bits)), -bits)
    return np.exp(1j * head * (j * j)) * np.exp(1j * (alpha - head) * (j * j))


def _filon_linear(x: np.ndarray, g: np.ndarray, s):
    """Exact e^{-i s x} integral of the piecewise-linear interpolant, broadcast over s."""
    h = np.diff(x)
    xm = 0.5 * (x[:-1] + x[1:])
    s = np.asarray(s, dtype=float)[..., None]
    theta = s * h / 2.0
    small = np.abs(theta) < 0.1
    t2 = theta**2
    s_off = np.where(small, 1.0, s)  # the closed forms, kept off s = 0
    # sin(t) - t cos(t) = t^3/3 - t^5/30 + ...
    series = (h * (1 - t2 / 6 + t2 * t2 / 120), -1j * h**2 / 4 * (2.0 / 3.0 * theta - theta * t2 / 15.0))
    closed = (2.0 * np.sin(theta) / s_off, -2j * (np.sin(theta) - theta * np.cos(theta)) / s_off**2)
    mu0, mu1 = (np.where(small, a, b) for a, b in zip(series, closed))
    avg = 0.5 * (g[:-1] + g[1:])
    slope = np.diff(g) / h
    return np.sum(np.exp(-1j * s * xm) * (avg * mu0 + slope * mu1), axis=-1)


def fourier_integral_sampled(x, g, s) -> ValueWithError:
    """int e^{-i s x} g(x) dx over the grid by Filon, with a Richardson error estimate.

    The estimate is the gap to the same rule on every other node, divided by
    5 for the parabolic rule of uniform grids and by 3 for the linear rule.
    s may be a 1-D array, giving arrays of values and errors: on a uniform
    grid a uniform s takes the chirp-z sums, any other s the rule per entry.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=complex)
    # one uniformity test for both rules: every other node of a uniform grid is uniform
    uniform = is_uniform(x)
    if np.ndim(s) == 1 and not (uniform and len(s) > 1 and is_uniform(s)):
        pairs = [fourier_integral_sampled(x, g, si) for si in s]
        return ValueWithError(np.array([p.value for p in pairs]), np.array([p.error for p in pairs]))
    s = np.asarray(s, dtype=float)
    full = _filon(x, g, s, uniform)
    half = _filon(x[::2], g[::2], s, uniform)
    return ValueWithError(full, np.abs(full - half) / (5.0 if uniform and x.size >= 3 else 3.0))


def default_energy_grid(poles, n: int, hi: float = 10.0) -> np.ndarray:
    """Uniform grid on [0, E_max] for integrands with the given poles.

    E_max reaches 50 widths 2|Im p| (at least 0.5 each) past every pole, and
    at least hi.
    """
    for p in poles:
        hi = max(hi, p.real + 50.0 * max(2.0 * abs(p.imag), 0.5))
    return np.linspace(0.0, hi, n)


def oscillatory_integral(g, t: float) -> ValueWithError:
    """int_0^inf e^{-i E t} g(E) dE for finite t >= 0.

    Rational AnalyticModel input takes the exact pole/residue path via
    exponential integrals, so the error does not grow with t.  Sampled input
    integrates over the grid by Filon (fourier_integral_sampled), plus
    exponential-integral tail terms from the fitted tail expansion.  Negative
    t raises NegativeTime: this is the semigroup boundary, not a numerics
    failure.
    """
    _check_time(t)
    if isinstance(g, AnalyticModel):
        return rational_halfline_fourier([(c, p, 1) for c, p in g.as_terms()], t)

    if not isinstance(g, SampledComplexFunction):
        raise TypeError("g must be an AnalyticModel or SampledComplexFunction")
    if g.grid[0] < -1e-12:
        raise ValueError("half-line integrand must be sampled on [0, inf)")
    if np.all(np.abs(g.values) == 0.0):
        return ValueWithError(0j, 0.0)
    if g.tail is None:
        raise NonDecayingIntegrand("sampled half-line integrand needs a tail model")
    if g.tail.p <= 1.0:
        raise NonDecayingIntegrand(f"tail exponent {g.tail.p} <= 1 is not integrable")

    core = fourier_integral_sampled(g.grid, g.values, t)
    tail_exp = fit_tail_expansion(g, +1)
    tail_val = 0j
    tail_err = tail_exp.residual * tail_exp.edge ** (1 - tail_exp.exponents[0]) / max(
        tail_exp.exponents[0] - 1, 1
    )
    last = 0.0
    for q, c in zip(tail_exp.exponents, tail_exp.coeffs):
        piece = c * power_tail_fourier(q, tail_exp.edge, t)
        tail_val += piece
        last = abs(piece)
    # fitted expansion is blind past its last exponent
    tail_err += 0.25 * last
    value = core.value + tail_val
    return ValueWithError(complex(value), float(core.error + tail_err))
