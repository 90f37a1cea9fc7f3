"""Hardy-class criterion and the transforms that characterize the class.

A function is Hardy in a half-plane when it is analytic there and its squared
modulus has uniformly bounded integrals along horizontal lines.  On the real
boundary this is equivalent to the dispersion relations (Kramers-Kronig
form): real and imaginary parts are a principal-value Hilbert pair with a
sign fixed by the half-plane.  Causal time signals generate Hardy-from-above
functions through the half-line Fourier transform, and interior values are
recovered from boundary data by the Cauchy integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GridTooSparse,
    MissingTailModel,
    NonCausalInput,
    NonIntegrableInput,
    NonPositiveOffset,
    PoleOnContinuationLine,
    TruncationErrorExceeded,
    WrongHalfPlane,
)
from .models import AnalyticModel, DampedSine, HalfPlane, RationalSum, SimplePole
from .quadrature import (
    Method,
    ValueWithError,
    _rounding_error,
    cauchy_sums,
    cauchy_tail_correction,
    fourier_integral_sampled,
    grid_weights,
    modulus_squared_terms,
    rational_line_integral,
    squared_tail_integral,
)
from .sampled import SampledComplexFunction, TailModel, uniform_grid


# ---------------------------------------------------------------------------
# criterion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriterionResult:
    """Line-integral values along Im z = sign * gamma and the pass verdict.

    Analytic models give exact residue sums, so their errors are rounding estimates.
    """

    half_plane: HalfPlane
    offsets: tuple[float, ...]
    values: tuple[float, ...]
    errors: tuple[float, ...]
    verdict: bool
    reason: str


def _check_offsets(offsets):
    offs = [float(g) for g in offsets]
    if not offs:
        raise NonPositiveOffset("need at least one offset")
    for g in offs:
        if not (np.isfinite(g) and g > 0):
            raise NonPositiveOffset(f"offset {g} is not strictly positive")
    return offs


def _criterion_verdict(offsets, values, bound):
    if any(not np.isfinite(v) for v in values):
        return False, "non-finite line integral"
    if any(v > bound for v in values):
        return False, f"line integral exceeds bound {bound:g}"
    order = np.argsort(offsets)
    svals = [values[i] for i in order]
    for lo, hi in zip(svals[:-1], svals[1:]):
        # true Hardy line integrals decrease away from the boundary
        if hi > lo * 1.1 + 1e-30:
            return False, "line integrals grow with the offset"
    return True, "pass"


def hardy_criterion(f, hp: HalfPlane, offsets, *, bound: float = 1e12) -> CriterionResult:
    """Line integrals int |f(w + i*sign*gamma)|^2 dw for each offset gamma.

    Analytic models give exact residue sums of |f|^2 on the offset lines (a
    pole inside the tested half-plane raises PoleOnContinuationLine, since no
    line sweep can certify analyticity past a known pole).  Sampled boundary
    data is continued off the axis by the Cauchy integral, which needs a tail
    model; positive-axis-only grids are first extended to the full line by a
    rational fit.  The verdict is pass when every value is finite, below
    `bound`, and the values do not grow with gamma.
    """
    offs = _check_offsets(offsets)

    if isinstance(f, AnalyticModel):
        if not f.is_analytic_in(hp):
            raise PoleOnContinuationLine(f"a pole of {f} lies inside the {hp.value} half-plane")
        lines = [rational_line_integral(modulus_squared_terms(f, hp.sign * g)) for g in offs]
        values = [value.real for value, _ in lines]
        errors = [error for _, error in lines]
    elif isinstance(f, SampledComplexFunction):
        if f.tail is None:
            raise MissingTailModel("criterion on sampled data needs a tail model")
        if f.grid[0] >= 0.0:
            f, _ = extend_to_full_line(f)
        values, errors = [], []
        tail_sq, tail_sq_err = squared_tail_integral(f)
        w = grid_weights(f.grid, Method.ADAPTIVE_SIMPSON)
        for g in offs:
            line_vals, line_err = _continue_many(f, hp, hp.sign * g)
            core = float(np.sum(w * np.abs(line_vals) ** 2))
            values.append(core + tail_sq.real)
            errors.append(float(line_err * 2.0 * np.sqrt(max(core, 1e-300)) + tail_sq_err))
    else:
        raise TypeError("f must be an AnalyticModel or SampledComplexFunction")
    verdict, reason = _criterion_verdict(offs, values, bound)
    return CriterionResult(hp, tuple(offs), tuple(values), tuple(errors), verdict, reason)


# ---------------------------------------------------------------------------
# Titchmarsh continuation
# ---------------------------------------------------------------------------

def _continue_many(f: SampledComplexFunction, hp: HalfPlane, y: float):
    """Cauchy integral sign/(2 pi i) int f(w')/(w'-z) dw' along the line z = grid + i y."""
    w = grid_weights(f.grid, Method.ADAPTIVE_SIMPSON)
    out = cauchy_sums(f.grid, w * f.values, 1j * y)
    tail_corr, tail_err = cauchy_tail_correction(f, f.grid + 1j * y)
    pref = hp.sign / (2j * np.pi)
    return pref * (out + tail_corr), abs(pref) * tail_err


def titchmarsh_continuation(
    f,
    hp: HalfPlane,
    z: complex,
    *,
    tolerance: float | None = None,
) -> ValueWithError:
    """Continue boundary values to an interior point via the Cauchy integral.

    value = sign/(2 pi i) int f(w')/(w' - z) dw', sign +1 for the upper
    half-plane and -1 for the lower.  z must be strictly interior (the real
    axis is excluded); sampled input must carry a tail model.  For an analytic
    model the integral is the residue sum over the poles outside the
    half-plane, which is f(z) itself when f is Hardy there.  When `tolerance`
    is given and the error estimate exceeds it, TruncationErrorExceeded is
    raised.
    """
    z = complex(z)
    if not hp.contains(z):
        raise WrongHalfPlane(f"{z} is not interior to the {hp.value} half-plane")

    if isinstance(f, AnalyticModel):
        pieces = [c / (z - p) for c, p in f.as_terms() if not hp.contains(p)]
        value = sum(pieces, 0j)
        error = _rounding_error(abs(v) for v in pieces)
    elif isinstance(f, SampledComplexFunction):
        if f.tail is None:
            raise MissingTailModel("continuation of sampled data needs a tail model")
        if not np.all(np.isfinite(f.values)):
            raise ValueError("boundary values must be finite")
        pref = hp.sign / (2j * np.pi)
        kern = f.values / (f.grid - z)
        w_full = grid_weights(f.grid, Method.ADAPTIVE_SIMPSON)
        core = complex(np.sum(w_full * kern))
        w_half = grid_weights(f.grid[::2], Method.ADAPTIVE_SIMPSON)
        core_half = complex(np.sum(w_half * kern[::2]))
        tail_corr, tail_err = cauchy_tail_correction(f, z)
        value = pref * (core + tail_corr)
        error = abs(pref) * (abs(core - core_half) / 3.0 + tail_err)
    else:
        raise TypeError("f must be an AnalyticModel or SampledComplexFunction")
    if tolerance is not None and error > tolerance:
        raise TruncationErrorExceeded(
            f"continuation error estimate {error:.3e} exceeds tolerance {tolerance:.3e}"
        )
    return ValueWithError(complex(value), float(error))


# ---------------------------------------------------------------------------
# Hilbert transform (dispersion relations)
# ---------------------------------------------------------------------------

def _pv_hilbert_of_part(x, part, part_fn: SampledComplexFunction):
    """(1/pi) P int part(w')/(w' - w) dw' evaluated at every grid point."""
    w = grid_weights(x, Method.ADAPTIVE_SIMPSON)
    # subtract the singularity: sum_j w_j (p_j - p_i) / (x_j - x_i), with p'_i at j = i
    sums = cauchy_sums(x, np.stack([w * part, w], axis=1))
    core = sums[:, 0] - part * sums[:, 1] + w * np.gradient(part, x)

    # exact PV of the constant part over the grid span; clip edge distances
    h_left = x[1] - x[0]
    h_right = x[-1] - x[-2]
    d_hi = np.clip(x[-1] - x, 0.5 * h_right, None)
    d_lo = np.clip(x - x[0], 0.5 * h_left, None)
    log_term = part * np.log(d_hi / d_lo)

    tail_corr, tail_err = cauchy_tail_correction(part_fn, x)
    return (core + log_term + tail_corr.real) / np.pi, tail_err / np.pi


def hilbert_transform(
    f: SampledComplexFunction,
    hp: HalfPlane,
    given: str,
    *,
    tolerance: float = 1e-3,
) -> SampledComplexFunction:
    """Fill in the missing part of a Hardy boundary value by dispersion.

    With H[g](w) = (1/pi) P int g(w')/(w'-w) dw', the upper half-plane pair
    is Re = +H[Im], Im = -H[Re]; the lower half-plane flips both signs.

    Args:
        f: sampled function whose `given` part holds the data (the other
           part is ignored on input and replaced on output).
        hp: half-plane the function is claimed to be Hardy in.
        given: "re" or "im", which part is supplied.
        tolerance: relative truncation budget; without a tail model the
           transform raises MissingTailModel when the edge-truncation
           estimate exceeds it.

    Returns:
        A function on the same grid with both parts populated.
    """
    if given not in ("re", "im"):
        raise ValueError("given must be 're' or 'im'")
    if len(f) < 16:
        raise GridTooSparse(f"need >= 16 points, got {len(f)}")
    x = f.grid
    part = f.values.real if given == "re" else f.values.imag

    part_tail = None
    if f.tail is not None and f.tail.integer_p is not None:
        c_part = f.tail.c.real if given == "re" else f.tail.c.imag
        part_tail = TailModel(f.tail.p, complex(c_part))
    part_fn = SampledComplexFunction(x, part.astype(complex), part_tail)
    partner, tail_err = _pv_hilbert_of_part(x, part, part_fn)
    scale = float(np.max(np.abs(part))) or 1.0
    if f.tail is None and tail_err > tolerance * scale:
        raise MissingTailModel(
            f"truncation estimate {tail_err:.3e} exceeds tolerance "
            f"{tolerance * scale:.3e}; attach a tail model"
        )

    # sign pattern of the dispersion relations
    if given == "im":
        partner = hp.sign * partner
        values = partner + 1j * part
    else:
        partner = -hp.sign * partner
        values = part + 1j * partner
    return SampledComplexFunction(x, values, f.tail)


@dataclass(frozen=True)
class DispersionReport:
    """Peak-normalized residuals of the two dispersion reconstructions."""

    residual_re: float
    residual_im: float
    window: tuple[float, float]
    reconstruction: SampledComplexFunction | None = None  # Re from Im and Im from Re

    @property
    def max_residual(self) -> float:
        return max(self.residual_re, self.residual_im)


def dispersion_residual(
    f: SampledComplexFunction, hp: HalfPlane, *, central_fraction: float = 0.5
) -> DispersionReport:
    """Round-trip check of the dispersion relations on two-part data.

    Reconstructs Re from Im and Im from Re and reports the maximum absolute
    deviation on the central window, normalized by the peak magnitude of the
    corresponding part.  Causal (correctly signed) data yields residuals at
    the quadrature level; a sign-flipped part fails by order unity.  A
    nonzero pure-real or pure-imaginary input always fails: such boundary
    values belong to no Hardy function except zero.
    """
    lo, hi = f.span
    center = 0.5 * (lo + hi)
    half = 0.5 * central_fraction * (hi - lo)
    mask = np.abs(f.grid - center) <= half

    from_im = hilbert_transform(f, hp, "im")
    from_re = hilbert_transform(f, hp, "re")
    scale_re = float(np.max(np.abs(f.values.real))) or 1.0
    scale_im = float(np.max(np.abs(f.values.imag))) or 1.0
    res_re = float(np.max(np.abs(from_im.values.real[mask] - f.values.real[mask]))) / scale_re
    res_im = float(np.max(np.abs(from_re.values.imag[mask] - f.values.imag[mask]))) / scale_im
    reconstruction = SampledComplexFunction(f.grid, from_im.values.real + 1j * from_re.values.imag)
    return DispersionReport(res_re, res_im, (center - half, center + half), reconstruction)


# ---------------------------------------------------------------------------
# causal transform (Paley-Wiener)
# ---------------------------------------------------------------------------

class CausalSignal:
    """A square-integrable time signal supported on t >= 0."""

    decay_rate: float

    def sample(self, t):
        raise NotImplementedError

    def value_at_zero(self) -> complex:
        return complex(self.sample(np.array([0.0]))[0])

    def derivative_at_zero(self) -> complex:
        eps = 1e-6
        v = self.sample(np.array([0.0, eps, 2 * eps]))
        return complex((-3 * v[0] + 4 * v[1] - v[2]) / (2 * eps))

    def spectrum(self) -> AnalyticModel | None:
        """Closed-form transform when known; None otherwise."""
        return None


@dataclass(frozen=True)
class ComplexExponentialSignal(CausalSignal):
    """f(t) = theta(t) e^{i (a + i b) t}; transform i/((a+ib) + w)."""

    a: float
    b: float

    def __post_init__(self):
        if not self.b > 0:
            raise NonIntegrableInput("need b > 0 for square integrability")

    @property
    def decay_rate(self) -> float:
        return self.b

    def sample(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(1j * (self.a + 1j * self.b) * t)

    def value_at_zero(self):
        return 1.0 + 0j

    def derivative_at_zero(self):
        return 1j * (self.a + 1j * self.b)

    def spectrum(self):
        return SimplePole(1j, complex(-self.a, -self.b))


@dataclass(frozen=True)
class DampedSineSignal(CausalSignal):
    """f(t) = theta(t) e^{-b t} sin(a t); transform a/(a^2 + (b - i w)^2)."""

    a: float
    b: float

    def __post_init__(self):
        if not self.b > 0:
            raise NonIntegrableInput("need b > 0 for square integrability")

    @property
    def decay_rate(self) -> float:
        return self.b

    def sample(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(-self.b * t) * np.sin(self.a * t) + 0j

    def value_at_zero(self):
        return 0j

    def derivative_at_zero(self):
        return complex(self.a)

    def spectrum(self):
        return DampedSine(self.a, self.b)


@dataclass(frozen=True)
class CallableCausalSignal(CausalSignal):
    """Arbitrary vectorized f(t) with a known exponential decay bound."""

    fn: object
    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise NonIntegrableInput("decay rate must be strictly positive")

    @property
    def decay_rate(self) -> float:
        return self.rate

    def sample(self, t):
        return np.asarray(self.fn(np.asarray(t, dtype=float)), dtype=complex)


def _output_tail(f0: complex, f1: complex, scale: float) -> TailModel | None:
    # integration by parts: h(w) ~ i f(0)/w - f'(0)/w^2 + ...
    if abs(f0) > 1e-12 * max(scale, 1.0):
        return TailModel(1.0, 1j * f0)
    if abs(f1) > 1e-12 * max(scale, 1.0):
        return TailModel(2.0, -f1)
    return None


def causal_transform(
    signal,
    omega_grid=None,
    *,
    n_time: int = 16385,
    tail_tol: float = 1e-9,
) -> SampledComplexFunction:
    """h(w) = int_0^inf e^{i w t} f(t) dt on the requested frequency grid.

    Accepts either a CausalSignal descriptor (sampled internally on a window
    long enough that the neglected tail is below `tail_tol`) or a sampled
    time-domain function, which must vanish at negative times within machine
    tolerance (NonCausalInput otherwise) and visibly decay within its grid
    (NonIntegrableInput otherwise).

    The result always lies in the Hardy-from-above class up to quadrature
    error; the attached tail model records the i f(0)/w leading behavior.
    """
    if omega_grid is None:
        omega_grid = uniform_grid(-20.0, 20.0, 801)
    omega_grid = np.asarray(omega_grid, dtype=float)

    if isinstance(signal, SampledComplexFunction):
        t = signal.grid
        v = signal.values
        scale = float(np.max(np.abs(v)))
        neg = t < -1e-12 * max(1.0, abs(t[0]))
        if scale > 0 and np.any(np.abs(v[neg]) > 1e-12 * scale):
            raise NonCausalInput("nonzero samples at negative times")
        keep = t >= -1e-15
        t, v = t[keep], v[keep]
        if t.size < 3:
            raise ValueError("too few samples at t >= 0")
        if scale > 0 and abs(v[-1]) > 0.1 * scale:
            raise NonIntegrableInput("signal has not decayed by the end of the time grid")
        f0 = complex(v[0]) if abs(t[0]) < 1e-12 else 0j
        f1 = complex((v[1] - v[0]) / (t[1] - t[0])) if t.size > 1 else 0j
    else:
        if not isinstance(signal, CausalSignal):
            raise TypeError("signal must be a CausalSignal or SampledComplexFunction")
        b = signal.decay_rate
        t_max = max(10.0 / b, np.log(max(10.0 / (tail_tol * b), 10.0)) / b)
        n = n_time if n_time % 2 == 1 else n_time + 1
        t = np.linspace(0.0, t_max, n)
        v = signal.sample(t)
        scale = float(np.max(np.abs(v)))
        f0 = signal.value_at_zero()
        f1 = signal.derivative_at_zero()

    # e^{+i w t} integrand corresponds to transform variable s = -w
    values = fourier_integral_sampled(t, v, -omega_grid).value
    return SampledComplexFunction(omega_grid, values, _output_tail(f0, f1, scale))


# ---------------------------------------------------------------------------
# conjugation and full-line extension
# ---------------------------------------------------------------------------

def conjugate_hardy(f):
    """Pointwise complex conjugate; maps each Hardy class onto the other.

    For analytic models every pole is mirrored across the real axis, so the
    criterion line integrals are preserved under the flipped half-plane tag.
    Applying the operation twice returns the original function.
    """
    if isinstance(f, (AnalyticModel, SampledComplexFunction)):
        return f.conjugate()
    raise TypeError("f must be an AnalyticModel or SampledComplexFunction")


def fit_rational_extension(
    f: SampledComplexFunction, n_poles: int = 1
) -> tuple[RationalSum, float]:
    """Least-squares simple-pole fit to sampled data, for off-grid extension.

    Returns the fitted model and the rms residual over the samples.  Both
    half-plane seedings are tried and the better fit wins, so no Hardy class
    is presupposed.  This is an approximate stand-in for exact reconstruction
    of off-axis data from positive-axis boundary values; the residual is the
    honesty knob and is propagated by the callers.
    """
    from scipy import optimize  # imported on use, so that importing the CLI does not load it

    x = f.grid
    v = f.values
    peak = x[np.argmax(np.abs(v))]
    amax = np.max(np.abs(v))
    half = np.abs(v) >= amax / 2.0
    width = max((x[half][-1] - x[half][0]) / 2.0, (x[-1] - x[0]) / len(x))

    def unpack(theta):
        k = n_poles
        cs = theta[0:k] + 1j * theta[k : 2 * k]
        ps = theta[2 * k : 3 * k] + 1j * theta[3 * k : 4 * k]
        return cs, ps

    def residual(theta):
        cs, ps = unpack(theta)
        model = np.zeros_like(v)
        for c, p in zip(cs, ps):
            model = model + c / (x - p)
        r = model - v
        return np.concatenate([r.real, r.imag])

    best = None
    for sign in (+1.0, -1.0):
        theta0 = np.concatenate(
            [
                np.full(n_poles, amax * width),
                np.zeros(n_poles),
                peak + width * np.arange(n_poles),
                np.full(n_poles, sign * width),
            ]
        )
        sol = optimize.least_squares(residual, theta0, method="lm", max_nfev=4000)
        if best is None or sol.cost < best.cost:
            best = sol
    cs, ps = unpack(best.x)
    terms = []
    for c, p in zip(cs, ps):
        if p.imag == 0:
            p = complex(p.real, np.sign(best.x[-1] or 1.0) * 1e-12)
        terms.append(SimplePole(complex(c), complex(p)))
    model = RationalSum(tuple(terms))
    rms = float(np.sqrt(np.mean(np.abs(model(x.astype(complex)) - v) ** 2)))
    return model, rms


def extend_to_full_line(
    f: SampledComplexFunction, n_poles: int = 1
) -> tuple[SampledComplexFunction, float]:
    """Extend positive-axis samples to a symmetric two-sided grid.

    Values on the negative axis come from the fitted rational model; positive
    axis keeps the original data.  Returns the extended function (with the
    model's exact tail) and the fit residual.
    """
    if f.grid[0] < 0:
        return f, 0.0
    model, rms = fit_rational_extension(f, n_poles)
    pos = f.grid if f.grid[0] > 0 else f.grid[1:]
    neg = -pos[::-1]
    grid = np.concatenate([neg, f.grid])
    vals = np.concatenate([model(neg.astype(complex)), f.values])
    tail = model.tail_model() or f.tail
    return SampledComplexFunction(grid, vals, tail), rms
