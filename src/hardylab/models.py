"""Closed-form Hardy function families.

An AnalyticModel is evaluable anywhere in the complex plane off its poles and
knows its exact rational structure, which makes it the oracle side of every
transform in this package: line integrals, continuations, and half-line
Fourier integrals all have pole-level closed forms against which the sampled
numerics are checked.

Pole location determines the Hardy class: a function whose poles all lie in
the upper half-plane is analytic below the real axis ("Hardy from below"),
and vice versa.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from .sampled import SampledComplexFunction, TailModel


class HalfPlane(enum.Enum):
    """Half of the complex plane in which a function is analytic.

    UPPER means analytic for Im z > 0 (Hardy from above, the class of
    observable wave functions); LOWER means analytic for Im z < 0 (Hardy
    from below, the class of prepared-state wave functions).
    """

    UPPER = "upper"
    LOWER = "lower"

    def flipped(self) -> "HalfPlane":
        return HalfPlane.LOWER if self is HalfPlane.UPPER else HalfPlane.UPPER

    @property
    def sign(self) -> int:
        """Sign of Im z in the interior: +1 for UPPER, -1 for LOWER."""
        return 1 if self is HalfPlane.UPPER else -1

    def contains(self, z: complex) -> bool:
        """True when z is strictly interior to this half-plane."""
        return self.sign * complex(z).imag > 0


class AnalyticModel:
    """Base class for closed-form rational models.

    Subclasses provide `as_terms()`, a tuple of (coefficient, pole) pairs such
    that f(z) = sum_k c_k / (z - p_k).  Everything else derives from that.
    """

    def as_terms(self) -> tuple[tuple[complex, complex], ...]:
        raise NotImplementedError

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for c, p in self.as_terms():
            out = out + c / (z - p)
        return out if out.ndim else complex(out)

    def poles(self) -> tuple[complex, ...]:
        return tuple(p for _, p in self.as_terms())

    @property
    def is_zero(self) -> bool:
        return len(self.as_terms()) == 0

    def is_analytic_in(self, hp: HalfPlane) -> bool:
        """True when no pole lies strictly inside hp."""
        return not any(hp.contains(p) for p in self.poles())

    def hardy_class(self) -> HalfPlane | None:
        """The half-plane this model is Hardy in, or None (zero or mixed poles)."""
        poles = self.poles()
        if not poles:
            return None
        if all(p.imag > 0 for p in poles):
            return HalfPlane.LOWER
        if all(p.imag < 0 for p in poles):
            return HalfPlane.UPPER
        return None

    def conjugate(self) -> "AnalyticModel":
        """Pointwise complex conjugate on the real axis; mirrors every pole.

        conj(sum c/(x - p)) = sum conj(c)/(x - conj(p)) for real x, so the
        conjugate of a Hardy-from-above model is Hardy from below and vice
        versa.
        """
        terms = tuple(SimplePole(np.conj(c), np.conj(p)) for c, p in self.as_terms())
        if len(terms) == 1:
            return terms[0]
        return RationalSum(terms)

    def tail_model(self) -> TailModel | None:
        """Exact leading large-|x| behavior, as a TailModel.

        Expanding c/(x-p) = c/x + c p/x**2 + ..., the leading nonzero moment
        sum_k c_k p_k**(m-1) fixes the tail c_tail / x**m.
        """
        terms = self.as_terms()
        if not terms:
            return None
        for m in range(1, 4):
            c_tail = sum(c * p ** (m - 1) for c, p in terms)
            if abs(c_tail) > 1e-300:
                return TailModel(float(m), c_tail)
        return None

    def sample(self, grid) -> SampledComplexFunction:
        """Boundary values on a real grid, carrying the exact tail model."""
        grid = np.asarray(grid, dtype=float)
        return SampledComplexFunction(grid, self(grid.astype(complex)), self.tail_model())

    # --- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(obj: dict) -> "AnalyticModel":
        kind = obj["kind"]
        params = obj["params"]
        if kind == "simple_pole":
            return SimplePole(_c_from(params["coefficient"]), _c_from(params["pole"]))
        if kind == "damped_sine":
            return DampedSine(params["a"], params["b"])
        if kind == "rational_sum":
            terms = tuple(
                SimplePole(_c_from(t["coefficient"]), _c_from(t["pole"]))
                for t in params["terms"]
            )
            return RationalSum(terms)
        raise ValueError(f"unknown model kind {kind!r}")

    @staticmethod
    def from_json(text: str) -> "AnalyticModel":
        return AnalyticModel.from_json_dict(json.loads(text))


def _c_to(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _c_from(obj: dict) -> complex:
    return complex(obj["re"], obj["im"])


@dataclass(frozen=True)
class SimplePole(AnalyticModel):
    """f(z) = coefficient / (z - pole), with the pole strictly off the real axis."""

    coefficient: complex
    pole: complex

    def __post_init__(self):
        object.__setattr__(self, "coefficient", complex(self.coefficient))
        object.__setattr__(self, "pole", complex(self.pole))
        if not (np.isfinite(self.coefficient) and np.isfinite(self.pole)):
            raise ValueError("coefficient and pole must be finite")
        if self.pole.imag == 0:
            raise ValueError("pole on the real axis is rejected")

    def as_terms(self):
        return ((self.coefficient, self.pole),)

    def to_json_dict(self):
        return {
            "kind": "simple_pole",
            "params": {"coefficient": _c_to(self.coefficient), "pole": _c_to(self.pole)},
        }


@dataclass(frozen=True)
class DampedSine(AnalyticModel):
    """f(z) = a / (a**2 + (b - i z)**2), the transform of a damped sine burst.

    Both poles (+-a - i b) sit in the lower half-plane, so this family is
    Hardy from above for any b > 0.
    """

    a: float
    b: float

    def __post_init__(self):
        if not self.b > 0:
            raise ValueError("damping b must be strictly positive")
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))

    def as_terms(self):
        # partial fractions: a/(a^2+(b-iz)^2) = 0.5/(z+a+ib) - 0.5/(z-a+ib)
        return ((0.5 + 0j, complex(-self.a, -self.b)), (-0.5 + 0j, complex(self.a, -self.b)))

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = self.a / (self.a**2 + (self.b - 1j * z) ** 2)
        return out if out.ndim else complex(out)

    def to_json_dict(self):
        return {"kind": "damped_sine", "params": {"a": self.a, "b": self.b}}


@dataclass(frozen=True)
class RationalSum(AnalyticModel):
    """A finite sum of simple poles.  An empty sum is the zero function."""

    terms: tuple[SimplePole, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if not isinstance(t, SimplePole):
                raise ValueError("RationalSum terms must be SimplePole instances")

    def as_terms(self):
        return tuple((t.coefficient, t.pole) for t in self.terms)

    def to_json_dict(self):
        return {
            "kind": "rational_sum",
            "params": {"terms": [t.to_json_dict()["params"] for t in self.terms]},
        }


ZERO_MODEL = RationalSum(())


def lorentzian_model(peak: float, fwhm: float) -> RationalSum:
    """The real Lorentzian density 1/((x-peak)^2 + (fwhm/2)^2) as a pole pair.

    Useful as a non-Hardy rational integrand (one pole in each half-plane).
    """
    if fwhm <= 0:
        raise ValueError("fwhm must be positive")
    c = fwhm / 2.0
    w = 1.0 / (2j * c)
    return RationalSum(
        (SimplePole(w, complex(peak, c)), SimplePole(-w, complex(peak, -c)))
    )
