"""Scalar fields on the line (and radial fields in higher dimension).

A :class:`ScalarField` bundles everything the singular-integral machinery
needs to evaluate nonlocal operators on an explicitly given function:

* a vectorized evaluator, defined on all of R,
* a second derivative, valid away from the listed kinks, which the 1D
  operator's core needs (a hat interpolant has none and is imaged in
  closed form by ``GridFunction.frac_image``),
* an exact far-field description (:class:`TailExpansion`) so that the
  integral beyond any finite radius can be resummed in closed form,
* a ``support`` interval (lo, hi): the field is exactly 0 at and beyond
  both ends; the quadrature grades into each finite end and evaluates the
  field wherever its rules put a node, on either side of it.

Every callable a field carries (the evaluator, the second derivative, and a
radial field's profile, its derivatives and its Laplacian) takes an array of
any shape and returns an array of that shape, so the kernel asks for each
quantity once per array of points.

A *kink* is a point the field lists as a smoothness break: a jump in some
derivative, or an algebraic singularity.  The singular quadrature breaks its
rules at the offset of every kink and never evaluates the operator within
``1e-12`` of one.  Where two analytic pieces join, such as the ends of a
parabola cap or a polynomial fade meeting a constant, a Gauss-Legendre rule
that ends at the break converges geometrically.  A piece that is itself
singular, such as x_+^alpha or x^2 log x at 0, is singular at a finite end
of the support: each such end is also a break, and on the side where the
field is nonzero the rules next to it run in log |z - b| down to 2^-60 b.
They assume analyticity in a strip of half width pi about log |z - b|; a
C^infinity end such as exp(-1/(1 - t^2)) keeps only half of it, and its
images come out 1.1e-11 to 1.7e-11 off (no field in this package has one).

The tail description is *exact*, not asymptotic: beyond ``cutoff`` the
function must equal the stated finite sum of power terms on each side
(an empty side means the function vanishes identically there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError

Terms = Tuple[Tuple[float, float], ...]


@dataclass(frozen=True)
class TailExpansion:
    """Exact representation of a function beyond ``|x| > cutoff``.

    ``plus_terms`` is a tuple of ``(coef, power)`` pairs with
    ``u(x) = sum coef * x**power`` for ``x > cutoff``; ``minus_terms``
    plays the same role with ``u(x) = sum coef * |x|**power`` for
    ``x < -cutoff``.  Empty tuples mean the function is identically zero
    on that side.
    """

    cutoff: float
    plus_terms: Terms = ()
    minus_terms: Terms = ()

    def max_power(self) -> float:
        powers = [p for _, p in self.plus_terms] + [p for _, p in self.minus_terms]
        return max(powers) if powers else -math.inf


@dataclass(frozen=True)
class ScalarField:
    """A function on R with the metadata needed for nonlocal evaluation.

    ``support = (lo, hi)`` promises u(x) == 0.0 exactly for x <= lo and for
    x >= hi; the default is the whole line.  Each finite end is a break,
    graded from the side where the field is nonzero; the 1D operator
    evaluates the field wherever its rules put a node, beyond an end too,
    so the evaluator must give 0.0 there without a numpy warning.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    second_derivative: Optional[Callable[[np.ndarray], np.ndarray]] = None
    kinks: Tuple[float, ...] = ()
    tail: TailExpansion = field(default_factory=lambda: TailExpansion(0.0))
    name: str = ""
    support: Tuple[float, float] = (-math.inf, math.inf)

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        out = self.evaluate(arr)
        return float(out) if np.isscalar(x) or arr.ndim == 0 else out

    def c2_distance(self, x: float) -> float:
        """Distance from x to the nearest smoothness breakpoint."""
        if not self.kinks:
            return math.inf
        return min(abs(x - k) for k in self.kinks)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def constant(value: float) -> ScalarField:
    return ScalarField(
        evaluate=lambda x: np.full_like(np.asarray(x, dtype=float), value),
        second_derivative=np.zeros_like,
        kinks=(),
        tail=TailExpansion(0.0, ((value, 0.0),), ((value, 0.0),)),
        name=f"constant({value})",
    )


def truncated_power(alpha: float, L: float) -> ScalarField:
    """x -> x_+**alpha capped at the constant (2L)**alpha from x = 2L on."""
    if alpha <= 0 or L <= 0:
        raise DomainError("truncated_power requires alpha > 0 and L > 0")
    if alpha * math.log2(2.0 * L) >= 1023.0:  # a bit short of overflow, past log2's rounding
        raise DomainError(f"truncated_power's cap (2L)^alpha overflows at alpha={alpha}, L={L}")
    cap = (2.0 * L) ** alpha

    def ev(x):
        x = np.asarray(x, dtype=float)
        body = np.maximum(x, 0.0) ** alpha
        return np.where(x >= 2.0 * L, cap, np.where(x > 0.0, body, 0.0))

    def d2(x):
        x = np.asarray(x, dtype=float)
        body = (x > 0.0) & (x < 2.0 * L)
        xb = np.where(body, x, 1.0)  # no 0 ** (alpha - 2) off the body
        return np.where(body, alpha * (alpha - 1.0) * xb ** (alpha - 2.0), 0.0)

    return ScalarField(
        evaluate=ev,
        second_derivative=d2,
        kinks=(0.0, 2.0 * L),
        tail=TailExpansion(2.0 * L, ((cap, 0.0),), ()),
        name=f"w_alpha({alpha},L={L})",
        support=(0.0, math.inf),
    )


def parabola_cap() -> ScalarField:
    """x**2 - 1 inside [-1, 1], zero outside (compactly supported)."""

    def ev(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= 1.0, x * x - 1.0, 0.0)

    return ScalarField(
        evaluate=ev,
        second_derivative=lambda x: np.where(np.abs(x) < 1.0, 2.0, 0.0),
        kinks=(-1.0, 1.0),
        tail=TailExpansion(1.0),
        name="parabola_cap",
    )


def _clamp01(t):
    return np.clip(np.asarray(t, dtype=float), 0.0, 1.0)


def smoothstep(t):
    """C^2 quintic ramp: 0 for t<=0, 1 for t>=1, monotone in between."""
    t = _clamp01(t)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _smoothstep_d1(t):
    t = _clamp01(t)
    return 30.0 * t * t * (1.0 - t) ** 2


def _smoothstep_d2(t):
    t = _clamp01(t)
    return 60.0 * t * (1.0 - t) * (1.0 - 2.0 * t)


# ---------------------------------------------------------------------------
# radial fields for N >= 2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialField:
    """A radial function u(x) = profile(|x|) with compact support.

    Only compactly supported radial profiles are supported: that is all the
    higher-dimensional counterexample drivers need, and it keeps the tail
    bookkeeping exact.
    """

    profile: Callable[[np.ndarray], np.ndarray]
    d_profile: Callable[[np.ndarray], np.ndarray]
    dd_profile: Callable[[np.ndarray], np.ndarray]
    support_radius: float = 1.0
    kinks: Tuple[float, ...] = ()
    name: str = ""

    def __call__(self, r):
        arr = np.asarray(r, dtype=float)
        out = self.profile(arr)
        return float(out) if np.isscalar(r) or arr.ndim == 0 else out

    def laplacian(self, r, n_dim: int) -> np.ndarray:
        """Radial Laplacian profile'' + (N-1) profile' / r, and N profile''
        at r = 0, at each radius of the array r."""
        r = np.asarray(r, dtype=float)
        center = r == 0.0
        dd = self.dd_profile(r)
        return np.where(center, n_dim * dd,
                        dd + (n_dim - 1) * self.d_profile(r) / np.where(center, 1.0, r))

    def c2_distance(self, r: float) -> float:
        if not self.kinks:
            return math.inf
        return min(abs(r - k) for k in self.kinks)
