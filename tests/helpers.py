"""Test-only fields built from the library's ScalarField, and single-part
stiffness systems."""

import dataclasses
import math

import numpy as np

from mixlap.errors import DomainError
from mixlap.fields import ScalarField, TailExpansion


def pure_power(alpha: float) -> ScalarField:
    """x -> max(x, 0)**alpha; grows like x**alpha at +infinity."""
    if alpha <= 0:
        raise DomainError("pure_power requires a positive exponent")

    def ev(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.0, np.maximum(x, 0.0) ** alpha, 0.0)

    def d2(x):
        x = np.asarray(x, dtype=float)
        xp = np.where(x > 0.0, x, 1.0)
        return np.where(x > 0.0, alpha * (alpha - 1.0) * xp ** (alpha - 2.0), 0.0)

    return ScalarField(
        evaluate=ev,
        second_derivative=d2,
        kinks=(0.0,),
        tail=TailExpansion(1.0, ((1.0, alpha),), ()),
        name=f"x_+^{alpha}",
        graded_kinks=(0.0,),
    )


def scaled_tail(tail: TailExpansion, eps: float) -> TailExpansion:
    """Tail of x -> u(x/eps), where ``tail`` is the tail of u."""
    return TailExpansion(
        cutoff=tail.cutoff * eps,
        plus_terms=tuple((c * eps ** (-p), p) for c, p in tail.plus_terms),
        minus_terms=tuple((c * eps ** (-p), p) for c, p in tail.minus_terms),
    )


def scaled(u: ScalarField, eps: float) -> ScalarField:
    """x -> u(x / eps)."""
    if eps <= 0:
        raise DomainError("scaling factor must be positive")
    d2 = None
    if u.second_derivative is not None:
        d2 = lambda x: u.second_derivative(x / eps) / eps**2  # noqa: E731
    return ScalarField(
        evaluate=lambda x: u.evaluate(np.asarray(x, dtype=float) / eps),
        second_derivative=d2,
        kinks=tuple(k * eps for k in u.kinks),
        tail=scaled_tail(u.tail, eps),
        name=f"{u.name}(x/{eps})",
        graded_kinks=(None if u.graded_kinks is None
                      else tuple(k * eps for k in u.graded_kinks)),
    )


def translated(u: ScalarField, t: float) -> ScalarField:
    """x -> u(x - t).  Only supported for compact or constant tails."""
    if u.tail.max_power() > 0:
        raise DomainError("translation is only supported for bounded tails")
    d2 = None
    if u.second_derivative is not None:
        d2 = lambda x: u.second_derivative(x - t)  # noqa: E731
    return ScalarField(
        evaluate=lambda x: u.evaluate(np.asarray(x, dtype=float) - t),
        second_derivative=d2,
        kinks=tuple(k + t for k in u.kinks),
        tail=TailExpansion(u.tail.cutoff + abs(t), u.tail.plus_terms, u.tail.minus_terms),
        name=f"{u.name}(x-{t})",
        graded_kinks=(None if u.graded_kinks is None
                      else tuple(k + t for k in u.graded_kinks)),
    )


def linear_combination(coeffs, fields) -> ScalarField:
    """sum_k coeffs[k] * fields[k], with tails merged term by term."""
    coeffs = [float(c) for c in coeffs]
    fields = list(fields)
    if len(coeffs) != len(fields):
        raise DomainError("coefficient/field length mismatch")

    def ev(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for c, f in zip(coeffs, fields):
            out = out + c * f.evaluate(x)
        return out

    d2 = None
    if all(f.second_derivative is not None for f in fields):
        d2 = lambda x: sum(  # noqa: E731
            (c * f.second_derivative(x) for c, f in zip(coeffs, fields)),
            np.zeros_like(np.asarray(x, dtype=float)))
    cutoff = max([f.tail.cutoff for f in fields] + [0.0])
    plus = tuple((c * a, p) for c, f in zip(coeffs, fields) for a, p in f.tail.plus_terms)
    minus = tuple((c * a, p) for c, f in zip(coeffs, fields) for a, p in f.tail.minus_terms)
    kinks = tuple(sorted({k for f in fields for k in f.kinks}))
    graded = None
    if any(f.graded_kinks is not None for f in fields):
        graded = tuple(sorted({k for f in fields for k in
                               (f.kinks if f.graded_kinks is None else f.graded_kinks)}))
    return ScalarField(
        evaluate=ev,
        second_derivative=d2,
        kinks=kinks,
        tail=TailExpansion(cutoff, plus, minus),
        name="+".join(f"{c}*{f.name}" for c, f in zip(coeffs, fields)),
        graded_kinks=graded,
    )


def _bump_profile(t):
    """exp(-1/(1-t^2)) on |t|<1, zero outside; smooth on all of R."""
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    tt = np.where(inside, t, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(inside, np.exp(-1.0 / np.maximum(1.0 - tt * tt, 1e-300)), 0.0)


def mollifier_bump(center: float, radius: float, height: float = 1.0) -> ScalarField:
    """Smooth bump supported on (center - radius, center + radius), peak = height."""
    if radius <= 0:
        raise DomainError("bump radius must be positive")
    h = height * math.e  # profile peaks at exp(-1)

    def ev(x):
        x = np.asarray(x, dtype=float)
        return h * _bump_profile((x - center) / radius)

    def d2(x):
        t = (np.asarray(x, dtype=float) - center) / radius
        inside = np.abs(t) < 1.0
        t = np.where(inside, t, 0.0)
        g = 1.0 - t * t
        val = np.exp(-1.0 / g) * (4.0 * t * t / g**4 - 2.0 / g**2 - 8.0 * t * t / g**3)
        return np.where(inside, h * val / radius**2, 0.0)

    # the support edges are smooth but non-analytic; listing them as kinks,
    # all graded by default, routes dyadic panel grading there
    return ScalarField(
        evaluate=ev,
        second_derivative=d2,
        kinks=(center - radius, center + radius),
        tail=TailExpansion(abs(center) + radius),
        name=f"bump(c={center},r={radius})",
    )


def without(sys_, *parts):
    """The system with the named rows ("local_row", "nonlocal_row") zeroed:
    a single-part operator, for contrast runs."""
    return dataclasses.replace(sys_, **{part: np.zeros(sys_.mesh.n) for part in parts})
