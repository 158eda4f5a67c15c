"""Test-only fields built from the library's ScalarField."""

import numpy as np

from mixlap import fields
from mixlap.errors import DomainError


def pure_power(alpha: float) -> fields.ScalarField:
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

    return fields.ScalarField(
        evaluate=ev,
        second_derivative=d2,
        kinks=(0.0,),
        tail=fields.TailExpansion(1.0, ((1.0, alpha),), ()),
        name=f"x_+^{alpha}",
        graded_kinks=(0.0,),
    )
