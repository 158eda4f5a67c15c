"""Galerkin assembly for the mixed bilinear form on an interval.

Trial and test functions are piecewise-linear hats on a uniform partition of
(a, b), extended by zero to the whole line, so the discrete space mimics the
zero-exterior Dirichlet setting.  The bilinear form is

    B(u, v) = int u' v' dx
            + (c_{1,s}/2) * intint (u(x)-u(y)) (v(x)-v(y)) / |x-y|^{1+2s} dx dy,

with the double integral running over all of R x R (exterior strips
included).

On a uniform mesh both parts are symmetric Toeplitz and a system keeps only
their first rows: (2, -1, 0, ...)/h, and c_{1,s} h^{1-2s} G(m) at offset m,
where G(m) is the finite-part moment of the hat-hat correlation (the cubic
B-spline, a fourth difference of the truncated cubic) against |z|^{-1-2s}:

    G(m) = delta^4 |m|^{3-2s} / ((3-2s)(2-2s)(1-2s)(2s)),

or delta^4 [m^2 log|m|] / 2 in the limit s = 1/2.  Dense matrices are built
only on request; products go through an FFT of a circulant embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, InputError, NumericalError
from .fields import ScalarField, TailExpansion
from .kernel import _MIN_C2_ZONE, OperatorParams, _legendre

_LOAD_GAUSS_X, _LOAD_GAUSS_W = _legendre(6)
_IMAGE_BLOCK = 2**13  # distances a chunk of image rows holds: 64 KiB a temporary


@dataclass(frozen=True)
class Mesh:
    """Uniform partition of (a, b) with n interior nodes; the spacing h and
    the nodes follow from (a, b, n), which alone make meshes equal."""

    a: float
    b: float
    n: int

    @cached_property
    def h(self) -> float:
        return (self.b - self.a) / (self.n + 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(1, self.n + 1)

    def element_edges(self) -> np.ndarray:
        """The n+2 element boundaries a = x_0 < ... < x_{n+1} = b."""
        return np.linspace(self.a, self.b, self.n + 2)

    def gauss_points(self):
        """Nodes, shape (n+1, 6), and weights of 6-point Gauss on each element."""
        edges = self.element_edges()
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * self.h
        return mid[:, None] + half * _LOAD_GAUSS_X[None, :], half * _LOAD_GAUSS_W


def build_mesh(a: float, b: float, n: int) -> Mesh:
    if not (a < b):
        raise DomainError("mesh requires a < b")
    if n < 1:
        raise DomainError("mesh requires at least one interior node")
    if n > np.iinfo(np.intp).max // 8:  # 8 n bytes of nodes could not be indexed
        raise DomainError(f"mesh of n = {n} nodes is too large to index")
    mesh = Mesh(float(a), float(b), int(n))
    if not (math.isfinite(a) and math.isfinite(b) and 0.0 < mesh.h < math.inf):
        raise DomainError(f"mesh requires finite a, b and spacing h > 0, got h = {mesh.h!r}")
    try:  # np.arange sizes from float(n): n >= 2^60 - 64 reads as 2^60
        nodes = mesh.nodes
    except (ValueError, MemoryError) as exc:
        raise DomainError(f"mesh of n = {n} nodes cannot be allocated ({exc})") from exc
    if not (a < nodes[0] and nodes[-1] < b and np.all(nodes[1:] > nodes[:-1])):
        raise DomainError(f"mesh spacing h = {mesh.h!r} is too fine for doubles on ({a!r}, {b!r}), "
                          f"which are {math.ulp(max(abs(a), abs(b)))!r} apart there")
    return mesh


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Nodal coefficients of the piecewise-linear interpolant, zero outside;
    compared and hashed by identity."""

    mesh: Mesh
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.mesh.n,):
            raise InputError("coefficient vector length must match node count")
        object.__setattr__(self, "coeffs", c)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.mesh.n else 0.0

    def frac_image(self, x, params: OperatorParams):
        """(-Delta)^s of the zero-extended interpolant at the points x: an
        array of x's shape, a float for a scalar x.  With slope jumps kappa_j
        at the knots x_j it is C sum_j kappa_j expm1((1-2s) log|x - x_j|) /
        (1-2s), C = c_{1,s}/(2s): the jumps sum to 0, and a term is
        log|x - x_j| at s = 1/2.  Rows are reduced by np.sum, so a point gives
        the same bits alone as in an array.  Points within 1e-12 of a knot
        are refused."""
        if params.n_dim != 1:
            raise DomainError("the interpolant is one-dimensional")
        knots, e = self.mesh.element_edges(), 1.0 - 2.0 * params.s
        jumps = np.diff(np.pad(self.coeffs, 2), 2) / self.mesh.h
        flat = np.asarray(x, dtype=float).ravel()
        out = np.empty(flat.size)
        rows = max(1, _IMAGE_BLOCK // knots.size)
        for i in range(0, flat.size, rows):
            dist = np.abs(flat[i:i + rows, None] - knots)
            near = flat[i:i + rows][dist.min(axis=1) < _MIN_C2_ZONE]
            if near.size:
                raise DomainError(f"evaluation point {near[0]} is within {_MIN_C2_ZONE} of a knot")
            log_d = np.log(dist, out=dist)
            terms = np.expm1(e * log_d) / e if e != 0.0 else log_d
            out[i:i + rows] = np.sum(jumps * terms, axis=-1)
        out *= params.c_ns / (2.0 * params.s)
        return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


def grid_interpolant(mesh: Mesh, coeffs: Sequence[float]) -> ScalarField:
    """Piecewise-linear field through the nodal values, zero beyond (a, b)."""
    xp = np.concatenate(([mesh.a], mesh.nodes, [mesh.b]))
    fp = np.concatenate(([0.0], np.asarray(coeffs, dtype=float), [0.0]))

    def ev(x):
        return np.interp(np.asarray(x, dtype=float), xp, fp, left=0.0, right=0.0)

    return ScalarField(
        evaluate=ev,
        kinks=tuple(xp),
        tail=TailExpansion(max(abs(mesh.a), abs(mesh.b))),
        name=f"interpolant(n={mesh.n})",
    )


# ---------------------------------------------------------------------------
# Toeplitz rows: closed-form entries
# ---------------------------------------------------------------------------

_FELT = 0.25 * float(np.finfo(float).eps)  # a term below this share of its sum is not felt
_FLOAT_TAIL = 32  # live offsets few enough to finish one at a time in floats


def _coef_ratio(p: float, k: int) -> float:
    """coef_{k+2} / coef_k of the series in _fourth_difference_moments."""
    return ((2.0 ** (k + 3) - 8.0) / (2.0 ** (k + 1) - 8.0)
            * (p - k) * (p - k - 1.0) / ((k + 1.0) * (k + 2.0)))


def _fourth_difference_moments(n: int, s: float) -> np.ndarray:
    """G(m) = delta^4 |m|^p / (p (p-1) (p-2) 2s), p = 3 - 2s, for m = 0..n-1.

    m <= 2: delta^4 of (|t|^p - t^j)/(p-2) = t^j expm1((p-j) log|t|)/(p-2),
    which holds at s = 1/2 too, as t^2 log|t|.  j = 2 at m = 0 and 1; the
    stencil of m = 2 has t >= 0, so there j is p rounded into {1, 2, 3},
    the monomial nearest |t|^p, which keeps the digits as s -> 1.  m >= 3:
    the series
    (2 sinh(D/2))^4 = sum_{k >= 4 even} (2^{k+1} - 8)/k! D^k with p (p-1) (p-2)
    cancelled; its terms are negative, and so are the sums.  A pass adds a
    term to the live offsets, a prefix that ends at the last offset still
    feeling its term (|term| > _FELT |sum|).  Passes run over arrays while
    more than _FLOAT_TAIL offsets are live; the rest are finished one at a
    time, top down, in floats: an offset stays live while it, or the offset
    above it, still feels its term.  Both make the same operations in the
    same order, so the row is the same to the bit.
    """
    p = 3.0 - 2.0 * s
    g = np.zeros(n)
    t = np.abs(np.arange(-2.0, 5.0))
    log_t = np.log(t, out=np.zeros_like(t), where=t > 0.0)
    e = p - 2.0

    def delta4(j: int) -> np.ndarray:
        phi = t**j * (np.expm1((p - j) * log_t) / e if e != 0.0 else log_t)
        return np.convolve(phi, [1.0, -4.0, 6.0, -4.0, 1.0], "valid")

    head = min(n, 3)
    nearest = min(3, max(1, round(p)))
    g[:head] = (np.append(delta4(2)[:2], delta4(nearest)[2])[:head]
                / (p * (p - 1.0) * 2.0 * s))
    m = np.arange(3.0, n)
    power = m ** (p - 4.0)
    inv_sq = 1.0 / (m * m)
    coef = (p - 3.0) / (2.0 * s)  # k = 4, where (2^{k+1} - 8)/k! = 1
    k, live, tail = 4, m.size, g[3:]
    while live > _FLOAT_TAIL:
        term = coef * power[:live]
        tail[:live] += term
        felt = term < _FELT * tail[:live]  # |term| > _FELT |sum|: both are <= 0
        last = int(felt[::-1].argmax())
        live = live - last if felt[live - 1 - last] else 0
        power[:live] *= inv_sq[:live]
        coef *= _coef_ratio(p, k)
        k += 2
    coefs, above = [coef], 0  # above: the passes the offset above ran
    sums, powers = tail[:live].tolist(), power[:live].tolist()
    for i, ratio in reversed(list(enumerate(inv_sq[:live].tolist()))):
        total, pw, passes = sums[i], powers[i], 0
        while True:
            if passes == len(coefs):
                coefs.append(coefs[-1] * _coef_ratio(p, k))
                k += 2
            term = coefs[passes] * pw
            total += term
            passes += 1
            if passes >= above and not term < _FELT * total:
                break
            pw *= ratio
        sums[i], above = total, passes
    tail[:live] = sums
    return g


def _nonlocal_row(mesh: Mesh, params: OperatorParams) -> np.ndarray:
    if params.n_dim != 1:
        raise DomainError("the Galerkin assembly is one-dimensional")
    s = params.s
    return params.c_ns * mesh.h ** (1.0 - 2.0 * s) * _fourth_difference_moments(mesh.n, s)


def _local_row(mesh: Mesh) -> np.ndarray:
    row = np.zeros(mesh.n)
    row[:2] = [2.0 / mesh.h, -1.0 / mesh.h][: mesh.n]
    return row


def _toeplitz(row: np.ndarray) -> np.ndarray:
    """Dense symmetric Toeplitz matrix with first row ``row``, as a fresh array."""
    return sliding_window_view(np.concatenate((row[:0:-1], row)), row.size)[::-1].copy()


def nonlocal_stiffness(mesh: Mesh, params: OperatorParams) -> np.ndarray:
    """Dense symmetric matrix of the full-plane Gagliardo form on the hats.

    Entries are (c_{1,s}/2) * intint over R x R of the hat-difference
    product against |x-y|^{-1-2s}, exterior strips included; the matrix is
    the Toeplitz expansion of the closed-form row.
    """
    return _toeplitz(_nonlocal_row(mesh, params))


def local_stiffness(mesh: Mesh) -> np.ndarray:
    """Tridiagonal gradient Gram matrix: 2/h on the diagonal, -1/h off it."""
    return _toeplitz(_local_row(mesh))


def load_vector(f: ScalarField, mesh: Mesh, *, samples: Optional[list] = None) -> np.ndarray:
    """Components int f phi_i, by 6-point Gauss on each element.  A list
    passed as ``samples`` receives the samples of f, shape (n+1, 6), and the
    Gauss weights, so a caller can reuse them."""
    edges = mesh.element_edges()
    pts, w = mesh.gauss_points()
    vals = f.evaluate(pts.ravel()).reshape(pts.shape)
    if not np.all(np.isfinite(vals)):
        raise InputError("load function produced non-finite samples")
    if samples is not None:
        samples.extend((vals, w))
    # on element k the rising hat is phi_{k} (node edges[k+1]), the falling
    # hat is phi_{k-1}; interior node i collects from elements i-1 and i
    t = pts - edges[:-1, None]
    t /= mesh.h
    weighted = w * vals
    rising = _sum_columns(weighted * t)     # weight of node at right edge
    np.subtract(1.0, t, out=t)  # (n+1, 6) temporaries cost: t turns into
    t *= weighted               # the falling hat's terms in place
    falling = _sum_columns(t)  # node at left edge
    b = np.zeros(mesh.n)
    b += rising[: mesh.n]
    b += falling[1 : mesh.n + 1]
    return b


def _sum_columns(x: np.ndarray) -> np.ndarray:
    """Row sums of x, shape (N, 6), added column after column.  np.sum(x,
    axis=1) adds in this order from +0.0, so the two differ at most in the
    sign of a zero sum, which load_vector's zero start erases; this avoids
    np.sum's slow loop over rows of six."""
    total = x[:, 0] + x[:, 1]
    for j in range(2, x.shape[1]):
        total += x[:, j]
    return total


def _odd_rfft(ext: np.ndarray, n: int) -> np.ndarray:
    """Imaginary part of the rfft of the odd extension of ext[1:n+1], which
    it writes into ext (length 2n+2, zero at 0 and n+1): minus the DST-I
    (scipy's type 1) of ext[1:n+1].  Squared, the DST-I is 2(n+1) I."""
    np.negative(ext[n:0:-1], out=ext[n + 2:])
    return np.fft.rfft(ext).imag[1:n + 1]


@dataclass(frozen=True, eq=False)
class StiffnessSystem:
    """First rows of the symmetric Toeplitz local and nonlocal stiffness;
    compared and hashed by identity."""

    local_row: np.ndarray
    nonlocal_row: np.ndarray
    params: OperatorParams
    mesh: Mesh

    @cached_property
    def row(self) -> np.ndarray:  # first row of local + nonlocal
        return self.local_row + self.nonlocal_row

    @cached_property
    def norm_inf(self) -> float:
        """||local + nonlocal||_inf from the row's cumulative sums (row i sums
        offsets up to i and up to n-1-i)."""
        cum = np.cumsum(np.abs(self.row))
        return float(np.max(cum + cum[::-1])) - abs(self.row[0])

    @cached_property
    def _embedding(self):
        """Length and spectrum of a circulant holding the matrix in its corner."""
        n = self.row.size
        size = 1 << (2 * n - 2).bit_length()
        col = np.concatenate((self.row, np.zeros(size + 1 - 2 * n), self.row[:0:-1]))
        return size, np.fft.rfft(col)

    @cached_property
    def tau(self) -> np.ndarray:
        """Spectrum of the tau matrix T - H(T), first column t - [t_2, ...,
        t_{n-1}, 0, 0], which the DST-I diagonalises; must be > 0."""
        row, n = self.row, self.row.size
        ext = np.zeros(2 * n + 2)
        ext[1:n + 1] = row - np.concatenate([row[2:], np.zeros(min(n, 2))])
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
            lam = -_odd_rfft(ext, n) / (2.0 * np.sin(np.pi * np.arange(1, n + 1) / (n + 1)))
        if not (lam.min() > 0.0 and lam.max() < math.inf):
            raise NumericalError("the tau spectrum of the Toeplitz row is not positive and finite",
                                 eigenvalue_estimate=float(lam.min()))
        return lam

    def apply(self, x: np.ndarray) -> np.ndarray:
        """(local + nonlocal) @ x in O(n log n), through the circulant embedding."""
        size, spectrum = self._embedding
        return np.fft.irfft(spectrum * np.fft.rfft(x, size), size)[: x.size]


def build_system(mesh: Mesh, params: OperatorParams) -> StiffnessSystem:
    """Assemble the rows of the discrete -Delta + (-Delta)^s on the mesh."""
    return StiffnessSystem(_local_row(mesh), _nonlocal_row(mesh, params), params, mesh)


def export_matrix(path, row: np.ndarray, comment: str = "") -> None:
    """Symmetric Toeplitz matrix with first row ``row`` as plain text: the
    banner ``%%matrix toeplitz symmetric real  <comment>``, the line ``n n n^2``
    (shape and entry count of the matrix), then one line ``k value`` for each
    offset k = |i - j| = 0..n-1, the entry to 17 significant digits."""
    row = np.asarray(row, dtype=float)
    n = len(row)
    with open(path, "w") as fh:
        fh.write(f"%%matrix toeplitz symmetric real  {comment}\n{n} {n} {n * n}\n")
        fh.writelines(f"{k} {v:.17g}\n" for k, v in enumerate(row.tolist()))
