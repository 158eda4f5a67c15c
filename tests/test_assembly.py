import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import toeplitz

from mixlap import assembly, fields, kernel
from mixlap.assembly import (GridFunction, _fourth_difference_moments,
                             build_mesh, build_system, export_matrix,
                             grid_interpolant, load_vector, local_stiffness,
                             nonlocal_stiffness)
from mixlap.errors import DomainError, InputError
from mixlap.kernel import OperatorParams

import oracles
from helpers import (bilinear_eval, fourth_difference_moments_reference,
                     mollifier_bump)

# iterated-adaptive oracle values for the 9-node mesh on (-1, 1) at s = 1/2,
# frozen from tests/oracles.nonlocal_entry_oracle
_FROZEN_N9_S05 = {
    (0, 0): 0.882542400610607,
    (0, 4): -0.0212703186312225,
    (0, 8): -0.0050531813964906,
}


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------


def test_build_mesh_single_node():
    mesh = build_mesh(-1.0, 1.0, 1)
    assert mesh.h == 1.0
    assert np.allclose(mesh.nodes, [0.0])


def test_build_mesh_three_nodes():
    mesh = build_mesh(-1.0, 1.0, 3)
    assert mesh.h == 0.5
    assert np.allclose(mesh.nodes, [-0.5, 0.0, 0.5])


def test_build_mesh_offset_interval():
    mesh = build_mesh(0.0, 2.0, 7)
    assert mesh.h == 0.25
    assert mesh.nodes.size == 7


def test_mesh_holds_a_b_n_and_derives_h_and_the_nodes():
    first, second = build_mesh(-1.0, 1.0, 15), build_mesh(-1.0, 1.0, 15)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert [f.name for f in dataclasses.fields(assembly.Mesh)] == ["a", "b", "n"]
    with pytest.raises(TypeError):
        assembly.Mesh(-1.0, 1.0, 15, h=0.125)
    with pytest.raises(TypeError):
        assembly.Mesh(-1.0, 1.0, 15, nodes=np.zeros(15))
    h = (1.0 - -1.0) / (15 + 1)
    assert first.h == h
    assert first.nodes.tobytes() == (-1.0 + h * np.arange(1, 16)).tobytes()
    # a replaced mesh derives its own spacing and nodes
    finer = dataclasses.replace(first, n=31)
    assert finer.h == 2.0 / 32 and finer.nodes.size == 31


def test_build_mesh_errors():
    with pytest.raises(DomainError):
        build_mesh(1.0, -1.0, 5)
    with pytest.raises(DomainError):
        build_mesh(0.0, 1.0, 0)


@pytest.mark.parametrize("n", [np.iinfo(np.intp).max // 8 + 1, 2**62, 2**63, 2**64])
def test_build_mesh_refuses_a_node_count_it_cannot_index(n):
    # 8 n bytes of nodes past the largest array index: refused before any
    # array is made
    with pytest.raises(DomainError, match="too large to index"):
        build_mesh(-1.0, 1.0, n)


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 1.0), (-1e308, 1e308),
                                  (0.0, 5e-324)])
def test_build_mesh_refuses_non_finite_ends_and_spacing(a, b):
    # (-1e308, 1e308) has finite ends but b - a overflows; (0, 5e-324)
    # has a spacing that underflows to 0
    with pytest.raises(DomainError, match="finite"):
        build_mesh(a, b, 127)


@pytest.mark.parametrize("n", [2**60 - 1, 2**60 - 64, 2**58])
def test_build_mesh_refuses_a_node_count_it_cannot_allocate(n):
    # indexable, but np.arange reads n >= 2^60 - 64 as 2^60 (ValueError) and
    # 8 n bytes at 2^58 are more than any machine maps (MemoryError)
    with pytest.raises(DomainError, match="cannot be allocated"):
        build_mesh(-1.0, 1.0, n)


def test_build_mesh_refuses_a_spacing_the_doubles_cannot_hold():
    # h = 1/64 on an interval where doubles are 1/8 apart: 15 nodes would
    # take only 3 distinct values
    with pytest.raises(DomainError, match=r"h = 0\.015625 .* 0\.125 apart"):
        build_mesh(1e15, 1.0000000000000002e15, 15)


@pytest.mark.parametrize("a, b, n", [(0.0, 1e-150, 63), (-1e100, 1e100, 15),
                                     (1e15, 1e15 + 16.0, 15), (-1.0, 1.0, 100_001)])
def test_build_mesh_keeps_every_spacing_the_doubles_hold(a, b, n):
    mesh = build_mesh(a, b, n)
    edges = mesh.element_edges()
    assert np.all(np.diff(edges) > 0.0) and np.array_equal(edges[1:-1], mesh.nodes)


@pytest.mark.parametrize("nodes, weights, order", [
    (kernel._GX, kernel._GW, 12),
    (assembly._LOAD_GAUSS_X, assembly._LOAD_GAUSS_W, 6),
], ids=["kernel", "assembly"])
def test_gauss_rules_are_the_generated_legendre_rules(nodes, weights, order):
    # kernel._legendre is the one source of Gauss-Legendre rules; its rules
    # are held to Legendre exactness and to numpy's by
    # test_kernel.py::test_generated_rules_are_gauss_legendre
    x, w = kernel._legendre(order)
    assert nodes.tobytes() == x.tobytes() and weights.tobytes() == w.tobytes()


# ---------------------------------------------------------------------------
# local stiffness
# ---------------------------------------------------------------------------


def test_local_single_node():
    mesh = build_mesh(-1.0, 1.0, 1)
    assert np.allclose(local_stiffness(mesh), [[2.0]])


def test_local_two_nodes():
    mesh = build_mesh(0.0, 1.0, 2)
    K = local_stiffness(mesh)
    assert np.allclose(np.diag(K), [6.0, 6.0])
    assert K[0, 1] == pytest.approx(-3.0)


def test_local_interior_row_sums_vanish():
    mesh = build_mesh(-1.0, 1.0, 9)
    K = local_stiffness(mesh)
    sums = K.sum(axis=1)
    assert np.allclose(sums[1:-1], 0.0, atol=1e-12)


def test_local_poincare_echo():
    # smallest eigenvalue of the lumped-mass-normalized gradient matrix
    # dominates pi^2/(b-a)^2 up to the stated mesh correction
    for n in (15, 31, 63):
        mesh = build_mesh(-1.0, 1.0, n)
        K = local_stiffness(mesh) / mesh.h
        lam = float(np.linalg.eigvalsh(K)[0])
        target = math.pi**2 / (mesh.b - mesh.a) ** 2 * (1.0 - 10.0 / n**2)
        assert lam >= target


# ---------------------------------------------------------------------------
# nonlocal stiffness
# ---------------------------------------------------------------------------


def test_nonlocal_symmetry_and_psd():
    mesh = build_mesh(-1.0, 1.0, 17)
    rng = np.random.default_rng(7)
    for s in (0.25, 0.5, 0.75):
        A = nonlocal_stiffness(mesh, OperatorParams(1, s))
        assert np.allclose(A, A.T, atol=0.0)
        for _ in range(100):
            x = rng.standard_normal(17)
            assert x @ A @ x >= 0.0


def test_nonlocal_frozen_fixture_entries():
    mesh = build_mesh(-1.0, 1.0, 9)
    A = nonlocal_stiffness(mesh, OperatorParams(1, 0.5))
    for (i, j), ref in _FROZEN_N9_S05.items():
        assert A[i, j] == pytest.approx(ref, rel=1e-8)


def test_oracle_reproduces_frozen_fixture_entries():
    # the frozen values came from the oracle; this guards the oracle itself
    mesh = build_mesh(-1.0, 1.0, 9)
    params = OperatorParams(1, 0.5)
    for (i, j), ref in _FROZEN_N9_S05.items():
        assert oracles.nonlocal_entry_oracle(mesh, params, i, j) == pytest.approx(
            ref, rel=1e-8)


def test_nonlocal_matches_live_oracle_small_mesh():
    mesh = build_mesh(-1.0, 1.0, 5)
    params = OperatorParams(1, 0.6)
    A = nonlocal_stiffness(mesh, params)
    for i in range(5):
        for j in range(i, 5):
            ref = oracles.nonlocal_entry_oracle(mesh, params, i, j)
            assert A[i, j] == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_row_matches_fourth_difference_oracle_far_out(s):
    # n = 100001 reaches offset 1e5, where a power-moment expansion of the
    # spline pieces has lost every digit; the row is built, no dense matrix
    mesh = build_mesh(-1.0, 1.0, 100_001)
    params = OperatorParams(1, s)
    row = build_system(mesh, params).nonlocal_row
    scale = params.c_ns * mesh.h ** (1.0 - 2.0 * s)
    for m in (3, 100, 1_000, 10_000, 100_000):
        ref = scale * oracles.row_moment_oracle(s, m)
        assert abs(row[m] - ref) <= 1e-13 * abs(ref), (s, m)


@pytest.mark.parametrize("s", [1e-6, 0.05, 0.25, 0.5, 0.75, 0.99, 1.0 - 1e-6])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 17, 255, 1535, 2047, 100_001])
def test_row_series_is_bit_identical_to_the_array_loop(n, s):
    # the offsets finished one at a time in floats make the same operations
    # in the same order as the array passes over every live offset
    row = _fourth_difference_moments(n, s)
    assert row.tobytes() == fourth_difference_moments_reference(n, s).tobytes()


@pytest.mark.parametrize("s", [0.05, 0.25, 0.5, 0.75, 0.99])
def test_row_matches_fourth_difference_oracle_near_diagonal(s):
    # offsets 0, 1, 2 take a direct fourth difference, whose cancellation
    # grows as s -> 1 unless the nearest monomial is taken out first
    mesh = build_mesh(-1.0, 1.0, 5)
    params = OperatorParams(1, s)
    row = build_system(mesh, params).nonlocal_row
    scale = params.c_ns * mesh.h ** (1.0 - 2.0 * s)
    for m in (0, 1, 2):
        ref = scale * oracles.row_moment_oracle(s, m)
        assert abs(row[m] - ref) <= 1e-13 * abs(ref), (s, m)


@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.6, 0.75])
def test_hat_image_pairs_with_a_hat_to_the_stiffness_row(s):
    # Galerkin consistency: int phi_m (-Delta)^s phi_0 = row[m], with the
    # image of phi_0 in closed form and the pairing by mpmath quadrature
    mesh = build_mesh(-1.0, 1.0, 7)
    params = OperatorParams(1, s)
    row = build_system(mesh, params).nonlocal_row
    hat = GridFunction(mesh, np.eye(7)[0])
    for m in range(4):
        pairing = oracles.hat_pairing(lambda x: hat.frac_image(x, params),
                                      float(mesh.nodes[m]), mesh.h, s)
        assert abs(pairing - row[m]) <= 1e-10 * abs(row[0]), (s, m)


def test_row_oracle_agrees_with_spline_moment_quadrature():
    for s in (0.25, 0.5, 0.75):
        for m in (3, 100):
            assert oracles.row_moment_oracle(s, m) == pytest.approx(
                oracles.spline_moment_oracle(s, m), rel=1e-14)


def test_dense_matrices_expand_the_rows():
    mesh = build_mesh(-1.0, 1.0, 9)
    params = OperatorParams(1, 0.3)
    sys_ = build_system(mesh, params)
    assert np.array_equal(nonlocal_stiffness(mesh, params)[3], np.concatenate(
        (sys_.nonlocal_row[3:0:-1], sys_.nonlocal_row[:6])))


@pytest.mark.parametrize("n", [1, 2, 3, 17, 1023])
@pytest.mark.parametrize("s", [0.25, 0.5])
def test_dense_builders_match_scipy_toeplitz(n, s):
    mesh = build_mesh(-1.0, 1.0, n)
    params = OperatorParams(1, s)
    sys_ = build_system(mesh, params)
    rows = (sys_.local_row, sys_.nonlocal_row, sys_.row)
    saved = [r.copy() for r in rows]
    built = {
        "local_stiffness": (local_stiffness(mesh), sys_.local_row),
        "nonlocal_stiffness": (nonlocal_stiffness(mesh, params), sys_.nonlocal_row),
    }
    for name, (mat, row) in built.items():
        ref = toeplitz(row)
        assert (mat.shape, mat.dtype) == (ref.shape, ref.dtype), name
        assert mat.tobytes() == ref.tobytes(), name  # bit for bit, signed zeros too
        assert mat.flags.c_contiguous and mat.flags.writeable, name
        mat[...] = np.nan  # a fresh array: the rows it came from stay put
    for r, before in zip(rows, saved):
        assert np.array_equal(r, before)


def test_nonlocal_offdiagonal_signs_reported():
    # sign structure is observed, not asserted as an invariant: record that
    # the first row is positive on the diagonal for the orders tested
    mesh = build_mesh(-1.0, 1.0, 9)
    for s in (0.25, 0.5, 0.75):
        A = nonlocal_stiffness(mesh, OperatorParams(1, s))
        assert A[0, 0] > 0.0


# ---------------------------------------------------------------------------
# load vector
# ---------------------------------------------------------------------------


def test_load_zero():
    mesh = build_mesh(-1.0, 1.0, 9)
    assert np.allclose(load_vector(fields.constant(0.0), mesh), 0.0)


def test_load_constant_one_gives_h():
    mesh = build_mesh(-1.0, 1.0, 9)
    b = load_vector(fields.constant(1.0), mesh)
    assert np.allclose(b, mesh.h, rtol=1e-13)


def test_load_odd_function_antisymmetric():
    mesh = build_mesh(-1.0, 1.0, 9)
    f = fields.ScalarField(evaluate=lambda x: np.asarray(x, dtype=float))
    b = load_vector(f, mesh)
    assert np.allclose(b, -b[::-1], atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 255, 2047])
def test_load_vector_is_bit_identical_to_numpy_row_sums(n):
    # the element sums are added column by column, in np.sum's own order
    mesh = build_mesh(-1.0, 2.0, n)
    f = fields.ScalarField(evaluate=lambda x: np.sin(7.0 * np.asarray(x)) * np.exp(x))
    pts, w = mesh.gauss_points()
    vals = f.evaluate(pts.ravel()).reshape(pts.shape)
    t = (pts - mesh.element_edges()[:-1, None]) / mesh.h
    ref = np.zeros(n)
    ref += np.sum(w * vals * t, axis=1)[:n]
    ref += np.sum(w * vals * (1.0 - t), axis=1)[1:]
    assert load_vector(f, mesh).tobytes() == ref.tobytes()


def test_load_rejects_nonfinite():
    mesh = build_mesh(-1.0, 1.0, 3)
    bad = fields.ScalarField(evaluate=lambda x: np.full_like(np.asarray(x, float), np.nan))
    with pytest.raises(InputError):
        load_vector(bad, mesh)


# ---------------------------------------------------------------------------
# bilinear form
# ---------------------------------------------------------------------------


def test_bilinear_dominates_gradient_part():
    mesh = build_mesh(-1.0, 1.0, 15)
    sys_ = build_system(mesh, OperatorParams(1, 0.5))
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = GridFunction(mesh, rng.standard_normal(15))
        assert bilinear_eval(u, u, sys_) >= float(u.coeffs @ local_stiffness(mesh) @ u.coeffs) - 1e-12


def test_bilinear_symmetric_and_zero():
    mesh = build_mesh(-1.0, 1.0, 15)
    sys_ = build_system(mesh, OperatorParams(1, 0.75))
    rng = np.random.default_rng(4)
    u = GridFunction(mesh, rng.standard_normal(15))
    v = GridFunction(mesh, rng.standard_normal(15))
    assert bilinear_eval(u, v, sys_) == pytest.approx(bilinear_eval(v, u, sys_), rel=1e-14)
    z = GridFunction(mesh, np.zeros(15))
    assert bilinear_eval(z, v, sys_) == 0.0


def test_bilinear_mesh_mismatch():
    sys_ = build_system(build_mesh(-1.0, 1.0, 15), OperatorParams(1, 0.5))
    other = build_mesh(-1.0, 1.0, 7)
    u = GridFunction(other, np.zeros(7))
    with pytest.raises(DomainError):
        bilinear_eval(u, u, sys_)


def test_equal_meshes_compare_and_hash_equal():
    a, b = build_mesh(-1.0, 1.0, 7), build_mesh(-1.0, 1.0, 7)
    assert a == b and hash(a) == hash(b)
    assert a != build_mesh(-1.0, 1.0, 9) and a != build_mesh(0.0, 1.0, 7)
    assert a != "mesh"


def test_grid_functions_and_systems_compare_and_hash_by_identity():
    mesh = build_mesh(-1.0, 1.0, 7)
    u, v = GridFunction(mesh, np.ones(7)), GridFunction(mesh, np.ones(7))
    a, b = build_system(mesh, OperatorParams(1, 0.5)), build_system(mesh, OperatorParams(1, 0.5))
    for x, y in ((u, v), (a, b)):
        assert (x == y) is False and (x == x) is True
        assert len({x, y}) == 2


def test_bilinear_accepts_an_equal_mesh_built_separately():
    sys_ = build_system(build_mesh(-1.0, 1.0, 15), OperatorParams(1, 0.5))
    rng = np.random.default_rng(5)
    u = GridFunction(build_mesh(-1.0, 1.0, 15), rng.standard_normal(15))
    v = GridFunction(build_mesh(-1.0, 1.0, 15), rng.standard_normal(15))
    ref = float(u.coeffs @ toeplitz(sys_.row) @ v.coeffs)
    assert bilinear_eval(u, v, sys_) == pytest.approx(ref, rel=1e-12)


def test_combined_matrix_positive_definite():
    mesh = build_mesh(-1.0, 1.0, 31)
    for s in (0.25, 0.5, 0.75):
        sys_ = build_system(mesh, OperatorParams(1, s))
        lam = np.linalg.eigvalsh(toeplitz(sys_.row))
        assert lam[0] > 0.0


def test_refinement_consistency_of_energy():
    # B(I_h u, I_h u) settles as h -> 0 for a fixed smooth compactly
    # supported u: successive differences shrink on the last levels
    params = OperatorParams(1, 0.6)
    u = mollifier_bump(0.0, 0.6, 1.0)
    energies = []
    for n in (15, 31, 63, 127, 255):
        mesh = build_mesh(-1.0, 1.0, n)
        sys_ = build_system(mesh, params)
        g = GridFunction(mesh, u.evaluate(mesh.nodes))
        energies.append(bilinear_eval(g, g, sys_))
    diffs = [abs(a - b) for a, b in zip(energies[:-1], energies[1:])]
    assert diffs[-1] < diffs[-2] < diffs[-3]


def _read_row(path):
    """Header tokens and the first row of a Toeplitz dump, parsed by offset."""
    lines = path.read_text().splitlines()
    pairs = [ln.split() for ln in lines[2:]]
    assert [int(k) for k, _ in pairs] == list(range(len(pairs)))
    return lines, np.array([float(v) for _, v in pairs])


def test_export_matrix_roundtrip(tmp_path):
    mesh = build_mesh(-1.0, 1.0, 3)
    A = nonlocal_stiffness(mesh, OperatorParams(1, 0.5))
    path = tmp_path / "mat.txt"
    export_matrix(path, A[0], comment="test")
    lines, row = _read_row(path)
    assert lines[0] == "%%matrix toeplitz symmetric real  test"
    assert lines[1].split() == ["3", "3", "9"]
    assert toeplitz(row).tobytes() == A.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 17])
@pytest.mark.parametrize("s", [0.25, 0.5])
def test_export_matrix_matches_entrywise_writer(tmp_path, n, s):
    # one line per offset, each entry formatted on its own to 17 digits
    sys_ = build_system(build_mesh(-1.0, 1.0, n), OperatorParams(1, s))
    path = tmp_path / "row.txt"
    export_matrix(path, sys_.row, comment=f"s={s} n={n}")
    lines, row = _read_row(path)
    assert len(lines) == n + 2
    assert lines[1] == f"{n} {n} {n * n}"
    for k in range(n):
        assert lines[k + 2] == f"{k} {sys_.row[k]:.17g}"
    assert toeplitz(row).tobytes() == toeplitz(sys_.row).tobytes()


def test_grid_interpolant_zero_extension():
    mesh = build_mesh(-1.0, 1.0, 3)
    f = grid_interpolant(mesh, [1.0, 2.0, 1.0])
    assert f(0.0) == 2.0
    assert f(-5.0) == 0.0 and f(5.0) == 0.0
    assert f(mesh.a) == 0.0 and f(mesh.b) == 0.0
