"""Acceptance criteria, one test per criterion, each printing a status line.

Every tolerance is pinned here; timing-limited criteria measure their own
runtime.  Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import time

import numpy as np
import pytest

from mixlap import assembly, barrier, fields
from mixlap.assembly import build_mesh, build_system, nonlocal_stiffness
from mixlap.kernel import (OperatorParams, QuadratureSpec, mixed_apply,
                           normalization_constant)
from mixlap.solve import solve_dirichlet
from mixlap.verify import (check_boundary_lipschitz, check_linf_bound,
                           check_weak_mp, counterexample_boundary_only,
                           counterexample_ces, fit_boundary_exponent)

import oracles
from helpers import mollifier_bump, residual_check, without

QUAD = QuadratureSpec()


def _line(idx, ok, text):
    print(f"[criterion {idx:02d}] {'PASS' if ok else 'FAIL'}  {text}")
    assert ok, text


def test_criterion_01_normalization_constant():
    t0 = time.time()
    c1 = normalization_constant(1, 0.5)
    ref1 = oracles.norm_const_oracle_1d(0.5)
    t1 = time.time() - t0
    t0 = time.time()
    c2 = normalization_constant(2, 0.5)
    ref2 = oracles.norm_const_oracle_2d(0.5)
    t2 = time.time() - t0
    rel1 = abs(c1 - ref1) / ref1
    rel2 = abs(c2 - ref2) / ref2
    ok = rel1 <= 1e-8 and rel2 <= 1e-8 and t1 < 5.0 and t2 < 5.0
    _line(1, ok,
          f"normalization: rel errors {rel1:.2e}, {rel2:.2e} "
          f"(limit 1e-08); runtimes {t1:.2f}s, {t2:.2f}s (limit 5s)")


def test_criterion_02_nonlocal_stiffness_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    for n in (9, 17):
        mesh = build_mesh(-1.0, 1.0, n)
        for s in (0.25, 0.5, 0.75):
            params = OperatorParams(1, s)
            A = nonlocal_stiffness(mesh, params)
            ref_row = np.array(
                [oracles.nonlocal_entry_oracle(mesh, params, 0, j) for j in range(n)]
            )
            mid = n // 2
            ref_mid = oracles.nonlocal_entry_oracle(mesh, params, mid, mid)
            assert abs(A[mid, mid] - ref_mid) / abs(ref_mid) <= 1e-6
            for i in range(n):
                for j in range(n):
                    ref = ref_row[abs(i - j)]
                    worst = max(worst, abs(A[i, j] - ref) / abs(ref))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    _line(2, ok,
          f"stiffness vs 2D-quadrature oracle: worst rel {worst:.2e} "
          f"(limit 1e-06); runtime {elapsed:.1f}s (limit 60s)")


def test_criterion_03_weak_maximum_principle():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    all_ok = True
    worst = 0.0
    for s in (0.25, 0.5, 0.75):
        mesh = build_mesh(-1.0, 1.0, 255)
        sys_ = build_system(mesh, OperatorParams(1, s))
        for _ in range(20):
            f = assembly.grid_interpolant(mesh, np.abs(rng.standard_normal(mesh.n)))
            rep = check_weak_mp(solve_dirichlet(sys_, f))
            all_ok = all_ok and rep.passed
            worst = min(worst, rep.measured)
    elapsed = time.time() - t0
    ok = all_ok and elapsed < 120.0
    _line(3, ok,
          f"weak principle on 60 random loads: worst nodal min {worst:.2e}; "
          f"runtime {elapsed:.1f}s (limit 120s)")


def test_criterion_04_energy_ratio_stability():
    params = OperatorParams(1, 0.5)
    ratios = []
    for n in (127, 255, 511):
        rep = solve_dirichlet(build_system(build_mesh(-1.0, 1.0, n), params),
                              fields.constant(1.0))
        ratios.append(rep.ratio_energy)
    spread = (max(ratios) - min(ratios)) / min(ratios)
    ok = spread < 0.10
    _line(4, ok, f"energy ratio across n=127/255/511: spread {spread:.2%} (limit 10%)")


@pytest.mark.parametrize("s", [0.3, 0.5, 0.6, 0.75, 0.9])
def test_criterion_05_barrier_certificates(s):
    t0 = time.time()
    p = barrier.build_barrier(s)
    params = OperatorParams(1, s)
    gf = barrier.gamma_field(p)
    # fresh 200-point grid, independent of the builder's certification grid
    grid = p.ell * (np.linspace(1e-3, 0.985, 200) ** 1.5)
    lg_min = min(mixed_apply(gf, float(x), params, QUAD) for x in grid)
    gvals = gf.evaluate(grid)
    sandwich_ok = bool(
        np.all(gvals >= p.c_gamma * grid) and np.all(gvals <= grid / p.c_gamma)
    )
    recursion_ok = all(
        p.cs[j] == -p.kappas[j - 1] * p.cs[j - 1]
        / (p.ladder.alphas[j] * (p.ladder.alphas[j] - 1.0))
        for j in range(1, len(p.kappas) + 1)
    )
    signs_ok = all(k < 0.0 for k in p.kappas) and all(c > 0.0 for c in p.cs)
    lbeta_ok = p.certificate["lbeta_min"] >= -p.C2 - 10.0 * QUAD.tolerance
    elapsed = time.time() - t0
    ok = (lg_min >= 1.0 - 1e-4 and sandwich_ok and recursion_ok and signs_ok
          and lbeta_ok and elapsed < 180.0)
    _line(5, ok,
          f"s={s}: min L gamma {lg_min:.6g} (limit 1-1e-4); sandwich "
          f"c={p.c_gamma:.3g} ok={sandwich_ok}; recursion exact={recursion_ok}; "
          f"signs ok={signs_ok}; runtime {elapsed:.1f}s (limit 180s)")


def test_criterion_06_boundary_growth_contrast():
    params = OperatorParams(1, 0.75)
    f = fields.constant(1.0)
    mixed_fam = []
    nonlocal_fam = []
    for n in (63, 127, 255, 511):
        mesh = build_mesh(-1.0, 1.0, n)
        mixed_fam.append(solve_dirichlet(build_system(mesh, params), f))
        nonlocal_fam.append(
            solve_dirichlet(without(build_system(mesh, params), "local_row"), f)
        )
    band = 0.1
    e_mixed = fit_boundary_exponent(mixed_fam[-1], band)
    e_non = fit_boundary_exponent(nonlocal_fam[-1], band)
    ratio_rep = check_boundary_lipschitz(mixed_fam, band)
    ok = (abs(e_mixed - 1.0) <= 0.15 and abs(e_non - 0.75) <= 0.15
          and ratio_rep.passed)
    _line(6, ok,
          f"growth exponents: mixed {e_mixed:.3f} (target 1.0+-0.15), "
          f"pure nonlocal {e_non:.3f} (target 0.75+-0.15); "
          f"refinement ratio test {'passed' if ratio_rep.passed else 'failed'}")


@pytest.mark.parametrize("s", [0.1, 0.25, 0.4])
def test_criterion_07_wrong_sign_counterexample(s):
    rep = counterexample_ces(s)
    ok = rep.passed and "weak principle passed" in rep.notes
    _line(7, ok, f"s={s}: {rep.notes}")


def test_criterion_08_boundary_only_counterexample():
    rep = counterexample_boundary_only(2.0, 0.5, 511)
    _line(8, rep.passed, rep.notes)


def test_criterion_09_linf_stability():
    families = {
        "constant": fields.constant(1.0),
        "quadratic": fields.ScalarField(
            evaluate=lambda x: 1.0 + np.asarray(x, dtype=float) ** 2,
            name="1+x^2"),
        "bump": mollifier_bump(0.2, 0.5, 1.0),
    }
    params = OperatorParams(1, 0.5)
    msgs = []
    ok = True
    for name, f in families.items():
        fam = [solve_dirichlet(build_system(build_mesh(-1.0, 1.0, n), params), f)
               for n in (63, 127, 255)]
        rep = check_linf_bound(fam)
        ok = ok and rep.passed
        msgs.append(f"{name}: spread {rep.measured:.2%}")
    _line(9, ok, "sup-norm/load-norm stability (limit 50%): " + "; ".join(msgs))


def test_criterion_10_manufactured_residual_decay():
    params = OperatorParams(1, 0.6)
    u_man = mollifier_bump(0.0, 0.7, 1.0)
    cache = {}

    def f_eval(x):
        arr = np.asarray(x, dtype=float)
        out = np.empty(arr.size)
        for i, t in enumerate(arr.ravel()):
            t = float(t)
            if t not in cache:
                cache[t] = mixed_apply(u_man, t, params, QUAD)
            out[i] = cache[t]
        return out.reshape(arr.shape)

    f = fields.ScalarField(evaluate=f_eval, name="manufactured image")
    reps = [solve_dirichlet(build_system(build_mesh(-1.0, 1.0, n), params), f)
            for n in (63, 127, 255)]
    rep = residual_check(reps, f, params)
    _line(10, rep.passed, f"interior residual on |x|<=1/2: {rep.notes}")
