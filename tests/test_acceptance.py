"""Acceptance suite: one test per criterion, each printing a PASS line.

Exact-arithmetic identities are compared with ==; float anchors carry the
stated tolerances.  Criteria with stated wall-clock limits assert them.
"""

import math
import random
import time

import numpy as np
import pytest

from nrtbounds.asymptotics import (
    H,
    be_curve,
    gv_curve,
    h_q,
    hamming_curve,
    lambda_asym,
    lp_curve,
    lp_curve_default_taus,
    lp_rate,
    phi_r2,
    plotkin_curve,
    psi_nets,
)
from nrtbounds.bounds import (
    R2Witness,
    _r2_roots,
    hamming,
    plotkin,
    r2_bound,
    r2_certificate,
    r2_region,
    rao,
    singleton,
    spectral_bound,
)
from nrtbounds.delsarte import solve_code_lp, solve_ooa_lp
from nrtbounds.krawtchouk import krawtchouk_table
from nrtbounds.scheme import build_blocks, build_operator, spectral_radius
from nrtbounds.space import (
    BudgetExceeded,
    LinearCode,
    SpaceParams,
    delta_crit,
    enumerate_shapes,
    row_reduce_mod,
    shape_count,
    shape_counts,
)
from oracles import (
    K_fourier_oracle,
    SearchBudget,
    brute_force_max_code,
    brute_force_min_ooa,
)
from test_krawtchouk import inner_product
from test_macwilliams import verify_duality
from test_scheme import P_eval, cd_check


def certificate(p, d, w):
    """`r2_certificate` of the witness w at distance d, with its region and
    counts built as `r2_bound` builds them."""
    return r2_certificate(p, d, w, r2_region(p, w, _r2_roots(p)), shape_counts(p))


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def test_criterion_01_orthogonality():
    start = time.time()
    for q in (2, 3):
        for r in (1, 2, 3):
            for n in (1, 2, 3, 4):
                p = SpaceParams(q, r, n)
                tbl = krawtchouk_table(p)
                shapes = list(enumerate_shapes(p))
                cols = {f: {e: tbl[(f, e)] for e in shapes} for f in shapes}
                for i, f in enumerate(shapes):
                    for g in shapes[i:]:
                        ip = inner_product(p, cols[f], cols[g])
                        want = shape_count(p, f) if f == g else 0
                        assert ip == want, (q, r, n, f, g)
    elapsed = time.time() - start
    assert elapsed < 60
    report(1, f"exact orthogonality over 24 spaces in {elapsed:.1f}s")


def test_criterion_02_fourier_oracle_equivalence():
    start = time.time()
    for q in (2, 3):
        for r in (1, 2):
            for n in (1, 2, 3):
                p = SpaceParams(q, r, n)
                tbl = krawtchouk_table(p)
                for f in enumerate_shapes(p):
                    for e in enumerate_shapes(p):
                        assert K_fourier_oracle(p, f, e) == tbl[(f, e)], (q, r, n, f, e)
    elapsed = time.time() - start
    assert elapsed < 120
    report(2, f"character-sum oracle equals product formula in {elapsed:.1f}s")


def test_criterion_03_three_term_and_christoffel_darboux():
    for q in (2, 3):
        for r in (1, 2):
            for n in (1, 2, 3, 4, 5):
                p = SpaceParams(q, r, n)
                tbl = krawtchouk_table(p)
                for kappa in range(0, min(3, n) + 1):
                    blk = build_blocks(p, kappa)
                    for e in enumerate_shapes(p):
                        for fi, f in enumerate(blk.rows):
                            lhs = P_eval(p, e) * tbl[(f, e)]
                            rhs = sum(
                                blk.a[fi][hi] * tbl[(h, e)]
                                for hi, h in enumerate(blk.cols_up)
                            )
                            rhs += sum(
                                blk.b[fi][hi] * tbl[(h, e)]
                                for hi, h in enumerate(blk.rows)
                            )
                            rhs += sum(
                                blk.c[fi][hi] * tbl[(h, e)]
                                for hi, h in enumerate(blk.cols_down)
                            )
                            assert lhs == rhs, (q, r, n, kappa, e, f)
    p = SpaceParams(2, 2, 3)
    for kappa in (0, 1, 2):
        for a in enumerate_shapes(p):
            for e in enumerate_shapes(p):
                assert cd_check(p, kappa, a, e), (kappa, a, e)
    report(3, "three-term and Christoffel-Darboux identities exact")


def test_criterion_04_generating_function_column_sums():
    for q in (2, 3):
        for r in (1, 2, 3):
            for n in (1, 2, 3, 4):
                p = SpaceParams(q, r, n)
                tbl = krawtchouk_table(p)
                shapes = list(enumerate_shapes(p))
                zero = (0,) * r
                for e in shapes:
                    total = sum(tbl[(f, e)] for f in shapes)
                    assert total == (p.ambient_size if e == zero else 0), (q, r, n, e)
    report(4, "column sums equal ambient size at zero, vanish elsewhere")


def test_criterion_05_macwilliams_duality():
    start = time.time()
    rng = random.Random(20260810)
    for q in (2, 3):
        for n in (2, 3):
            p = SpaceParams(q, 2, n)
            seen = 0
            while seen < 50:
                k = rng.randint(1, p.dim)
                rows = [
                    [rng.randrange(q) for _ in range(p.dim)] for _ in range(k)
                ]
                reduced = row_reduce_mod(rows, q)
                if not reduced:
                    continue
                code = LinearCode(
                    params=p, generators=tuple(tuple(row) for row in reduced)
                )
                assert verify_duality(code), (q, n, code.generators)
                seen += 1
    elapsed = time.time() - start
    assert elapsed < 60
    report(5, f"transform matches exhaustive duals on 200 codes in {elapsed:.1f}s")


def test_criterion_06_lp_sandwich():
    budget = SearchBudget(max_nodes=2_000_000)
    oracle_hits = 0
    for r in (1, 2):
        for n in (1, 2, 3):
            p = SpaceParams(2, r, n)
            for d in range(1, p.dim + 2):
                exact = brute_force_max_code(p, d)
                lp = solve_code_lp(p, d).bound
                assert exact <= lp, ("lower", r, n, d)
                for bound in (singleton(p, d), hamming(p, d), plotkin(p, d)):
                    if bound.applicable:
                        assert lp <= bound.value, (bound.name, r, n, d)
            for t in range(0, p.dim + 1):
                lp = solve_ooa_lp(p, t).bound
                assert rao(p, t).value <= lp, ("rao", r, n, t)
                try:
                    oracle = brute_force_min_ooa(p, t, budget=budget)
                except BudgetExceeded:
                    continue
                assert lp <= oracle, ("oracle", r, n, t)
                oracle_hits += 1
    assert oracle_hits >= 15
    report(6, f"oracle <= LP <= analytic bounds, {oracle_hits} array instances")


def test_criterion_07_pinned_lp_values():
    assert solve_code_lp(SpaceParams(2, 1, 3), 3).bound == 2
    assert solve_code_lp(SpaceParams(2, 2, 1), 2).bound == 2
    assert solve_ooa_lp(SpaceParams(2, 1, 3), 2).bound == 4
    report(7, "pinned program values 2, 2, 4 exact")


def test_criterion_08_dual_construction_sanity():
    for r, n_max in ((1, 4), (2, 4)):
        for n in range(1, n_max + 1):
            p = SpaceParams(2, r, n)
            for d in range(1, p.dim + 2):
                lp = solve_code_lp(p, d).bound
                sb = spectral_bound(p, d)
                if sb.applicable:
                    assert sb.value + 1e-9 >= lp, ("spectral", r, n, d)
                if r == 2:
                    rb = r2_bound(p, d)
                    if rb.applicable:
                        assert rb.value + 1e-9 >= lp, ("r2", r, n, d)
    p8 = SpaceParams(2, 2, 8)
    res = r2_bound(p8, 12)
    assert res.applicable
    assert res.value == pytest.approx(6.0, abs=1e-6)  # frozen after first verified run
    cert, check = certificate(p8, 12, R2Witness(**res.witness))
    assert check.accepted  # slack within 1e-8 of scale by the checker contract
    report(8, "spectral and depth-2 bounds dominate the programs; certificate ok")


def test_criterion_09_asymptotic_anchors():
    for q in (2, 3):
        dc = float(delta_crit(q, 1))
        for j in range(1, 101):
            x = dc * j / 100
            assert abs(H(q, 1, x) - h_q(q, x)) < 1e-10, (q, x)
    for q in (2, 3, 4):
        for r in (1, 2, 3, 4):
            assert abs(H(q, r, float(delta_crit(q, r))) - 1.0) < 1e-9, (q, r)
    for delta in (1e-6, 1e-9):
        pt = psi_nets(2, delta)
        a = pt.alpha
        assert abs(delta * a * a + (delta + 1) * a - 1) < 1e-12  # the quadratic at q = 2
        assert pt.rate < 1e-4
    report(9, "volume exponent anchors and net-curve root residuals hold")


def test_criterion_10_curve_dominance():
    q, r = 2, 2
    dc = float(delta_crit(q, r))
    # the 400 deltas dc j / 400 as one array; an array call gives the bits
    # of the float calls (test_sphere_exponent_arrays_match_floats)
    deltas = np.array([dc * j / 400 for j in range(1, 401)])
    curves = {
        fn.__name__: fn(q, r, deltas).tolist()
        for fn in (gv_curve, hamming_curve, plotkin_curve, be_curve)
    }
    points = deltas.tolist()
    for delta, b, h in zip(points[:-1], curves["be_curve"], curves["hamming_curve"]):
        assert b <= h - 1e-9, delta
    for name in ("hamming_curve", "plotkin_curve", "be_curve"):
        for delta, g, upper in zip(points, curves["gv_curve"], curves[name]):
            assert g <= upper + 1e-9, (name, delta)
    for name, vals in curves.items():
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:])), name
    pts = lp_curve(q, r, lp_curve_default_taus(q, 50))
    for pt in pts:
        if 0 < pt.delta < dc:
            assert gv_curve(q, r, pt.delta) <= pt.rate + 1e-9
    rates = [pt.rate for pt in pts]
    assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))
    report(10, "translate-count curve under sphere-packing curve; dominance holds")


def test_criterion_11_lp_curve_reduction():
    start = time.time()
    for tau in [j / 200 * 0.5 for j in range(1, 201)]:
        lam, _ = lambda_asym(2, 1, tau)
        delta = 0.5 - lam
        reference = h_q(2, 0.5 - math.sqrt(delta * (1 - delta)))
        assert abs(lp_rate(2, 1, tau) - reference) < 1e-6, tau
    elapsed = time.time() - start
    assert elapsed < 60
    report(11, f"depth-one curve equals classical reference in {elapsed:.1f}s")


def test_criterion_12_phi_anchors():
    dc = float(delta_crit(2, 2))
    assert abs(phi_r2(2, dc)) < 1e-9
    for delta in (0.01, 0.02, 0.03):
        assert phi_r2(2, delta) == 1.0
    grid = [dc * j / 25 for j in range(2, 26)]
    vals = [phi_r2(2, d) for d in grid]
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))
    report(12, "depth-2 curve anchors and monotonicity hold")


def test_criterion_13_finite_to_asymptotic_consistency():
    tau = 0.3
    lam_limit, _ = lambda_asym(2, 2, tau)
    deficits = []
    for n in (40, 80, 160):
        kappa = int(tau * n)
        lo, hi = spectral_radius(build_operator(SpaceParams(2, 2, n), kappa))
        scaled = lo / n
        assert scaled >= lam_limit - 0.05, (n, scaled, lam_limit)
        deficits.append(lam_limit - scaled)
    assert deficits[0] > deficits[1] > deficits[2]
    report(13, f"eigenvalue profile approaches the limit, deficits {deficits}")
