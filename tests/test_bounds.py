import json
from fractions import Fraction

import pytest

from nrtbounds.bounds import (
    R2Witness,
    _r2_roots,
    bassalygo_elias,
    best_bounds,
    dual_plotkin_ooa,
    gilbert,
    hamming,
    johnson,
    plotkin,
    r2_bound,
    r2_certificate,
    r2_region,
    rao,
    singleton,
    spectral_bound,
    varshamov,
)
from nrtbounds.cli import _json
from nrtbounds.delsarte import solve_code_lp
from nrtbounds.krawtchouk import K_multi
from nrtbounds.space import SpaceParams, ball_size, delta_crit, enumerate_shapes, shape_counts
from oracles import brute_force_max_code, constant_weight_max

P22 = SpaceParams(2, 2, 2)


def array_row(p, t, name):
    """The array bound `name` at strength t: its row of best_bounds at
    distance t + 1."""
    return next(b for b in best_bounds(p, t + 1).bounds if b.name == name)


def certificate(p, d, w):
    """`r2_certificate` of the witness w at distance d, with its region and
    counts built as `r2_bound` builds them."""
    return r2_certificate(p, d, w, r2_region(p, w, _r2_roots(p)), shape_counts(p))


@pytest.mark.parametrize("bound", [rao, dual_plotkin_ooa])
@pytest.mark.parametrize("q,r,n", [(2, 2, 3), (2, 3, 2), (3, 1, 4)])
def test_array_bounds_reject_strengths_outside_the_space(bound, q, r, n):
    p = SpaceParams(q, r, n)
    for t in (-1, p.dim + 1, 100):
        with pytest.raises(ValueError, match=rf"^strength {t} out of range \[0, {p.dim}\]$"):
            bound(p, t)
    for t in (0, p.dim):
        assert bound(p, t).name  # the ends are in range


@pytest.mark.parametrize("q,r,n", [(2, 2, 3), (2, 3, 2), (3, 1, 4)])
def test_r2_bound_rejects_distances_outside_the_space_at_any_depth(q, r, n):
    p = SpaceParams(q, r, n)
    for d in (0, p.dim + 2):
        with pytest.raises(ValueError, match=rf"^distance {d} out of range \[1, {p.dim + 1}\]$"):
            r2_bound(p, d)
    assert r2_bound(p, p.dim + 1).applicable == (r == 2)


def test_singleton():
    assert singleton(P22, 1).value == 16
    assert singleton(P22, 2).value == 8
    assert singleton(P22, 5).value == 1
    with pytest.raises(ValueError):
        singleton(P22, 6)


def test_plotkin():
    assert plotkin(SpaceParams(2, 1, 2), 2).value == 2
    res = plotkin(P22, 4)
    assert res.value == Fraction(8, 3) and res.floor == 2
    # the threshold itself is excluded
    p = SpaceParams(2, 1, 2)  # mean weight is exactly 1
    assert not plotkin(p, 1).applicable


def test_dual_plotkin():
    p = SpaceParams(2, 1, 2)
    assert dual_plotkin_ooa(p, 1).value == 2
    assert dual_plotkin_ooa(p, 2).value == Fraction(8, 3)
    t_full = P22.dim
    want = P22.ambient_size * (1 - delta_crit(2, 2) * 4 / (t_full + 1))
    assert dual_plotkin_ooa(P22, t_full).value == want
    assert not dual_plotkin_ooa(P22, 1).applicable  # 1 <= 5/2 - 1


def test_hamming_rao():
    assert hamming(P22, 1).value == 16
    res = hamming(P22, 3)
    assert res.value == Fraction(16, 3) and res.floor == 5
    assert rao(P22, 2).value == 3
    # shared ball: hamming(d) * ball = ambient
    for d in (1, 3, 5):
        tau = (d - 1) // 2
        assert hamming(P22, d).value * ball_size(P22, tau) == P22.ambient_size


def test_johnson():
    assert johnson(P22, 4, 1).value == Fraction(5, 3)
    assert johnson(P22, 2, 0).value == 1
    assert not johnson(P22, 1, 2).applicable


def test_johnson_rejects_weights_outside_the_space():
    for w in (-1, P22.dim + 1, -3, 7):
        with pytest.raises(ValueError, match=rf"^weight {w} out of range \[0, {P22.dim}\]$"):
            johnson(P22, 4, w)
    for w in (0, P22.dim):
        assert johnson(P22, 4, w).name  # the ends are in range


def test_bassalygo_elias():
    res = bassalygo_elias(P22, 2)
    assert res.value == 16 and res.witness == {"w": 0}
    # inadmissible beyond the critical distance
    assert not bassalygo_elias(P22, 3).applicable or delta_crit(2, 2) * 4 >= 3
    # w = 1 term from the worked instance: 64 / 1.6 = 40
    inner = johnson(P22, 2, 1)
    term = Fraction(P22.ambient_size, 2) * inner.value
    assert term == 40


def test_gilbert():
    assert gilbert(P22, 1).value == 16
    assert gilbert(P22, 2).value == 6  # ceil(16/3)


def test_varshamov():
    assert varshamov(P22, 2) == 2
    assert varshamov(SpaceParams(2, 1, 4), 2) == 3  # 1 + S_{1,3} = 4, need 2^m > 4


def test_varshamov_rejects_strengths_outside_the_space():
    for t in (-1, 0, P22.dim + 1, 100):
        with pytest.raises(ValueError, match=rf"^strength {t} out of range \[1, {P22.dim}\]$"):
            varshamov(P22, t)
    assert varshamov(P22, P22.dim) >= 0  # the top end is in range


def test_spectral_bound_example():
    res = spectral_bound(SpaceParams(2, 1, 4), 2)
    assert res.applicable and res.witness["kappa"] == 1
    assert res.value == pytest.approx(24.0, rel=1e-9)
    ooa = array_row(SpaceParams(2, 1, 4), 1, "spectral-ooa")
    assert ooa.value == pytest.approx(16 / 24.0, rel=1e-9)


def test_spectral_bound_inapplicable_region():
    # hypothesis unsatisfiable when even the largest eigenvalue is too small
    p = SpaceParams(2, 2, 2)
    res = spectral_bound(p, 1)
    if res.applicable:
        assert res.value >= brute_force_max_code(p, 1)


@pytest.mark.parametrize("q,r,n", [(2, 1, 3), (2, 2, 2)])
def test_upper_bounds_dominate_oracle(q, r, n):
    p = SpaceParams(q, r, n)
    for d in range(1, p.dim + 2):
        exact = brute_force_max_code(p, d)
        assert gilbert(p, d).value <= exact
        for bound in (singleton(p, d), plotkin(p, d), hamming(p, d), bassalygo_elias(p, d)):
            if bound.applicable:
                assert bound.value >= exact, (bound.name, d)


def test_johnson_dominates_constant_weight_oracle():
    p = SpaceParams(2, 2, 2)
    for d in range(1, 5):
        for w in range(0, 5):
            res = johnson(p, d, w)
            if res.applicable:
                assert res.value >= constant_weight_max(p, d, w)


def test_r2_bound_small_instance_sanity():
    p = SpaceParams(2, 2, 3)
    for d in range(1, p.dim + 2):
        res = r2_bound(p, d)
        if res.applicable:
            assert res.value >= brute_force_max_code(p, d) - 1e-9


def test_r2_bound_pinned_regression():
    p = SpaceParams(2, 2, 8)
    res = r2_bound(p, 12)
    assert res.applicable
    assert res.witness["s1"] == 1 and res.witness["s2"] == 0
    assert res.value == pytest.approx(6.0, abs=1e-6)
    cert, chk = certificate(p, 12, R2Witness(**res.witness))
    assert chk.accepted
    assert chk.code_bound <= res.value + 1e-6


def test_r2_certificate_tolerance_admits_roundings_only():
    # alpha + 2 beta = 12 at this witness, so F vanishes on the shapes of
    # weight 12 in exact arithmetic: the float check must admit its
    # roundings there, and still see F > 0 at every weight below 12
    p = SpaceParams(2, 2, 8)
    w = R2Witness(**r2_bound(p, 12).witness)
    assert round(w.alpha + 2 * w.beta) == 12
    assert certificate(p, 12, w)[1].accepted
    for d in range(1, 12):
        chk = certificate(p, d, w)[1]
        assert (chk.accepted, chk.reason) == (False, "F positive at excluded shape"), d


def test_r2_certificate_names_the_first_negative_coefficient():
    # off-scan witnesses, whose certificates fail on a coefficient
    p = SpaceParams(2, 2, 8)
    for w, shape in ((R2Witness(1, 1, 2.5, 4.5), (0, 1)), (R2Witness(1, 1, 4.0, 3.0), (1, 1))):
        chk = certificate(p, 5, w)[1]
        assert (chk.accepted, chk.reason, chk.witness) == (
            False, "negative transform coefficient", shape
        ), w


def test_best_bounds_builds_no_exact_eigenmatrix(monkeypatch):
    import sys

    from nrtbounds.krawtchouk import _value_planes

    def refuse(*args):
        raise AssertionError("exact eigenmatrix or its value cube built")

    def planes(q, n, lo):  # the exact table's cube starts at nu = -n
        if lo < 0:
            refuse()
        return _value_planes(q, n, lo)

    for name, mod in list(sys.modules.items()):
        for exact, stand_in in (("krawtchouk_table", refuse), ("_value_planes", planes)):
            if name.startswith("nrtbounds") and hasattr(mod, exact):
                monkeypatch.setattr(mod, exact, stand_in)
    for q, n, d in ((2, 12, 10), (3, 9, 10)):
        entries = {b.name: b for b in best_bounds(SpaceParams(q, 2, n), d).bounds}
        assert entries["r2"].applicable, (q, n)


@pytest.mark.parametrize("n,d", [(50, 48), (60, 50), (60, 56), (60, 59), (60, 62), (60, 65)])
def test_r2_bound_accepts_certificates_the_round_trip_rejected(n, d):
    # F evaluated back through the dense eigenmatrix, coeffs @ K, carried
    # round-off above the margin (4.08e9 at shape (60, 0) for n60 d50, where
    # the direct value is -2.7e-14); these raised CheckFailure
    res = r2_bound(SpaceParams(2, 2, n), d)
    assert res.applicable and res.value >= 1


def test_r2_certificate_peak_memory_is_below_half_a_dense_eigenmatrix():
    import tracemalloc

    p = SpaceParams(2, 2, 60)
    w = R2Witness(**r2_bound(p, 50).witness)
    shapes = len(list(enumerate_shapes(p)))
    tracemalloc.start()
    try:
        assert certificate(p, 50, w)[1].accepted
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # half of one dense N x N float64 eigenmatrix over the N shapes
    assert peak < shapes * shapes * 8 / 2, peak


def test_r2_cell_cap_refuses_before_any_root(monkeypatch):
    import nrtbounds.bounds as bounds_mod
    from nrtbounds.space import BudgetExceeded

    def no_roots(params):
        raise AssertionError("roots taken")

    monkeypatch.setattr(bounds_mod, "_r2_roots", no_roots)
    with pytest.raises(BudgetExceeded, match="R2_CELL_CAP = 2097152"):
        r2_bound(SpaceParams(2, 2, 200), 100)
    with pytest.raises(BudgetExceeded, match="cube of 2146689 cells"):
        r2_bound(SpaceParams(2, 2, 128), 100)
    # 128^3 cells at n = 127 are within the cap, and the scan runs
    monkeypatch.setattr(bounds_mod, "_r2_roots", lambda params: {})
    assert r2_bound(SpaceParams(2, 2, 127), 100).reason == "no admissible degree pair"


@pytest.mark.parametrize("q,n", [(2**1018, 127), (2**1023, 3)])
def test_r2_bound_at_huge_q_exceeds_the_budget(q, n):
    # the Jacobi entries of the root table leave the float range; given to
    # eigvalsh, they do not converge at n = 127, and at n = 3 they overflow
    # with a warning and the scan finds no pair
    from nrtbounds.space import BudgetExceeded

    with pytest.raises(BudgetExceeded, match="exceeds the float range"):
        r2_bound(SpaceParams(q, 2, n), 2)


def test_r2_bound_builds_its_tables_once(monkeypatch):
    # one shape_counts dict serves the scan and the certificate, and the
    # region and the certificate solve no eigenvalue problem: the region
    # reads the scan's root table
    import numpy as np

    import nrtbounds.bounds as bounds_mod

    calls = []

    def counting(params):
        calls.append(params)
        return shape_counts(params)

    monkeypatch.setattr(bounds_mod, "shape_counts", counting)
    p = SpaceParams(2, 2, 8)
    res = r2_bound(p, 12)
    assert res.applicable and calls == [p]
    w, roots, counts = R2Witness(**res.witness), _r2_roots(p), shape_counts(p)

    def refuse(*args, **kwargs):
        raise AssertionError("eigenvalues solved")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    region = r2_region(p, w, roots)
    assert (0, 0) in region
    assert r2_certificate(p, 12, w, region, counts)[1].accepted


def test_r2_ooa_bound():
    p = SpaceParams(2, 2, 8)
    res = array_row(p, 11, "r2-ooa")
    assert res.applicable
    assert res.value == pytest.approx(p.ambient_size / 6.0, rel=1e-6)


def test_r2_requires_depth_two():
    assert not r2_bound(SpaceParams(2, 1, 4), 2).applicable
    assert not array_row(SpaceParams(2, 3, 4), 2, "r2-ooa").applicable


def test_spectral_and_r2_dominate_lp():
    for q, r, n in [(2, 1, 3), (2, 1, 4), (2, 2, 2), (2, 2, 3)]:
        p = SpaceParams(q, r, n)
        for d in range(1, p.dim + 2):
            lp = solve_code_lp(p, d).bound
            sb = spectral_bound(p, d)
            if sb.applicable:
                assert sb.value + 1e-9 >= lp, ("spectral", q, r, n, d)
            if r == 2:
                rb = r2_bound(p, d)
                if rb.applicable:
                    assert rb.value + 1e-9 >= lp, ("r2", q, r, n, d)


def test_best_bounds_table():
    table = best_bounds(P22, 4)
    names = [b.name for b in table.bounds]
    assert "singleton" in names and "plotkin" in names and "rao" in names
    # at d = 4 the exponent bound 2^(nr-d+1) = 2 undercuts plotkin's 8/3
    assert table.best_upper == "singleton"
    # inapplicable entries are present, not dropped
    payload = json.loads(json.dumps(_json(table)))
    assert payload["d"] == 4
    assert len(payload["bounds"]) == len(table.bounds)
    for entry in payload["bounds"]:
        assert set(entry) == {
            "name",
            "side",
            "applicable",
            "value",
            "floor",
            "tolerance",
            "witness",
            "reason",
        }
    d1 = best_bounds(P22, 1)
    uppers = [b for b in d1.bounds if b.applicable and b.side == "upper-on-code-size"]
    assert all(b.value >= P22.ambient_size - 1e-6 for b in uppers)


def test_best_bounds_lists_every_bound_at_every_depth():
    tables = {r: best_bounds(SpaceParams(2, r, 3), 2) for r in (1, 2, 3)}
    names = {r: [b.name for b in t.bounds] for r, t in tables.items()}
    assert names[1] == names[2] == names[3]
    for r in (1, 3):
        depth2 = {b.name: b for b in tables[r].bounds if b.name in ("r2", "r2-ooa")}
        assert len(depth2) == 2 and not any(b.applicable for b in depth2.values())
        assert all("r = 2" in b.reason for b in depth2.values())


def test_best_bounds_runs_each_scan_once(monkeypatch):
    import nrtbounds.bounds as bounds_mod

    calls = {"spectral": 0, "r2-scan": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(bounds_mod, "spectral_bound", counting("spectral", spectral_bound))
    monkeypatch.setattr(bounds_mod, "_r2_pairs", counting("r2-scan", bounds_mod._r2_pairs))
    best_bounds(SpaceParams(2, 2, 6), 8)
    assert calls == {"spectral": 1, "r2-scan": 1}


def test_best_bounds_never_reads_exact_blocks(monkeypatch):
    # the spectral bound reads only the float operators, never build_blocks
    import nrtbounds.scheme as scheme_mod

    def unread(*args, **kwargs):
        raise AssertionError("exact blocks built")

    monkeypatch.setattr(scheme_mod, "build_blocks", unread)
    table = best_bounds(SpaceParams(2, 4, 12), 14)
    spectral = next(b for b in table.bounds if b.name == "spectral")
    assert spectral.applicable and spectral.witness["kappa"] == 7


def test_weight_bounds_enumerate_no_shapes(monkeypatch):
    # hamming, bassalygo-elias, gilbert, rao and varshamov read weight
    # distributions, which come from the one-block enumerator; the
    # spectral bound works by shape length
    import nrtbounds.space as space_mod

    calls = []

    def counting(params):
        calls.append(params)
        return enumerate_shapes(params)

    monkeypatch.setattr(space_mod, "enumerate_shapes", counting)
    p = SpaceParams(2, 3, 8)
    table = best_bounds(p, 8)
    assert {b.name for b in table.bounds if b.applicable} >= {"hamming", "bassalygo-elias"}
    assert calls == []
    varshamov(p, 6)
    assert calls == []


def test_r2_certificate_evaluates_krawtchouk_once_per_region_shape(monkeypatch):
    # U_L(a, .) reads K_f(a) only for f in the region L
    import nrtbounds.bounds as bounds_mod

    p = SpaceParams(2, 2, 8)
    witness = R2Witness(**r2_bound(p, 2).witness)
    region = r2_region(p, witness, _r2_roots(p))
    assert 1 < len(region) < len(list(enumerate_shapes(p)))
    calls = []

    def counting(params, f, x):
        calls.append(f)
        return K_multi(params, f, x)

    monkeypatch.setattr(bounds_mod, "K_multi", counting)
    _, chk = certificate(p, 2, witness)
    assert chk.accepted
    assert calls == region


def test_table_array_bounds_are_code_reciprocals():
    p = SpaceParams(2, 2, 6)
    entries = {b.name: b for b in best_bounds(p, 8).bounds}
    for code_name in ("spectral", "r2"):
        code, ooa = entries[code_name], entries[code_name + "-ooa"]
        assert code.applicable and ooa.applicable
        assert ooa.value == p.ambient_size / code.value
        assert ooa.witness == code.witness


def test_r2_ooa_is_reciprocal_of_r2():
    for p, t in [(SpaceParams(2, 2, 8), 11), (SpaceParams(3, 2, 5), 6)]:
        assert array_row(p, t, "r2-ooa").value == p.ambient_size / r2_bound(p, t + 1).value


def test_spectral_bound_stops_before_kappa_n():
    # at q = 2^20 the float enclosure of lambda_n = delta_crit r n exactly
    # rounds below that mean, and kappa = n used to pass with the factor
    # (n - kappa) = 0: an applicable bound of 0
    p = SpaceParams(2**20, 2, 3)
    res = spectral_bound(p, 2)
    assert not res.applicable or (res.witness["kappa"] < p.n and res.value >= 1)
    assert not spectral_bound(SpaceParams(2, 1, 1), 1).applicable  # only kappa = n = 1


def test_best_bounds_ranks_exact_values_beyond_the_float_range():
    # singleton is q^(nr - d + 1) = 2^1120 here, which float() cannot hold
    table = best_bounds(SpaceParams(2**40, 30, 1), 3)
    uppers = [b for b in table.bounds if b.applicable and b.side == "upper-on-code-size"]
    assert table.best_upper == min(uppers, key=lambda b: b.value).name
    assert all(isinstance(b.value, Fraction) and b.value >= 1 for b in uppers)


def test_reciprocal_of_an_exact_code_bound_is_exact():
    from nrtbounds.bounds import UPPER_CODE, _exact, _reciprocal

    p = SpaceParams(3, 2, 2)
    ooa = _reciprocal(p, "x-ooa", _exact("x", UPPER_CODE, Fraction(7), {"k": 1}))
    assert ooa.value == Fraction(81, 7) and ooa.floor == 11 and ooa.witness == {"k": 1}


def test_reciprocal_beyond_the_float_range_exceeds_the_budget():
    from nrtbounds.bounds import _reciprocal
    from nrtbounds.space import BudgetExceeded

    p = SpaceParams(2, 2, 6)
    code = spectral_bound(p, 8)
    # a quotient that rounds to inf, and q^(nr) itself past the float range
    for params, value in [(p, 1e-306), (SpaceParams(2**40, 30, 1), code.value)]:
        with pytest.raises(BudgetExceeded, match="spectral-ooa bound .* exceeds the float range"):
            _reciprocal(params, "spectral-ooa", code._replace(value=value, tolerance=0.0))
