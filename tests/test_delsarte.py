from fractions import Fraction

import pytest

from nrtbounds.delsarte import (
    DualCertificate,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    solve_code_lp,
    solve_ooa_lp,
)
from nrtbounds.scheme import L_coeff
from nrtbounds.space import (
    SpaceParams,
    delta_crit,
    enumerate_shapes,
    shape_count,
)


def test_pinned_code_lp_values():
    assert solve_code_lp(SpaceParams(2, 1, 3), 3).bound == 2
    assert solve_code_lp(SpaceParams(2, 2, 1), 2).bound == 2


def test_pinned_ooa_lp_value():
    assert solve_ooa_lp(SpaceParams(2, 1, 3), 2).bound == 4


def test_code_lp_edges():
    p = SpaceParams(2, 2, 2)
    assert solve_code_lp(p, 1).bound == p.ambient_size
    assert solve_code_lp(p, p.dim + 1).bound == 1
    with pytest.raises(ValueError):
        solve_code_lp(p, 0)


def test_ooa_lp_edges():
    p = SpaceParams(2, 2, 2)
    assert solve_ooa_lp(p, 0).bound == 1
    assert solve_ooa_lp(p, p.dim).bound == p.ambient_size
    # full-strength distribution is uniform
    res = solve_ooa_lp(p, p.dim)
    assert res.distribution == {e: Fraction(shape_count(p, e)) for e in enumerate_shapes(p)}


def test_certificate_reproduces_lp_value():
    for q, r, n, d in [(2, 1, 3, 2), (2, 2, 2, 3), (3, 1, 2, 2), (2, 2, 3, 4)]:
        res = solve_code_lp(SpaceParams(q, r, n), d)
        chk = check_certificate(res.certificate)
        assert chk.accepted
        assert chk.code_bound == res.bound
        assert chk.ooa_bound == SpaceParams(q, r, n).ambient_size / res.bound


def test_weak_duality_universal_certificate():
    # F = sum over all shapes of K_f has F(x) = q^(rn) [x = 0] and F0 = 1
    p = SpaceParams(2, 2, 2)
    cert = DualCertificate(
        params=p,
        d=3,
        F0=Fraction(1),
        F={f: Fraction(1) for f in enumerate_shapes(p) if f != (0, 0)},
    )
    chk = check_certificate(cert)
    assert chk.accepted
    assert chk.code_bound == p.ambient_size
    assert chk.code_bound >= solve_code_lp(p, 3).bound


@pytest.mark.parametrize("q,r,n,d", [(2, 2, 2, 4), (2, 1, 2, 2), (3, 2, 2, 5), (2, 2, 3, 5)])
def test_affine_certificate_gives_plotkin(q, r, n, d):
    # F = (d - mean) + sum_i L_i K_{F_i} is the affine dual polynomial; its
    # bound is d / (d - n r delta_crit) whenever that denominator is positive
    p = SpaceParams(q, r, n)
    mean = delta_crit(q, r) * p.dim
    assert d > mean
    F = {}
    for i in range(1, r + 1):
        Fi = tuple(1 if j == i - 1 else 0 for j in range(r))
        F[Fi] = L_coeff(p, i)
    cert = DualCertificate(params=p, d=d, F0=Fraction(d) - mean, F=F)
    chk = check_certificate(cert)
    assert chk.accepted
    assert chk.code_bound == Fraction(d) / (d - mean)
    assert chk.code_bound >= solve_code_lp(p, d).bound


def test_certificate_rejection_witnesses():
    p = SpaceParams(2, 2, 1)
    bad_f0 = DualCertificate(params=p, d=2, F0=Fraction(0), F={})
    assert not check_certificate(bad_f0).accepted

    bad_coeff = DualCertificate(params=p, d=2, F0=Fraction(1), F={(1, 0): Fraction(-1)})
    chk = check_certificate(bad_coeff)
    assert not chk.accepted and chk.witness == (1, 0)

    # constant 1 is positive at every excluded shape
    bad_sign = DualCertificate(params=p, d=1, F0=Fraction(1), F={})
    chk = check_certificate(bad_sign)
    assert not chk.accepted
    assert chk.reason == "F positive at excluded shape"
    assert chk.witness is not None


def test_certificate_json_roundtrip():
    res = solve_code_lp(SpaceParams(2, 2, 2), 3)
    text = certificate_to_json(res.certificate)
    again = certificate_from_json(text)
    assert again == res.certificate
    assert check_certificate(again).code_bound == res.bound


def test_certificate_at_zero_is_total_mass():
    # F(0) = F0 + sum_f F_f K_f(0), and K_f(0) = v_f
    p = SpaceParams(2, 2, 2)
    res = solve_code_lp(p, 3)
    cert = res.certificate
    val = check_certificate(cert).code_bound * cert.F0
    assert val == cert.F0 + sum(
        c * shape_count(p, f) for f, c in cert.F.items()
    )


def test_float_tolerance_mode():
    p = SpaceParams(2, 2, 1)
    cert = DualCertificate(
        params=p, d=2, F0=1.0, F={(1, 0): 1.0, (0, 1): -1e-12}
    )
    assert not check_certificate(cert).accepted
    assert check_certificate(cert, tol=1e-8).accepted


def test_lp_bound_is_monotone_in_distance():
    p = SpaceParams(2, 2, 3)
    values = [solve_code_lp(p, d).bound for d in range(1, p.dim + 2)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    ooa_values = [solve_ooa_lp(p, t).bound for t in range(0, p.dim + 1)]
    assert all(a <= b for a, b in zip(ooa_values, ooa_values[1:]))


def test_distribution_is_feasible_exactly():
    from nrtbounds.krawtchouk import krawtchouk_table

    p = SpaceParams(2, 2, 2)
    res = solve_code_lp(p, 2)
    tbl = krawtchouk_table(p)
    for f in enumerate_shapes(p):
        total = sum(res.distribution.get(e, 0) * tbl[(f, e)] for e in enumerate_shapes(p))
        assert total >= 0


def test_determinism_bit_identical():
    a = solve_code_lp(SpaceParams(2, 2, 3), 4)
    b = solve_code_lp(SpaceParams(2, 2, 3), 4)
    assert a.bound == b.bound
    assert a.distribution == b.distribution
    assert a.certificate == b.certificate
    x = solve_ooa_lp(SpaceParams(2, 2, 2), 2)
    y = solve_ooa_lp(SpaceParams(2, 2, 2), 2)
    assert (x.bound, x.distribution) == (y.bound, y.distribution)


@pytest.mark.parametrize("q,r,n", [(3, 1, 2), (3, 2, 1), (5, 1, 2)])
def test_sandwich_beyond_binary(q, r, n):
    from nrtbounds.bounds import hamming, plotkin, rao, singleton
    from nrtbounds.oracles import brute_force_max_code, brute_force_min_ooa

    p = SpaceParams(q, r, n)
    for d in range(1, p.dim + 2):
        lp = solve_code_lp(p, d).bound
        assert brute_force_max_code(p, d) <= lp
        for b in (singleton(p, d), hamming(p, d), plotkin(p, d)):
            if b.applicable:
                assert lp <= b.value
    for t in range(0, p.dim + 1):
        lp = solve_ooa_lp(p, t).bound
        assert rao(p, t).value <= lp
        assert lp <= brute_force_min_ooa(p, t)


def test_ternary_repetition_code_attains_lp():
    # {00, 11, 22} in the depth-2 single-block space has distance 2 and
    # its distance distribution is feasible, so the program value is 3
    from nrtbounds.krawtchouk import krawtchouk_table
    from nrtbounds.space import shape_of, vector_sub

    p = SpaceParams(3, 2, 1)
    code = [(0, 0), (1, 1), (2, 2)]
    dist: dict = {}
    for u in code:
        for v in code:
            e = shape_of(p, vector_sub(p, u, v))
            dist[e] = dist.get(e, Fraction(0)) + Fraction(1, len(code))
    tbl = krawtchouk_table(p)
    for f in enumerate_shapes(p):
        assert sum(dist.get(e, 0) * tbl[(f, e)] for e in enumerate_shapes(p)) >= 0
    assert solve_code_lp(p, 2).bound == 3
