"""The record contract: records validate on construction however they are
built, refuse assignment, keep the repr that error messages carry, and key
the caches they are passed to."""

import pytest

from nrtbounds.bounds import BoundResult, R2Witness, best_bounds
from nrtbounds.delsarte import solve_code_lp
from nrtbounds.krawtchouk import krawtchouk_table
from nrtbounds.macwilliams import enumerator_of
from nrtbounds.space import ArrayTable, LinearCode, SpaceParams

P = SpaceParams(2, 2, 2)

BAD = [
    (SpaceParams, {"q": 1, "r": 2, "n": 3}, r"^alphabet size q must be >= 2, got 1$"),
    (SpaceParams, {"q": 2, "r": 0, "n": 3}, r"^block depth r must be >= 1, got 0$"),
    (SpaceParams, {"q": 2, "r": 2, "n": 0}, r"^block count n must be >= 1, got 0$"),
    (ArrayTable, {"params": P, "rows": ((0, 0, 0, 0), (0, 1, 0))}, r"^vector length 3 "),
    (ArrayTable, {"params": P, "rows": ((0, 2, 0, 0),)}, r"^symbol out of range"),
    (LinearCode, {"params": SpaceParams(4, 1, 2), "generators": ((1, 0),)}, r"prime q only$"),
    (LinearCode, {"params": P, "generators": ((1, 0, 0, 5),)}, r"^symbol out of range"),
    (LinearCode, {"params": P, "generators": ((1, 1, 0, 0),) * 2}, r"linearly dependent$"),
]


@pytest.mark.parametrize("by", ["keyword", "position"])
@pytest.mark.parametrize("cls,fields,message", BAD,
                         ids=[f"{c.__name__}-{i}" for i, (c, *_) in enumerate(BAD)])
def test_records_validate_on_construction(cls, fields, message, by):
    with pytest.raises(ValueError, match=message):
        cls(**fields) if by == "keyword" else cls(*fields.values())


def _records():
    """(record, one of its fields) for a record of each kind the CLI prints."""
    code = LinearCode(P, ((1, 1, 0, 0),))
    table = best_bounds(P, 2)
    return [
        (P, "q"),
        (ArrayTable(P, ((0, 0, 0, 0),)), "rows"),
        (code, "generators"),
        (enumerator_of(code), "coeffs"),
        (table, "d"),
        (table.bounds[0], "value"),
        (solve_code_lp(P, 2).certificate, "F0"),
        (R2Witness(1, 1, 2.5, 4.5), "alpha"),
    ]


RECORDS = _records()


@pytest.mark.parametrize("record,field", RECORDS,
                         ids=[f"{type(r).__name__}.{f}" for r, f in RECORDS])
def test_records_refuse_assignment(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert getattr(record, field) is before


def test_reprs_name_every_field():
    assert repr(SpaceParams(q=2, r=2, n=3)) == "SpaceParams(q=2, r=2, n=3)"
    # the depth-2 CheckFailure message carries this repr
    w = R2Witness(s1=1, s2=2, alpha=2.5, beta=0.25)
    assert f"{w}" == "R2Witness(s1=1, s2=2, alpha=2.5, beta=0.25)"
    assert repr(BoundResult("x", "side", False, reason="why")) == (
        "BoundResult(name='x', side='side', applicable=False, value=None, floor=None, "
        "tolerance=None, witness=None, reason='why')"
    )


def test_space_params_key_the_table_cache():
    krawtchouk_table.cache_clear()
    first = krawtchouk_table(SpaceParams(2, 2, 3))
    assert krawtchouk_table(SpaceParams(q=2, r=2, n=3)) is first
    assert krawtchouk_table(SpaceParams(3, 2, 3)) is not first
    info = krawtchouk_table.cache_info()
    assert (info.hits, info.misses) == (1, 2)
