"""Result records are immutable values."""

from fractions import Fraction

import pytest

from rpl import bounds, homma_family, verify
from rpl.verify import bounds as verify_bounds

RECORDS = {  # type name -> (its first field, an instance)
    "ConvergenceReport": ("q", lambda: verify_bounds.upper_limit_check(3, 60, Fraction(1, 10**9))),
    "IharaTableEntry": ("q", lambda: bounds.IHARA_HALF_TABLE[3]),
    "SurdBound": ("q", lambda: verify_bounds.drinfeld_vladut_upper(5)),
    "BoundRecord": ("name", lambda: bounds.dq_summary(9).records[0]),
    "DqSummary": ("q", lambda: bounds.dq_summary(9)),
    "PointCount": ("affine", lambda: homma_family.count_total(3, 3)),
    "CheckResult": ("scope", lambda: verify.CheckResult("gf", "stub", True)),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_cannot_be_set(name):
    field, make = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.extra = 0
