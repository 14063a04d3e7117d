"""The rules by which `need` and `from_dict` accept a JSON value for a field type."""

import dataclasses
import math

import pytest

from gatedfusion.errors import ConfigError, ManifestError, from_dict, need
from gatedfusion.gating import GatingMode

# (field type, JSON value, whether it fits)
RULES = [
    (float, 2.5, True),
    (float, 3, True),  # a finite int is a float
    (float, -(2**1023), True),
    (float, math.nan, False),
    (float, math.inf, False),
    (float, -math.inf, False),
    (float, 10**400, False),  # an int past the largest float
    (float, True, False),
    (float, "1.0", False),
    (int, 3, True),
    (int, True, False),  # a bool is not an int
    (int, False, False),
    (int, 3.0, False),
    (bool, True, True),
    (bool, 1, False),
    (str, "adam", True),
    (str, 1, False),
    (list, [1, "a"], True),
    (list, (1,), False),
    (dict, {"a": 1}, True),
    (dict, None, False),
    (GatingMode, "none", True),  # an enum member by its value string
    (GatingMode, GatingMode.UNIMODAL, True),
    (GatingMode, 0, False),
    (GatingMode, True, False),
    (tuple[int, int], [7, 14], True),  # a tuple field from a list of the right length
    (tuple[int, int], (7, 14), True),
    (tuple[int, int], [7], False),
    (tuple[int, int], [7, 14, 21], False),
    (tuple[int, int], [7, True], False),
    (tuple[int, int], [7, 1.5], False),
    (tuple[float, float], [1, 2.5], True),
    (tuple[float, float], [1, math.nan], False),
    (tuple[int, int], 7, False),
    (tuple[int, int], "ab", False),
]


@pytest.mark.parametrize("kind, value, fits", RULES)
def test_need_and_from_dict_apply_one_rule_table(kind, value, fits):
    record = dataclasses.make_dataclass("Record", [("field", kind)])
    if fits:
        assert need({"field": value}, "field", kind, "record") is value
        assert from_dict(record, {"field": value}, "record").field is value
    else:
        with pytest.raises(ManifestError, match="record: field 'field' must be"):
            need({"field": value}, "field", kind, "record")
        with pytest.raises(ConfigError, match="record: field must be"):
            from_dict(record, {"field": value}, "record")
