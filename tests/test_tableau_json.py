"""``tableau_from_json`` reads back what ``tableau_to_json`` writes, and
refuses anything else with a ``ValueError`` that names the problem."""

import json
import random
import re

import pytest

from braidhooks.tableaux import (
    Shape,
    conjugate,
    random_standard_tableau,
    tableau_from_json,
    tableau_to_json,
)

from helpers import partitions, skew_test_shapes, strict_partitions


def sampled_tableaux(rng, count=120):
    shapes = (
        [Shape.right(p) for n in range(1, 11) for p in partitions(n)]
        + [Shape.half_right(p) for n in range(1, 13) for p in strict_partitions(n)]
        + skew_test_shapes(9)
    )
    return [random_standard_tableau(rng.choice(shapes), rng) for _ in range(count)]


def test_round_trip():
    rng = random.Random(18)
    found = sampled_tableaux(rng)
    found += [conjugate(t) for t in found]
    assert {t.shape.mode for t in found} == {"right", "half-right", "skew-right", "cells"}
    for t in found:
        assert tableau_from_json(tableau_to_json(t)) == t


RIGHT_21 = {"mode": "right", "outer": [2, 1]}


@pytest.mark.parametrize("document, message", [
    ({}, "'shape' object"),
    ([1], "'shape' object"),
    ({"shape": [2, 1], "rows": [[1, 2], [3]]}, "'shape' object"),
    ({"shape": RIGHT_21}, "'rows' must be a list"),
    ({"shape": RIGHT_21, "rows": [[1, 2], 3]}, "each row must be a list of integers"),
    ({"shape": RIGHT_21, "rows": [[1, "2"], [3]]}, "each row must be a list of integers"),
    ({"shape": RIGHT_21, "rows": [[1, 2], [3, 4]]}, "rows hold 4 entries, the shape 3 cells"),
    ({"shape": RIGHT_21, "rows": [[1], [2, 3]]}, "do not fit the rows"),
    ({"shape": RIGHT_21, "rows": [[1, 1], [3]]}, "entries must be 1..3, each once"),
    ({"shape": RIGHT_21, "rows": [[2, 3], [1]]}, "is not standard"),
    ({"shape": {"mode": "right"}, "rows": [[1]]}, "'outer' must be a list of integers"),
    ({"shape": {"mode": "right", "outer": [10**9]}, "rows": [[1]]}, "the shape 1000000000 cells"),
    ({"shape": {"mode": "right", "outer": [1, 2]}, "rows": [[1], [2, 3]]}, "weakly decreasing"),
    ({"shape": {"mode": "skew-right", "outer": [2, 1], "inner": "1"}, "rows": [[1]]},
     "'inner' must be a list of integers"),
    ({"shape": {"mode": "cells", "cells": [[1, 1], [1]]}, "rows": [[1, 2]]}, "'cells' must list"),
    ({"shape": {"mode": "cells", "cells": [[1, 1], [1, 1]]}, "rows": [[1, 2]]}, "duplicate cells"),
    ({"shape": {"mode": "cells"}, "rows": []}, "'cells' must list"),
    ({"shape": {"mode": "cells", "cells": [[1, 1], [1, 2]]}, "rows": [[1]]}, "do not fit the rows"),
    ({"shape": {"mode": "cells", "cells": [[1, 1], [1, 3]]}, "rows": [[2, 1]]}, "is not standard"),
    ({"shape": {"mode": "cells", "cells": [[1, 1], [3, 1]]}, "rows": [[2], [1]]}, "is not standard"),
    ({"shape": {"mode": "diagonal"}, "rows": []}, "unknown shape mode 'diagonal'"),
])
def test_malformed_documents_are_refused(document, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        tableau_from_json(json.dumps(document))


def test_text_that_is_not_json_is_refused():
    with pytest.raises(ValueError):
        tableau_from_json("{rows")
