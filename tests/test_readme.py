"""README's "Library tour" runs as written, and each value its comments
state is the value the code gives."""

import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"

# (a line of the tour, up to its comment; the value the comment states, as
# written there and as a number)
STATED = [
    ("report.mean_T", "5.325040697685331", 5.325040697685331),
    ("trap.mean()", "7.0", 7.0),
    ("walk.mean()", "inf", math.inf),
    ("analyze(walk, GeometricRestart(0.2)).mean_T", "12.5", 12.5),
    ("cycle_trap_geometric_threshold(2, 14)", "150/156", 150 / 156),
    ("brw_geometric_threshold_p(3)", "(1 + sqrt(17))/8", (1 + math.sqrt(17)) / 8),
]


@pytest.fixture(scope="module")
def tour():
    """The tour's lines as {code: comment}, and the namespace it leaves."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library tour\n+```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    lines = dict(line.partition("#")[::2] for line in block.splitlines() if "#" in line)
    return {code.strip(): comment.strip() for code, comment in lines.items()}, namespace


@pytest.mark.parametrize("code, written, value", STATED, ids=[entry[0] for entry in STATED])
def test_stated_values_hold(tour, code, written, value):
    comments, namespace = tour
    assert comments[code].startswith(written)
    assert eval(code, namespace) == value
