"""Property tests at the input boundary: config files and field files.

Each target either returns a checked value or raises the package's one
error type for bad input (ConfigError, DomainError); any other exception
would reach the CLI user as a traceback.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cornerflow import cli
from cornerflow.errors import ConfigError, DomainError
from cornerflow.fields import GridField

FUZZ = settings(max_examples=200, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# a valid config per subcommand; the fuzz overrides and adds keys
BASE = {
    "eos-table": dict(gamma="2", t_max="0.05", s_max="0.2"),
    "profile-check": {},
    "profile-table": dict(profile="zero", x1_min="0", x1_max="1", x2_min="0", x2_max="1", h="0.25"),
    "minimize": dict(x1_min="0", x1_max="1", x2_min="0", x2_max="1", h="0.25"),
    "sweep": dict(profile="zero", kind="origin"),
    "classify": dict(profile="zero"),
}
ALL_KEYS = sorted({key for table in cli.KEYS.values() for key in table}) + ["unused"]
ODD = ["nan", "-inf", "1e400", "-0.0", "0x10", "1_0", "", "#", "=", "zero", "origin", "nowhere",
       "٣", "9" * 5000]
VALUES = st.one_of(
    st.integers(-3, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(ODD),
    st.text(max_size=6),
)
LINES = st.one_of(
    st.tuples(st.sampled_from(ALL_KEYS), VALUES).map(" = ".join),
    st.text(max_size=12),  # blanks, comments and malformed lines
)


@st.composite
def configs(draw):
    sub = draw(st.sampled_from(sorted(cli.KEYS)))
    keys = st.sampled_from(sorted(cli.KEYS[sub]) or ALL_KEYS)
    kv = {**BASE[sub], **draw(st.dictionaries(keys, VALUES, max_size=3))}
    lines = [f"{k} = {v}" for k, v in kv.items()] + draw(st.lists(LINES, max_size=1))
    text = "\n".join(draw(st.permutations(lines))).encode()
    return sub, text + b"\xff" * (draw(st.integers(0, 7)) == 7)


@FUZZ
@given(configs())
def test_typed_config_returns_the_table_or_config_error(tmp_path, case):
    sub, content = case
    path = tmp_path / "c.cfg"
    path.write_bytes(content)
    try:
        cfg = cli.typed_config(cli.parse_config(path), sub)
    except ConfigError:
        return
    table = cli.KEYS[sub]
    assert set(cfg) == set(table)
    for key, val in cfg.items():
        if val is None:
            assert table[key].default is None
        elif table[key].type is float:
            assert isinstance(val, float) and math.isfinite(val)
        elif isinstance(table[key].type, tuple):
            assert val in table[key].type
        else:
            assert isinstance(val, table[key].type)


TOKENS = st.sampled_from(["nan", "inf", "-1", "0", "1e400", "5e-324", "x", "", "grid", "#", "1,2"])


@st.composite
def field_files(draw):
    """Mostly valid small field files, with a few tokens replaced, dropped or added."""
    n1, n2 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    h = draw(st.sampled_from([0.25, 0.5, 1.0]))
    x1, x2 = draw(st.sampled_from([0.0, 0.5])), draw(st.sampled_from([-1.0, 0.0]))
    header = ["grid", *(repr(v) for v in (x1, x1 + n1 * h, x2, x2 + n2 * h, h))]
    rows = [[repr(draw(st.floats(-1e3, 1e3))) for _ in range(n2)] for _ in range(n1)]
    lines = [header, *rows]
    for i, j, tok in draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), TOKENS), max_size=2)):
        line = lines[i % len(lines)]
        line[j % (len(line) + 1):j % (len(line) + 1) + 1] = [tok]
    text = "".join(" ".join(line) + "\n" for line in lines).encode()
    cut = draw(st.integers(0, 7))  # 1 in 8 files ends in a bad byte, 1 in 8 is cut short
    return text + b"\xff" if cut == 7 else text[: len(text) // 2] if cut == 6 else text


@FUZZ
@given(field_files())
def test_field_read_returns_a_field_or_domain_error(tmp_path, content):
    path = tmp_path / "f.txt"
    path.write_bytes(content)
    try:
        fld = GridField.read(path)
    except DomainError:
        return
    assert fld.values.shape == (fld.n1, fld.n2) and np.all(np.isfinite(fld.values))
