"""Property tests at the input boundary: config files, field files and cli.main.

Each parser target either returns a checked value or raises the package's
one error type for bad input (ConfigError, DomainError); any other exception
would reach the CLI user as a traceback.  The cli.main target runs whole
subcommands and checks their exit codes, error lines and reruns.
"""

import contextlib
import io
import math
import os
import pathlib
import tempfile

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from cornerflow import cli, functionals
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


# ---------------------------------------------------------------------------
# cli.main end to end
# ---------------------------------------------------------------------------

# mostly valid, physically odd configs: typed_config accepts nearly all of them,
# so the runners themselves meet off-grid centers, supersonic states, radii
# beyond delta and grids across the axis.  Lattices hold at most 256 cells.
# profile-check has no keys and takes about 0.1 s, so it is drawn rarely; sweep
# configs have the most ways to fail, so they are drawn most often
SUBCOMMANDS = (["eos-table", "profile-table"] * 2 + ["minimize", "classify"] * 3 + ["sweep"] * 5
               + ["profile-check"])
EDGE = st.sampled_from([-0.25, 0.0, 0.25, 0.5, 0.75, 1.0])
STEP = st.sampled_from([1 / 8, 1 / 16, 1 / 32])
CENTER = {"stagnation": (1.0, 0.0), "axis": (0.0, 0.5), "origin": (0.0, 0.0)}


def rare(p=4):
    """True once in ``p`` draws."""
    return st.integers(1, p).map(lambda i: i == 1)


@st.composite
def boxes(draw, kind=None):
    """A box of at most 16 x 16 cells: around the kind's usual center if given, else anywhere."""
    w1, w2 = draw(st.sampled_from([0.25, 0.5])), draw(st.sampled_from([0.25, 0.5]))
    if kind is None:
        x1, x2 = draw(EDGE), draw(st.sampled_from([-0.25, 0.0, 0.25]))
    else:
        c1, c2 = CENTER[kind]
        x1, x2 = (c1 - w1 / 2 if kind == "stagnation" else 0.0), c2 - w2 / 2
    return dict(x1_min=x1, x1_max=x1 + w1, x2_min=x2, x2_max=x2 + w2, h=draw(STEP))


@st.composite
def media(draw):
    if draw(st.booleans()):
        return {}
    kv = dict(gamma=draw(st.sampled_from([1.4, 5 / 3, 2.0, 3.0])))
    if draw(rare()):
        kv.update(A=draw(st.sampled_from([0.5, 2.0, 1e3])), g=draw(st.sampled_from([0.5, 9.81])))
    return kv


@st.composite
def profile_keys(draw):
    name = draw(st.sampled_from(sorted(cli.PROFILES)))
    kv = dict(profile=name)
    for key in cli.PROFILES[name].keys:
        if draw(st.booleans()):
            kv[key] = draw(st.sampled_from([0.2, 1.0, 1.5]))
    if draw(rare()):
        kv.update(offset_x1=draw(st.sampled_from([0.0, 0.1])), offset_x2=draw(st.sampled_from([-0.1, 0.0, 0.1])))
    return kv


@st.composite
def windows(draw, n_lo):
    if draw(rare()):
        return {}
    r_min = draw(st.sampled_from([0.01, 0.03, 0.05, 0.1]))
    return dict(r_min=r_min, r_max=r_min * draw(st.sampled_from([1.5, 3.0, 10.0])), n_radii=draw(st.integers(n_lo, 6)))


@st.composite
def cli_cases(draw):
    """(subcommand, config keys, the keys of the profile-table run whose field file ``field`` names, or None)."""
    sub = draw(st.sampled_from(SUBCOMMANDS))
    grid = None
    if sub == "eos-table":
        kv = dict(gamma=draw(st.sampled_from([1.4, 2.0, 3.0])), t_max=draw(st.sampled_from([0.0, 0.01, 0.05, 0.5])),
                  s_max=draw(st.sampled_from([0.0, 0.1, 0.3, 1.0])),
                  t_count=draw(st.integers(1, 6)), s_count=draw(st.integers(1, 6)))
        if draw(st.booleans()):
            kv.update(s_min=draw(st.sampled_from([0.0, 0.1])), eps0=draw(st.sampled_from([1e-6, 0.1])))
    elif sub == "profile-check":
        kv = {} if draw(rare()) else dict(profile="zero")
    elif sub == "profile-table":
        kv = dict(**draw(profile_keys()), **draw(boxes()), write_field=draw(st.integers(0, 1)))
    elif sub == "minimize":
        kv = dict(**draw(media()), **draw(boxes(draw(st.sampled_from([None, "axis", "stagnation"])))),
                  max_iter=draw(st.integers(1, 40)), tol=draw(st.sampled_from([1e-10, 1e-4])))
        if draw(st.booleans()):
            kv.update(draw(profile_keys()))
        if draw(rare()):
            kv["eps_chi"] = draw(st.sampled_from([1e-3, 0.1]))
    else:
        kind = draw(st.sampled_from(functionals.KINDS))
        c1, c2 = draw(st.tuples(EDGE, st.sampled_from([-0.1, 0.0, 0.5]))) if draw(rare()) else CENTER[kind]
        source = draw(profile_keys())
        if draw(st.booleans()):
            grid, source = dict(**source, **draw(boxes(None if draw(rare()) else kind))), {}
        if sub == "sweep":
            kv = dict(**source, **draw(media()), **draw(windows(0)), kind=kind, center_x1=c1, center_x2=c2,
                      n_arc=draw(st.sampled_from([8, 64, 256])))
        else:
            kv = dict(**source, **draw(windows(3)), point_x1=c1, point_x2=c2)
            if not draw(rare()):
                kv["kind"] = kind
    return sub, kv, grid


def _write_config(tmp_path, kv):
    path = tmp_path / "c.cfg"
    path.write_text("".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n" for k, v in kv.items()))
    return path


def _run_main(tmp_path, sub, cfg):
    """Exit code, stderr text and {file name: bytes} of one ``cli.main`` run into a new directory."""
    out = tempfile.mkdtemp(dir=tmp_path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([sub, "--config", str(cfg), "--out", out])
    files = {name: (pathlib.Path(out) / name).read_bytes() for name in sorted(os.listdir(out))}
    return code, err.getvalue(), files


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cli_cases())
def test_cli_main_exits_with_at_most_one_error_line_and_reruns_identically(tmp_path, case):
    sub, kv, grid = case
    if grid is not None:  # the field file that profile-table writes
        code, _, files = _run_main(tmp_path, "profile-table", _write_config(tmp_path, dict(grid, write_field=1)))
        assert code == 0
        (tmp_path / "field.txt").write_bytes(files["field.txt"])
        kv = dict(kv, field=tmp_path / "field.txt")
    cfg = _write_config(tmp_path, kv)
    first = _run_main(tmp_path, sub, cfg)
    code, err, files = first
    event(f"{sub} exits {code}")  # pytest --hypothesis-show-statistics lists the spread
    assert code in (0, 1, 2)
    if code:
        assert err.count("\n") == 1 and err.startswith(("error: ", "numerical error: ")), err
        assert "Traceback" not in err
    else:
        assert err == ""
    if code == 1:  # a non-converged minimize (exit 2) keeps its field and log on purpose
        assert not files
    assert _run_main(tmp_path, sub, cfg) == first
