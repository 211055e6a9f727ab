import filecmp
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from cornerflow import cli, eos, fields, functionals, profiles, solver
from cornerflow.eos import EosModel, invert_density, lambda_of
from cornerflow.fields import GridField

from oracles import F_of, F_quadrature

# values whose 17-digit text is easy to get wrong: signed zero, the smallest
# subnormal, near-overflow, a repeating fraction, and the non-finite values
SPECIAL = (-0.0, 5e-324, 1e308, 1 / 3, -1e-300, 0.1, 2.0**60, math.inf, -math.inf, math.nan)


def reference_text(rows, sep):
    """The per-value writer: format(float(v), ".17g") for every value."""
    return "".join(sep.join(format(float(v), ".17g") for v in row) + "\n" for row in rows)


def awkward_table(n, width):
    rng = np.random.default_rng(n)
    vals = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-300, 300, (n, width))
    vals.flat[: len(SPECIAL)] = SPECIAL[: vals.size]
    return vals


def write_cfg(path, **kv):
    with open(path, "w") as f:
        f.write("# test config\n")
        for k, v in kv.items():
            f.write(f"{k} = {v}\n")
    return str(path)


def run(sub, cfg, out, *extra):
    return cli.main([sub, "--config", str(cfg), "--out", str(out), *extra])


class TestConfigParsing:
    def test_malformed_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("this is not a key value pair\n")
        assert run("sweep", p, tmp_path / "o") == 1

    def test_empty_key(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("= 1\n")
        assert run("sweep", p, tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: {p}:1: empty key\n"

    def test_missing_key(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", gamma=2.0)
        assert run("eos-table", cfg, tmp_path / "o") == 1

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("\n# comment only\ngamma = 2.0\nt_max = 0.05 # trailing\ns_max = 0.2\n")
        assert run("eos-table", p, tmp_path / "o") == 0

    @pytest.mark.parametrize("sub, kv", [
        ("classify", dict(profile="flat_origin", kind="origin", r_min=0.05, r_max=0.2, n_radii=-3)),
        ("eos-table", dict(gamma=2.0, t_max=0.05, s_max=0.2, t_count=0)),
        ("eos-table", dict(gamma=2.0, t_max=0.05, s_max=0.2, s_count=-2)),
        ("profile-table", dict(profile="axis_parabola", x1_min=0.0, x1_max=0.25,
                               x2_min=0.0, x2_max=0.25, h=0)),
        ("minimize", dict(x1_min=0.0, x1_max=0.25, x2_min=0.0, x2_max=0.25, h=-1 / 32)),
        # max_iter <= 0 used to exit 2, as if the solver had not converged
        ("minimize", dict(profile="axis_parabola", x1_min=0.0, x1_max=0.25, x2_min=0.0, x2_max=0.25,
                          h=1 / 16, max_iter=0)),
        ("minimize", dict(profile="axis_parabola", x1_min=0.0, x1_max=0.25, x2_min=0.0, x2_max=0.25,
                          h=1 / 16, max_iter=-1)),
    ], ids=["classify-n_radii", "eos-t_count", "eos-s_count", "profile-table-h", "minimize-h",
            "minimize-max_iter-0", "minimize-max_iter-negative"])
    def test_bad_count_or_step_is_config_error(self, tmp_path, capsys, sub, kv):
        cfg = write_cfg(tmp_path / "c.cfg", **kv)
        assert run(sub, cfg, tmp_path / "o") == 1
        err = capsys.readouterr().err
        key = list(kv)[-1]  # the bad key comes last
        assert err.startswith(f"error: {key} must be positive") and err.count("\n") == 1


    @pytest.mark.parametrize("sub, kv, msg", [
        ("sweep", dict(profile="flat_origin", kind="origin", r_min=-0.1, r_max=0.1, n_radii=5),
         "need 0 < r_min < r_max"),
        ("classify", dict(profile="flat_origin", kind="origin", r_min=0.0, r_max=0.2),
         "need 0 < r_min < r_max"),
        ("classify", dict(profile="flat_origin", kind="origin", r_min=-0.05, r_max=0.2),
         "need 0 < r_min < r_max"),
        ("minimize", dict(x1_min=0.25, x1_max=0.0, x2_min=0.0, x2_max=0.25, h=1 / 32),
         "need x1_min < x1_max"),
        ("minimize", dict(x1_min=0.0, x1_max=0.25, x2_min=0.25, x2_max=0.0, h=1 / 32),
         "need x2_min < x2_max"),
        ("sweep", dict(profile="flat_origin", kind="origin"), "no admissible radius window for this center"),
    ], ids=["sweep-negative-r_min", "classify-zero-r_min", "classify-negative-r_min",
            "minimize-inverted-x1", "minimize-inverted-x2", "sweep-profile-origin-default-window"])
    def test_bad_window_is_config_error(self, tmp_path, capsys, sub, kv, msg):
        # each used to exit 0 with NaN rows or end in a numpy traceback
        cfg = write_cfg(tmp_path / "c.cfg", **kv)
        assert run(sub, cfg, tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {msg}") and err.count("\n") == 1

    # one valid config per subcommand
    VALID = {
        "eos-table": dict(gamma=2.0, t_max=0.05, s_max=0.2),
        "profile-check": {},
        "profile-table": dict(profile="zero", x1_min=0.0, x1_max=0.25, x2_min=0.0, x2_max=0.25, h=1 / 8),
        "minimize": dict(x1_min=0.0, x1_max=0.25, x2_min=0.0, x2_max=0.25, h=1 / 16),
        "sweep": dict(profile="zero", kind="origin", r_min=0.05, r_max=0.2),
        "classify": dict(profile="zero", kind="origin", r_min=0.05, r_max=0.2),
    }

    @pytest.mark.parametrize("sub", sorted(VALID))
    def test_unknown_key_is_config_error(self, tmp_path, capsys, sub):
        # a misspelled key used to be ignored and its default used
        assert run(sub, write_cfg(tmp_path / "ok.cfg", **self.VALID[sub]), tmp_path / "ok") == 0
        cfg = write_cfg(tmp_path / "c.cfg", **self.VALID[sub], n_radi=7)
        assert run(sub, cfg, tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown key 'n_radi'") and err.count("\n") == 1

    @pytest.mark.parametrize("sub, key, kv", [
        ("sweep", "kind", dict(profile="zero", kind="nowhere")),
        ("classify", "kind", dict(profile="zero", kind="nowhere")),
        ("profile-table", "profile", dict(profile="nowhere", x1_min=0.0, x1_max=0.25,
                                          x2_min=0.0, x2_max=0.25, h=1 / 8)),
    ])
    def test_bad_choice_is_config_error(self, tmp_path, capsys, sub, key, kv):
        # classify with kind = nowhere used to run the whole density sweep first
        cfg = write_cfg(tmp_path / "c.cfg", **kv)
        assert run(sub, cfg, tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and key in err

    @pytest.mark.parametrize("sub, kv, given, center", [
        ("sweep", dict(kind="axis", center_x1=1.0), "axis", "(1.0, 0.0), whose kind is stagnation"),
        ("sweep", dict(kind="stagnation"), "stagnation", "(0.0, 0.0), whose kind is origin"),
        ("classify", dict(kind="origin", point_x2=0.5), "origin", "(0.0, 0.5), whose kind is axis"),
    ], ids=["sweep-axis-at-stagnation", "sweep-stagnation-at-origin", "classify-origin-at-axis"])
    def test_kind_that_contradicts_the_center_is_config_error(self, tmp_path, capsys, sub, kv, given, center):
        # the given kind is checked against the center's before the field is read:
        # the field file does not exist, and its error does not come first
        cfg = write_cfg(tmp_path / "c.cfg", field=tmp_path / "missing.txt", r_min=0.05, r_max=0.2, **kv)
        assert run(sub, cfg, tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: kind {given} contradicts the center {center}\n"
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("sub, kv, msg", [
        ("sweep", dict(profile="flat_origin", kind="origin", r_min=0.05, r_max=0.2, rho_bar0=0),
         "rho_bar0 must be positive"),
        ("sweep", dict(profile="garabedian_bubble", beta0=-1, kind="origin", r_min=0.05, r_max=0.2),
         "beta0 must be positive"),
        ("profile-table", dict(profile="zero", x1_min=0, x1_max=1e-12, x2_min=0, x2_max=1, h=1),
         "the box holds no cell"),
    ], ids=["sweep-incompressible-rho_bar0", "sweep-garabedian-beta0", "profile-table-no-cell"])
    def test_out_of_range_value_is_one_error_line(self, tmp_path, capsys, sub, kv, msg):
        assert run(sub, write_cfg(tmp_path / "c.cfg", **kv), tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: {msg}\n"

    @pytest.mark.parametrize("value", [2, -1])
    def test_write_field_is_0_or_1(self, tmp_path, capsys, value):
        # both used to write field.txt and exit 0
        kv = dict(self.VALID["profile-table"], write_field=value)
        assert run("profile-table", write_cfg(tmp_path / "c.cfg", **kv), tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: write_field must be one of ('0', '1'), got '{value}'\n"
        assert not (tmp_path / "o" / "field.txt").exists()

    BOX = dict(x1_min=0.0, x1_max=0.25, x2_min=0.0, x2_max=0.25, h=1 / 16)

    @pytest.mark.parametrize("sub, kv, msg", [
        ("profile-table", dict(profile="axis_parabola", beta=5, **BOX),
         "key 'beta' does not apply to profile axis_parabola"),
        ("profile-table", dict(profile="axis_parabola", rho_bar0=2.0, **BOX),
         "key 'rho_bar0' does not apply to profile axis_parabola"),
        ("minimize", dict(profile="flat_origin", alpha=2.0, **BOX),
         "key 'alpha' does not apply to profile flat_origin"),
        ("minimize", dict(beta0=1.0, **BOX), "key 'beta0' does not apply without a profile"),
        ("sweep", dict(field="f.txt", kind="origin", beta=1.0), "key 'beta' does not apply next to field"),
        ("classify", dict(field="f.txt", profile="zero"), "key 'profile' does not apply next to field"),
        ("classify", dict(field="f.txt", offset_x1=1.0), "key 'offset_x1' does not apply next to field"),
        ("sweep", dict(kind="origin", r_min=0.05, r_max=0.2), "missing required key 'profile'"),
        ("classify", dict(kind="origin", r_min=0.05, r_max=0.2), "missing required key 'profile'"),
    ], ids=["table-beta", "table-rho_bar0", "minimize-alpha", "minimize-no-profile",
            "sweep-field-beta", "classify-field-profile", "classify-field-offset",
            "sweep-no-source", "classify-no-source"])
    def test_key_of_another_source_is_config_error(self, tmp_path, capsys, sub, kv, msg):
        # each used to be ignored: profile-table with axis_parabola and beta = 5 exited 0
        cfg = write_cfg(tmp_path / "c.cfg", **kv)
        assert run(sub, cfg, tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err == f"error: {msg}\n"

    STOKES = dict(profile="stokes_corner", x1_circ=1.0, offset_x1=1.0)

    @pytest.mark.parametrize("sub, kv", [
        ("sweep", dict(STOKES, center_x1=1.0, n_radii=3)),
        ("classify", dict(STOKES, point_x1=1.0, n_radii=3)),
    ], ids=["sweep", "classify"])
    def test_n_radii_without_a_window_is_config_error(self, tmp_path, capsys, sub, kv):
        # both used to ignore n_radii and take the default window's count: the sweep wrote 43 radii
        assert run(sub, write_cfg(tmp_path / "c.cfg", **kv), tmp_path / "o") == 1
        assert capsys.readouterr().err == "error: key 'n_radii' does not apply without r_min and r_max\n"
        assert not (tmp_path / "o").exists()

    def test_rho_bar0_is_also_a_medium_key(self, tmp_path):
        # minimize and sweep read rho_bar0 for the medium whatever the profile
        kv = dict(profile="axis_parabola", rho_bar0=2.0, **self.BOX)
        assert run("minimize", write_cfg(tmp_path / "m.cfg", **kv), tmp_path / "m") == 0
        kv = dict(profile="flat_origin", rho_bar0=2.0, kind="origin", r_min=0.05, r_max=0.2)
        assert run("sweep", write_cfg(tmp_path / "s.cfg", **kv), tmp_path / "s") == 0

    @pytest.mark.parametrize("sub, kv", [
        ("sweep", dict(field="f.txt", kind="stagnation", center_x1=0.25, r_min=0.05, r_max=0.1)),
        ("minimize", dict(x1_min=0.0, x1_max=0.25, x2_min=0.0, x2_max=0.25, h=1 / 8)),
    ], ids=["sweep-2x2-file", "minimize-2x2-box"])
    def test_grid_below_three_cells_is_one_error_line(self, tmp_path, monkeypatch, capsys, sub, kv):
        # both used to end in numpy's ValueError from the gradient stencil
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.txt").write_text("grid 0 0.5 -0.25 0.25 0.25\n1 2\n3 4\n")
        assert run(sub, write_cfg(tmp_path / "c.cfg", **kv), tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err == "error: the gradient stencil needs 3 cells per axis, got 2 x 2\n"

    @pytest.mark.parametrize("h", [1 / 8, 0.1], ids=["2x2-box", "h-not-dividing-box"])
    def test_minimize_checks_its_lattice_before_it_solves(self, tmp_path, capsys, h):
        # h = 1/8 used to write field.txt before failing, h = 0.1 to run the whole solve
        kv = dict(x1_min=0.0, x1_max=0.25, x2_min=0.0, x2_max=0.25, h=h)
        assert run("minimize", write_cfg(tmp_path / "c.cfg", **kv), tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("sub", ["sweep", "minimize"])
    def test_eps0_is_an_eos_table_key(self, tmp_path, capsys, sub):
        kv = {**self.VALID[sub], "gamma": 2.0, "eps0": 1e-3}
        assert run(sub, write_cfg(tmp_path / "c.cfg", **kv), tmp_path / "o") == 1
        assert capsys.readouterr().err.startswith("error: unknown key 'eps0'")

    def test_threads_flag_is_gone(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", **self.VALID["eos-table"])
        with pytest.raises(SystemExit):
            run("eos-table", cfg, tmp_path / "o", "--threads", "1")


class TestUsage:
    """The command line: ``<subcommand> --config PATH --out DIR [--plots]``, read without argparse."""

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_prints_the_usage_and_exits_0(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eos-table", flag])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == cli.USAGE and err == ""
        assert cli.USAGE.startswith("usage: cornerflow {eos-table,profile-check,")

    @pytest.mark.parametrize("argv, message", [
        (["eos-table", "--config", "C", "--out", "O", "--threads", "1"], "unrecognized argument '--threads'"),
        (["eos-table", "--conf", "C", "--out", "O"], "unrecognized argument '--conf'"),
        (["eos-tables", "--config", "C", "--out", "O"], "unrecognized argument 'eos-tables'"),
        (["eos-table", "--out", "O"], "missing --config"),
        (["eos-table", "--config", "C"], "missing --out"),
        (["--config", "C", "--out", "O"], "missing subcommand"),
        ([], "missing subcommand, --config, --out"),
        (["eos-table", "--config", "C", "--out"], "--out needs a value"),
        (["eos-table", "--config", "--out", "O"], "--config needs a value"),
        (["eos-table", "--config", "C", "--out", "O", "--out", "P"], "--out given twice"),
        (["eos-table", "sweep", "--config", "C", "--out", "O"], "subcommand given twice"),
        (["eos-table", "--config", "C", "--out", "O", "--plots", "--plots"], "--plots given twice"),
    ])
    def test_usage_error_exits_2_with_the_usage_and_one_error_line(self, tmp_path, monkeypatch, capsys,
                                                                    argv, message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"{cli.USAGE}\ncornerflow: error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_plots_reaches_the_runner(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setitem(cli.RUNNERS, "eos-table", lambda cfg, out, opts: seen.append(opts) or 0)
        cfg = write_cfg(tmp_path / "c.cfg", **TestConfigParsing.VALID["eos-table"])
        assert run("eos-table", cfg, tmp_path / "o") == 0
        assert cli.main(["--plots", "--out", str(tmp_path / "p"), "--config", cfg, "eos-table"]) == 0
        assert [o.plots for o in seen] == [False, True]
        assert seen[1] == ("eos-table", cfg, str(tmp_path / "p"), True)

    def test_module_run_reads_sys_argv(self, tmp_path):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        cfg = write_cfg(tmp_path / "c.cfg", **TestConfigParsing.VALID["eos-table"])
        out = subprocess.run([sys.executable, "-m", "cornerflow.cli", "eos-table", "--config", cfg,
                              "--out", str(tmp_path / "o")], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True)
        assert (out.returncode, out.stderr) == (0, "")
        assert (tmp_path / "o" / "eos_table.csv").read_text().count("\n") == 1 + 5 * 5


class TestFieldFiles:
    @pytest.mark.parametrize("text", [
        "grid 0 0.5 -0.25 x 0.25\n1 2\n3 4\n",
        "grid 0 0.5 -0.25 0.25 0.25\n1 2\n3\n",
        "grid 0 0.5 -0.25 0.25 0\n1 2\n3 4\n",
        "grid 0 0.5 -0.25 0.25 0.25\n1 nan\n3 4\n",
    ], ids=["non-numeric-header", "ragged-row", "zero-h", "nan-cell"])
    def test_malformed_field_is_one_error_line(self, tmp_path, capsys, text):
        # each used to end in a traceback, or (nan) to run on silently
        (tmp_path / "f.txt").write_text(text)
        cfg = write_cfg(tmp_path / "c.cfg", field=tmp_path / "f.txt", kind="stagnation",
                        center_x1=0.25, r_min=0.05, r_max=0.1)
        assert run("sweep", cfg, tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'f.txt'}: ") and err.count("\n") == 1


class TestWriters:
    # k full chunks plus r rows: 0 rows, a partial chunk, and chunk edges
    @pytest.mark.parametrize("k, r", [(0, 0), (0, 1), (1, 0), (1, 1), (2, 3)])
    def test_write_csv_matches_per_value_format(self, tmp_path, k, r):
        vals = awkward_table(k * (fields._CHUNK // 5) + r, 5)
        header = ["a", "b", "c", "d", "e"]
        expect = "a,b,c,d,e\n" + reference_text(vals, ",")
        cli._write_csv(tmp_path / "cols.csv", header, vals)
        # a list of tuples mixing numpy and Python floats
        cli._write_csv(tmp_path / "rows.csv", header, [(row[0], *row[1:].tolist()) for row in vals])
        assert (tmp_path / "cols.csv").read_text() == expect
        assert (tmp_path / "rows.csv").read_text() == expect

    def test_write_rows_across_a_chunk_edge(self):
        # one full chunk plus one row of signed zero, the smallest subnormal,
        # near-overflow values and exact integers
        width = 3
        n = fields._CHUNK // width + 1
        vals = np.tile([-0.0, 5e-324, 1e300, 3.0, -(2.0**53), 12345678901234567.0], n)
        vals = vals[: n * width].reshape(n, width)
        buf = io.StringIO()
        fields.write_rows(buf, vals, ",")
        assert buf.getvalue() == "".join(
            ",".join(format(v, ".17g") for v in row) + "\n" for row in vals.tolist())

    # block rows plus r rows (never a whole number of blocks unless r = 0)
    @pytest.mark.parametrize("k, r, write_field", [(1, 3, 1), (2, 0, 1), (0, 5, 1), (1, 3, 0)])
    def test_profile_table_matches_write_rows_on_column_stack(self, tmp_path, k, r, write_field):
        n2, h = 7, 1 / 8
        n1 = k * (fields._CHUNK // n2) + r
        box = (0.5, 0.5 + n1 * h, -0.25, -0.25 + n2 * h, h)
        cols = [awkward_table(n1 * n2 + c, 1)[c:].reshape(n1, n2) for c in range(3)]
        for c in cols:
            c.flat[:3] = (-0.0, 5e-324, 1e300)

        def evaluate(x1, x2):
            # the columns' values at the points' cells
            i = np.rint((x1 - box[0]) / h - 0.5).astype(int)
            j = np.rint((x2 - box[2]) / h - 0.5).astype(int)
            return tuple(c[i, j] for c in cols)

        fields.write_profile_table(str(tmp_path), box, evaluate, write_field)
        X1, X2 = GridField.lattice(*box)
        buf = io.StringIO()
        buf.write("x1,x2,u,ux1,ux2\n")
        fields.write_rows(buf, np.column_stack([a.ravel() for a in (X1, X2, *cols)]), ",")
        assert (tmp_path / "profile_table.csv").read_text() == buf.getvalue()
        assert buf.getvalue().count("\n") == n1 * n2 + 1
        if write_field:
            GridField(*box, cols[0]).write(tmp_path / "reference.txt")
            assert filecmp.cmp(tmp_path / "field.txt", tmp_path / "reference.txt", shallow=False)
        else:
            assert not (tmp_path / "field.txt").exists()

    @pytest.mark.parametrize("k, r", [(0, 0), (0, 1), (1, 0), (2, 3)])
    def test_field_write_matches_per_value_format(self, tmp_path, k, r):
        n1, n2, h = k * (fields._CHUNK // 7) + r, 7, 1 / 8
        fld = GridField(0.0, n1 * h, -0.5, n2 * h - 0.5, h, awkward_table(n1, n2))
        fld.write(tmp_path / "field.txt")
        header = fields.header_line(0.0, n1 * h, -0.5, n2 * h - 0.5, h)
        expect = header + "\n" + reference_text(fld.values, " ")
        assert (tmp_path / "field.txt").read_text() == expect


class TestEosTable:
    def test_columns_and_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", gamma=2.0, A=1.0, rho_bar0=1.0, g=1.0,
                        t_max=0.05, t_count=3, s_max=0.2, s_count=3)
        assert run("eos-table", cfg, tmp_path / "o1") == 0
        assert run("eos-table", cfg, tmp_path / "o2") == 0
        assert filecmp.cmp(tmp_path / "o1" / "eos_table.csv", tmp_path / "o2" / "eos_table.csv", shallow=False)
        with open(tmp_path / "o1" / "eos_table.csv") as f:
            header = f.readline().strip().split(",")
        assert header == ["t", "s", "H", "d1H", "d2H", "F", "lambda"]

    @pytest.mark.parametrize("kv", [
        dict(gamma=2.0, A=1.0, rho_bar0=1.0, g=1.0, t_max=0.05, t_count=3, s_max=0.2, s_count=3),
        dict(gamma=5 / 3, A=2.0, rho_bar0=2.0, g=9.81, t_max=0.01, t_count=3, s_max=0.25, s_count=30),
    ], ids=["gamma2", "gamma5_3"])
    def test_rows_match_the_scalar_api(self, tmp_path, kv):
        # the table inverts all its states at once; each row must carry the
        # bytes of invert_density, F_of and lambda_of at that state
        assert run("eos-table", write_cfg(tmp_path / "c.cfg", **kv), tmp_path / "o") == 0
        model = EosModel(**{k: kv[k] for k in ("gamma", "A", "rho_bar0", "g")})
        rows = []
        for s in np.linspace(0.0, kv["s_max"], kv["s_count"]):
            for t in np.linspace(0.0, kv["t_max"], kv["t_count"]):
                st = invert_density(model, float(t), float(s))
                F, _, _ = F_of(model, float(t), float(s))
                rows.append((t, s, st.rho, st.d1H, st.d2H, F, lambda_of(model, float(s))))
        text = (tmp_path / "o" / "eos_table.csv").read_text()
        assert text == "t,s,H,d1H,d2H,F,lambda\n" + reference_text(rows, ",")

    @pytest.mark.parametrize("kv", [
        dict(gamma=2.0, A=1.0, rho_bar0=1.0, g=1.0, t_max=0.05, t_count=3, s_max=0.2, s_count=3),
        dict(gamma=5 / 3, A=2.0, rho_bar0=2.0, g=9.81, t_max=0.01, t_count=3, s_max=0.25, s_count=30),
    ], ids=["gamma2", "gamma5_3"])
    def test_F_column_matches_the_quadrature_of_1_over_H(self, tmp_path, kv):
        # F_of above evaluates the table's own closed form; F_quadrature integrates
        # 1/H over [0, t] instead.  On these two tables (one off unit density) the
        # worst error is 3.4e-16 of the column's largest |F|; the bound is 10x that
        assert run("eos-table", write_cfg(tmp_path / "c.cfg", **kv), tmp_path / "o") == 0
        model = EosModel(**{k: kv[k] for k in ("gamma", "A", "rho_bar0", "g")})
        table = np.loadtxt(tmp_path / "o" / "eos_table.csv", delimiter=",", skiprows=1)
        F = np.array([F_quadrature(model, t, s)[0] for t, s in table[:, :2]])
        assert np.max(np.abs(table[:, 5] - F)) <= 3.4e-15 * np.max(np.abs(F))

    def test_table_beyond_the_address_space_is_one_error_line(self, tmp_path, capsys):
        # 2.5e13 rows need 182 TiB per column, more than a 47-bit address
        # space holds, so the allocation fails at once: one error line, no traceback
        cfg = write_cfg(tmp_path / "c.cfg", gamma=2.0, t_max=0.05, t_count=5 * 10**6, s_max=0.2, s_count=5 * 10**6)
        assert run("eos-table", cfg, tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1

    @pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["out-is-a-file", "out-under-a-file"])
    def test_unusable_out_is_one_error_line(self, tmp_path, capsys, out):
        # os.makedirs raises FileExistsError or NotADirectoryError here
        (tmp_path / "afile").write_text("kept\n")
        cfg = write_cfg(tmp_path / "c.cfg", gamma=2.0, t_max=0.05, s_max=0.2)
        assert run("eos-table", cfg, tmp_path / out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(str(tmp_path / out)) in err and err.count("\n") == 1
        assert (tmp_path / "afile").read_text() == "kept\n"

    def test_two_inversions_per_run(self, tmp_path, monkeypatch):
        # one for the (t, s) table, one for the (s, s) column behind lambda
        calls = []
        invert = eos.invert_many
        monkeypatch.setattr(eos, "invert_many", lambda *a, **k: calls.append(1) or invert(*a, **k))
        cfg = write_cfg(tmp_path / "c.cfg", gamma=2.0, t_max=0.05, t_count=40, s_max=0.2, s_count=50)
        assert run("eos-table", cfg, tmp_path / "o") == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("kv, msg", [
        (dict(gamma=2.0, t_max=5.0, s_max=0.2), "subsonic inversion failed at node index 1 (t=1.25, s=0.0)"),
        (dict(gamma=2.0, t_max=0.05, s_max=0.2, eps0=0.5), "margin violated at (t=0.0, s=0.0): rho=1, "),
        (dict(gamma=2.0, t_min=-0.1, t_max=0.05, s_max=0.2), "t and s must be nonnegative, got (t=-0.1, s=0.0)"),
        (dict(gamma=2.0, t_max=0.05, s_min=1.1, s_max=1.2),
         "lambda needs a subsonic free-surface state: node index 0 at height 1.1 (x2_st 1.0)"),
    ], ids=["supersonic", "eps0-margin", "negative-t", "lambda-above-x2_st"])
    def test_inadmissible_state_is_one_error_line(self, tmp_path, capsys, kv, msg):
        assert run("eos-table", write_cfg(tmp_path / "c.cfg", **kv), tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + msg) and err.count("\n") == 1
        assert list((tmp_path / "o").iterdir()) == []


class TestProfileCheck:
    def test_constants(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg")
        assert run("profile-check", cfg, tmp_path / "o") == 0
        data = json.loads((tmp_path / "o" / "profile_check.json").read_text())
        assert data["theta_star_deg"] == pytest.approx(114.799, abs=0.01)
        assert data["m0"] == pytest.approx(data["s_star"] ** 2 / 8.0, rel=1e-12)
        assert data["beta"] ** 2 == pytest.approx(7.5, rel=1e-12)
        for rec in data["profiles"].values():
            assert rec["max_pde_residual"] < 1e-6
            assert rec["max_homogeneity_relerr"] < 1e-12

    def test_points_lie_where_each_profile_is_positive(self, tmp_path, monkeypatch):
        # the points are drawn by the profile's own sign, not by a per-kind angle range
        drawn = {}
        interior = cli._interior_points

        def record(spec, rng, n):
            drawn[spec.kind] = (spec, interior(spec, rng, n))
            return drawn[spec.kind][1]

        monkeypatch.setattr(cli, "_interior_points", record)
        assert run("profile-check", write_cfg(tmp_path / "c.cfg"), tmp_path / "o") == 0
        assert sorted(drawn) == ["AxisParabola", "FlatOrigin", "GarabedianBubble", "StokesCorner"]
        for spec, pts in drawn.values():
            x1, x2 = np.array(pts).T
            assert len(pts) == 24 and np.all(x1 > 0.05)
            assert np.all(profiles.eval_profile(spec, x1, x2) > 0.0)


class TestProfileTableAndClassify:
    def test_end_to_end_stokes(self, tmp_path):
        cfg = write_cfg(tmp_path / "p.cfg", profile="stokes_corner", x1_circ=1.0,
                        offset_x1=1.0, offset_x2=0.0,
                        x1_min=0.25, x1_max=1.75, x2_min=-0.75, x2_max=0.75,
                        h=1 / 128, write_field=1)
        assert run("profile-table", cfg, tmp_path / "o") == 0
        # the emitted field file round-trips through the reader
        fld = GridField.read(tmp_path / "o" / "field.txt")
        assert fld.h == pytest.approx(1 / 128)
        ccfg = write_cfg(tmp_path / "c.cfg", field=str(tmp_path / "o" / "field.txt"),
                         point_x1=1.0, point_x2=0.0, kind="stagnation")
        assert run("classify", ccfg, tmp_path / "oc", "--plots") == 0
        data = json.loads((tmp_path / "oc" / "classification.json").read_text())
        assert data["label"] == "StokesCorner"
        assert abs(data["density"] - math.sqrt(3.0) / 3.0) < 1e-2
        assert (tmp_path / "oc" / "blowup.svg").exists()

    def test_plotted_blowup_is_the_fitted_one(self, tmp_path, monkeypatch):
        # without r_min the classifier fits the blow-up at its largest default
        # radius, and --plots draws the blow-up at that same radius
        from cornerflow import classify as classify_mod

        cfg = write_cfg(tmp_path / "p.cfg", profile="stokes_corner", x1_circ=1.0, offset_x1=1.0,
                        x1_min=0.25, x1_max=1.75, x2_min=-0.75, x2_max=0.75, h=1 / 128, write_field=1)
        assert run("profile-table", cfg, tmp_path / "o") == 0
        seen = []
        blowup = classify_mod.blowup
        monkeypatch.setattr(classify_mod, "blowup", lambda f, p, r: seen.append(r) or blowup(f, p, r))
        ccfg = write_cfg(tmp_path / "c.cfg", field=str(tmp_path / "o" / "field.txt"),
                         point_x1=1.0, point_x2=0.0, kind="stagnation")
        assert run("classify", ccfg, tmp_path / "oc", "--plots") == 0
        data = json.loads((tmp_path / "oc" / "classification.json").read_text())
        assert data["label"] == "StokesCorner"
        assert len(seen) == 2 and seen[0] == seen[1]

    @pytest.mark.parametrize("profile, box", [
        (dict(profile="stokes_corner", x1_circ=1.0, offset_x1=1.0), (0.75, 1.25, -0.25, 0.25)),
        (dict(profile="garabedian_bubble"), (0.0, 0.5, -0.5, 0.25)),
    ])
    def test_table_matches_pointwise_gradient(self, tmp_path, profile, box):
        # one array-wide gradient call writes the same bytes as per-cell calls
        h = 1 / 16
        cfg = write_cfg(tmp_path / "p.cfg", **profile, x1_min=box[0], x1_max=box[1],
                        x2_min=box[2], x2_max=box[3], h=h)
        assert run("profile-table", cfg, tmp_path / "o") == 0
        spec = cli._profile_spec(cli.typed_config(cli.parse_config(cfg), "profile-table"))
        off = (profile.get("offset_x1", 0.0), 0.0)
        grid = profiles.profile_field(spec, offset=off).resample(*box, h)
        lines = ["x1,x2,u,ux1,ux2"]
        for i, x1 in enumerate(grid.cell_x1):
            for j, x2 in enumerate(grid.cell_x2):
                g1, g2 = profiles.eval_profile_gradient(spec, x1 - off[0], x2 - off[1])
                row = (x1, x2, grid.values[i, j], g1, g2)
                lines.append(",".join(format(float(v), ".17g") for v in row))
        assert np.any(grid.values > 0)
        assert (tmp_path / "o" / "profile_table.csv").read_text() == "\n".join(lines) + "\n"

    def test_csv_round_trip_columns(self, tmp_path):
        cfg = write_cfg(tmp_path / "p.cfg", profile="axis_parabola", alpha=1.0,
                        x1_min=0.0, x1_max=0.25, x2_min=0.0, x2_max=0.25, h=1 / 32)
        assert run("profile-table", cfg, tmp_path / "o") == 0
        rows = np.loadtxt(tmp_path / "o" / "profile_table.csv", delimiter=",", skiprows=1)
        x1, x2, u, ux1, ux2 = rows.T
        assert np.allclose(u, x1 * x1)
        assert np.allclose(ux1, 2 * x1)
        assert np.allclose(ux2, 0.0)


class TestSweep:
    def test_zero_field_all_zero(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.cfg", profile="zero", kind="origin",
                        r_min=0.05, r_max=0.2, n_radii=5)
        assert run("sweep", cfg, tmp_path / "o") == 0
        rows = np.loadtxt(tmp_path / "o" / "sweep.csv", delimiter=",", skiprows=1)
        assert np.all(rows[:, 1:] == 0.0)

    def test_zero_field_plot(self, tmp_path):
        # every plotted value is 0: the y range is widened by 1 rather than divided by 0
        cfg = write_cfg(tmp_path / "s.cfg", profile="zero", kind="origin", r_min=0.05, r_max=0.2)
        assert run("sweep", cfg, tmp_path / "o", "--plots") == 0
        svg = (tmp_path / "o" / "sweep.svg").read_text()
        assert "nan" not in svg and "inf" not in svg

    def test_profile_sweep_and_plot(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.cfg", profile="flat_origin", kind="origin",
                        r_min=0.05, r_max=0.5, n_radii=8)
        assert run("sweep", cfg, tmp_path / "o1", "--plots") == 0
        assert run("sweep", cfg, tmp_path / "o2", "--plots") == 0
        assert filecmp.cmp(tmp_path / "o1" / "sweep.csv", tmp_path / "o2" / "sweep.csv", shallow=False)
        assert filecmp.cmp(tmp_path / "o1" / "sweep.svg", tmp_path / "o2" / "sweep.svg", shallow=False)
        rows = np.loadtxt(tmp_path / "o1" / "sweep.csv", delimiter=",", skiprows=1)
        with open(tmp_path / "o1" / "sweep.csv") as f:
            header = f.readline().strip().split(",")
        D = rows[:, header.index("D")]
        assert np.max(np.abs(D - 3.0)) < 1e-6

    def test_plot_of_radii_with_one_log10(self, tmp_path):
        # two neighbouring floats are strictly increasing radii, but their log10 is one
        # value: the plot's x range is widened by 1 rather than divided by 0
        r_min = 0.05587922366839003
        r_max = float(np.nextafter(r_min, 1.0))
        assert r_min < r_max and math.log10(r_min) == math.log10(r_max)
        cfg = write_cfg(tmp_path / "s.cfg", profile="flat_origin", kind="origin",
                        r_min=repr(r_min), r_max=repr(r_max), n_radii=2)
        assert run("sweep", cfg, tmp_path / "o", "--plots") == 0
        svg = (tmp_path / "o" / "sweep.svg").read_text()
        assert "nan" not in svg and "inf" not in svg

    def test_header_and_undefined_dM_fd_ends(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.cfg", profile="flat_origin", kind="origin",
                        r_min=0.05, r_max=0.5, n_radii=6)
        assert run("sweep", cfg, tmp_path / "o") == 0
        with open(tmp_path / "o" / "sweep.csv") as f:
            header = f.readline().strip().split(",")
        assert header == ["r", "I", "J", "M", "dM_fd", "k1", "k2", "k3", "k4", "k5", "k6",
                          "D", "V", "N", "e", "Pi", "pohozaev_residual", "energy_identity_residual"]
        rows = np.loadtxt(tmp_path / "o" / "sweep.csv", delimiter=",", skiprows=1)
        # the centered difference has no neighbour past either end
        assert rows[0, 4] == 0.0 and rows[-1, 4] == 0.0
        assert np.all(rows[1:-1, 4] != 0.0)

    def test_axis_profile_sweep(self, tmp_path):
        # an axis point has three error terms and no frequency block
        cfg = write_cfg(tmp_path / "s.cfg", profile="axis_parabola", alpha=0.7, kind="axis",
                        center_x1=0.0, center_x2=0.5, r_min=0.05, r_max=0.3, n_radii=6)
        assert run("sweep", cfg, tmp_path / "o1") == 0
        assert run("sweep", cfg, tmp_path / "o2") == 0
        assert filecmp.cmp(tmp_path / "o1" / "sweep.csv", tmp_path / "o2" / "sweep.csv", shallow=False)
        with open(tmp_path / "o1" / "sweep.csv") as f:
            header = f.readline().strip().split(",")
        rows = np.loadtxt(tmp_path / "o1" / "sweep.csv", delimiter=",", skiprows=1)
        assert rows.shape == (6, len(header))
        for key in ("k4", "k5", "k6", "D", "V", "N", "e", "Pi"):
            assert np.all(rows[:, header.index(key)] == 0.0), key
        assert np.all(rows[:, header.index("J")] > 0)

    def test_one_record_per_radius(self, tmp_path, monkeypatch):
        calls = []
        record = functionals.monotonicity_record

        def counted(*args, **kwargs):
            calls.append(args[3])
            return record(*args, **kwargs)

        monkeypatch.setattr(functionals, "monotonicity_record", counted)
        cfg = write_cfg(tmp_path / "s.cfg", profile="flat_origin", kind="origin",
                        r_min=0.05, r_max=0.5, n_radii=6)
        assert run("sweep", cfg, tmp_path / "o") == 0
        rows = np.loadtxt(tmp_path / "o" / "sweep.csv", delimiter=",", skiprows=1)
        assert calls == list(rows[:, 0])

    @pytest.mark.parametrize("bad", [
        dict(n_radii=-5), dict(center_x1="nan"), dict(center_x2="inf"),
        dict(r_min="nan"), dict(r_max="inf"),
    ], ids=["n_radii", "center_x1", "center_x2", "r_min", "r_max"])
    def test_bad_sweep_input_is_config_error(self, tmp_path, capsys, bad):
        kv = dict(profile="flat_origin", kind="stagnation", center_x1=0.5,
                  center_x2=0.0, r_min=0.05, r_max=0.2, n_radii=5)
        cfg = write_cfg(tmp_path / "s.cfg", **{**kv, **bad})
        assert run("sweep", cfg, tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert next(iter(bad)) in err

    def test_n_arc_is_an_unknown_key(self, tmp_path, capsys):
        # a grid arc has N_ARC nodes: the count is no config key
        cfg = write_cfg(tmp_path / "s.cfg", profile="flat_origin", kind="stagnation", center_x1=0.5,
                        center_x2=0.0, r_min=0.05, r_max=0.2, n_radii=5, n_arc=4096)
        assert run("sweep", cfg, tmp_path / "o") == 1
        assert capsys.readouterr().err == "error: unknown key 'n_arc' for sweep\n"
        assert not (tmp_path / "o").exists()

    def test_bad_kind(self, tmp_path):
        cfg = write_cfg(tmp_path / "s.cfg", profile="zero", kind="nowhere",
                        r_min=0.05, r_max=0.2)
        assert run("sweep", cfg, tmp_path / "o") == 1

    @pytest.mark.parametrize("medium", [{}, {"gamma": 2.0}], ids=["incompressible", "gamma2"])
    def test_axis_sweep_on_a_grid_that_starts_at_the_axis(self, tmp_path, medium):
        # the half arc's end nodes sit at x1 ~ 6e-17 r, where the grid's gradient
        # vanishes: this sweep used to write a pohozaev_residual of -9.6e6 to -3.8e7,
        # and with gamma = 2 to exit 1 on a supersonic t = 1.6e30
        pcfg = write_cfg(tmp_path / "p.cfg", profile="axis_parabola", alpha=0.2, x1_min=0.0, x1_max=0.5,
                         x2_min=0.0, x2_max=1.0, h=1 / 64, write_field=1)
        assert run("profile-table", pcfg, tmp_path / "p") == 0
        cfg = write_cfg(tmp_path / "s.cfg", field=tmp_path / "p" / "field.txt", kind="axis",
                        center_x1=0.0, center_x2=0.5, r_min=0.05, r_max=0.2, **medium)
        assert run("sweep", cfg, tmp_path / "o") == 0
        with open(tmp_path / "o" / "sweep.csv") as f:
            header = f.readline().strip().split(",")
            rows = np.loadtxt(f, delimiter=",", ndmin=2)
        assert rows.shape == (15, len(header))
        assert np.max(np.abs(rows[:, header.index("pohozaev_residual")])) <= 1e-4

    @staticmethod
    def _grid_file(tmp_path, c):
        """``c x2+^1.5`` on the box [0.75, 1.25] x [-0.25, 0.25], h = 1/32: delta = 0.125 at (1, 0)."""
        path = tmp_path / "f.txt"
        GridField.from_function(lambda X1, X2: c * np.maximum(X2, 0.0) ** 1.5 + 0.0 * X1,
                                0.75, 1.25, -0.25, 0.25, 1 / 32).write(path)
        return path

    @pytest.mark.parametrize("r_max, radius", [(0.13, "0.13"), (0.3, "0.1916829312738817")],
                             ids=["beyond-delta", "beyond-the-grid"])
    def test_grid_radius_beyond_delta_is_one_error_line(self, tmp_path, capsys, r_max, radius):
        # a grid sweep evaluates the cells of its largest ball once: every radius
        # is checked against delta first, so a last radius that leaves the grid
        # still names the first inadmissible radius, not a GeometryError
        cfg = write_cfg(tmp_path / "s.cfg", field=self._grid_file(tmp_path, 1.0), kind="stagnation",
                        center_x1=1.0, r_min=0.05, r_max=r_max, n_radii=5)
        assert run("sweep", cfg, tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err == f"error: radius {radius} at or beyond the admissible delta 0.125\n"
        assert list((tmp_path / "o").iterdir()) == []

    def test_gamma2_grid_sweep_through_a_supersonic_cell_is_one_error_line(self, tmp_path, capsys):
        # the failing node may come from the shared ball cells rather than from
        # the first radius that holds one: the message names its (t, s)
        cfg = write_cfg(tmp_path / "s.cfg", field=self._grid_file(tmp_path, 10.0), kind="stagnation",
                        center_x1=1.0, gamma=2.0, r_min=0.03, r_max=0.1, n_radii=4)
        assert run("sweep", cfg, tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: subsonic inversion failed at node index ") and err.count("\n") == 1
        assert "(t=" in err and ", s=" in err
        assert list((tmp_path / "o").iterdir()) == []

    def test_gamma2_grid_sweep_positive_below_the_free_surface_names_lambda(self, tmp_path, capsys):
        # bilinear interpolation between the cell rows at -h/2 and h/2 makes
        # u > 0 on arc nodes just below x2 = 0, where lambda is undefined: the
        # message names a height, not a (t, s) state
        cfg = write_cfg(tmp_path / "s.cfg", field=self._grid_file(tmp_path, 1.0), kind="stagnation",
                        center_x1=1.0, gamma=2.0, r_min=0.03, r_max=0.1, n_radii=4)
        assert run("sweep", cfg, tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: lambda is undefined below the free-surface height: node index ")
        assert err.count("\n") == 1 and " at height -" in err
        assert "subsonic inversion failed" not in err and "t=" not in err
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("kind, kv", [
        ("stagnation", dict(center_x1=1.0)),
        ("axis", dict(profile="axis_parabola", alpha=0.7, center_x2=0.5, r_min=0.05, r_max=0.3, n_radii=6)),
        ("origin", dict(profile="flat_origin", r_min=0.05, r_max=0.5, n_radii=6)),
    ], ids=["stagnation-grid", "axis", "origin"])
    def test_kind_key_is_optional(self, tmp_path, kind, kv):
        # the kind is read from the center: a config without it writes the same
        # bytes as one that names the center's kind (the grid on its default radii)
        if "profile" not in kv:
            path = tmp_path / "f.txt"
            stokes = profiles.profile_field(profiles.stokes_corner(x1_circ=1.0), offset=(1.0, 0.0))
            stokes.resample(0.75, 1.25, -0.25, 0.25, 1 / 64).write(path)
            kv = dict(kv, field=path)
        assert run("sweep", write_cfg(tmp_path / "k.cfg", kind=kind, **kv), tmp_path / "k") == 0
        assert run("sweep", write_cfg(tmp_path / "n.cfg", **kv), tmp_path / "n") == 0
        assert filecmp.cmp(tmp_path / "k" / "sweep.csv", tmp_path / "n" / "sweep.csv", shallow=False)
        rows = np.loadtxt(tmp_path / "n" / "sweep.csv", delimiter=",", skiprows=1, ndmin=2)
        assert rows.shape[0] >= 5 and np.all(rows[:, 2] > 0)  # J > 0 at every radius


class TestMinimize:
    def test_minimize_writes_field_and_log(self, tmp_path):
        cfg = write_cfg(tmp_path / "m.cfg", profile="stokes_corner", x1_circ=1.0,
                        offset_x1=1.0, offset_x2=0.0, rho_bar0=1.0,
                        x1_min=0.875, x1_max=1.125, x2_min=-0.125, x2_max=0.125,
                        h=1 / 64, max_iter=5000)
        assert run("minimize", cfg, tmp_path / "o") == 0
        fld = GridField.read(tmp_path / "o" / "field.txt")
        assert fld.n1 == 16
        log = json.loads((tmp_path / "o" / "minimize_log.json").read_text())
        assert log["converged"]
        energies = [rec["energy"] for rec in log["iterations"]]
        assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))

    def test_converged_means_certified(self, tmp_path):
        # the lab's minimize config: converged means that the last PGS sweep
        # moved no cell by more than tol (default 1e-10) times the largest
        # boundary value, and so does one more sweep from the written field
        cfg = write_cfg(tmp_path / "m.cfg", profile="stokes_corner", x1_circ=1.0,
                        offset_x1=1.0, x1_min=0.75, x1_max=1.25, x2_min=-0.25, x2_max=0.25,
                        h=1 / 128)
        assert run("minimize", cfg, tmp_path / "o") == 0
        log = json.loads((tmp_path / "o" / "minimize_log.json").read_text())
        assert log["converged"]
        assert log["iterations"][-1]["certificate"] <= 1e-10
        v = GridField.read(tmp_path / "o" / "field.txt").values
        stokes = profiles.profile_field(profiles.stokes_corner(x1_circ=1.0), offset=(1.0, 0.0))
        disc = solver._Discretization(solver.MinimizeConfig(
            0.75, 1.25, -0.25, 0.25, 1 / 128, stokes.value))
        moved = solver._pgs_sweep(disc, v, disc.state(v)[1]) - v
        assert np.max(np.abs(moved)) <= 1e-10 * np.max(v[~disc.interior])

    def test_nonconvergence_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path / "m.cfg", profile="stokes_corner", x1_circ=1.0,
                        offset_x1=1.0, offset_x2=0.0, rho_bar0=1.0,
                        x1_min=0.75, x1_max=1.25, x2_min=-0.25, x2_max=0.25,
                        h=1 / 64, max_iter=3)
        assert run("minimize", cfg, tmp_path / "o") == 2

    def test_tol_key_sets_the_stop(self, tmp_path):
        # minimize-gamma2's config: a looser tol stops the descent sooner
        kv = dict(gamma=2.0, profile="flat_origin", beta=0.3,
                  x1_min=0.0, x1_max=0.25, x2_min=0.0, x2_max=0.25, h=1 / 32)
        counts = []
        for name, extra in (("default", {}), ("loose", {"tol": 1e-6})):
            cfg = write_cfg(tmp_path / f"{name}.cfg", **kv, **extra)
            assert run("minimize", cfg, tmp_path / name) == 0
            log = json.loads((tmp_path / name / "minimize_log.json").read_text())
            assert log["converged"]
            counts.append(len(log["iterations"]))
        assert counts[1] < counts[0]

    def test_box_left_of_the_axis_is_one_error_line(self, tmp_path, capsys):
        # a lattice across the axis used to exit 0 and certify an energy of -2.2997
        cfg = write_cfg(tmp_path / "m.cfg", profile="axis_parabola",
                        x1_min=-0.25, x1_max=0.25, x2_min=0.0, x2_max=0.25, h=1 / 32)
        assert run("minimize", cfg, tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err == "error: the lattice lies in the half-plane x1 >= 0, got x1_min = -0.25\n"
        assert list((tmp_path / "o").iterdir()) == []

    def test_gamma_law_box_past_x2_st_is_one_error_line(self, tmp_path, capsys):
        # lattice heights at or above x2_st = 1 have no subsonic free-surface
        # state, so lambda is undefined there (it used to come from the other root)
        cfg = write_cfg(tmp_path / "m.cfg", gamma=2.0, profile="zero",
                        x1_min=0.0, x1_max=0.25, x2_min=0.75, x2_max=1.25, h=1 / 16)
        assert run("minimize", cfg, tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err == "error: lambda needs a subsonic free-surface state at cell (0, 4), x = (0.03125, 1.03125)\n"
        assert list((tmp_path / "o").iterdir()) == []

    def test_gamma_law_box_past_x2_st_only_beyond_the_energy_cells_runs(self, tmp_path):
        # the last cell column, at height 1.03125 >= x2_st, lies in no cell of the
        # energy sum: lambda is not needed there
        cfg = write_cfg(tmp_path / "m.cfg", gamma=2.0, profile="zero",
                        x1_min=0.0, x1_max=0.25, x2_min=0.5, x2_max=1.0625, h=1 / 16)
        assert run("minimize", cfg, tmp_path / "o") == 0
        assert json.loads((tmp_path / "o" / "minimize_log.json").read_text())["converged"]


class TestPackageRoot:
    def test_root_holds_two_constants_and_imports_no_numpy(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        code = ("import json, sys, cornerflow; "
                "print(json.dumps(['numpy' in sys.modules, cornerflow.__file__, sorted(vars(cornerflow))]))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        numpy_loaded, path, names = json.loads(out.stdout)
        assert os.path.dirname(path) == os.path.join(src, "cornerflow")
        assert not numpy_loaded
        module = {"__builtins__", "__cached__", "__doc__", "__file__", "__loader__", "__name__",
                  "__package__", "__path__", "__spec__"}
        assert set(names) - module == {"KERNEL_BACKEND", "__version__"}


def import_cli_fresh(**blas_env):
    """(OPENBLAS_NUM_THREADS, numpy.polynomial loaded, thread count or None) after a fresh import of the CLI."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(blas_env, PYTHONPATH=src)
    code = ("import json, os, sys, cornerflow.cli\n"
            "status = '/proc/self/status'\n"
            "threads = None\n"
            "if os.path.exists(status):\n"
            "    threads = int(open(status).read().split('Threads:')[1].split()[0])\n"
            "print(json.dumps([os.environ['OPENBLAS_NUM_THREADS'], 'numpy.polynomial' in sys.modules, threads]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


class TestStartup:
    def test_one_blas_thread_and_no_polynomial_module(self):
        blas, polynomial, threads = import_cli_fresh()
        assert blas == "1"
        assert not polynomial  # the Gauss-Legendre rules are made on first use
        assert threads in (None, 1)

    def test_user_thread_count_wins(self):
        blas, polynomial, _ = import_cli_fresh(OPENBLAS_NUM_THREADS="2")
        assert blas == "2"
        assert not polynomial


def test_import_loads_no_argument_parser_or_dataclass_machinery():
    # a fresh process pays only for what its subcommand runs
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import json, sys, cornerflow.cli\n"
            "print(json.dumps(sorted({'argparse', 'gettext', 'locale', 'dataclasses'} & set(sys.modules))))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []


class TestGeometryErrors:
    def test_classify_outside_grid(self, tmp_path):
        cfg = write_cfg(tmp_path / "p.cfg", profile="axis_parabola", alpha=1.0,
                        x1_min=0.0, x1_max=0.25, x2_min=0.0, x2_max=0.25, h=1 / 32,
                        write_field=1)
        assert run("profile-table", cfg, tmp_path / "o") == 0
        ccfg = write_cfg(tmp_path / "c.cfg", field=str(tmp_path / "o" / "field.txt"),
                         point_x1=5.0, point_x2=0.0, kind="stagnation")
        assert run("classify", ccfg, tmp_path / "oc") == 1

    @pytest.mark.parametrize("center_x1, center", [(0.75, "(0.75, 0.0)"), (1.5, "(1.5, 0.0)")],
                             ids=["on-the-edge", "outside"])
    def test_sweep_center_not_inside_the_grid_is_one_error_line(self, tmp_path, capsys, center_x1, center):
        # this used to say "radius 0.05 at or beyond the admissible delta 0.0" (or -0.125)
        path = tmp_path / "f.txt"
        GridField.from_function(lambda X1, X2: np.maximum(X2, 0.0) ** 1.5 + 0.0 * X1,
                                0.75, 1.25, -0.25, 0.25, 1 / 32).write(path)
        cfg = write_cfg(tmp_path / "s.cfg", field=path, kind="stagnation", center_x1=center_x1,
                        r_min=0.05, r_max=0.1, n_radii=3)
        assert run("sweep", cfg, tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: center {center} lies outside the grid or on its edge\n"

    @pytest.mark.parametrize("sub, kv, r", [
        ("sweep", dict(kind="axis", center_x1=0.0, center_x2=0.5), 0.0625),
        ("classify", dict(kind="axis", point_x1=0.0, point_x2=0.5), 0.0625),
    ])
    def test_axis_point_on_a_grid_across_the_axis_is_one_error_line(self, tmp_path, capsys, sub, kv, r):
        # half balls need a grid that starts at the axis: on this one the sweep used
        # to divide by zero and classify to label the point Cusp with density 3e-16,
        # and then both to say that the ball, which lies inside the box, left the grid.
        # Both check their radii in increasing order and name the smallest
        path = tmp_path / "f.txt"
        profiles.profile_field(profiles.axis_parabola(0.2)).resample(-0.5, 0.5, 0.0, 1.0, 1 / 64).write(path)
        assert run(sub, write_cfg(tmp_path / "c.cfg", field=path, **kv), tmp_path / "o") == 1
        assert capsys.readouterr().err == (f"error: half ball (center=(0.0, 0.5), r={r}) needs a grid "
                                           "that starts at x1 = 0, not at x1 = -0.5\n")
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("sub, kv, message", [
        ("sweep", dict(kind="axis", center_x1=0.0, center_x2=0.5),
         "radius 0.26207413942088964 at or beyond the admissible delta 0.25"),
        ("classify", dict(kind="axis", point_x1=0.0, point_x2=0.5),
         "ball (center=(0.0, 0.5), r=0.6) leaves the grid"),
    ], ids=["sweep", "classify"])
    def test_axis_point_ball_beyond_the_grid_is_one_error_line(self, tmp_path, capsys, sub, kv, message):
        # on a grid that starts at the axis, a half ball that crosses the box's top
        # keeps its own message; a sweep checks every radius against delta first
        path = tmp_path / "f.txt"
        profiles.profile_field(profiles.axis_parabola(0.2)).resample(0.0, 0.5, 0.0, 1.0, 1 / 64).write(path)
        cfg = write_cfg(tmp_path / "c.cfg", field=path, r_min=0.05, r_max=0.6, n_radii=4, **kv)
        assert run(sub, cfg, tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("kv", [
        dict(profile="axis_parabola", kind="axis", point_x2=0.5),
        dict(profile="garabedian_bubble", kind="origin"),
    ], ids=["axis_parabola-axis", "garabedian_bubble-origin"])
    def test_classify_profile_without_a_window_is_one_error_line(self, tmp_path, capsys, kv):
        # a profile's delta is infinite at an axis or origin point, so there is no
        # default window: these used to exit 0 with a NaN density, and exit 2
        assert run("classify", write_cfg(tmp_path / "c.cfg", **kv), tmp_path / "o") == 1
        assert capsys.readouterr().err == "error: no admissible radius window for this center\n"
        assert not (tmp_path / "o" / "classification.json").exists()

    def test_classify_profile_center_in_the_zero_phase_is_one_error_line(self, tmp_path, capsys):
        # the corner's apex lies 0.1 above (1, 0): the densities are 0 up to r = 0.09 and
        # then rise, and this used to exit 0 with "Cusp" and density -0.0458
        cfg = write_cfg(tmp_path / "c.cfg", profile="stokes_corner", x1_circ=1.0, offset_x1=1.0,
                        offset_x2=0.1, point_x1=1.0, kind="stagnation", r_min=0.02, r_max=0.3, n_radii=10)
        assert run("classify", cfg, tmp_path / "o") == 1
        assert capsys.readouterr().err == ("error: center (1.0, 0.0) is no free-boundary point: the density "
                                           "is 0 at the smallest radius 0.02 but positive at a larger one\n")
        assert list((tmp_path / "o").iterdir()) == []

    def test_classify_profile_positive_nowhere_stays_a_cusp(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", profile="zero", point_x1=1.0, kind="stagnation",
                        r_min=0.02, r_max=0.3, n_radii=10)
        assert run("classify", cfg, tmp_path / "o") == 0
        data = json.loads((tmp_path / "o" / "classification.json").read_text())
        assert data["label"] == "Cusp" and data["density"] == 0.0


class TestClassifyMinimizer:
    """``classify`` at (1, 0) on the lab box's minimizer (docs/decisions.md, "What a certified minimizer is")."""

    def minimize_then_classify(self, tmp_path, h):
        cfg = write_cfg(tmp_path / "m.cfg", profile="stokes_corner", x1_circ=1.0, offset_x1=1.0,
                        x1_min=0.75, x1_max=1.25, x2_min=-0.25, x2_max=0.25, h=h)
        assert run("minimize", cfg, tmp_path / "m") == 0
        ccfg = write_cfg(tmp_path / "c.cfg", field=tmp_path / "m" / "field.txt", point_x1=1.0, kind="stagnation")
        return run("classify", ccfg, tmp_path / "c")

    def test_lab_lattice_is_horizontally_flat(self, tmp_path):
        # at 64^2 the positive set runs through (1, 0) to the bottom row
        assert self.minimize_then_classify(tmp_path, 1 / 128) == 0
        data = json.loads((tmp_path / "c" / "classification.json").read_text())
        assert data["label"] == "HorizontalFlat"
        assert data["density"] == pytest.approx(0.685, abs=5e-4)

    def test_center_in_the_zero_phase_is_one_error_line(self, tmp_path, capsys):
        # at 128^2 the free boundary misses (1, 0) by 0.05: this used to be
        # "Ambiguous" with density -0.143
        assert self.minimize_then_classify(tmp_path, 1 / 256) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: center (1.0, 0.0) is no free-boundary point: the nearest positive cell lies 0.04")
        assert err.endswith(" away, beyond 2h = 0.0078125\n") and err.count("\n") == 1
        assert list((tmp_path / "c").iterdir()) == []
