"""A mutant census of the first-variation validator, of eos's closed forms, of the grid balls,
of the grid arcs' support, of the lines that read a point's kind from its center, of the classify
densities and blow-ups, of the cone densities that classify states, of the profiles' angular rule
and of the frequency block's integrals from r = 0.

A mutant is one small edit to a formula line: a coefficient off by 1%, a
sign flipped, a term dropped, a Jacobian entry swapped for its transpose.
The tests kill a mutant when one of them fails; a survivor marks a formula
line that no check constrains.  For each mutant in ``MUTANTS`` the runner
copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
applies the edit there, and runs the tests of its group.  The working tree
is never edited.  pytest does not collect this file: its name does not match
``test_*``.

    python tests/mutants.py

prints a markdown table of the census on stdout.  It exits 0 whatever
survives, and 1 if the unmutated copy fails a group's tests or a mutant's old
text does not occur exactly once in its file, since the census would then
mean nothing.
"""

import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
VALIDATOR = (
    "tests/test_solver.py::TestFirstVariation",
    "tests/test_acceptance.py::test_criterion_08_first_variation_validator",
)
EOS = ("tests/test_eos.py", "tests/test_cli.py::TestEosTable")
BALLS = (
    "tests/test_fields_quadrature.py",
    "tests/test_functionals.py::TestNestedGridBalls",
    "tests/test_functionals.py::TestGridBallPrefixes",
)
KIND = ("tests/test_functionals.py", "tests/test_classify.py")
CLI = ("tests/test_cli.py",)
CLASSIFY = ("tests/test_classify.py", "tests/test_acceptance.py")
PROFILES = ("tests/test_profiles.py", "tests/test_acceptance.py")
FREQUENCY = ("tests/test_functionals.py::TestFrequency",)
# the grid arcs' support: which points a sweep's arcs keep
SUPPORT = ("tests/test_fields_quadrature.py", "tests/test_functionals.py::TestNestedGridBalls")
# every arc integrand of classify and the acceptance criteria vanishes at a half arc's
# end nodes (docs/decisions.md): the arc's length is what sees their weights
ARC = (*CLASSIFY, "tests/test_fields_quadrature.py::TestArcQuadrature")

# (name, file under src/cornerflow, old text, new text, the tests run against it)
MUTANTS = [
    ("T1: lambda chi dropped", "functionals.py",
     "T1 = np.sum(x1 * (ev.F + ev.lam * chi) * divp) * w",
     "T1 = np.sum(x1 * ev.F * divp) * w", VALIDATOR),
    ("T1: div phi as d1p1 alone", "functionals.py",
     "T1 = np.sum(x1 * (ev.F + ev.lam * chi) * divp) * w",
     "T1 = np.sum(x1 * (ev.F + ev.lam * chi) * d1p1) * w", VALIDATOR),
    ("T2: -2.0 -> -2.02", "functionals.py",
     "T2 = -2.0 * np.sum(gDg / (x1 * H)) * w",
     "T2 = -2.02 * np.sum(gDg / (x1 * H)) * w", VALIDATOR),
    ("T3: 2.0*t/H -> 2.02*t/H", "functionals.py",
     "T3 = np.sum((ev.F - 2.0 * t / H + ev.lam * chi) * p1) * w",
     "T3 = np.sum((ev.F - 2.02 * t / H + ev.lam * chi) * p1) * w", VALIDATOR),
    ("T3: lambda chi dropped", "functionals.py",
     "T3 = np.sum((ev.F - 2.0 * t / H + ev.lam * chi) * p1) * w",
     "T3 = np.sum((ev.F - 2.0 * t / H) * p1) * w", VALIDATOR),
    ("T4: lambda' chi dropped", "functionals.py",
     "T4 = np.sum(x1 * (ev.dF2 + ev.lam_p * chi) * p2) * w",
     "T4 = np.sum(x1 * ev.dF2 * p2) * w", VALIDATOR),
    ("T4: sign flipped", "functionals.py",
     "T4 = np.sum(x1 * (ev.dF2 + ev.lam_p * chi) * p2) * w",
     "T4 = -np.sum(x1 * (ev.dF2 + ev.lam_p * chi) * p2) * w", VALIDATOR),
    ("gDg: d1p1 -> 1.01*d1p1", "functionals.py",
     "gDg = g1 * (d1p1 * g1 + d2p1 * g2)",
     "gDg = g1 * (1.01 * d1p1 * g1 + d2p1 * g2)", VALIDATOR),
    ("gDg: d2p2 -> d1p1", "functionals.py",
     "+ g2 * (d1p2 * g1 + d2p2 * g2)",
     "+ g2 * (d1p2 * g1 + d1p1 * g2)", VALIDATOR),
    ("G1: Dphi not transposed", "functionals.py",
     "G1 = (1.0 + eps * d1p1) * g1 + eps * d1p2 * g2",
     "G1 = (1.0 + eps * d1p1) * g1 + eps * d2p1 * g2", VALIDATOR),
    ("G1: eps*d1p1 -> 1.01*eps*d1p1", "functionals.py",
     "G1 = (1.0 + eps * d1p1) * g1",
     "G1 = (1.0 + 1.01 * eps * d1p1) * g1", VALIDATOR),
    ("G2: sign of eps*d2p2", "functionals.py",
     "G2 = eps * d2p1 * g1 + (1.0 + eps * d2p2) * g2",
     "G2 = eps * d2p1 * g1 + (1.0 - eps * d2p2) * g2", VALIDATOR),
    ("F: t / H -> 1.01 * t / H", "eos.py",
     "F = t / H - rest",
     "F = 1.01 * t / H - rest", EOS),
    ("F: gamma * u -> 1.01 * gamma * u", "eos.py",
     "- gamma * u)",
     "- 1.01 * gamma * u)", EOS),
    ("F: rho_bar0 ** 2 -> rho_bar0 in rest", "eos.py",
     "(gamma * model.g * model.rho_bar0 ** 2)",
     "(gamma * model.g * model.rho_bar0)", EOS),
    ("dF2: rho_bar0 ** 2 -> rho_bar0", "eos.py",
     "(H - H0) / model.rho_bar0 ** 2",
     "(H - H0) / model.rho_bar0", EOS),
    ("lambda: 2.0 * s -> 2.02 * s", "eos.py",
     "return 2.0 * s / model.rho_bar0 - F",
     "return 2.02 * s / model.rho_bar0 - F", EOS),
    ("lambda': 1.0 / rho_bar0 -> 1.01 / rho_bar0", "eos.py",
     "1.0 / model.rho_bar0 - dF2",
     "1.01 / model.rho_bar0 - dF2", EOS),
    ("corner area: mid y -> 1.01 * y", "quadrature.py",
     "mid = y * np.maximum(mid_hi - mid_lo, 0.0)",
     "mid = 1.01 * y * np.maximum(mid_hi - mid_lo, 0.0)", BALLS),
    ("corner area: outer's right piece dropped", "quadrature.py",
     "outer = W(-r, np.minimum(x, -xc)) + W(xc, x)",
     "outer = W(-r, np.minimum(x, -xc))", BALLS),
    ("cell fractions: + a[3] -> - a[3]", "quadrature.py",
     "area = a[0] - a[1] - a[2] + a[3]",
     "area = a[0] - a[1] - a[2] - a[3]", BALLS),
    ("inv_mean: exact 1/x1 integral -> midpoint", "quadrature.py",
     "inv_mean[safe] = np.log(x1r[safe] / x1l[safe]) / h",
     "inv_mean[safe] = 1.0 / x1[safe]", BALLS),
    ("inv_mean: axis guard 1e-3 h -> 0.6 h", "quadrature.py",
     "safe = x1l > 1e-3 * h",
     "safe = x1l > 0.6 * h", BALLS),
    ("band: 0.7072 h -> 0.6 h", "quadrature.py",
     "near = np.flatnonzero(d2 <= (r + _BAND * h) ** 2)",
     "near = np.flatnonzero(d2 <= (r + 0.6 * h) ** 2)", BALLS),
    ("full count: rin -> r", "quadrature.py",
     'np.searchsorted(d2, rin * rin, "right")',
     'np.searchsorted(d2, r * r, "right")', BALLS),
    ("full count: right -> left", "quadrature.py",
     'np.searchsorted(d2, rin * rin, "right")',
     'np.searchsorted(d2, rin * rin, "left")', BALLS),
    ("ball count: band dropped", "quadrature.py",
     'n = int(np.searchsorted(d2, (r + _BAND * h) ** 2, "right"))',
     'n = int(np.searchsorted(d2, r ** 2, "right"))', BALLS),
    ("ball count: right -> left", "quadrature.py",
     'n = int(np.searchsorted(d2, (r + _BAND * h) ** 2, "right"))',
     'n = int(np.searchsorted(d2, (r + _BAND * h) ** 2, "left"))', BALLS),
    ("cut cells: radius array shifted by one cell", "quadrature.py",
     "band_r = np.repeat(list(counts), sizes)",
     "band_r = np.roll(np.repeat(list(counts), sizes), 1)", BALLS),
    ("arc support: the union drops a stencil corner", "fields.py",
     "nz[:-1, :-1] | nz[1:, :-1] | nz[:-1, 1:] | nz[1:, 1:]",
     "nz[:-1, :-1] | nz[1:, :-1] | nz[:-1, 1:]", SUPPORT),
    ("arc support: keep read from u alone", "fields.py",
     "nz = np.any(self._grad != 0.0, axis=0)",
     "nz = self._grad[0] != 0.0", SUPPORT),
    ("point kind: origin rule takes the axis", "functionals.py",
     "if c1 == 0 and c2 == 0:",
     "if c1 == 0 and c2 >= 0:", KIND),
    ("point kind: stagnation rule takes x2 > 0", "functionals.py",
     "if c1 > 0 and c2 == 0:",
     "if c1 > 0 and c2 >= 0:", KIND),
    ("point kind: axis rule takes x2 < 0", "functionals.py",
     "if c1 == 0 and c2 > 0:",
     "if c1 == 0 and c2 != 0:", KIND),
    ("delta: stagnation bound min(x1, d) -> d", "functionals.py",
     "return 0.5 * min(center[0], d)",
     "return 0.5 * d", KIND),
    ("CLI: a kind that contradicts the center passes", "cli.py",
     'if cfg["kind"] not in (None, kind):',
     "if False:", CLI),
    ("density: x1 weight at the origin only", "classify.py",
     'if kind != "stagnation":\n        weight = weight * nodes.x1',
     'if kind == "origin":\n        weight = weight * nodes.x1', CLASSIFY),
    ("density: x2+ weight at the origin only", "classify.py",
     'if kind != "axis":\n        weight = weight * np.maximum(nodes.x2, 0.0)',
     'if kind == "origin":\n        weight = weight * np.maximum(nodes.x2, 0.0)', CLASSIFY),
    ("blow-up: every kind's power the axis's", "classify.py",
     "/ r**SCALING_POWER[kind]",
     '/ r**SCALING_POWER["axis"]', CLASSIFY),
    ("blow-up: stagnation box from x1 = 0", "classify.py",
     'box = (-1.0 if kind == "stagnation" else 0.0,',
     "box = (0.0,", CLASSIFY),
    ("half ball: at the origin only", "fields.py",
     "return center[0] == 0",
     "return center[0] == 0 and center[1] == 0", KIND + CLASSIFY),
    ("grid arc: end weights not halved", "quadrature.py",
     "w[0] *= 0.5\n        w[-1] *= 0.5",
     "pass", ARC),
    ("unit shape: axis parabola 1.0 -> 1.01", "classify.py",
     '"axis": axis_parabola(1.0)',
     '"axis": axis_parabola(1.01)', CLASSIFY),
    ("candidate: StokesCorner sqrt(3)/3 -> 1.01x", "classify.py",
     '("StokesCorner", math.sqrt(3.0) / 3.0)',
     '("StokesCorner", 1.01 * math.sqrt(3.0) / 3.0)', CLASSIFY),
    ("candidate: stagnation HorizontalFlat 2/3 -> 1.01x", "classify.py",
     '("HorizontalFlat", 2.0 / 3.0)',
     '("HorizontalFlat", 1.01 * 2.0 / 3.0)', CLASSIFY),
    ("candidate: AxisParabola 2/3 -> 1.01x", "classify.py",
     '("AxisParabola", 2.0 / 3.0)',
     '("AxisParabola", 1.01 * 2.0 / 3.0)', CLASSIFY),
    ("candidate: GarabedianBubble m0 -> 1.01x", "classify.py",
     '("GarabedianBubble", theta_star_constants().m0)',
     '("GarabedianBubble", 1.01 * theta_star_constants().m0)', CLASSIFY),
    ("candidate: origin HorizontalFlat 1/8 -> 1.01x", "classify.py",
     '("HorizontalFlat", 0.125)',
     '("HorizontalFlat", 1.01 * 0.125)', CLASSIFY),
    ("angular rule: half-width 0.5 -> 0.505", "profiles.py",
     "half = 0.5 * (b - a)",
     "half = 0.505 * (b - a)", PROFILES),
    ("e: the r K1 term dropped", "functionals.py",
     "e = r * K1 + r**5 *",
     "e = r**5 *", FREQUENCY),
    ("e: K1 dropped from the integral", "functionals.py",
     "_cumtrapz0(r, (K1 + Ko) / r**5)",
     "_cumtrapz0(r, Ko / r**5)", FREQUENCY),
    ("Pi: S_void / r**4 -> / r**5", "functionals.py",
     'c["S_void"] / r**4',
     'c["S_void"] / r**5', FREQUENCY),
    ("integral from r = 0: integrand extended by 0", "functionals.py",
     "g = np.concatenate(([f0], f))",
     "g = np.concatenate(([0.0], f))", FREQUENCY),
    ("integral from r = 0: integrand extended by its first value", "functionals.py",
     "g = np.concatenate(([f0], f))",
     "g = np.concatenate((f[:1], f))", FREQUENCY),
]


def run_tests(tree, tests):
    """(pytest's exit code, the ids of the failed tests) for ``tests`` in ``tree``."""
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
                         cwd=tree, capture_output=True, text=True)
    failed = [line.split()[1] for line in out.stdout.splitlines() if line.startswith("FAILED ")]
    return out.returncode, failed


def copy_tree(dest):
    ignore = shutil.ignore_patterns("__pycache__")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest)


def census():
    """(name, outcome, failed test ids) per mutant; outcome is killed, survived or error."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp)
        copy_tree(tree)
        tests = tuple(dict.fromkeys(t for *_, group in MUTANTS for t in group))
        code, failed = run_tests(tree, tests)
        if code != 0:
            sys.exit(f"the unmutated copy fails {failed or tests}: no census")
        for name, file, old, new, group in MUTANTS:
            path = tree / "src" / "cornerflow" / file
            text = path.read_text()
            if text.count(old) != 1:
                sys.exit(f"mutant {name!r}: its old text occurs {text.count(old)} times in {file}")
            path.write_text(text.replace(old, new))
            code, failed = run_tests(tree, group)
            path.write_text(text)
            rows.append((name, {0: "survived", 1: "killed"}.get(code, "error"), failed))
    return rows


def main():
    rows = census()
    killed = sum(outcome == "killed" for _, outcome, _ in rows)
    print(f"### Mutant census: {killed} of {len(rows)} killed\n")
    print("| mutant | outcome | failed tests |")
    print("|---|---|---|")
    for name, outcome, failed in rows:
        tests = ", ".join("`" + t.rpartition("::")[2] + "`" for t in failed)
        print(f"| {name} | {outcome} | {tests} |")


if __name__ == "__main__":
    main()
