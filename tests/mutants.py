"""A mutant census of the first-variation validator and of eos's closed forms.

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
