"""A mutant census of the first-variation validator.

A mutant is one small edit to a formula line: a coefficient off by 1%, a
sign flipped, a term dropped, a Jacobian entry swapped for its transpose.
The tests kill a mutant when one of them fails; a survivor marks a formula
line that no check constrains.  For each mutant in ``MUTANTS`` the runner
copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
applies the edit there, and runs ``TESTS``.  The working tree is never
edited.  pytest does not collect this file: its name does not match
``test_*``.

    python tests/mutants.py

prints a markdown table of the census on stdout.  It exits 0 whatever
survives, and 1 if the unmutated copy fails ``TESTS`` or a mutant's old
text does not occur exactly once in its file, since the census would then
mean nothing.
"""

import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
TESTS = (
    "tests/test_solver.py::TestFirstVariation",
    "tests/test_acceptance.py::test_criterion_08_first_variation_validator",
)

# (name, file under src/cornerflow, old text, new text)
MUTANTS = [
    ("T1: lambda chi dropped", "functionals.py",
     "T1 = np.sum(x1 * (ev.F + ev.lam * chi) * divp) * w",
     "T1 = np.sum(x1 * ev.F * divp) * w"),
    ("T1: div phi as d1p1 alone", "functionals.py",
     "T1 = np.sum(x1 * (ev.F + ev.lam * chi) * divp) * w",
     "T1 = np.sum(x1 * (ev.F + ev.lam * chi) * d1p1) * w"),
    ("T2: -2.0 -> -2.02", "functionals.py",
     "T2 = -2.0 * np.sum(gDg / (x1 * H)) * w",
     "T2 = -2.02 * np.sum(gDg / (x1 * H)) * w"),
    ("T3: 2.0*t/H -> 2.02*t/H", "functionals.py",
     "T3 = np.sum((ev.F - 2.0 * t / H + ev.lam * chi) * p1) * w",
     "T3 = np.sum((ev.F - 2.02 * t / H + ev.lam * chi) * p1) * w"),
    ("T3: lambda chi dropped", "functionals.py",
     "T3 = np.sum((ev.F - 2.0 * t / H + ev.lam * chi) * p1) * w",
     "T3 = np.sum((ev.F - 2.0 * t / H) * p1) * w"),
    ("T4: lambda' chi dropped", "functionals.py",
     "T4 = np.sum(x1 * (ev.dF2 + ev.lam_p * chi) * p2) * w",
     "T4 = np.sum(x1 * ev.dF2 * p2) * w"),
    ("T4: sign flipped", "functionals.py",
     "T4 = np.sum(x1 * (ev.dF2 + ev.lam_p * chi) * p2) * w",
     "T4 = -np.sum(x1 * (ev.dF2 + ev.lam_p * chi) * p2) * w"),
    ("gDg: d1p1 -> 1.01*d1p1", "functionals.py",
     "gDg = g1 * (d1p1 * g1 + d2p1 * g2)",
     "gDg = g1 * (1.01 * d1p1 * g1 + d2p1 * g2)"),
    ("gDg: d2p2 -> d1p1", "functionals.py",
     "+ g2 * (d1p2 * g1 + d2p2 * g2)",
     "+ g2 * (d1p2 * g1 + d1p1 * g2)"),
    ("G1: Dphi not transposed", "functionals.py",
     "G1 = (1.0 + eps * d1p1) * g1 + eps * d1p2 * g2",
     "G1 = (1.0 + eps * d1p1) * g1 + eps * d2p1 * g2"),
    ("G1: eps*d1p1 -> 1.01*eps*d1p1", "functionals.py",
     "G1 = (1.0 + eps * d1p1) * g1",
     "G1 = (1.0 + 1.01 * eps * d1p1) * g1"),
    ("G2: sign of eps*d2p2", "functionals.py",
     "G2 = eps * d2p1 * g1 + (1.0 + eps * d2p2) * g2",
     "G2 = eps * d2p1 * g1 + (1.0 - eps * d2p2) * g2"),
]


def run_tests(tree):
    """(pytest's exit code, the ids of the failed tests) for ``TESTS`` in ``tree``."""
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *TESTS],
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
        code, failed = run_tests(tree)
        if code != 0:
            sys.exit(f"the unmutated copy fails {failed or TESTS}: no census")
        for name, file, old, new in MUTANTS:
            path = tree / "src" / "cornerflow" / file
            text = path.read_text()
            if text.count(old) != 1:
                sys.exit(f"mutant {name!r}: its old text occurs {text.count(old)} times in {file}")
            path.write_text(text.replace(old, new))
            code, failed = run_tests(tree)
            path.write_text(text)
            rows.append((name, {0: "survived", 1: "killed"}.get(code, "error"), failed))
    return rows


def main():
    rows = census()
    killed = sum(outcome == "killed" for _, outcome, _ in rows)
    print(f"### Mutant census of the first-variation validator: {killed} of {len(rows)} killed\n")
    print("| mutant | outcome | failed tests |")
    print("|---|---|---|")
    for name, outcome, failed in rows:
        tests = ", ".join("`" + t.rpartition("::")[2] + "`" for t in failed)
        print(f"| {name} | {outcome} | {tests} |")


if __name__ == "__main__":
    main()
