"""The mutant census's table follows the code, checked without running a mutant.

``python tests/mutants.py`` refuses a stale table only when it runs, which is
an information-only CI step.  Here every mutant's old text must occur exactly
once in its file, and every test that a group names must exist: its file, and
the class or function after ``::`` where one is named.
"""

import ast

import mutants


def test_every_old_text_and_test_path_exists():
    src = mutants.ROOT / "src" / "cornerflow"
    texts = {file: (src / file).read_text() for _, file, *_ in mutants.MUTANTS}
    counts = [(name, texts[file].count(old)) for name, file, old, _, _ in mutants.MUTANTS]
    assert [(name, n) for name, n in counts if n != 1] == []
    defined = {}  # per test file, the names of its top-level classes and functions
    missing = []
    for test in dict.fromkeys(t for *_, group in mutants.MUTANTS for t in group):
        path, _, name = test.partition("::")
        file = mutants.ROOT / path
        if not file.is_file():
            missing.append(test)
            continue
        if name and path not in defined:
            defined[path] = {node.name for node in ast.parse(file.read_text()).body
                             if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
        if name and name not in defined[path]:
            missing.append(test)
    assert missing == []
