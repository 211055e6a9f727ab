"""The package keeps no public function that nothing calls.

Every public module-level function or class and every public method in
``src/cornerflow`` is referenced by name (``ast.Name`` or
``ast.Attribute``) somewhere in ``src/``, or it is listed in ``KEPT`` with
the reason it stays.  An attribute read off ``self`` counts only for the
methods of its enclosing class.  A test-only helper belongs in
``tests/oracles.py``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cornerflow"

# the acceptance criteria state the paper's results through these
_CRITERION = "acceptance-criterion API"
# perfbench/tracing.py wraps these by name, so they stay until it stops looking them up
_TRACED = "wrapped by perfbench/tracing.py"

KEPT = {
    "eos.invert_density": _CRITERION + ": the Bernoulli inversion at one state",
    "eos.BernoulliState.d_rho_d_height": _CRITERION + ": the physical-frame density derivative",
    "eos.lambda_of": _CRITERION + ": the free-boundary weight lambda(x2)",
    "eos.lambda_prime": _CRITERION + ": lambda'(x2)",
    "fields.AnalyticField.resample": _CRITERION + ": a profile sampled onto a grid",
    "functionals.monotonicity_derivative_check": _CRITERION + " (6): the monotonicity formula's M'",
    "profiles.cone_density_constants": _CRITERION + ": the exact weighted densities",
    "functionals.domain_variation_residual": _CRITERION + " (8): the first domain variation",
    "classify.frequency_blowup": _CRITERION + " (9): normalized blow-ups at the origin",
    "eos.GammaLawMedium.H_d1_d2": _TRACED + " (eos.medium, solver.gradient_evals)",
    "eos.GammaLawMedium.F_dF2": _TRACED + " (eos.medium, solver.energy_evals)",
    "eos.IncompressibleMedium.H_d1_d2": _TRACED + " (eos.incompressible)",
    "eos.IncompressibleMedium.F_dF2": _TRACED + " (eos.incompressible)",
    "eos.GammaLawMedium.lam_prime": _TRACED + " (eos.medium)",
    "profiles.eval_profile_gradient": _TRACED + " (profiles)",
}


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def public_definitions(modules):
    """``module.name`` or ``module.Class.name`` of each public function, class and method."""
    out = []
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out.append(f"{mod}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out += [f"{mod}.{node.name}.{sub.name}" for sub in node.body
                        if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")]
    return out


def _on_self(node):
    return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self"


def referenced_names(modules):
    """Names referenced anywhere but off ``self``, and per ``module.Class`` the attributes read off ``self``."""
    names, on_self = set(), {}
    for mod, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                on_self[f"{mod}.{node.name}"] = {sub.attr for sub in ast.walk(node) if _on_self(sub)}
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and not _on_self(node):
                names.add(node.attr)
    return names, on_self


def uncalled(modules):
    names, on_self = referenced_names(modules)
    out = []
    for d in public_definitions(modules):
        owner, _, name = d.rpartition(".")
        if name not in names and name not in on_self.get(owner, ()):
            out.append(d)
    return out


def test_every_public_name_has_a_caller_or_a_reason():
    unlisted = [d for d in uncalled(_modules()) if d not in KEPT]
    assert not unlisted, f"public but called nowhere in src/ (move to tests/oracles.py, or delete): {unlisted}"


def test_every_kept_name_is_defined_and_still_uncalled():
    # a kept name that gains a caller in src/, or goes, leaves the list
    assert sorted(KEPT) == sorted(uncalled(_modules()))


def test_an_uncalled_function_is_found():
    modules = _modules()
    modules["eos"].body.append(ast.parse("def pressure(model, rho):\n    return model.A * rho ** model.gamma\n").body[0])
    assert set(uncalled(modules)) - KEPT.keys() == {"eos.pressure"}


def test_a_method_read_off_self_in_another_class_is_found():
    # ProbeA's self.foo vouches for ProbeA.foo, not for ProbeB.foo
    modules = _modules()
    modules["eos"].body += ast.parse("class ProbeA:\n    def __init__(self):\n        self.foo()\n\n"
                                     "    def foo(self):\n        pass\n\n\n"
                                     "class ProbeB:\n    def foo(self):\n        pass\n").body
    assert set(uncalled(modules)) - KEPT.keys() == {"eos.ProbeA", "eos.ProbeB", "eos.ProbeB.foo"}
