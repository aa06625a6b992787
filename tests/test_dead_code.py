"""Static guard: every public name of the package has a caller in the package.

Every module of binomsum is parsed. A public module-level function or class,
or a public method, must be named by some ast.Name or ast.Attribute in a
module other than __init__.py; a re-export alone does not keep a name
alive. The allow-list holds the names kept for a caller outside the package.
A private module-level function, class or constant must be named somewhere
in the package outside its own definition; dunders are exempt.
"""
import ast
from collections import Counter
from pathlib import Path

import binomsum

ALLOWED = {
    # Per-point references that the row kernels are tested against.
    "verify.floor_margin": "reference for the lemma 2.4 row kernel",
    "verify.floor_margin_fractional": "the fractional route of floor_margin",
    "verify.lemma26_floor_margin": "reference for the lemma 2.6 row kernel",
    "verify.iter_sums": "the second route to the values of sums, sharing "
                        "SumSpec.binomials with sums as data only",
    # Benchmark tracer targets (perfbench/tracer.py TARGETS).
    "verify.check_divisibility": "traced by the benchmark's sums workload, "
                                 "and the per-point reference of sumcheck",
    "verify.check_divisibility_valuations": "traced by the benchmark's sums "
                                            "workload, and the per-point "
                                            "reference of the valuation route",
    "wz.wz_grid_row": "traced by the benchmark's certificates workload",
    "wz.telescope_audit": "per-N reference and tracer target",
}


def public_definitions(tree: ast.Module, module: str) -> dict[str, str]:
    """{qualified name: bare name} of public functions, classes, methods."""
    found = {}
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            found[f"{module}.{node.name}"] = node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_")):
                    found[f"{module}.{node.name}.{sub.name}"] = sub.name
    return found


def referenced_names(tree: ast.Module) -> set[str]:
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def uncalled(sources: dict[str, str]) -> list[str]:
    """Public names in {module: source} that no non-__init__ module names."""
    defined, used = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined.update(public_definitions(tree, module))
        if module != "__init__":
            used |= referenced_names(tree)
    return sorted(qual for qual, bare in defined.items() if bare not in used)


def test_every_public_name_has_a_caller_in_the_package():
    modules = sorted(Path(binomsum.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    found = uncalled({m.stem: m.read_text() for m in modules})
    assert [name for name in found if name not in ALLOWED] == []
    # An allow-listed name that gains a caller leaves the list.
    assert sorted(ALLOWED) == [name for name in found if name in ALLOWED]


def test_guard_flags_each_kind_of_uncalled_name():
    sources = {
        "__init__": "from .a import f, g, C, D\n",
        "a": ("def f(): pass\ndef g(): f()\ndef _h(): pass\n"
              "class C:\n    def m(self): pass\n    def n(self): self.m()\n"
              "    def __len__(self): return 0\n"
              "class D: pass\nx = D\n"),
    }
    assert uncalled(sources) == ["a.C", "a.C.n", "a.g"]


def names_in(node: ast.AST) -> Counter:
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)))


def defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [target.id for target in targets if isinstance(target, ast.Name)]


def unused_private(sources: dict[str, str]) -> list[str]:
    """Private module-level names in {module: source} that nothing names
    outside the statement that defines them."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum(map(names_in, trees.values()), Counter())
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for node in tree.body for name in defined_names(node)
                  if name.startswith("_") and not name.endswith("__")
                  and everywhere[name] == names_in(node)[name])


def test_every_private_name_is_used_in_the_package():
    sources = {
        "a": ("def _f(): return _f()\ndef _g(): pass\nclass _K: pass\n"
              "_C = 1\n_D: int = 2\n_E = _D\n__all__ = []\n"
              "def __getattr__(name): pass\n"),
        "b": "from .a import _K\nx = _g\n",
    }
    # Self-reference and a bare import keep nothing alive.
    assert unused_private(sources) == ["a._C", "a._E", "a._K", "a._f"]
    modules = sorted(Path(binomsum.__file__).parent.glob("*.py"))
    assert unused_private({m.stem: m.read_text() for m in modules}) == []
