"""Static guard: every public name of the package has a caller in the package.

Every module of binomsum is parsed. A public module-level function or class,
or a public method, must be named by some ast.Name or ast.Attribute in a
module other than __init__.py; a re-export alone does not keep a name
alive. The allow-list holds the names kept for a caller outside the package.
"""
import ast
from pathlib import Path

import binomsum

ALLOWED = {
    # Per-point references that the row kernels are tested against.
    "verify.floor_margin": "reference for the lemma 2.4 row kernel",
    "verify.floor_margin_fractional": "the fractional route of floor_margin",
    "verify.lemma26_floor_margin": "reference for the lemma 2.6 row kernel",
    "verify.lemma22_point": "reference for the stepped lemma 2.2 rows",
    "verify.iter_sums": "the second route to the values of eval_sum",
    # Benchmark tracer target (perfbench/tracer.py TARGETS).
    "wz.wz_grid_row": "traced by the benchmark's certificates workload",
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
