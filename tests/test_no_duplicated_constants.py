"""Static guard: each large integer constant is stated in one module.

Every module of binomsum is parsed, and an integer literal of absolute
value 1000 or more that appears in two modules fails the test: such a
quantity (a sum's base, say) belongs to one module, and the others read
it there.  A literal's sign is not part of it, so -4096 and 4096 count as
the same constant.
"""
import ast
from collections import defaultdict
from pathlib import Path

import binomsum

LARGE = 1000


def large_literals(source: str) -> set[int]:
    return {node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and type(node.value) is int
            and node.value >= LARGE}


def shared_literals(sources: dict[str, str]) -> dict[int, list[str]]:
    """{literal: modules} of each large literal in two or more modules."""
    where = defaultdict(list)
    for module, source in sorted(sources.items()):
        for value in large_literals(source):
            where[value].append(module)
    return {value: modules for value, modules in where.items()
            if len(modules) > 1}


def test_no_large_integer_literal_is_stated_in_two_modules():
    modules = sorted(Path(binomsum.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    assert shared_literals({m.stem: m.read_text() for m in modules}) == {}


def test_guard_flags_each_shared_large_literal():
    sources = {"a": "x = -4096\ny = 999\nz = 1_000\nw = x * 4096\n",
               "b": "f(4096, 999)\nv = True\n",
               "c": "u = 1000\nt = 'x' * 2000\n",
               "d": "s = 2000.0\n"}
    assert shared_literals(sources) == {4096: ["a", "b"], 1000: ["a", "c"]}
