"""Static guard: the package computes with ints and Fractions only.

Every module of binomsum is parsed, and a float literal, a call to float,
or a math function outside the integer-valued ones fails the test.
"""
import ast
from pathlib import Path

import binomsum

INTEGER_MATH = {"isqrt", "gcd", "lcm", "prod"}


def float_uses(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        where = getattr(node, "lineno", "?")
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {where}: literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"line {where}: call to float")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in INTEGER_MATH):
            found.append(f"line {where}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"line {where}: from math import {a.name}"
                      for a in node.names if a.name not in INTEGER_MATH]
    return found


def test_no_float_arithmetic_in_the_package():
    modules = sorted(Path(binomsum.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    found = {m.name: float_uses(m.read_text()) for m in modules}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_guard_flags_each_kind_of_float_use():
    source = ("import math\nfrom math import log, gcd\n"
              "x = 0.5\ny = float(3)\nz = math.sqrt(2)\nw = math.isqrt(9)\n")
    assert float_uses(source) == [
        "line 2: from math import log", "line 3: literal 0.5",
        "line 4: call to float", "line 5: math.sqrt"]
