"""Static guard: the package holds no hidden per-process tables.

Every module of binomsum is parsed, and a function or method decorated by
functools.lru_cache or functools.cache fails the test, apart from
pairs.builtin_document and pairs.builtin_pair: the fixed set of parsed
shipped documents.  A value that grows with n is stepped along its range
by a generator instead, and the value at one point is that generator run
over a range of one.
"""
import ast
from pathlib import Path

import binomsum

ALLOWED = {"pairs.builtin_document", "pairs.builtin_pair"}

CACHES = {"lru_cache", "cache"}


def cached_definitions(source: str, module: str) -> list[str]:
    """module.name of every function or method that a cache decorates, by
    bare name, as functools.<name>, called or not."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            target = (decorator.func if isinstance(decorator, ast.Call)
                      else decorator)
            name = (target.id if isinstance(target, ast.Name)
                    else target.attr if isinstance(target, ast.Attribute)
                    else None)
            if name in CACHES:
                found.append(f"{module}.{node.name}")
    return found


def test_no_cache_outside_the_shipped_documents():
    modules = sorted(Path(binomsum.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    found = [name for m in modules
             for name in cached_definitions(m.read_text(), m.stem)]
    assert sorted(found) == sorted(ALLOWED)


def test_guard_flags_each_kind_of_cache():
    source = ("import functools\nfrom functools import cache, lru_cache\n"
              "@lru_cache(maxsize=1)\ndef a(x): return [x]\n"
              "@functools.lru_cache\ndef b(x): return x\n"
              "@cache\ndef c(x): return x\n"
              "class K:\n    @functools.cache\n    def d(self): return 1\n"
              "    @staticmethod\n    def e(): return 2\n"
              "@functools.wraps(a)\ndef f(): pass\n")
    assert cached_definitions(source, "m") == ["m.a", "m.b", "m.c", "m.d"]
