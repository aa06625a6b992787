"""Out-of-band tracer: run the binomsum CLI with its public functions wrapped.

Usage::

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json -- <binomsum args>

Every traced call is aggregated per (function, parent) edge, where the
parent is the innermost traced caller: call count, total time, self time
(duration minus the time of traced child calls) and one optional count
(result bits, points, bytes or items).  The table grows with the number of
edges, not of calls, so hot leaf kernels such as ``exact.factorial`` cost
no memory per call.  It is written to TRACE.json when the CLI returns or
raises.  Report bytes and the exit status are those of the plain CLI.
Forked worker processes inherit the wrappers switched off, so a run
with ``--jobs 2`` is traced on the parent side only.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from time import perf_counter


def _fraction_bits(value) -> int:
    return value.numerator.bit_length() + value.denominator.bit_length()


# Per-extra unit, for the metric listing in run.py.
EXTRA_UNITS = {"result_bits": "bits", "points": "count", "bytes": "bytes",
               "items": "count"}

_ARITH = "polyalg.RationalFunction.arith"

# (module, attribute path, metric key, extra name, extra(args, result))
TARGETS = (
    ("exact", "binomial", "exact.binomial",
     "result_bits", lambda args, r: r.bit_length()),
    ("exact", "factorial", "exact.factorial", None, None),
    ("exact", "legendre_valuation", "exact.legendre_valuation", None, None),
    ("exact", "int_valuation", "exact.int_valuation", None, None),
    ("exact", "primes_upto", "exact.primes_upto", None, None),
    ("verify", "eval_sum", "verify.eval_sum", None, None),
    ("verify", "check_divisibility", "verify.check_divisibility", None, None),
    ("verify", "check_divisibility_valuations",
     "verify.check_divisibility_valuations", None, None),
    ("verify", "lemma22_point", "verify.lemma22_point", None, None),
    ("verify", "lemma23_point", "verify.lemma23_point", None, None),
    ("verify", "lemma24_scan", "verify.lemma24_scan",
     "points", lambda args, r: r.checked),
    ("verify", "lemma25_scan", "verify.lemma25_scan",
     "points", lambda args, r: r.checked),
    ("verify", "lemma25_w", "verify.lemma25_w", None, None),
    ("verify", "lemma26_point", "verify.lemma26_point", None, None),
    ("verify", "lemma26_ineq_scan", "verify.lemma26_ineq_scan",
     "points", lambda args, r: r.checked),
    ("verify", "ratio_identity", "verify.ratio_identity", None, None),
    ("hyperterm", "eval_term", "hyperterm.eval_term",
     "result_bits", lambda args, r: _fraction_bits(r)),
    ("hyperterm", "shift_quotient", "hyperterm.shift_quotient", None, None),
    ("hyperterm", "term_quotient", "hyperterm.term_quotient", None, None),
    ("wz", "wz_grid_row", "wz.wz_grid_row", None, None),
    ("wz", "telescope_audit", "wz.telescope_audit", None, None),
    ("wz", "wz_symbolic_check", "wz.wz_symbolic_check", None, None),
    ("wz", "wz_certificate", "wz.wz_certificate", None, None),
    ("polyalg", "RationalFunction.from_factors",
     "polyalg.RationalFunction.from_factors", None, None),
    ("polyalg", "RationalFunction.__add__", _ARITH, None, None),
    ("polyalg", "RationalFunction.__sub__", _ARITH, None, None),
    ("polyalg", "RationalFunction.__neg__", _ARITH, None, None),
    ("polyalg", "RationalFunction.__mul__", _ARITH, None, None),
    ("polyalg", "RationalFunction.__truediv__", _ARITH, None, None),
    ("polyalg", "BivarPoly.__mul__", "polyalg.BivarPoly.__mul__", None, None),
    ("dsl", "parse_document", "dsl.parse_document", None, None),
    ("pairs", "builtin_pair", "pairs.builtin_pair", None, None),
    ("report", "render", "report.render",
     "bytes", lambda args, r: len(r.encode("utf-8"))),
    ("cli", "main", "cli.main", None, None),
    ("cli", "_pmap", "cli._pmap", "items", lambda args, r: len(args[1])),
)


class Tracer:
    """Wraps target functions and aggregates their spans per edge."""

    def __init__(self) -> None:
        # (key, parent key) -> [calls, total_s, self_s, extra]
        self.edges: dict[tuple[str, str], list] = {}
        self.stack: list[list] = []  # open frames: [key, child_s]
        self.active = True
        self.missing: list[str] = []

    def stop(self) -> None:
        self.active = False

    def wrap(self, fn, key: str, extra):
        edges, stack = self.edges, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else ""
            frame = [key, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                edge = edges.get((key, parent))
                if edge is None:
                    edge = edges[(key, parent)] = [0, 0.0, 0.0, 0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - frame[1]
            if extra is not None:
                edge[3] += extra(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target and re-bind it wherever binomsum imported it.

        A target the package no longer has is listed in ``missing`` and
        reads as zero calls.
        """
        importlib.import_module("binomsum.cli")  # imports every module
        for module_name, path, key, _, extra in TARGETS:
            owner = importlib.import_module(f"binomsum.{module_name}")
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr,
                        classmethod(self.wrap(raw.__func__, key, extra)))
            elif isinstance(owner, type):
                setattr(owner, attr, self.wrap(raw, key, extra))
            else:
                wrapper = self.wrap(raw, key, extra)
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith(
                            "binomsum"):
                        continue
                    for name, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, name, wrapper)

    def table(self) -> list[list]:
        return [[key, parent, *values]
                for (key, parent), values in sorted(self.edges.items())]


def main(argv: list[str]) -> None:
    if len(argv) < 2 or argv[1] != "--":
        sys.exit("usage: tracer.py TRACE.json -- <binomsum args>")
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    os.register_at_fork(after_in_child=tracer.stop)
    cli = importlib.import_module("binomsum.cli")
    start = perf_counter()
    try:
        code = cli.main(cli_args)
    finally:
        wall_s = perf_counter() - start
        with open(out_path, "w", encoding="utf-8") as out:
            json.dump({"wall_s": wall_s, "missing": tracer.missing,
                       "edges": tracer.table()}, out)
    sys.exit(code)


if __name__ == "__main__":
    main(sys.argv[1:])
