"""Command-line front end: run audits and emit machine-readable reports.

Scans parallelize over their outer parameter with an ordered merge, so
report bytes are identical for every --jobs value.  Exit codes: 0 when no
record failed, 1 when any audit failed, 2 for usage/config/parse errors.
"""
from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .dsl import DslError, parse_document, serialize_document
from .hyperterm import NotProportionalError, TermEvalError, eval_term
from .pairs import WZPairSpec, builtin_document, builtin_pair, builtin_pair_names
from .report import FAIL, FORMATS, PASS, SKIPPED, ReportRecord, render
from .verify import LEMMA24_REGIONS, RATIO_IDENTITIES, SUM_SPECS, \
    check_divisibility, check_divisibility_valuations, lemma22_point, \
    lemma23_point, lemma24_scan, lemma25_scan, lemma26_ineq_scan, \
    lemma26_point, ratio_identity, ratio_k_values, sum_spec
from .wz import telescope_audit, wz_certificate, wz_grid_row, wz_symbolic_check

JOBS_ENV = "BINOMSUM_JOBS"

LEMMA_IDS = ("2.2", "2.3", "2.4", "2.5", "2.6")


class ConfigError(Exception):
    """Invalid configuration detected after argument parsing (exit 2)."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs: command, ranges, and output plan."""

    command: str
    format: str = "human"
    output: str | None = None
    jobs: int = 1
    options: tuple[tuple[str, object], ...] = ()

    def option(self, key: str):
        for name, value in self.options:
            if name == key:
                return value
        raise KeyError(key)


# ---------------------------------------------------------------------------
# Pair references (picklable handles usable inside worker processes)
# ---------------------------------------------------------------------------

def _pair_ref(text: str, scale_base: int | None, divisor_kind: str) -> tuple:
    if text.startswith("builtin:"):
        name = text[len("builtin:"):]
        if name not in builtin_pair_names():
            raise ConfigError(
                f"unknown builtin pair {name!r}; "
                f"available: {', '.join(builtin_pair_names())}")
        return ("builtin", name)
    directory = Path(text)
    if not directory.is_dir():
        raise ConfigError(
            f"pair path {text!r} is not a directory "
            "(expected one holding one .F and one .G document)")
    f_files = sorted(str(p) for p in directory.glob("*.F"))
    g_files = sorted(str(p) for p in directory.glob("*.G"))
    if len(f_files) != 1 or len(g_files) != 1:
        raise ConfigError(
            f"pair directory {text!r} must contain exactly one .F and one .G "
            f"file (found {len(f_files)} and {len(g_files)})")
    return ("path", f_files[0], g_files[0], directory.name,
            2 if scale_base is None else scale_base, divisor_kind)


@lru_cache(maxsize=None)
def _resolve_pair(ref: tuple) -> WZPairSpec:
    if ref[0] == "builtin":
        return builtin_pair(ref[1])
    _, f_path, g_path, name, scale_base, divisor_kind = ref
    try:
        f_doc = parse_document(Path(f_path).read_text("utf-8"))
        g_doc = parse_document(Path(g_path).read_text("utf-8"))
    except (OSError, DslError) as exc:
        raise ConfigError(f"cannot load pair from {f_path!r}/{g_path!r}: {exc}")
    return WZPairSpec(name=name, f=f_doc, g=g_doc, scale_base=scale_base,
                      divisor_kind=divisor_kind, sum_id="")


def _pair_label(ref: tuple) -> str:
    return ref[1] if ref[0] == "builtin" else ref[3]


# ---------------------------------------------------------------------------
# Parallel map with deterministic ordered merge
# ---------------------------------------------------------------------------

def _worker_count(jobs: int, n_items: int) -> int:
    """Processes to start: --jobs clamped to the items and the CPUs."""
    return max(1, min(jobs, n_items, os.cpu_count() or 1))


def _pmap(worker, items: list, jobs: int) -> list:
    workers = _worker_count(jobs, len(items))
    if workers == 1:
        return [worker(item) for item in items]
    chunk = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, items, chunksize=chunk))


def _flatten(groups: list[list[ReportRecord]]) -> list[ReportRecord]:
    return [record for group in groups for record in group]


# ---------------------------------------------------------------------------
# sumcheck
# ---------------------------------------------------------------------------

def _sum_record(args: tuple) -> ReportRecord:
    name, kind, n, valuation = args
    spec = sum_spec(name)
    used_kind = spec.divisor_kind if kind is None else kind
    division = check_divisibility(spec, kind, n)
    witness = [("value", str(division.value)), ("divisor", str(division.divisor))]
    if division.ok:
        witness.append(("quotient", str(division.quotient)))
    else:
        witness.append(("remainder", str(division.remainder)))
    status = PASS if division.ok else FAIL
    if valuation:
        val_ok, _failures = check_divisibility_valuations(spec, kind, n)
        agree = val_ok == division.ok
        witness.append(("valuation", "agree" if agree else "disagree"))
        if not agree:
            status = FAIL
    params = (("sum", name), ("divisor", used_kind), ("n", n))
    return ReportRecord("sumcheck", params, status, tuple(witness))


def _cmd_sumcheck(config: RunConfig) -> list[ReportRecord]:
    which = config.option("sum")
    names = list(SUM_SPECS) if which == "all" else [which]
    for name in names:
        sum_spec(name)  # validate early
    kind = config.option("divisor")
    kind = None if kind == "default" else kind
    n_min, n_max = config.option("n_min"), config.option("n_max")
    if n_min < 2:
        raise ConfigError("sumcheck needs --n-min >= 2")
    if n_max < n_min:
        raise ConfigError("--n-max must be >= --n-min")
    valuation = config.option("valuation_check")
    items = [(name, kind, n, valuation)
             for name in names for n in range(n_min, n_max + 1)]
    return _pmap(_sum_record, items, config.jobs)


# ---------------------------------------------------------------------------
# wzcheck
# ---------------------------------------------------------------------------

def _grid_row_records(args: tuple) -> tuple[int, list[ReportRecord]]:
    ref, n = args
    pair = _resolve_pair(ref)
    checked, violations, skipped = wz_grid_row(pair, n)
    records = []
    for (vn, vk), lhs, rhs in violations:
        records.append(ReportRecord(
            "wzcheck",
            (("pair", _pair_label(ref)), ("mode", "grid"), ("n", vn), ("k", vk)),
            FAIL, (("lhs", str(lhs)), ("rhs", str(rhs)))))
    for (sn, sk), message in skipped:
        records.append(ReportRecord(
            "wzcheck",
            (("pair", _pair_label(ref)), ("mode", "grid"), ("n", sn), ("k", sk)),
            SKIPPED, (("reason", message),)))
    return checked, records


def _telescope_record(args: tuple) -> ReportRecord:
    ref, big_n, scale_exp, kind = args
    pair = _resolve_pair(ref)
    audit = telescope_audit(pair, big_n, scale_exp=scale_exp, divisor_kind=kind)
    params = (("pair", _pair_label(ref)), ("mode", "telescope"), ("N", big_n),
              ("divisor_kind", audit.divisor_kind), ("scale_exp", audit.scale_exp))
    witness: list[tuple[str, str]] = [("divisor", str(audit.divisor))]
    if audit.ok:
        witness += [("g_sum_quotient", str(audit.g_sum.quotient)),
                    ("corner_quotient", str(audit.corner.quotient)),
                    ("conclusion_quotient", str(audit.conclusion.quotient))]
        return ReportRecord("wzcheck", params, PASS, tuple(witness))
    for label, rec in ([(f"g_term_k{k}", r) for k, r in audit.g_terms]
                       + [("g_sum", audit.g_sum), ("corner", audit.corner),
                          ("conclusion", audit.conclusion)]):
        if not rec.ok:
            reason = "non-integral" if not rec.integral else "not-divisible"
            witness += [("failed_at", label), ("reason", reason),
                        ("value", str(rec.value))]
            break
    return ReportRecord("wzcheck", params, FAIL, tuple(witness))


def _cmd_wzcheck(config: RunConfig) -> list[ReportRecord]:
    mode = config.option("mode")
    divisor_kind = config.option("divisor")
    ref = _pair_ref(config.option("pair"), config.option("scale_base"),
                    "strong" if divisor_kind is None else divisor_kind)
    label = _pair_label(ref)
    pair = _resolve_pair(ref)  # validate documents up front

    if mode == "grid":
        n_max = config.option("n_max")
        if n_max < 1:
            raise ConfigError("--n-max must be >= 1")
        rows = _pmap(_grid_row_records,
                     [(ref, n) for n in range(1, n_max + 1)], config.jobs)
        checked = sum(c for c, _ in rows)
        point_records = _flatten([recs for _, recs in rows])
        failures = sum(1 for r in point_records if r.status == FAIL)
        skips = sum(1 for r in point_records if r.status == SKIPPED)
        summary = ReportRecord(
            "wzcheck",
            (("pair", label), ("mode", "grid"), ("n_max", n_max)),
            PASS if failures == 0 else FAIL,
            (("points", str(checked)), ("violations", str(failures)),
             ("skipped", str(skips))))
        return [summary] + point_records

    if mode == "symbolic":
        params = (("pair", label), ("mode", "symbolic"))
        try:
            ok, residual = wz_symbolic_check(pair)
            certificate = wz_certificate(pair)
        except NotProportionalError as exc:
            return [ReportRecord("wzcheck", params, FAIL,
                                 (("reason", str(exc)),))]
        witness = (("residual", residual.render()),
                   ("certificate", certificate.render()))
        return [ReportRecord("wzcheck", params, PASS if ok else FAIL, witness)]

    # telescope
    n_min, n_max = config.option("n_min"), config.option("n_max")
    if n_min < 2:
        raise ConfigError("telescope audits need --n-min >= 2")
    if n_max < n_min:
        raise ConfigError("--n-max must be >= --n-min")
    if ref[0] == "path" and config.option("scale_base") is None:
        raise ConfigError("telescope mode on a path pair needs --scale-base")
    items = [(ref, big_n, config.option("scale_exp"), divisor_kind)
             for big_n in range(n_min, n_max + 1)]
    return _pmap(_telescope_record, items, config.jobs)


# ---------------------------------------------------------------------------
# lemma
# ---------------------------------------------------------------------------

def _lemma22_row(n: int) -> list[ReportRecord]:
    records = []
    failures = []
    for k in range(1, n + 1):
        division = lemma22_point(n, k)
        if not division.ok:
            failures.append(ReportRecord(
                "lemma", (("id", "2.2"), ("n", n), ("k", k)), FAIL,
                (("value", str(division.value)),
                 ("divisor", str(division.divisor)),
                 ("remainder", str(division.remainder)))))
    records.append(ReportRecord(
        "lemma", (("id", "2.2"), ("n", n)),
        PASS if not failures else FAIL,
        (("k_checked", str(n)), ("violations", str(len(failures))))))
    records.extend(failures)
    return records


def _lemma23_record(n: int) -> ReportRecord:
    point = lemma23_point(n)
    witness = [("value", str(point.division.value)),
               ("divisor", str(point.division.divisor)),
               ("closed_form", str(point.closed_form))]
    if point.division.ok:
        witness.insert(2, ("quotient", str(point.division.quotient)))
    else:
        witness.insert(2, ("remainder", str(point.division.remainder)))
    return ReportRecord("lemma", (("id", "2.3"), ("n", n)),
                        PASS if point.ok else FAIL, tuple(witness))


def _lemma26_record(n: int) -> ReportRecord:
    division = lemma26_point(n)
    witness = [("value", str(division.value)), ("divisor", str(division.divisor))]
    if division.ok:
        witness.append(("quotient", str(division.quotient)))
    else:
        witness.append(("remainder", str(division.remainder)))
    return ReportRecord("lemma", (("id", "2.6"), ("n", n)),
                        PASS if division.ok else FAIL, tuple(witness))


def _lemma25_violation_record(violation: tuple) -> ReportRecord:
    kind = violation[0]
    n, k = violation[1], violation[2]
    params = (("id", "2.5"), ("n", n), ("k", k))
    if kind == "non-integral":
        witness = (("reason", kind), ("value", str(violation[3])))
    elif kind == "negative-valuation":
        detail = " ".join(f"p{p}:{s}" for p, s in violation[3])
        witness = (("reason", kind), ("valuations", detail))
    else:  # valuation-mismatch
        _, _, _, p, margin_sum, direct = violation
        witness = (("reason", kind), ("p", str(p)),
                   ("margin_sum", str(margin_sum)), ("direct", str(direct)))
    return ReportRecord("lemma", params, FAIL, witness)


def _cmd_lemma(config: RunConfig) -> list[ReportRecord]:
    lemma_id = config.option("id")
    n_max = config.option("n_max")
    m_max = config.option("m_max")

    if lemma_id == "2.2":
        n_max = 200 if n_max is None else n_max
        if n_max < 1:
            raise ConfigError("--n-max must be >= 1")
        return _flatten(_pmap(_lemma22_row, list(range(1, n_max + 1)),
                              config.jobs))

    if lemma_id == "2.3":
        n_max = 500 if n_max is None else n_max
        if n_max < 2:
            raise ConfigError("lemma 2.3 needs --n-max >= 2")
        return _pmap(_lemma23_record, list(range(2, n_max + 1)), config.jobs)

    if lemma_id == "2.4":
        m_max = 50 if m_max is None else m_max
        if m_max < 2:
            raise ConfigError("lemma 2.4 needs --m-max >= 2")
        region = config.option("region")
        full_range = config.option("full_range")
        audit = lemma24_scan(m_max, region=region, full_range=full_range)
        summary = ReportRecord(
            "lemma", (("id", "2.4"),) + audit.params,
            PASS if audit.ok else FAIL,
            (("checked", str(audit.checked)),
             ("violations", str(len(audit.violations)))))
        records = [summary]
        for rec in audit.violations:
            records.append(ReportRecord(
                "lemma",
                (("id", "2.4"), ("m", rec.m), ("n", rec.n), ("k", rec.k)),
                FAIL, (("margin", str(rec.margin)),)))
        return records

    if lemma_id == "2.5":
        n_max = 200 if n_max is None else n_max
        if n_max < 1:
            raise ConfigError("--n-max must be >= 1")
        audit = lemma25_scan(n_max)
        summary = ReportRecord(
            "lemma", (("id", "2.5"),) + audit.params,
            PASS if audit.ok else FAIL,
            (("checked", str(audit.checked)),
             ("violations", str(len(audit.violations)))))
        return [summary] + [_lemma25_violation_record(v)
                            for v in audit.violations]

    # 2.6: pointwise quotients plus the five-floor inequality scan
    n_max = 300 if n_max is None else n_max
    m_max = 200 if m_max is None else m_max
    if n_max < 1:
        raise ConfigError("--n-max must be >= 1")
    if m_max < 2:
        raise ConfigError("lemma 2.6 needs --m-max >= 2")
    records = _pmap(_lemma26_record, list(range(1, n_max + 1)), config.jobs)
    audit = lemma26_ineq_scan(m_max)
    records.append(ReportRecord(
        "lemma", (("id", "2.6"), ("inequality", "five-floor")) + audit.params,
        PASS if audit.ok else FAIL,
        (("checked", str(audit.checked)),
         ("violations", str(len(audit.violations))))))
    for rec in audit.violations:
        records.append(ReportRecord(
            "lemma",
            (("id", "2.6"), ("inequality", "five-floor"),
             ("m", rec.m), ("n", rec.n)),
            FAIL, (("margin", str(rec.margin)),)))
    return records


# ---------------------------------------------------------------------------
# ratio
# ---------------------------------------------------------------------------

def _ratio_records(args: tuple) -> list[ReportRecord]:
    identity, big_n = args
    k_range = ratio_k_values(identity, big_n)
    if k_range is None:
        check = ratio_identity(identity, big_n)
        witness = [("lhs", str(check.lhs)), ("rhs", str(check.rhs))]
        if check.alt is not None:
            witness.append(("alt", str(check.alt)))
        return [ReportRecord("ratio", (("id", identity), ("N", big_n)),
                             PASS if check.equal else FAIL, tuple(witness))]
    failures = []
    for k in k_range:
        check = ratio_identity(identity, big_n, k)
        if not check.equal:
            failures.append(ReportRecord(
                "ratio", (("id", identity), ("N", big_n), ("k", k)), FAIL,
                (("lhs", str(check.lhs)), ("rhs", str(check.rhs)))))
    summary = ReportRecord(
        "ratio", (("id", identity), ("N", big_n)),
        PASS if not failures else FAIL,
        (("k_checked", str(len(k_range))), ("violations", str(len(failures)))))
    return [summary] + failures


def _cmd_ratio(config: RunConfig) -> list[ReportRecord]:
    which = config.option("id")
    identities = list(RATIO_IDENTITIES) if which == "all" else [which]
    n_min, n_max = config.option("n_min"), config.option("n_max")
    if n_min < 2:
        raise ConfigError("ratio identities need --n-min >= 2")
    if n_max < n_min:
        raise ConfigError("--n-max must be >= --n-min")
    items = [(identity, big_n)
             for identity in identities for big_n in range(n_min, n_max + 1)]
    return _flatten(_pmap(_ratio_records, items, config.jobs))


# ---------------------------------------------------------------------------
# term
# ---------------------------------------------------------------------------

def _load_document(source: str):
    if source.startswith("builtin:"):
        name = source[len("builtin:"):]
        try:
            return builtin_document(name)
        except ValueError as exc:
            raise ConfigError(str(exc))
    try:
        text = Path(source).read_text("utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {source!r}: {exc}")
    try:
        return parse_document(text)
    except DslError as exc:
        raise ConfigError(f"{source}: {exc}")


def _cmd_term(config: RunConfig) -> tuple[list[ReportRecord], str | None]:
    action = config.option("action")
    doc = _load_document(config.option("source"))
    if action == "serialize":
        return [], serialize_document(doc)
    if action == "parse":
        term = doc.term
        witness = (("name", doc.name),
                   ("sign", term.sign_exponent.render()),
                   ("base_factors", str(len(term.base_factors))),
                   ("binom_factors", str(len(term.binom_factors))))
        return [ReportRecord("term", (("action", "parse"),), PASS, witness)], None
    n, k = config.option("n"), config.option("k")
    if n is None or k is None:
        raise ConfigError("term eval needs --n and --k")
    params = (("action", "eval"), ("name", doc.name), ("n", n), ("k", k))
    try:
        value = eval_term(doc.term, n, k)
    except TermEvalError as exc:
        return [ReportRecord("term", params, FAIL,
                             (("reason", str(exc)),))], None
    return [ReportRecord("term", params, PASS,
                         (("value", str(value)),))], None


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _default_jobs() -> int:
    raw = os.environ.get(JOBS_ENV)
    if raw is None:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ConfigError(f"{JOBS_ENV} must be an integer, got {raw!r}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="human",
                        help="report format (default: human)")
    common.add_argument("--output", metavar="PATH",
                        help="write the report to PATH instead of stdout")
    common.add_argument("--jobs", type=int, default=None, metavar="N",
                        help=f"worker processes (default: ${JOBS_ENV} or 1); "
                             "output is identical for every value")

    parser = argparse.ArgumentParser(
        prog="binomsum",
        description="Exact-arithmetic audits of central binomial sum "
                    "divisibilities and their certificate pairs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sumcheck", parents=[common],
                       help="divisibility of the built-in binomial sums")
    p.add_argument("--sum", default="all",
                   choices=["all"] + sorted(SUM_SPECS),
                   help="which sum to audit (default: all)")
    p.add_argument("--divisor", default="default",
                   choices=["default", "weak", "strong"],
                   help="divisor family; default uses each sum's own")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=50)
    p.add_argument("--valuation-check", action="store_true",
                   help="also certify each result via prime valuations")

    p = sub.add_parser("wzcheck", parents=[common],
                       help="grid, symbolic, and telescoping pair audits")
    p.add_argument("--pair", required=True,
                   help="builtin:<name> or a directory with one .F and one .G")
    p.add_argument("--mode", required=True,
                   choices=["grid", "symbolic", "telescope"])
    p.add_argument("--n-min", type=int, default=2,
                   help="first N for telescope mode (default 2)")
    p.add_argument("--n-max", type=int, default=60,
                   help="grid size / last N for telescope (default 60)")
    p.add_argument("--scale-exp", type=int, default=None,
                   help="telescope scaling exponent (default N-1)")
    p.add_argument("--scale-base", type=int, default=None,
                   help="scale base for path pairs (builtins carry their own)")
    p.add_argument("--divisor", default=None, choices=["weak", "strong"],
                   help="override the pair's divisor family")

    p = sub.add_parser("lemma", parents=[common],
                       help="proof-level audits (quotients, floors, valuations)")
    p.add_argument("--id", required=True, choices=LEMMA_IDS)
    p.add_argument("--n-max", type=int, default=None,
                   help="per-lemma default: 200 (2.2), 500 (2.3), "
                        "200 (2.5), 300 (2.6)")
    p.add_argument("--m-max", type=int, default=None,
                   help="modulus bound; default: 50 (2.4), 200 (2.6)")
    p.add_argument("--region", default="all", choices=LEMMA24_REGIONS,
                   help="2.4 only: restrict to the k=0 slice or the "
                        "2n+k-1 >= 3m/2 region")
    p.add_argument("--full-range", type=int, default=None, metavar="N",
                   help="2.4 only: scan all 0 <= n <= N instead of residues")

    p = sub.add_parser("ratio", parents=[common],
                       help="closed-form identities for the scaled pair terms")
    p.add_argument("--id", default="all",
                   choices=["all"] + list(RATIO_IDENTITIES))
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=100)

    p = sub.add_parser("term", parents=[common],
                       help="parse, evaluate, or canonically serialize a "
                            "term document")
    p.add_argument("action", choices=["parse", "eval", "serialize"])
    p.add_argument("source",
                   help="path to a document, or builtin:<name>.F / .G")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)

    return parser


_OPTION_KEYS = {
    "sumcheck": ("sum", "divisor", "n_min", "n_max", "valuation_check"),
    "wzcheck": ("pair", "mode", "n_min", "n_max", "scale_exp", "scale_base",
                "divisor"),
    "lemma": ("id", "n_max", "m_max", "region", "full_range"),
    "ratio": ("id", "n_min", "n_max"),
    "term": ("action", "source", "n", "k"),
}


def parse_config(argv: list[str]) -> RunConfig:
    args = build_parser().parse_args(argv)
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    if jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    options = tuple((key, getattr(args, key))
                    for key in _OPTION_KEYS[args.command])
    return RunConfig(command=args.command, format=args.format,
                     output=args.output, jobs=jobs, options=options)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        Path(output).write_text(text, "utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write report to {output!r}: {exc}")


def run(config: RunConfig) -> int:
    """Execute one configured audit; returns the process exit code."""
    raw_text: str | None = None
    if config.command == "sumcheck":
        records = _cmd_sumcheck(config)
    elif config.command == "wzcheck":
        records = _cmd_wzcheck(config)
    elif config.command == "lemma":
        records = _cmd_lemma(config)
    elif config.command == "ratio":
        records = _cmd_ratio(config)
    elif config.command == "term":
        records, raw_text = _cmd_term(config)
    else:
        raise ConfigError(f"unknown command {config.command!r}")
    if raw_text is not None:
        _emit(raw_text, config.output)
        return 0
    _emit(render(records, config.format), config.output)
    return 1 if any(rec.status == FAIL for rec in records) else 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_config(argv)
        return run(config)
    except ConfigError as exc:
        print(f"binomsum: error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
