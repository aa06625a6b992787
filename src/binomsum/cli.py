"""Command-line front end: run audits and emit machine-readable reports.

Scans parallelize over their outer parameter with an ordered merge, so
report bytes are identical for every --jobs value.  --jobs is an upper
bound: work items run in this process until the work left pays for a pool.
Every record is computed before the first byte of the report is written;
report.write then streams the records one at a time.

Exit codes:
  0  no record failed;
  1  an audit failed: at least one record has status FAIL;
  2  usage, configuration or parse error; nothing was audited;
  3  internal error: the program itself went wrong.  No report is written
     and stderr carries one line, ``binomsum: internal error: <Type>: <msg>``.

A mismatch between the two independent routes of one check (floor against
fractional margin, binomial against factorial form) is an internal error,
not a FAIL record: it means the program is wrong, not the mathematics.

main() is the in-process API: it flushes the report, returns the exit code
and never ends the process.  console_main, the entry point of the console
script and of ``python -m binomsum.cli``, ends the process by os._exit as
soon as main() has returned, without interpreter teardown: nothing that
teardown would free or flush can be observed once the report is out.
"""
from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from pathlib import Path
from time import perf_counter_ns
from typing import NoReturn

from .dsl import DslError, parse_document, serialize_document
from .hyperterm import NotProportionalError, TermEvalError, eval_term
from .pairs import WZPairSpec, builtin_document, builtin_pair, builtin_pair_names
from .report import FAIL, FORMATS, PASS, SKIPPED, ReportRecord, write
from .verify import LEMMA24_REGIONS, RATIO_IDENTITIES, SUM_SPECS, \
    LemmaAudit, check_divisibility, lemma22_row, lemma23_rows, \
    lemma24_scan, lemma25_scan, lemma26_ineq_scan, lemma26_rows, \
    check_divisibility_valuations, ratio_identity, ratio_k_values, \
    ratio_row_failures, sum_spec
from .wz import telescope_audit, wz_certificate, wz_grid_rows, wz_symbolic_check

JOBS_ENV = "BINOMSUM_JOBS"

# Default (--n-max, --m-max) per lemma; None: the lemma takes no such bound.
LEMMA_DEFAULTS = {
    "2.2": (200, None),
    "2.3": (500, None),
    "2.4": (None, 50),
    "2.5": (200, None),
    "2.6": (300, 200),
}

LEMMA_IDS = tuple(LEMMA_DEFAULTS)

# wzcheck defaults: first N (telescope) and grid size / last N (grid, telescope).
WZ_N_MIN, WZ_N_MAX = 2, 60


class ConfigError(Exception):
    """Invalid configuration detected after argument parsing (exit 2)."""


# ---------------------------------------------------------------------------
# Pairs
# ---------------------------------------------------------------------------

def _load_pair(text: str, scale_base: int | None,
               divisor_kind: str) -> WZPairSpec:
    """The pair --pair names: builtin:<name>, or a directory holding one .F
    and one .G document, named after the directory."""
    if text.startswith("builtin:"):
        name = text[len("builtin:"):]
        if name not in builtin_pair_names():
            raise ConfigError(
                f"unknown builtin pair {name!r}; "
                f"available: {', '.join(builtin_pair_names())}")
        return builtin_pair(name)
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
    f_path, g_path = f_files[0], g_files[0]
    try:
        f_doc = parse_document(Path(f_path).read_text("utf-8"))
        g_doc = parse_document(Path(g_path).read_text("utf-8"))
        return WZPairSpec(name=Path(os.path.abspath(text)).name,
                          f=f_doc, g=g_doc,
                          scale_base=2 if scale_base is None else scale_base,
                          divisor_kind=divisor_kind)
    except (OSError, ValueError) as exc:  # DslError is a ValueError
        raise ConfigError(f"cannot load pair from {f_path!r}/{g_path!r}: {exc}")


# ---------------------------------------------------------------------------
# Parallel map with deterministic ordered merge, and shared record shapes
# ---------------------------------------------------------------------------

# A parallel map hands each worker about this many chunks of its items.
_CHUNKS_PER_WORKER = 4

# What a process pool adds to a run, in nanoseconds: importing
# concurrent.futures.process and starting and stopping the workers.
# Measured as the --jobs 2 minus the --jobs 1 wall time of
# `sumcheck --sum all --n-min 2 --n-max 3` (seven items of negligible
# work), in 30 alternating pairs of child processes on 2 vCPUs with
# Python 3.11.7: median 59 ms, fastest pair 46 ms.
_POOL_COST_NS = 60_000_000


def _worker_count(jobs: int, n_items: int) -> int:
    """Processes to start: --jobs clamped to the items and the CPUs."""
    return max(1, min(jobs, n_items, os.cpu_count() or 1))


def _pmap(worker, items: list, jobs: int) -> list:
    """[worker(item) for item in items], with --jobs as an upper bound.

    Items run here, in order, until the pace so far predicts that the
    items left need more than twice the pool's cost; the pool then takes
    the rest and its results follow in order.  With w workers a pool pays
    when the remaining work exceeds _POOL_COST_NS * w / (w - 1), and
    w / (w - 1) <= 2: the rent-or-buy rule of ski rental.
    """
    results = []
    start = perf_counter_ns()
    for i, item in enumerate(items):
        left = len(items) - i
        if (jobs > 1 and i
                and (perf_counter_ns() - start) * left > 2 * _POOL_COST_NS * i
                and (workers := _worker_count(jobs, left)) > 1):
            # Imported here so that a serial run never loads multiprocessing.
            from concurrent.futures import ProcessPoolExecutor
            chunk = max(1, left // (workers * _CHUNKS_PER_WORKER))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results.extend(pool.map(worker, items[i:], chunksize=chunk))
            return results
        results.append(worker(item))
    return results


def _blocks(values: range, weight, blocks: int) -> list[range]:
    """values as at most `blocks` runs of consecutive values with about
    equal total weight(value)."""
    weights = [weight(v) for v in values]
    total = sum(weights)
    runs: list[range] = []
    start = done = 0
    for i, w in enumerate(weights, 1):
        done += w
        if done * blocks >= total * (len(runs) + 1):
            runs.append(values[start:i])
            start = i
    return runs


def _pmap_blocks(worker, values: range, weight, jobs: int) -> list:
    """worker over runs of values: the whole range as one item when
    serial, else about _CHUNKS_PER_WORKER runs per worker."""
    workers = _worker_count(jobs, len(values))
    blocks = 1 if workers == 1 else workers * _CHUNKS_PER_WORKER
    return _pmap(worker, _blocks(values, weight, blocks), jobs)


def _merged(audits: list[LemmaAudit]) -> LemmaAudit:
    """The audit of a whole scan from the audits of its consecutive parts."""
    return audits[0]._replace(
        checked=sum(audit.checked for audit in audits),
        violations=tuple(v for audit in audits for v in audit.violations))


def _n_range(args: argparse.Namespace, what: str) -> range:
    """--n-min..--n-max; `what` names the audit and its verb for errors."""
    if args.n_min < 2:
        raise ConfigError(f"{what} --n-min >= 2")
    if args.n_max < args.n_min:
        raise ConfigError("--n-max must be >= --n-min")
    return range(args.n_min, args.n_max + 1)


def _reject_ignored(context: str, options: dict) -> None:
    """Exit 2 if any option in {flag: value} was given: context ignores it."""
    for flag, given in options.items():
        if given is not None:
            raise ConfigError(f"{context} takes no {flag}")


def _division_witness(division) -> tuple:
    """value, divisor, then the quotient on success or the remainder."""
    last = (("quotient", division.quotient) if division.ok
            else ("remainder", division.remainder))
    return (("value", division.value), ("divisor", division.divisor), last)


def _summary(check: str, params: tuple, count_key: str, count: int,
             records: list[ReportRecord], *extra) -> list[ReportRecord]:
    """A summary record counting points, FAIL records and then any extra
    witness pairs, followed by the records."""
    fails = sum(rec.status == FAIL for rec in records)
    summary = ReportRecord(
        check, params, FAIL if fails else PASS,
        ((count_key, count), ("violations", fails)) + extra)
    return [summary] + records


# ---------------------------------------------------------------------------
# sumcheck
# ---------------------------------------------------------------------------

def _sum_records(args: tuple) -> list[ReportRecord]:
    """One record per n of one sum, in order.  A whole sum is one work
    item because eval_sum grows one sum's prefix table per process."""
    name, kind, n_range, valuation = args
    spec = sum_spec(name)
    used_kind = spec.divisor_kind if kind is None else kind
    records = []
    for n in n_range:
        division = check_divisibility(spec, kind, n)
        witness = _division_witness(division)
        agree = True
        if valuation:
            val_ok, _ = check_divisibility_valuations(spec, kind, n)
            agree = val_ok == division.ok
            witness += (("valuation", "agree" if agree else "disagree"),)
        params = (("sum", name), ("divisor", used_kind), ("n", n))
        records.append(ReportRecord(
            "sumcheck", params, PASS if division.ok and agree else FAIL,
            witness))
    return records


def _cmd_sumcheck(args: argparse.Namespace) -> list[ReportRecord]:
    names = list(SUM_SPECS) if args.sum == "all" else [args.sum]
    kind = None if args.divisor == "default" else args.divisor
    n_range = _n_range(args, "sumcheck needs")
    items = [(name, kind, n_range, args.valuation_check) for name in names]
    return [rec for group in _pmap(_sum_records, items, args.jobs)
            for rec in group]


# ---------------------------------------------------------------------------
# wzcheck
# ---------------------------------------------------------------------------

def _grid_block_records(pair: WZPairSpec, rows: range
                        ) -> list[tuple[int, list[ReportRecord]]]:
    """(points checked, FAIL and SKIPPED records) for each row of a block."""
    out = []
    for n, (checked, violations, skipped) in zip(rows,
                                                  wz_grid_rows(pair, rows)):
        params = (("pair", pair.name), ("mode", "grid"), ("n", n))
        records = [ReportRecord("wzcheck", params + (("k", k),), FAIL,
                                (("lhs", lhs), ("rhs", rhs)))
                   for (_, k), lhs, rhs in violations]
        records += [ReportRecord("wzcheck", params + (("k", k),), SKIPPED,
                                 (("reason", message),))
                    for (_, k), message in skipped]
        out.append((checked, records))
    return out


def _telescope_record(args: tuple) -> ReportRecord:
    pair, big_n, scale_exp, kind = args
    audit = telescope_audit(pair, big_n, scale_exp=scale_exp, divisor_kind=kind)
    params = (("pair", pair.name), ("mode", "telescope"), ("N", big_n),
              ("divisor_kind", audit.divisor_kind), ("scale_exp", audit.scale_exp))
    witness: list[tuple] = [("divisor", audit.divisor)]
    if audit.ok:
        witness += [("g_sum_quotient", audit.g_sum.quotient),
                    ("corner_quotient", audit.corner.quotient),
                    ("conclusion_quotient", audit.conclusion.quotient)]
        return ReportRecord("wzcheck", params, PASS, tuple(witness))
    for label, rec in ([(f"g_term_k{k}", r) for k, r in audit.g_terms]
                       + [("g_sum", audit.g_sum), ("corner", audit.corner),
                          ("conclusion", audit.conclusion)]):
        if not rec.ok:
            reason = "non-integral" if not rec.integral else "not-divisible"
            witness += [("failed_at", label), ("reason", reason),
                        ("value", rec.value)]
            break
    return ReportRecord("wzcheck", params, FAIL, tuple(witness))


def _wz_options(args: argparse.Namespace) -> None:
    """Reject options the chosen mode or pair would ignore, then fill in
    the --n-min/--n-max defaults."""
    if args.pair.startswith("builtin:") and args.scale_base is not None:
        raise ConfigError("--scale-base applies to path pairs only")
    unused = {}
    if args.mode != "telescope":
        unused = {"--n-min": args.n_min, "--scale-exp": args.scale_exp,
                  "--divisor": args.divisor}
    if args.mode == "symbolic":
        unused["--n-max"] = args.n_max
    _reject_ignored(f"wzcheck --mode {args.mode}", unused)
    if args.n_min is None:
        args.n_min = WZ_N_MIN
    if args.n_max is None:
        args.n_max = WZ_N_MAX


def _cmd_wzcheck(args: argparse.Namespace) -> list[ReportRecord]:
    pair = _load_pair(args.pair, args.scale_base,
                      "strong" if args.divisor is None else args.divisor)
    _wz_options(args)

    if args.mode == "grid":
        if args.n_max < 1:
            raise ConfigError("--n-max must be >= 1")
        # Rows in one block share their G row; row n has n points.
        rows = [row for block in _pmap_blocks(
                    partial(_grid_block_records, pair),
                    range(1, args.n_max + 1), lambda n: n, args.jobs)
                for row in block]
        records = [rec for _, recs in rows for rec in recs]
        return _summary(
            "wzcheck",
            (("pair", pair.name), ("mode", "grid"), ("n_max", args.n_max)),
            "points", sum(c for c, _ in rows), records,
            ("skipped", sum(rec.status == SKIPPED for rec in records)))

    if args.mode == "symbolic":
        params = (("pair", pair.name), ("mode", "symbolic"))
        try:
            ok, residual = wz_symbolic_check(pair)
            certificate = wz_certificate(pair)
        except NotProportionalError as exc:
            return [ReportRecord("wzcheck", params, FAIL,
                                 (("reason", str(exc)),))]
        witness = (("residual", residual.render()),
                   ("certificate", certificate.render()))
        return [ReportRecord("wzcheck", params, PASS if ok else FAIL, witness)]

    big_ns = _n_range(args, "telescope audits need")
    if not args.pair.startswith("builtin:") and args.scale_base is None:
        raise ConfigError("telescope mode on a path pair needs --scale-base")
    items = [(pair, big_n, args.scale_exp, args.divisor) for big_n in big_ns]
    return _pmap(_telescope_record, items, args.jobs)


# ---------------------------------------------------------------------------
# lemma
# ---------------------------------------------------------------------------

def _lemma22_row(n: int) -> list[ReportRecord]:
    failures = [ReportRecord("lemma", (("id", "2.2"), ("n", n), ("k", k)),
                             FAIL, _division_witness(division))
                for k, division in enumerate(lemma22_row(n), 1)
                if not division.ok]
    return _summary("lemma", (("id", "2.2"), ("n", n)), "k_checked", n,
                    failures)


def _lemma23_records(n_max: int) -> list[ReportRecord]:
    return [ReportRecord("lemma", (("id", "2.3"), ("n", n)),
                         PASS if point.ok else FAIL,
                         _division_witness(point.division)
                         + (("closed_form", point.closed_form),))
            for n, point in enumerate(lemma23_rows(n_max), 2)]


def _lemma26_records(n_max: int) -> list[ReportRecord]:
    return [ReportRecord("lemma", (("id", "2.6"), ("n", n)),
                         PASS if division.ok else FAIL,
                         _division_witness(division))
            for n, division in enumerate(lemma26_rows(n_max), 1)]


def _lemma25_violation_record(violation: tuple) -> ReportRecord:
    kind, n, k = violation[:3]
    params = (("id", "2.5"), ("n", n), ("k", k))
    if kind == "non-integral":
        witness = (("reason", kind), ("value", violation[3]))
    elif kind == "negative-valuation":
        detail = " ".join(f"p{p}:{s}" for p, s in violation[3])
        witness = (("reason", kind), ("valuations", detail))
    else:  # valuation-mismatch
        _, _, _, p, margin_sum, direct = violation
        witness = (("reason", kind), ("p", p), ("margin_sum", margin_sum),
                   ("direct", direct))
    return ReportRecord("lemma", params, FAIL, witness)


def _lemma_bounds(args: argparse.Namespace) -> tuple[int | None, int | None]:
    """(n_max, m_max) from the flags or LEMMA_DEFAULTS; rejects a bound or a
    2.4 option that the chosen lemma would ignore."""
    lemma = args.id
    n_default, m_default = LEMMA_DEFAULTS[lemma]
    _reject_ignored(f"lemma {lemma}", {
        "--n-max": args.n_max if n_default is None else None,
        "--m-max": args.m_max if m_default is None else None})
    if lemma != "2.4" and (args.region != "all"
                           or args.full_range is not None):
        raise ConfigError("--region and --full-range apply to lemma 2.4 only")
    n_max = n_default if args.n_max is None else args.n_max
    m_max = m_default if args.m_max is None else args.m_max
    if lemma == "2.3" and n_max < 2:
        raise ConfigError("lemma 2.3 needs --n-max >= 2")
    if n_max is not None and n_max < 1:
        raise ConfigError("--n-max must be >= 1")
    if m_max is not None and m_max < 2:
        raise ConfigError(f"lemma {lemma} needs --m-max >= 2")
    if args.full_range is not None and args.full_range < 0:
        raise ConfigError("--full-range must be >= 0")
    return n_max, m_max


def _cmd_lemma(args: argparse.Namespace) -> list[ReportRecord]:
    n_max, m_max = _lemma_bounds(args)

    if args.id == "2.2":
        rows = _pmap(_lemma22_row, list(range(1, n_max + 1)), args.jobs)
        return [rec for row in rows for rec in row]

    if args.id == "2.3":  # stepped in process: 500 points take about 5 ms
        return _lemma23_records(n_max)

    if args.id == "2.4":
        def visited(m: int) -> int:  # points the scan visits at m
            n_top = m if args.full_range is None else args.full_range
            return (n_top + 1 if args.region == "k0"
                    else (n_top + 1) * (n_top + 2) // 2)
        audit = _merged(_pmap_blocks(
            partial(lemma24_scan, m_max, region=args.region,
                    full_range=args.full_range),
            range(2, m_max + 1), visited, args.jobs))
        failures = [ReportRecord(
            "lemma", (("id", "2.4"), ("m", rec.m), ("n", rec.n), ("k", rec.k)),
            FAIL, (("margin", rec.margin),)) for rec in audit.violations]
        return _summary("lemma", (("id", "2.4"),) + audit.params, "checked",
                        audit.checked, failures)

    if args.id == "2.5":
        audit = _merged(_pmap_blocks(partial(lemma25_scan, n_max),
                                     range(1, n_max + 1), lambda n: n,
                                     args.jobs))
        failures = [_lemma25_violation_record(v) for v in audit.violations]
        return _summary("lemma", (("id", "2.5"),) + audit.params, "checked",
                        audit.checked, failures)

    # 2.6: pointwise quotients plus the five-floor inequality scan.  The
    # quotients step along n in this process, as Decimals that the report
    # prints by str: the 300 default points take about 13 ms and their
    # text about 8 ms, far below what a pool costs.
    records = _lemma26_records(n_max)
    audit = _merged(_pmap_blocks(partial(lemma26_ineq_scan, m_max),
                                 range(2, m_max + 1), lambda m: m, args.jobs))
    params = (("id", "2.6"), ("inequality", "five-floor"))
    failures = [ReportRecord(
        "lemma", params + (("m", rec.m), ("n", rec.n)),
        FAIL, (("margin", rec.margin),)) for rec in audit.violations]
    return records + _summary("lemma", params + audit.params, "checked",
                              audit.checked, failures)


# ---------------------------------------------------------------------------
# ratio
# ---------------------------------------------------------------------------

def _ratio_records(args: tuple) -> list[ReportRecord]:
    identity, big_n = args
    k_range = ratio_k_values(identity, big_n)
    if k_range is None:
        check = ratio_identity(identity, big_n)
        witness = [("lhs", check.lhs), ("rhs", check.rhs)]
        if check.alt is not None:
            witness.append(("alt", check.alt))
        return [ReportRecord("ratio", (("id", identity), ("N", big_n)),
                             PASS if check.equal else FAIL, tuple(witness))]
    failures = [ReportRecord("ratio", (("id", identity), ("N", big_n),
                                       ("k", check.k)), FAIL,
                             (("lhs", check.lhs), ("rhs", check.rhs)))
                for check in ratio_row_failures(identity, big_n)]
    return _summary("ratio", (("id", identity), ("N", big_n)), "k_checked",
                    len(k_range), failures)


def _cmd_ratio(args: argparse.Namespace) -> list[ReportRecord]:
    identities = list(RATIO_IDENTITIES) if args.id == "all" else [args.id]
    # Parsed here, so that _pmap's pace does not count this one-time set-up
    # against its first item.
    for name in builtin_pair_names():
        builtin_pair(name)
    items = [(identity, big_n) for identity in identities
             for big_n in _n_range(args, "ratio identities need")]
    return [rec for group in _pmap(_ratio_records, items, args.jobs)
            for rec in group]


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
        return parse_document(Path(source).read_text("utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {source!r}: {exc}")
    except DslError as exc:
        raise ConfigError(f"{source}: {exc}")


def _cmd_term(args: argparse.Namespace) -> list[ReportRecord] | str:
    """Report records, or for serialize the canonical text itself."""
    if args.action != "eval":
        _reject_ignored(f"term {args.action}", {"--n": args.n, "--k": args.k})
    doc = _load_document(args.source)
    if args.action == "serialize":
        return serialize_document(doc)
    if args.action == "parse":
        term = doc.term
        witness = (("name", doc.name),
                   ("sign", term.sign_exponent.render()),
                   ("base_factors", len(term.base_factors)),
                   ("binom_factors", len(term.binom_factors)))
        return [ReportRecord("term", (("action", "parse"),), PASS, witness)]
    if args.n is None or args.k is None:
        raise ConfigError("term eval needs --n and --k")
    params = (("action", "eval"), ("name", doc.name), ("n", args.n),
              ("k", args.k))
    try:
        value = eval_term(doc.term, args.n, args.k)
    except TermEvalError as exc:
        return [ReportRecord("term", params, FAIL, (("reason", str(exc)),))]
    return [ReportRecord("term", params, PASS, (("value", value),))]


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _jobs(flag: int | None) -> int:
    """--jobs, else $BINOMSUM_JOBS, else 1."""
    raw = os.environ.get(JOBS_ENV, "1") if flag is None else flag
    try:
        jobs = int(raw)
    except ValueError:
        raise ConfigError(f"{JOBS_ENV} must be an integer, got {raw!r}")
    if jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    return jobs


def _lemma_defaults_help(index: int) -> str:
    return ", ".join(f"{bounds[index]} ({lemma})"
                     for lemma, bounds in LEMMA_DEFAULTS.items()
                     if bounds[index] is not None)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="human",
                        help="report format (default: human)")
    common.add_argument("--output", metavar="PATH",
                        help="write the report to PATH instead of stdout")
    common.add_argument("--jobs", type=int, default=None, metavar="N",
                        help=f"at most N worker processes, started only "
                             f"when the work left pays for them (default: "
                             f"${JOBS_ENV} or 1); output is identical for "
                             "every value")

    parser = argparse.ArgumentParser(
        prog="binomsum",
        description="Exact-arithmetic audits of central binomial sum "
                    "divisibilities and their certificate pairs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sumcheck", parents=[common],
                       help="divisibility of the built-in binomial sums")
    p.set_defaults(run=_cmd_sumcheck)
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
    p.set_defaults(run=_cmd_wzcheck)
    p.add_argument("--pair", required=True,
                   help="builtin:<name> or a directory with one .F and one .G")
    p.add_argument("--mode", required=True,
                   choices=["grid", "symbolic", "telescope"])
    p.add_argument("--n-min", type=int, default=None,
                   help=f"first N for telescope mode (default {WZ_N_MIN})")
    p.add_argument("--n-max", type=int, default=None,
                   help=f"grid size / last N for telescope (default {WZ_N_MAX})")
    p.add_argument("--scale-exp", type=int, default=None,
                   help="telescope scaling exponent (default N-1)")
    p.add_argument("--scale-base", type=int, default=None,
                   help="scale base for path pairs (builtins carry their own)")
    p.add_argument("--divisor", default=None, choices=["weak", "strong"],
                   help="override the pair's divisor family")

    p = sub.add_parser("lemma", parents=[common],
                       help="proof-level audits (quotients, floors, valuations)")
    p.set_defaults(run=_cmd_lemma)
    p.add_argument("--id", required=True, choices=LEMMA_IDS)
    p.add_argument("--n-max", type=int, default=None,
                   help=f"per-lemma default: {_lemma_defaults_help(0)}")
    p.add_argument("--m-max", type=int, default=None,
                   help=f"modulus bound; default: {_lemma_defaults_help(1)}")
    p.add_argument("--region", default="all", choices=LEMMA24_REGIONS,
                   help="2.4 only: restrict to the k=0 slice or the "
                        "2n+k-1 >= 3m/2 region")
    p.add_argument("--full-range", type=int, default=None, metavar="N",
                   help="2.4 only: scan all 0 <= n <= N instead of residues")

    p = sub.add_parser("ratio", parents=[common],
                       help="closed-form identities for the scaled pair terms")
    p.set_defaults(run=_cmd_ratio)
    p.add_argument("--id", default="all",
                   choices=["all"] + list(RATIO_IDENTITIES))
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=100)

    p = sub.add_parser("term", parents=[common],
                       help="parse, evaluate, or canonically serialize a "
                            "term document")
    p.set_defaults(run=_cmd_term)
    p.add_argument("action", choices=["parse", "eval", "serialize"])
    p.add_argument("source",
                   help="path to a document, or builtin:<name>.F / .G")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)

    return parser


def _emit(writer, output: str | None) -> None:
    """writer(stream) on stdout, flushed here, or on the file --output
    names, which is opened only now and closed here."""
    if output is None:
        writer(sys.stdout)
        sys.stdout.flush()
        return
    try:
        with open(output, "w", encoding="utf-8") as out:
            writer(out)
    except OSError as exc:
        raise ConfigError(f"cannot write report to {output!r}: {exc}")


def main(argv: list[str] | None = None) -> int:
    """Run one audit from argv (default: sys.argv[1:]); returns the exit code."""
    args = build_parser().parse_args(argv)
    try:
        args.jobs = _jobs(args.jobs)
        result = args.run(args)  # every record, before the first byte
        if isinstance(result, str):  # term serialize: the text itself
            _emit(lambda out: out.write(result), args.output)
            return 0
        _emit(partial(write, result, args.format), args.output)
        return 1 if any(rec.status == FAIL for rec in result) else 0
    except ConfigError as exc:
        print(f"binomsum: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"binomsum: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


def console_main() -> NoReturn:
    """main(), then the end of the process without interpreter teardown.

    By the time main() returns, the report is flushed or its file closed,
    any failure to write it is already exit 3 with its line on stderr,
    which is line-buffered, and a pool's workers are joined.  Teardown
    would only free every module, cache and record: 7-9 ms of an 80-110 ms
    audit process on 2 vCPUs with Python 3.11.7.  Usage errors and --help
    leave main() as argparse's SystemExit, by the normal exit path.
    """
    code = main()
    os._exit(code)


if __name__ == "__main__":
    console_main()
