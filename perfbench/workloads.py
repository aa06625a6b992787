"""Seeded audit lists for the three benchmark workloads.

A workload is a list of ``binomsum`` invocations.  The seed draws each
audit's range from a fixed band and shuffles the order of the list; the
program only ever sees the generated arguments.  Bands are narrow, and the
``sums`` band is partitioned rather than moved, so that the amount of work
per point, and with it the throughput, barely depends on the seed.

Why each workload exists (see README.md for the layer map):

* ``sums`` -- big-integer ``exact.binomial``/``factorial`` and the O(n^2)
  ``verify.eval_sum`` at large n, plus megabytes of JSON witnesses from
  ``report``.  ``hyperterm``, ``polyalg`` and ``wz`` are never called.
* ``certificates`` -- Fraction-heavy ``hyperterm.eval_term`` and the ``wz``
  kernels with small binomials, the opposite regime for ``exact``.
* ``lemmas`` -- small-integer floor and valuation scans in ``verify`` and
  ``exact``; includes lemma 2.6 at its defaults, which crashes at the
  commit that introduced this benchmark and stays visible as a failed audit.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0

PASS_ONLY = frozenset({"pass"})
SUMS_BAND = (340, 369)  # n range the sums windows partition


@dataclass(frozen=True)
class Audit:
    """One CLI invocation (without ``--jobs``) and its expected outcome.

    ``known_failure`` names a crash this audit is known to have.  The crash
    still counts as a failed audit, but not as a wrong result.
    """

    args: tuple[str, ...]
    expected_exit: int = 0
    expected_statuses: frozenset = PASS_ONLY
    known_failure: str = ""

    @property
    def format(self) -> str:
        return self.args[self.args.index("--format") + 1]

    @property
    def key(self) -> str:
        return " ".join(self.args)


def _windows(rng: random.Random, lo: int, hi: int, parts: int,
             min_width: int) -> list[tuple[int, int]]:
    """Split [lo, hi] into `parts` consecutive windows of >= min_width."""
    slack = (hi - lo + 1) - parts * min_width
    offsets = [0] + sorted(rng.randint(0, slack) for _ in range(parts - 1))
    starts = [lo + i * min_width + off for i, off in enumerate(offsets)]
    ends = [s - 1 for s in starts[1:]] + [hi]
    return list(zip(starts, ends))


def _sums(rng: random.Random) -> list[Audit]:
    audits = [Audit(("sumcheck", "--sum", "all", "--n-min", str(a),
                     "--n-max", str(b), "--format", "json"))
              for a, b in _windows(rng, SUMS_BAND[0], SUMS_BAND[1], 3, 8)]
    start = rng.randint(300, 304)
    audits.append(Audit(("sumcheck", "--sum", "all", "--n-min", str(start),
                         "--n-max", str(start + 9), "--valuation-check",
                         "--format", "json")))
    return audits


def _certificates(rng: random.Random) -> list[Audit]:
    audits = []
    for pair in ("guillera1", "guillera2"):
        ref = f"builtin:{pair}"
        audits.append(Audit(("wzcheck", "--pair", ref, "--mode", "grid",
                             "--n-max", str(rng.randint(44, 45)),
                             "--format", "csv")))
        audits.append(Audit(("wzcheck", "--pair", ref, "--mode", "telescope",
                             "--n-min", "2",
                             "--n-max", str(rng.randint(44, 45)),
                             "--format", "csv")))
        audits.append(Audit(("wzcheck", "--pair", ref, "--mode", "symbolic",
                             "--format", "csv")))
    audits.append(Audit(("ratio", "--id", "all", "--n-min", "2",
                         "--n-max", str(rng.randint(39, 40)),
                         "--format", "csv")))
    return audits


def _lemmas(rng: random.Random) -> list[Audit]:
    return [
        Audit(("lemma", "--id", "2.2", "--n-max", str(rng.randint(140, 142)),
               "--format", "human")),
        Audit(("lemma", "--id", "2.3", "--n-max", str(rng.randint(490, 500)),
               "--format", "human")),
        # (m, n, k) = (2, 1, 1) and its copies are known violations: exit 1.
        Audit(("lemma", "--id", "2.4", "--format", "human"),
              expected_exit=1, expected_statuses=frozenset({"pass", "fail"})),
        Audit(("lemma", "--id", "2.4", "--region", "case3a",
               "--m-max", str(rng.randint(60, 61)), "--format", "human")),
        Audit(("lemma", "--id", "2.5", "--n-max", str(rng.randint(72, 73)),
               "--format", "human")),
        # Defaults on purpose: never shrink this below --n-max 300.
        Audit(("lemma", "--id", "2.6", "--format", "human"),
              known_failure="ValueError: a witness exceeds the 4300-digit "
                            "integer-to-string limit"),
    ]


WORKLOADS = {
    "sums": _sums,
    "certificates": _certificates,
    "lemmas": _lemmas,
}


def audit_list(workload: str, seed: int) -> list[Audit]:
    """The seeded, shuffled audit list of one workload."""
    rng = random.Random(f"{workload}:{seed}")
    audits = WORKLOADS[workload](rng)
    rng.shuffle(audits)
    return audits
