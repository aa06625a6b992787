"""Sum specifications, and the builtin certificate pairs that read them.

A builtin pair is named after the sum its telescoping concludes with and
takes that sum's base and divisor family; F and G are shipped documents.
They are read and parsed where a builtin document is first loaded, which
alone imports importlib.resources, dsl and hyperterm: the sum and lemma
audits import none of them.
"""
from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, NamedTuple

from .records import Validated

if TYPE_CHECKING:
    from .hyperterm import TermDocument

DIVISOR_KINDS = ("weak", "strong")


class _SumFields(NamedTuple):
    name: str
    coeff: tuple[int, int, int]
    binomials: tuple
    base: int
    divisor_kind: str = "weak"


class SumSpec(Validated, _SumFields):
    """One sum of the shape sum((c2*k^2+c1*k+c0) * t * base**(n-k-1) for k
    in range(n)), t the product of C(a0+a*k, b0+b*k)**p over the entries
    ((a0, a), (b0, b), p) of binomials, a table along k for _binomial_rows."""

    __slots__ = ()

    def _validate(self) -> None:
        if self.base == 0:
            raise ValueError("base must be nonzero")
        if not self.binomials:
            raise ValueError("binomials must not be empty")
        for (a0, a), (b0, b), p in self.binomials:
            if p < 1 or not (0 <= b0 <= a0 and 0 <= b <= a):
                raise ValueError(f"C({a0}{a:+}k, {b0}{b:+}k)**{p} needs p >= 1 "
                                 "and 0 <= b <= a for all k >= 0")
        if self.divisor_kind not in DIVISOR_KINDS:
            raise ValueError(f"divisor kind must be one of {DIVISOR_KINDS}")


SUM_SPECS: dict[str, SumSpec] = {s.name: s for s in (
    SumSpec("sun_a", (0, 3, 1), (((0, 2), (0, 1), 3),), -8),
    SumSpec("sun_b", (0, 3, 1), (((0, 2), (0, 1), 3),), 16),
    SumSpec("sun_c", (0, 6, 1), (((0, 2), (0, 1), 3),), 256),
    SumSpec("sun_d", (0, 6, 1), (((0, 2), (0, 1), 3),), -512),
    SumSpec("sun_e", (0, 42, 5), (((0, 2), (0, 1), 3),), 4096),
    SumSpec("guillera1", (20, 8, 1), (((0, 2), (0, 1), 5),), -4096,
            divisor_kind="strong"),
    SumSpec("guillera2", (120, 34, 3),
            (((0, 2), (0, 1), 4), ((0, 4), (0, 2), 1)), 65536,
            divisor_kind="strong"),
)}


def sum_spec(name: str) -> SumSpec:
    try:
        return SUM_SPECS[name]
    except KeyError:
        raise ValueError(f"unknown sum {name!r}; "
                         f"available: {', '.join(sorted(SUM_SPECS))}") from None


class _PairFields(NamedTuple):
    name: str
    f: TermDocument
    g: TermDocument
    scale_base: int
    divisor_kind: str


class WZPairSpec(Validated, _PairFields):
    """A certificate pair (F, G) plus its audit conventions.

    scale_base is the integer B with B^(N-1) clearing denominators in the
    telescoping audit; divisor_kind selects the divisor family P(N).
    """

    __slots__ = ()

    def _validate(self) -> None:
        if self.divisor_kind not in DIVISOR_KINDS:
            raise ValueError(f"divisor kind must be one of {DIVISOR_KINDS}")
        if self.scale_base == 0:
            raise ValueError("scale base must be nonzero")
        if self.f.name == self.g.name:
            raise ValueError("pair documents must have distinct names")


# Sums of SUM_SPECS with a shipped pair: terms/<name>.F and terms/<name>.G.
_BUILTIN_PAIRS = ("guillera1", "guillera2")


def builtin_pair_names() -> list[str]:
    return sorted(_BUILTIN_PAIRS)


def builtin_document_names() -> list[str]:
    return [f"{p}.{side}" for p in builtin_pair_names() for side in ("F", "G")]


def builtin_document_text(name: str) -> str:
    """Raw shipped source of a builtin document, e.g. 'guillera1.F'."""
    if name not in builtin_document_names():
        raise ValueError(f"unknown builtin document {name!r}")
    from importlib import resources
    return (resources.files(__package__) / "terms" / name).read_text("utf-8")


@cache
def builtin_document(name: str) -> TermDocument:
    from .dsl import parse_document
    return parse_document(builtin_document_text(name))


@cache
def builtin_pair(name: str) -> WZPairSpec:
    """The shipped pair that telescopes to the sum of the same name, scaled
    by that sum's base and audited against its divisor family."""
    if name not in _BUILTIN_PAIRS:
        raise ValueError(f"unknown builtin pair {name!r}; "
                         f"available: {', '.join(builtin_pair_names())}")
    spec = SUM_SPECS[name]
    return WZPairSpec(
        name=name,
        f=builtin_document(f"{name}.F"),
        g=builtin_document(f"{name}.G"),
        scale_base=spec.base,
        divisor_kind=spec.divisor_kind,
    )
