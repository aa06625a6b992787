"""Builtin certificate pairs and access to their shipped term documents."""
from __future__ import annotations

from functools import cache
from importlib import resources
from typing import NamedTuple

from .dsl import parse_document
from .hyperterm import TermDocument
from .records import Validated

DIVISOR_KINDS = ("weak", "strong")


class _PairFields(NamedTuple):
    name: str
    f: TermDocument
    g: TermDocument
    scale_base: int
    divisor_kind: str
    sum_id: str


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


_BUILTIN_META = {
    "guillera1": (-4096, "strong", "guillera1"),
    "guillera2": (65536, "strong", "guillera2"),
}


def builtin_pair_names() -> list[str]:
    return sorted(_BUILTIN_META)


def builtin_document_names() -> list[str]:
    return [f"{p}.{side}" for p in builtin_pair_names() for side in ("F", "G")]


def builtin_document_text(name: str) -> str:
    """Raw shipped source of a builtin document, e.g. 'guillera1.F'."""
    if name not in builtin_document_names():
        raise ValueError(f"unknown builtin document {name!r}")
    return (resources.files(__package__) / "terms" / name).read_text("utf-8")


@cache
def builtin_document(name: str) -> TermDocument:
    return parse_document(builtin_document_text(name))


@cache
def builtin_pair(name: str) -> WZPairSpec:
    if name not in _BUILTIN_META:
        raise ValueError(f"unknown builtin pair {name!r}; "
                         f"available: {', '.join(builtin_pair_names())}")
    scale_base, kind, sum_id = _BUILTIN_META[name]
    return WZPairSpec(
        name=name,
        f=builtin_document(f"{name}.F"),
        g=builtin_document(f"{name}.G"),
        scale_base=scale_base,
        divisor_kind=kind,
        sum_id=sum_id,
    )
