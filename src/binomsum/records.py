"""Immutable records with invariants.

Records are typing.NamedTuple classes: they compare, hash and order like
tuples of their fields and are copied with _replace.  A record with an
invariant is a subclass of its NamedTuple (which may not define __new__)
that lists Validated first and defines _validate, raising ValueError.
Every construction path reaches __new__ (the constructor, _make,
_replace, copy and unpickling), so an invalid record never exists.
"""
from __future__ import annotations


class Validated:
    """Mixin that runs self._validate() whenever a record is built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._validate()
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make calls tuple.__new__ directly, skipping __new__;
        # _replace goes through _make.
        return cls(*iterable)
