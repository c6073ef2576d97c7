"""Normalized cited-reference identities.

A cited reference arrives as a single comma-separated string, e.g.

    BALTIMORE D, 1970, NATURE, V226, P1209

The string is normalized once: each run of whitespace becomes one space
and the whole is upper-cased. It is then split on commas and each segment
is stripped. Segments are mapped positionally (author, year, source); a
year is a segment of exactly four decimal digits in position 1, and
segments of the form ``V<digits>`` / ``P<digits>`` are taken as volume /
first page wherever they occur ("digits" are Unicode decimal digits, as
``str.isdecimal`` and ``\\d`` define them). Anything else (DOIs, trailing
junk) survives only in ``raw``. Two keys are equal when their normalized
component tuples are equal; the raw spelling never takes part in equality
or hashing. Each key hashes its components once, when it is built.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional


@dataclass(frozen=True)
class RefKey:
    """Identity of one cited reference.

    Equality and hashing use only the normalized components; ``raw``
    preserves the original string for provenance and caching.
    """

    author: str
    year: Optional[int] = None
    source_abbrev: Optional[str] = None
    volume: Optional[int] = None
    first_page: Optional[int] = None
    raw: str = field(default="", compare=False)

    def __post_init__(self):
        # The value the generated __hash__ would give, computed once: keys
        # are hashed on every lookup in the citation and co-citation counts.
        object.__setattr__(self, "_hash", hash(
            (self.author, self.year, self.source_abbrev, self.volume, self.first_page)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__: a str hash is only valid in the process
        # that computed it.
        return (RefKey, (self.author, self.year, self.source_abbrev, self.volume,
                         self.first_page, self.raw))

    def canonical(self) -> str:
        """Canonical spelling rebuilt from the components.

        Used as the deterministic sort key for rankings and pair ordering:
        unlike ``raw`` it is identical for equal keys, whatever spacing or
        casing the source data used.
        """
        return self._order[0]

    def sort_key(self) -> tuple:
        """Canonical spelling, then the components.

        Unequal keys can share a spelling (``X, 1970`` and ``X,,1970``,
        where the year fell in the source position); the components order
        them the same way in every process, whatever the hash seed.
        """
        return self._order

    @cached_property
    def _order(self) -> tuple:
        parts = [self.author]
        if self.year is not None:
            parts.append(str(self.year))
        if self.source_abbrev is not None:
            parts.append(self.source_abbrev)
        if self.volume is not None:
            parts.append(f"V{self.volume}")
        if self.first_page is not None:
            parts.append(f"P{self.first_page}")
        optional = (self.year, self.source_abbrev, self.volume, self.first_page)
        # (is None, value) keeps None from being compared with a value
        return (", ".join(parts), self.author, *((v is None, v) for v in optional))


def parse_cited_ref(raw: str) -> RefKey:
    """Parse one cited-reference string into a RefKey.

    Never raises: a string with no recognizable components yields a key
    whose author is the whole normalized string.
    """
    # Normalizing the whole string before splitting gives the same segments
    # as normalizing each one: upper() never turns a character other than a
    # comma or whitespace into one holding a comma or whitespace.
    text = " ".join(raw.split()).upper()
    segments = [part.strip() for part in text.split(",")]
    non_empty = [seg for seg in segments if seg]
    if not non_empty:
        return RefKey(author=text.strip(), raw=raw)

    author = segments[0] if segments[0] else non_empty[0]
    year: Optional[int] = None
    source: Optional[str] = None
    volume: Optional[int] = None
    page: Optional[int] = None

    for pos, seg in enumerate(segments[1:], start=1):
        if not seg:
            continue
        # isdecimal() is exactly the \d of a str pattern; "" is not decimal
        if seg[0] == "V" and seg[1:].isdecimal():
            if volume is None:
                volume = int(seg[1:])
            continue
        if seg[0] == "P" and seg[1:].isdecimal():
            if page is None:
                page = int(seg[1:])
            continue
        if pos == 1 and len(seg) == 4 and seg.isdecimal():
            year = int(seg)
        elif pos == 2:
            source = seg
        # other positions: unparseable, kept only in raw

    return RefKey(
        author=author,
        year=year,
        source_abbrev=source,
        volume=volume,
        first_page=page,
        raw=raw,
    )
