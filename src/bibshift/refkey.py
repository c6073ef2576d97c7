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
junk, a digit run longer than ``int()`` converts) is dropped.

A reference is its canonical spelling, a ``str`` built from those five
components alone: author, four-digit year, source, ``V<n>``, ``P<n>``,
joined by ``", "``. An absent component is left out, except that a source
without a year keeps an empty year segment (``X, , 1970``), since the
source is read from the third segment only. Parsing a spelling gives it
back, so two strings name one reference exactly when their spellings are
equal.

A Web of Science cited reference lists its fields in the order author,
year, source, volume, first page, DOI, and leaves out those it lacks. A
string whose normalized text has that shape,
``AUTHOR, YYYY, SOURCE[, Vn][, Pn][, DOI d]``, and is already spelled as
the loop would spell it, is parsed by one regular-expression match, which
returns the text up to the DOI; every other string goes through the
segment loop. That text is the loop's spelling: the normalized text holds
no whitespace but single inner spaces, so a segment that starts after
``", "`` and ends in a character other than a space or comma is already
stripped; a year of four ASCII digits prints as itself; a volume or page
of at most 18 ASCII digits without a leading zero (or ``0`` itself)
prints as itself after ``int()``; and a ``DOI`` segment holds no comma
and is never a ``V``/``P`` segment, so the loop drops it. A source that
is itself ``V``/``P`` plus decimal digits (``A, 1970, V12, P3``, where the
loop takes ``V12`` as the volume) fails the match at its lookahead, and
a zero-padded number (``V0226``) fails it too; both go to the loop, which
reads the marker and drops the zeros.
"""
from __future__ import annotations

import re
from typing import Optional


# AUTHOR, YYYY, SOURCE[, Vn][, Pn][, DOI d] on normalized text, already in
# the loop's spelling (see the module docstring); the DOI is not part of a
# spelling, so it is left out of the captured text
_CANONICAL = re.compile(
    r"([^,]*[^, ], [0-9]{4}, (?![VP]\d+(?:,|$))[^,]*[^, ]"
    r"(?:, V(?:0|[1-9][0-9]{0,17}))?(?:, P(?:0|[1-9][0-9]{0,17}))?)(?:, DOI [^,]+)?"
).fullmatch


def _number(digits: str) -> Optional[int]:
    """``int(digits)``, or None for a run longer than ``int()`` converts."""
    try:
        return int(digits)
    except ValueError:
        return None


def parse_cited_ref(raw: str) -> str:
    """The canonical spelling of one cited-reference string.

    Never raises: a string with no recognizable components is spelled as
    its whole normalized text.
    """
    # Normalizing the whole string before splitting gives the same segments
    # as normalizing each one: upper() never turns a character other than a
    # comma or whitespace into one holding a comma or whitespace.
    text = " ".join(raw.split()).upper()
    match = _CANONICAL(text)
    if match is not None:
        return match[1]
    segments = [part.strip() for part in text.split(",")]
    non_empty = [seg for seg in segments if seg]
    if not non_empty:
        return text.strip()

    author = segments[0] if segments[0] else non_empty[0]
    year: Optional[int] = None
    source: Optional[str] = None
    volume: Optional[int] = None
    page: Optional[int] = None

    for pos, seg in enumerate(segments[1:], start=1):
        if not seg:
            continue
        # isdecimal() is exactly the \d of a str pattern; "" is not decimal
        if seg[0] in "VP" and seg[1:].isdecimal():
            if seg[0] == "V" and volume is None:
                volume = _number(seg[1:])
            elif seg[0] == "P" and page is None:
                page = _number(seg[1:])
            continue
        if pos == 1 and len(seg) == 4 and seg.isdecimal():
            year = int(seg)
        elif pos == 2:
            source = seg
        # other positions: unparseable, dropped

    parts = [author]
    if year is not None:
        parts.append(f"{year:04d}")
    elif source is not None:
        parts.append("")
    if source is not None:
        parts.append(source)
    if volume is not None:
        parts.append(f"V{volume}")
    if page is not None:
        parts.append(f"P{page}")
    return ", ".join(parts)
