"""Detect paradigm shifts in a literature corpus.

The pipeline: parse citation-index and MEDLINE exports into year-sliced
records, extract per-year core references under citation/co-citation
thresholds, track the Reference Stability Index across year intervals to
find the groove that marks a break in citation behavior, and corroborate
it with new title words, new co-word pairs, and stem-anchored phrase
trends.
"""

__version__ = "0.1.0"
