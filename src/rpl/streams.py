"""The streamed renderers of semigroup's generators and bounds' rows, which only those
handlers import, so --help and the other commands compile none of them. Nothing here imports
rpl.cli: under `python -m rpl.cli` the CLI runs as __main__, and an import would compile and
run it again; json's encoder comes from rpl.entry, and the bounds handler frames a json table."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain, compress

from .entry import encoder


def join_marked(segments: Iterable[tuple[int, bytes]], sep: str) -> Iterator[str]:
    """sep.join(map(str, ns)), in pieces, for the numbers ns marked in segments (start, mark).

    A segment marks n at mark[n - start], each starting where the one before
    it ended, and no int is made per marked number.  n-space is cut into
    windows [1000h, 1000h + 1000): a marked number there is str(h) followed
    by a three-digit suffix (for h = 0, just str(n)), so a window's text is
    one join of the suffixes its mark bytes pick from a table.  Only windows
    that hold a marked number are visited, each found by mark.find from the
    last, and a window whose marks and h > 0 equal the last visited one's
    reuses its picks.  Each piece is one window, or its part in one segment:
    a window that a segment edge cuts is written as two pieces with the same h.
    """
    suffixes = [f"{i:03d}" for i in range(1000)]
    skip = len(sep)  # the first window written drops its leading separator
    last = picked = None  # the last visited window's (h > 0, marks), and "" and its picks
    for start, mark in segments:
        i = mark.find(1)
        while i >= 0:
            h, r = divmod(start + i, 1000)
            a = i - r  # window h's edge in mark: each window is copied alone, padded if a < 0
            key = h > 0, bytes(-a) + mark[:a + 1000] if a < 0 else mark[a:a + 1000]
            if key != last:  # h > 0 picks suffixes, window 0 the numbers themselves
                last, picked = key, ["", *compress(suffixes if h else map(str, range(1000)), key[1])]
            yield (sep + str(h or "")).join(picked)[skip:]  # sep and the window, in one join
            skip = 0
            i = mark.find(1, a + 1000)


def bound_rows(rows: Iterable[tuple], fmt: str, qmax: int | None) -> Iterable[str]:
    """Bound rows (q, records, best) as fmt text, a piece each, each rule's two ends built once per
    stream; a table's json rows come unframed, --q's row as a whole line."""
    if fmt == "text" and qmax:  # a line per row, without its records
        return (f"q={q} upper={records[0][1]} best_lower="
                f"{'unknown' if best is None else str(records[best][1])}\n"
                for q, records, best in rows)
    encode = encoder() if fmt == "json" else None  # one per stream; csv and text build none
    slot = '"\\u0000"'  # where json's encode put a "\0": no source holds a NUL
    ends = {"json": lambda rule: encode({**rule._asdict(), "value": "\0"}).replace(slot, '"\0"'),
            "csv": lambda rule: f"{rule.name}=\0",
            "text": lambda rule: f"record {rule.name} {rule.direction} \0\n"}[fmt]
    known = {}  # each rule met: its two ends, or for a rule of one value its whole record and None

    def cells(row: tuple) -> tuple[int, str, str | None, list[str]]:
        q, records, best = row
        texts, pieces = [], []
        for rule, value in records:  # the best lower cell reuses its record's text
            head, tail = known.get(rule) or known.setdefault(rule, ends(rule).split("\0") if (
                rule.value is None) else (ends(rule).replace("\0", str(rule.value)), None))
            texts.append(text := str(value))
            pieces.append(head if tail is None else head + text + tail)
        return q, texts[0], None if best is None else texts[best], pieces

    rows = map(cells, rows)
    if fmt == "csv":  # without csv.writer: no cell holds a comma, a quote or a line break
        return chain(["q,upper,best_lower,records\n"], (
            f"{q},{upper},{lower or ''},{';'.join(pieces)}\n" for q, upper, lower, pieces in rows))
    if fmt == "text":
        return (f"q {q}\nupper {upper}\nbest_lower {lower or 'unknown'}\n{''.join(pieces)}"
                for q, upper, lower, pieces in rows)
    fields = {"q": "\0", "upper": "\0", "best_lower": "\0", "records": ["\0"]}
    a, b, c, d, e = encode(fields if qmax else {"schema": 1, **fields}).split(slot)
    q, upper, lower, pieces = next(rows)  # --q's one row, or q = 2 first in a table
    out = chain([f"{a}{q}{b}{upper}{c}{encode(lower)}{d}{','.join(pieces)}{e}"], (  # then rows
        f',{a}{q}{b}{upper}{c}"{lower}"{d}{",".join(pieces)}{e}'  # that have a best lower bound
        for q, upper, lower, pieces in rows))
    return out if qmax else [*out, "\n"]
