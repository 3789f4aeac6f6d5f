"""Per-layer numbers from the launcher's span files.

A span's self time is its duration minus the part of its interval that its
child spans cover; children running concurrently on worker threads are
merged first, so overlapping time is subtracted once.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path


def covered(intervals: list[tuple[int, int]], start: int, end: int) -> int:
    """Length of the union of intervals, clipped to [start, end]."""
    total, cur_start, cur_end = 0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[str, list]:
    """name -> [calls, self seconds] over spans of one process."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for sp in spans:
        children[sp["parent"]].append((sp["start"], sp["end"]))
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for sp in spans:
        own = sp["end"] - sp["start"] - covered(children[sp["id"]], sp["start"], sp["end"])
        acc = out[sp["name"]]
        acc[0] += 1
        acc[1] += own / 1e9
    return out


class LayerTotals:
    """Sums of calls, self time and counters over every traced command."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.import_s = 0.0

    def add_file(self, path: Path) -> None:
        spans = []
        for line in path.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            if "counts" in rec:
                for name, n in rec["counts"].items():
                    self.counts[name] += n
                self.import_s += rec["import_ns"] / 1e9
            else:
                spans.append(rec)
        for name, (calls, own) in self_times(spans).items():
            self.calls[name] += calls
            self.self_s[name] += own

    def metrics(self) -> dict[str, float]:
        """Every ``<name>.calls``, ``<name>.self_s`` and ``layer.<module>.self_s``."""
        out: dict[str, float] = {}
        layers: dict[str, float] = defaultdict(float)
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self.self_s[name]
            layers[name.split(".")[0]] += self.self_s[name]
        out.update(self.counts)
        for module, own in layers.items():
            out[f"layer.{module}.self_s"] = own
        out["cli.import_s"] = self.import_s
        return out
