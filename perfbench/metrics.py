"""Reading the server's ``/metrics`` and the traced run's span files."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Tuple


def flatten(snapshot: Dict) -> Dict[str, object]:
    """``/metrics`` JSON as ``name{labels}`` -> value.

    Counters map to their value and histograms to ``(count, seconds)``;
    the sections outside the registry map as ``section.key``.
    """
    out: Dict[str, object] = {}
    for section in ("sessions", "label_cache", "kernel"):
        for key, value in (snapshot.get(section) or {}).items():
            out[f"{section}.{key}"] = value
    registry = snapshot.get("registry") or {}
    for scalar in registry.get("scalars", []):
        out[scalar["name"]] = _value(scalar)
    for vector in registry.get("vectors", []):
        for series in vector.get("series", []):
            labels = ",".join(f"{k}={v}" for k, v in sorted(series["labels"].items()))
            out[f"{vector['name']}{{{labels}}}"] = _value(series)
    return out


def _value(entry: Dict) -> object:
    histogram = entry.get("histogram")
    if histogram is not None:
        count = histogram.get("count", 0)
        return (count, count * histogram.get("mean_us", 0.0) / 1e6)
    return entry.get("value", 0)


def delta(before: Dict[str, object], after: Dict[str, object]) -> Dict[str, object]:
    """``after - before`` for every counter and histogram."""
    out: Dict[str, object] = {}
    for key, value in after.items():
        old = before.get(key)
        if isinstance(value, tuple):
            old = old if isinstance(old, tuple) else (0, 0.0)
            out[key] = (value[0] - old[0], value[1] - old[1])
        elif isinstance(value, (int, float)):
            out[key] = value - (old if isinstance(old, (int, float)) else 0)
    return out


def summed(values: Dict[str, object], prefix: str) -> Tuple[float, float]:
    """Sum of the histograms (count, seconds) or counters under *prefix*."""
    count = 0.0
    seconds = 0.0
    for key, value in values.items():
        if key.startswith(prefix):
            if isinstance(value, tuple):
                count += value[0]
                seconds += value[1]
            else:
                count += value
    return count, seconds


class Spans:
    """The traced run's span files, folded per layer over a time window."""

    def __init__(self, directory: Path):
        #: pid -> (bucket seconds, rows of [bucket, name, count, total, self, value])
        self.files: Dict[int, Tuple[float, List]] = {}
        for path in sorted(directory.glob("spans-*.json")):
            data = json.loads(path.read_text())
            self.files[int(data["pid"])] = (float(data["bucket_s"]), data["rows"])

    def window(self, start: float, end: float, pids: Iterable[int] = ()) -> Dict[str, List[float]]:
        """name -> [count, total s, self s, value] for spans that began
        in ``[start, end)`` in the processes *pids* (all when empty)."""
        wanted = set(pids)
        out: Dict[str, List[float]] = {}
        for pid, (bucket_s, rows) in self.files.items():
            if wanted and pid not in wanted:
                continue
            for bucket, name, count, total, self_time, value in rows:
                at = bucket * bucket_s
                if start <= at < end:
                    row = out.setdefault(name, [0, 0.0, 0.0, 0.0])
                    row[0] += count
                    row[1] += total
                    row[2] += self_time
                    row[3] += value
        return out
