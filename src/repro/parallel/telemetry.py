"""Per-cell execution telemetry for the parallel executor.

The executor records one :class:`CellRecord` per cell — wall-clock start
and stop timestamps plus whether the cell was served from cache — and
keeps running hit/miss counters.  The runner prints the per-cell lines
and the final summary on stderr so the deterministic report text on
stdout stays byte-identical between serial, parallel, cold-cache, and
warm-cache runs.

Robustness events are telemetry too: cells that needed more than one
attempt carry ``attempts``/``recovered`` annotations, and cache entries
quarantined as corrupt are tallied per key.  None of this appears on
stdout — a recovered grid still renders the same report.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CellRecord:
    experiment: str
    cell: str
    #: Wall-clock epoch seconds; for cache hits both stamps mark the lookup.
    started: float
    finished: float
    cache_hit: bool
    #: Total executions of the cell (1 on the happy path).
    attempts: int = 1
    #: How the cell was rescued when the pool failed it: "timeout" or
    #: "crash" (serial re-execution), None on the happy path.
    recovered: str | None = None

    @property
    def duration_s(self) -> float:
        return self.finished - self.started

    def render(self) -> str:
        status = "hit " if self.cache_hit else "run "
        line = f"[cell] {status} {self.experiment:10s} {self.cell:40s} {self.duration_s:7.2f}s"
        if self.recovered is not None:
            line += f"  (recovered: {self.recovered}, attempts={self.attempts})"
        elif self.attempts > 1:
            line += f"  (attempts={self.attempts})"
        return line


@dataclass
class Telemetry:
    records: list[CellRecord] = field(default_factory=list)
    hits: int = 0
    misses: int = 0
    #: Cells rescued by serial re-execution after a pool timeout/crash.
    recovered_cells: int = 0
    #: Cache keys whose entries were quarantined as corrupt.
    corrupt_entries: list[str] = field(default_factory=list)
    #: Warm states simulated for cells with a warm key: one per cell run
    #: on its own, one per group of cells that shared it.
    warmups: int = 0

    def record(self, record: CellRecord) -> None:
        self.records.append(record)
        if record.cache_hit:
            self.hits += 1
        else:
            self.misses += 1
        if record.recovered is not None:
            self.recovered_cells += 1

    def record_corruption(self, key: str) -> None:
        self.corrupt_entries.append(key)

    def mark(self) -> int:
        """Bookmark the current record count (for per-experiment slices)."""
        return len(self.records)

    def executed_seconds(self, since: int = 0) -> float:
        """Total wall-clock seconds spent actually running cells."""
        return sum(
            r.duration_s for r in self.records[since:] if not r.cache_hit
        )

    def render_cells(self, since: int = 0) -> str:
        return "\n".join(r.render() for r in self.records[since:])

    def summary(self) -> str:
        text = (
            f"[telemetry] cells={len(self.records)} hits={self.hits} "
            f"misses={self.misses} executed={self.executed_seconds():.1f}s "
            f"warmups={self.warmups}"
        )
        if self.recovered_cells:
            text += f" recovered={self.recovered_cells}"
        if self.corrupt_entries:
            text += f" corrupt_cache_entries={len(self.corrupt_entries)}"
        return text

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "executed_seconds": self.executed_seconds(),
            "recovered_cells": self.recovered_cells,
            "corrupt_entries": list(self.corrupt_entries),
            "warmups": self.warmups,
            "cells": [
                {
                    "experiment": r.experiment,
                    "cell": r.cell,
                    "started": r.started,
                    "finished": r.finished,
                    "duration_s": r.duration_s,
                    "cache_hit": r.cache_hit,
                    "attempts": r.attempts,
                    "recovered": r.recovered,
                }
                for r in self.records
            ],
        }
