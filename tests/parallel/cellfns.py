"""Module-level cell functions for the executor tests.

The executor pickles cell functions by reference into worker processes,
so test cells must live in an importable module rather than inside test
bodies.
"""

from __future__ import annotations

import os
from pathlib import Path


def square(x: int) -> int:
    return x * x


def square_with_marker(x: int, marker_dir: str) -> int:
    """Like :func:`square`, but leaves one file per actual execution."""
    path = Path(marker_dir) / f"{x}-{os.getpid()}-{os.urandom(4).hex()}"
    path.write_text(str(x))
    return x * x


def pid_tag(x: int) -> tuple[int, int]:
    """Return the input plus the executing process id."""
    return x, os.getpid()


def boom(x: int) -> int:
    raise RuntimeError(f"cell {x} failed")


def crash_in_worker(x: int) -> int:
    """Die abruptly (no exception, no cleanup) when run in a pool worker.

    In the main process — i.e. under the executor's serial fallback — it
    behaves like :func:`square`, so recovery can be observed end to end.
    """
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        os._exit(42)
    return x * x


def sleepy_in_worker(x: int, sleep_s: float) -> int:
    """Hang for ``sleep_s`` when run in a pool worker; instant inline."""
    import multiprocessing
    import time

    if multiprocessing.parent_process() is not None:
        time.sleep(sleep_s)
    return x * x


# Warm-keyed cells: ``warm_state(base)`` stands in for a warm scenario,
# and each cell takes it as ``scenario`` (or builds it when run alone).
def warm_state(base: int) -> dict:
    return {"base": base}


def warm_add(x: int, base: int, scenario: dict | None = None) -> int:
    state = warm_state(base) if scenario is None else scenario
    return state["base"] + x


def warm_crash_in_worker(x: int, base: int, scenario: dict | None = None) -> int:
    """:func:`warm_add` that dies abruptly in a pool worker (or its child)."""
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        os._exit(42)
    return warm_add(x, base, scenario)


def warm_sleepy_in_worker(
    x: int, base: int, sleep_s: float, scenario: dict | None = None
) -> int:
    """:func:`warm_add` that hangs for ``sleep_s`` outside the main process."""
    import multiprocessing
    import time

    if multiprocessing.parent_process() is not None:
        time.sleep(sleep_s)
    return warm_add(x, base, scenario)


def warm_boom(x: int, base: int, scenario: dict | None = None) -> int:
    raise RuntimeError(f"cell {x} failed")
