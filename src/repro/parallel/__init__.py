"""Parallel experiment execution with content-addressed result caching.

The grid experiments (Figures 6/7, 9, 10, 11-13, the seed-variance
analysis, and the ablations) decompose into independent, deterministic
cells; this package fans those cells out over a process pool and
memoizes finished cells on disk so re-runs and ``--scale`` sweeps skip
already-computed work.  See :mod:`repro.parallel.executor` for the
environment knobs (``REPRO_JOBS``, ``REPRO_CACHE``, ``REPRO_CACHE_DIR``)
and DESIGN.md section 7 for the determinism guarantee.
"""

from repro.parallel.cache import (
    MISS,
    ResultCache,
    canonical,
    cell_key,
    code_fingerprint,
)
from repro.parallel.executor import (
    ENV_CACHE,
    ENV_CACHE_DIR,
    ENV_JOBS,
    CellSpec,
    ParallelExecutor,
    WarmKey,
    cache_from_env,
    default_cache_dir,
    get_default_executor,
    jobs_from_env,
)
from repro.parallel.telemetry import CellRecord, Telemetry

__all__ = [
    "MISS",
    "ResultCache",
    "canonical",
    "cell_key",
    "code_fingerprint",
    "ENV_CACHE",
    "ENV_CACHE_DIR",
    "ENV_JOBS",
    "CellSpec",
    "ParallelExecutor",
    "WarmKey",
    "cache_from_env",
    "default_cache_dir",
    "get_default_executor",
    "jobs_from_env",
    "CellRecord",
    "Telemetry",
]
