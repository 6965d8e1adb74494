"""Process-pool executor for grid-shaped experiments.

Every headline figure is a grid of fully independent simulation cells —
(app x config x spincount x seed) — and each cell is a deterministic
function of its parameters.  The executor decomposes a grid into
:class:`CellSpec`s, runs the misses concurrently across worker
processes, serves prior results from the content-addressed
:class:`~repro.parallel.cache.ResultCache`, and reassembles everything
in submission order, so parallel and serial execution are bit-for-bit
identical (``tests/experiments/test_determinism.py`` enforces this).

Cells that start from the same simulated state share it in the pool
path: a spec's optional :class:`WarmKey` names that state, and a worker
builds it once per group of cells, then forks one child per cell from
it (:func:`_run_group`).  Every cell still gets its own result, timeout
and crash recovery, and the results are the ones the cell computes on
its own, so grouping is invisible outside the telemetry.

The pool path is failure-tolerant: a cell that exceeds the per-cell
timeout or loses its worker process (segfault, OOM kill) is retried up
to ``max_retries`` times in a fresh pool, then re-executed serially in
the calling process as a last resort — the grid completes and the
recovery is recorded in telemetry instead of aborting the run.  Because
cells are deterministic, re-execution is always safe.  Exceptions
*raised by the cell function itself* still propagate: those are bugs,
not flakiness.

Environment knobs (read by :func:`get_default_executor` and the
constructor defaults):

``REPRO_JOBS``
    Worker-process count; defaults to ``os.cpu_count()``.  ``1`` runs
    cells inline in the calling process.
``REPRO_CACHE``
    ``1``/``on`` enables the on-disk result cache for library calls;
    ``0``/``off`` disables it even when ``REPRO_CACHE_DIR`` is set.
    (The CLI runner enables the cache by default; see ``--no-cache``.)
``REPRO_CACHE_DIR``
    Cache location; defaults to ``$XDG_CACHE_HOME/repro-vscale`` (or
    ``~/.cache/repro-vscale``).  Setting it implies ``REPRO_CACHE=1``.
``REPRO_CELL_TIMEOUT``
    Per-cell wall-clock timeout in seconds (measured from when the cell
    starts running in a worker, not from submission).  Unset or ``<= 0``
    disables the timeout.
``REPRO_CELL_RETRIES``
    Pool retries before the serial fallback (default 1).
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import pickle
import re
import signal
import time
import traceback
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from repro.parallel.cache import MISS, ResultCache, cell_key
from repro.parallel.telemetry import CellRecord, Telemetry

ENV_JOBS = "REPRO_JOBS"
ENV_CACHE = "REPRO_CACHE"
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_CELL_TIMEOUT = "REPRO_CELL_TIMEOUT"
ENV_CELL_RETRIES = "REPRO_CELL_RETRIES"

_FALSY = {"0", "off", "false", "no"}
_TRUTHY = {"1", "on", "true", "yes"}

#: How often the pool loop polls futures for completion/timeouts (s).
_POLL_INTERVAL_S = 0.05


def default_cache_dir() -> Path:
    """Resolve the cache directory from the environment."""
    explicit = os.environ.get(ENV_CACHE_DIR)
    if explicit:
        return Path(explicit)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-vscale"


def jobs_from_env() -> int:
    raw = os.environ.get(ENV_JOBS, "").strip()
    if raw:
        return max(1, int(raw))
    return os.cpu_count() or 1


def cell_timeout_from_env() -> float | None:
    raw = os.environ.get(ENV_CELL_TIMEOUT, "").strip()
    if not raw:
        return None
    value = float(raw)
    return value if value > 0 else None


def cell_retries_from_env() -> int:
    raw = os.environ.get(ENV_CELL_RETRIES, "").strip()
    if raw:
        return max(0, int(raw))
    return 1


def cache_from_env() -> ResultCache | None:
    """Build the cache the environment asks for (None when disabled)."""
    flag = os.environ.get(ENV_CACHE, "").strip().lower()
    if flag in _FALSY:
        return None
    if flag in _TRUTHY or os.environ.get(ENV_CACHE_DIR):
        return ResultCache(default_cache_dir())
    return None


class WarmKey(NamedTuple):
    """The simulated state a cell starts from, when cells can share it.

    ``fn(**kwargs)`` builds that state; a cell given it as its
    ``scenario`` keyword argument must return exactly what it returns
    when it builds the state itself.  Both must be picklable by
    reference, like :class:`CellSpec`'s.
    """

    fn: Callable[..., Any]
    kwargs: Mapping[str, Any]

    def token(self) -> bytes:
        """Equal for equal keys built alike (``kwargs`` in the same order)."""
        return pickle.dumps((self.fn, dict(self.kwargs)))


@dataclass(frozen=True)
class CellSpec:
    """One named, independently-runnable cell of an experiment grid.

    ``fn`` must be a module-level callable (picklable by reference) and
    ``kwargs`` must contain everything that determines the result —
    including the seed and work scale — since they form the cache key.
    ``warm``, when set, names the state the cell starts from; it is not
    part of the cache key.
    """

    experiment: str
    name: str
    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    warm: WarmKey | None = None

    def key(self) -> str:
        return cell_key(self.experiment, self.fn, dict(self.kwargs))


class _Group(NamedTuple):
    """Pool payload: cells ``(index, fn, kwargs)`` sharing one warm state."""

    warm: WarmKey
    cells: tuple[tuple[int, Callable, dict], ...]
    timeout_s: float | None


def _invoke(payload):
    """Worker-side cell execution (top-level, hence picklable).

    A cell payload is ``(index, fn, kwargs, trace)`` and returns
    ``(index, value, started, finished)``.  ``trace``, when set, is
    ``(trace_path, trace_meta)``: the cell runs under a
    :func:`repro.tracelog.capture.capture_to` block and its binary trace
    streams to ``trace_path``.  Installed worker-side so the per-cell
    capture works across process boundaries (the fork pool must not
    share one suffix counter).

    A :class:`_Group` payload runs through :func:`_run_group`, which
    returns one ``(index, status, value, started, finished)`` per cell.
    """
    if isinstance(payload, _Group):
        return _run_group(payload)
    index, fn, kwargs, trace = payload
    started = time.time()  # det: allow (telemetry, not simulation state)
    if trace is None:
        value = fn(**kwargs)
    else:
        from repro.tracelog.capture import capture_to

        trace_path, trace_meta = trace
        with capture_to(trace_path, meta=trace_meta):
            value = fn(**kwargs)
    return index, value, started, time.time()  # det: allow (telemetry)


def _run_group(group: _Group) -> list[tuple[int, str, Any, float, float]]:
    """Build the group's warm state once, then fork one child per cell.

    Each child starts from a private copy of the state, so a cell sees
    exactly what it would have built itself.  ``status`` is ``"ok"``, or
    ``"timeout"``/``"crash"`` when the child overran ``timeout_s`` or
    died; the executor retries those cells like any pool failure.  An
    exception raised by a cell is re-raised here.  The first cell's
    ``started`` is the group's start, so it carries the warm-up; each
    later cell starts where the previous one finished.
    """
    started = time.time()  # det: allow (telemetry, not simulation state)
    state = group.warm.fn(**group.warm.kwargs)
    outcomes = []
    for index, fn, kwargs in group.cells:
        status, value = _run_forked(fn, dict(kwargs, scenario=state), group.timeout_s)
        if status == "raised":
            exc, child_traceback = value
            raise exc from _ChildTraceback(child_traceback)
        finished = time.time()  # det: allow (telemetry)
        outcomes.append((index, status, value, started, finished))
        started = finished
    return outcomes


def _run_forked(fn: Callable, kwargs: dict, timeout_s: float | None) -> tuple[str, Any]:
    """Run ``fn(**kwargs)`` in a forked child and collect its result.

    Returns ``("ok", value)`` or ``("raised", (exception, traceback))``
    as sent by the child, ``("timeout", None)`` after killing a child that overran
    ``timeout_s``, or ``("crash", None)`` for a child that died without
    sending a result.  Pool workers run no threads, so forking them is
    safe.
    """
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_child_main, args=(fn, kwargs, sender))
    child.start()
    sender.close()

    def kill_child_and_exit(signum, _frame):
        # The pool terminates a worker to stop a hung cell; take the
        # child down with it instead of orphaning it.
        child.kill()
        os._exit(128 + signum)

    previous = signal.signal(signal.SIGTERM, kill_child_and_exit)
    try:
        if not receiver.poll(timeout_s):
            return "timeout", None
        try:
            return receiver.recv()
        except EOFError:
            return "crash", None
    finally:
        child.kill()  # a no-op for a child that already sent its outcome
        child.join()
        receiver.close()
        signal.signal(signal.SIGTERM, previous)


def _child_main(fn: Callable, kwargs: dict, sender) -> None:
    """Body of a forked cell: send its outcome to the worker.

    The cell's exception, whatever its type, is sent as well; the worker
    re-raises it.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        outcome: tuple[str, Any] = ("ok", fn(**kwargs))
    except BaseException as exc:  # re-raised by the worker
        outcome = ("raised", (exc, traceback.format_exc()))
    try:
        sender.send(outcome)
    except Exception as exc:  # the outcome did not pickle
        error = RuntimeError(f"cell outcome is not picklable: {exc!r}")
        sender.send(("raised", (error, traceback.format_exc())))


class _ChildTraceback(Exception):
    """Carries a forked cell's formatted traceback as an exception cause."""

    def __str__(self) -> str:
        return self.args[0]


def _task_limit(timeout_s: float, task: tuple[WarmKey | None, list[int]]) -> float:
    """Wall-clock bound of one pool task: a group also gets its warm-up."""
    warm, indices = task
    return timeout_s if warm is None else timeout_s * (len(indices) + 1)


def _pool_context():
    """Prefer fork (cheap, inherits imports); fall back to the default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


@dataclass
class _CellRun:
    """Mutable per-cell scheduling state inside one run_cells call."""

    index: int
    attempts: int = 0
    retries_left: int = 0
    #: Why the pool failed the cell last ("timeout"/"crash"); becomes the
    #: telemetry annotation when the serial fallback rescues it.
    last_failure: str | None = None


class ParallelExecutor:
    """Runs cell grids across a process pool with result memoization."""

    def __init__(
        self,
        jobs: int | None = None,
        cache: ResultCache | None = None,
        telemetry: Telemetry | None = None,
        cell_timeout_s: float | None = None,
        max_retries: int | None = None,
        trace_dir: "str | Path | None" = None,
    ) -> None:
        self.jobs = max(1, jobs if jobs is not None else jobs_from_env())
        self.cache = cache
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        #: When set, every cell streams a binary trace to
        #: ``trace_dir/<experiment>__<name>.rtl``.  Tracing forces real
        #: execution: the result cache is still written but never read,
        #: since a cache hit would produce no trace.
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.cell_timeout_s = (
            cell_timeout_s if cell_timeout_s is not None else cell_timeout_from_env()
        )
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            self.cell_timeout_s = None
        self.max_retries = (
            max_retries if max_retries is not None else cell_retries_from_env()
        )

    def run_cells(self, specs: Iterable[CellSpec]) -> list[Any]:
        """Run every cell, in order; cached cells are not re-executed."""
        specs = list(specs)
        results: list[Any] = [None] * len(specs)
        keys: dict[int, str] = {}
        pending: list[int] = []
        for index, spec in enumerate(specs):
            if self.cache is not None:
                key = keys[index] = spec.key()
                if self.trace_dir is None:
                    value = self.cache.get(key)
                    if value is not MISS:
                        now = time.time()  # det: allow (telemetry)
                        results[index] = value
                        self.telemetry.record(
                            CellRecord(spec.experiment, spec.name, now, now, True)
                        )
                        continue
            pending.append(index)

        if pending:
            if self.jobs == 1 or len(pending) == 1:
                for index in pending:
                    outcome = _invoke(self._payload(specs, index))
                    self._complete(specs, keys, results, outcome)
            else:
                self._run_pool(specs, keys, results, pending)

        if self.cache is not None:
            for key in self.cache.drain_corruptions():
                self.telemetry.record_corruption(key)
        return results

    def run_cell(self, spec: CellSpec) -> Any:
        """Convenience wrapper for a single cell."""
        return self.run_cells([spec])[0]

    def _payload(
        self, specs: Sequence[CellSpec], index: int
    ) -> tuple[int, Callable, dict, "tuple[str, dict] | None"]:
        spec = specs[index]
        return (index, spec.fn, dict(spec.kwargs), self._trace_target(spec))

    def _trace_target(self, spec: CellSpec) -> "tuple[str, dict] | None":
        if self.trace_dir is None:
            return None
        stem = re.sub(r"[^A-Za-z0-9._-]+", "_", f"{spec.experiment}__{spec.name}")
        meta = {
            "source": "executor",
            "experiment": spec.experiment,
            "cell": spec.name,
        }
        return str(self.trace_dir / f"{stem}.rtl"), meta

    # ------------------------------------------------------------------
    # Pool scheduling with timeout/crash recovery
    # ------------------------------------------------------------------
    def _run_pool(
        self,
        specs: Sequence[CellSpec],
        keys: Mapping[int, str],
        results: list[Any],
        pending: Sequence[int],
    ) -> None:
        runs = {
            index: _CellRun(index=index, retries_left=self.max_retries)
            for index in pending
        }
        queue: list[int] = list(pending)
        serial: list[_CellRun] = []
        workers = min(self.jobs, len(pending))
        context = _pool_context()

        while queue:
            queue = self._pool_round(
                specs, keys, results, runs, self._tasks(specs, queue),
                serial, workers, context,
            )

        # Last resort: re-execute rescue cases inline, in submission order.
        # Determinism makes this safe; it is slower but cannot crash the
        # grid the way a dying worker can.
        for run in sorted(serial, key=lambda r: r.index):
            run.attempts += 1
            outcome = _invoke(self._payload(specs, run.index))
            self._complete(
                specs, keys, results, outcome,
                attempts=run.attempts, recovered=run.last_failure,
            )

    def _tasks(
        self, specs: Sequence[CellSpec], queue: Sequence[int]
    ) -> list[tuple[WarmKey | None, list[int]]]:
        """Split queued cells into pool submissions, in queue order.

        Cells with equal warm keys form a group, dealt round-robin into at
        most ``jobs`` chunks so every worker gets a share; a chunk of two
        or more shares one warm-up.  Every other cell is submitted alone.
        Sharing is off under ``trace_dir`` (each trace must start at t=0
        to replay) and where there is no ``os.fork``.
        """
        share = self.trace_dir is None and hasattr(os, "fork")
        groups: dict[bytes, list[int]] = {}
        tasks: list[tuple[WarmKey | None, list[int]]] = []
        for index in queue:
            warm = specs[index].warm
            if not share or warm is None:
                tasks.append((None, [index]))
                continue
            token = warm.token()
            if token not in groups:
                groups[token] = []
                tasks.append((warm, groups[token]))
            groups[token].append(index)
        chunked: list[tuple[WarmKey | None, list[int]]] = []
        for warm, members in tasks:
            count = min(self.jobs, len(members))
            for start in range(count):
                chunk = members[start::count]
                chunked.append((warm if len(chunk) > 1 else None, chunk))
        return chunked

    def _task_payload(
        self, specs: Sequence[CellSpec], warm: WarmKey | None, indices: list[int]
    ):
        if warm is None:
            return self._payload(specs, indices[0])
        cells = tuple((i, specs[i].fn, dict(specs[i].kwargs)) for i in indices)
        return _Group(warm, cells, self.cell_timeout_s)

    def _pool_round(
        self,
        specs: Sequence[CellSpec],
        keys: Mapping[int, str],
        results: list[Any],
        runs: dict[int, _CellRun],
        tasks: list[tuple[WarmKey | None, list[int]]],
        serial: list[_CellRun],
        workers: int,
        context,
    ) -> list[int]:
        """Run one pool generation; returns the indices needing another.

        A generation ends when every submitted future resolves, or early
        when a timeout/crash forces the pool down — surviving cells are
        requeued for the next generation, repeat offenders are handed to
        the serial fallback.  A group's worker times out and reaps its
        own cells; the pool bounds the whole group at one timeout per
        cell plus one for the warm-up.
        """
        requeue: list[int] = []
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        )
        futures: dict[concurrent.futures.Future, tuple[WarmKey | None, list[int]]] = {}
        for warm, indices in tasks:
            for index in indices:
                runs[index].attempts += 1
            future = pool.submit(_invoke, self._task_payload(specs, warm, indices))
            futures[future] = (warm, indices)
        started_at: dict[concurrent.futures.Future, float] = {}
        outstanding = set(futures)
        try:
            while outstanding:
                done, outstanding = concurrent.futures.wait(
                    outstanding, timeout=_POLL_INTERVAL_S
                )
                now = time.time()  # det: allow (timeout bookkeeping)
                broken: list[int] = []
                for future in done:
                    warm, indices = futures[future]
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        # A worker died under this task (or the pool
                        # collapsed while it was queued).
                        broken.extend(indices)
                        continue
                    if warm is None:
                        self._complete(
                            specs, keys, results, outcome,
                            attempts=runs[indices[0]].attempts,
                        )
                    else:
                        self._complete_group(
                            specs, keys, results, runs, outcome, requeue, serial
                        )
                if broken:
                    # Every outstanding future is poisoned too — fail the
                    # rest of the generation over to retry/serial.
                    for future in outstanding:  # det: allow — results land by index; order is moot
                        broken.extend(futures[future][1])
                    self._fail_over(runs, broken, "crash", requeue, serial)
                    return requeue
                if self.cell_timeout_s is None:
                    continue
                for future in outstanding:  # det: allow — order is moot
                    if future not in started_at and future.running():
                        started_at[future] = now
                expired = {
                    future
                    for future in outstanding  # det: allow — order is moot
                    if future in started_at
                    and now - started_at[future]
                    > _task_limit(self.cell_timeout_s, futures[future])
                }
                if expired:
                    # Running futures cannot be cancelled: take the pool
                    # down and sort survivors from offenders.
                    for future in outstanding:  # det: allow — order is moot
                        indices = futures[future][1]
                        if future in expired:
                            self._fail_over(
                                runs, indices, "timeout", requeue, serial
                            )
                        else:
                            # Innocent bystander: requeue at no cost.
                            requeue.extend(indices)
                    self._terminate(pool)
                    return requeue
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return requeue

    def _complete_group(
        self,
        specs: Sequence[CellSpec],
        keys: Mapping[int, str],
        results: list[Any],
        runs: dict[int, _CellRun],
        outcomes: list[tuple[int, str, Any, float, float]],
        requeue: list[int],
        serial: list[_CellRun],
    ) -> None:
        self.telemetry.warmups += 1
        for index, status, value, started, finished in outcomes:
            if status == "ok":
                self._complete(
                    specs, keys, results, (index, value, started, finished),
                    attempts=runs[index].attempts, shared_warmup=True,
                )
            else:
                self._fail_over(runs, [index], status, requeue, serial)

    @staticmethod
    def _fail_over(
        runs: dict[int, _CellRun],
        indices: Iterable[int],
        reason: str,
        requeue: list[int],
        serial: list[_CellRun],
    ) -> None:
        for index in indices:
            run = runs[index]
            run.last_failure = reason
            if run.retries_left > 0:
                run.retries_left -= 1
                requeue.append(index)
            else:
                serial.append(run)

    @staticmethod
    def _terminate(pool: concurrent.futures.ProcessPoolExecutor) -> None:
        """Kill worker processes outright so a hung cell cannot block
        shutdown.  (`_processes` is private but stable since 3.7; running
        futures cannot be cancelled any other way.)"""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()
        pool.shutdown(wait=False, cancel_futures=True)

    def _complete(
        self,
        specs: Sequence[CellSpec],
        keys: Mapping[int, str],
        results: list[Any],
        outcome: tuple[int, Any, float, float],
        attempts: int = 1,
        recovered: str | None = None,
        shared_warmup: bool = False,
    ) -> None:
        index, value, started, finished = outcome
        spec = specs[index]
        results[index] = value
        if spec.warm is not None and not shared_warmup:
            # The cell warmed up on its own.
            self.telemetry.warmups += 1
        if self.cache is not None:
            self.cache.put(keys[index], value)
        self.telemetry.record(
            CellRecord(
                spec.experiment, spec.name, started, finished, False,
                attempts=attempts, recovered=recovered,
            )
        )


_DEFAULT: ParallelExecutor | None = None


def get_default_executor() -> ParallelExecutor:
    """The process-wide executor used when callers don't pass their own.

    Configured from the environment on first use; its telemetry
    aggregates across every experiment run in the process (the benchmark
    suite prints it at session end).
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = ParallelExecutor(jobs=jobs_from_env(), cache=cache_from_env())
    return _DEFAULT
