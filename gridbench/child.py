"""One pass of one workload, in a fresh process (started by ``run.py``).

Modes:

``run``     run the workload untraced; the executor takes its worker count
            and cache from the environment the parent set.
``traced``  the same under the layer tracer (see ``layers.py``).
``probe``   stop at the first cell start, to sample set-up time alone.

Writes one JSON document to ``--out``; epoch timestamps in it are compared
with the parent's launch time, so both sides use ``time.time()``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback


class ProbeDone(BaseException):
    """Raised at the first cell start of a probe pass; carries its time.

    A ``BaseException``, so it passes the workloads' and experiments'
    ``except Exception`` handlers on its way up; a pool worker sends it
    back to the executor like any other exception.
    """

    def __init__(self, started: float):
        super().__init__(started)
        self.started = started


def _stop_at(module, function: str) -> None:
    """Replace a cell entry point with one that stops the pass.

    The replacement keeps the original's import path, so the executor
    can still send it to its (forked) workers by reference.
    """

    def stop(*_args, **_kwargs):
        raise ProbeDone(time.time())

    stop.__module__ = module.__name__
    stop.__qualname__ = function
    setattr(module, function, stop)


def _check_checkout() -> None:
    src = os.path.abspath("src")
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not from {src}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "traced", "probe"), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    _check_checkout()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    # The paper's numbers behind model_err.
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")) as fh:
        refs = json.load(fh)
    workloads.prepare()
    from repro.parallel import executor as executor_module

    tracer = None
    if args.mode == "traced":
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    elif args.mode == "probe":
        import importlib

        from layers import CELL_ENTRIES

        for module, function in CELL_ENTRIES:
            _stop_at(importlib.import_module(module), function)

    report: dict = {"error": None, "units": []}
    t_entry = time.time()
    root_start = time.perf_counter()
    if tracer is not None:
        tracer.spans.enter("workload", "bench")
    try:
        outcome = workload.run(args.seed, refs)
    except ProbeDone as probe:
        report.update(t_entry=t_entry, t_first_cell=probe.started)
        _write(args.out, report)
        return 0
    except Exception:
        report["error"] = traceback.format_exc()
        outcome = None
    finally:
        if tracer is not None:
            tracer.spans.exit()
    root_s = time.perf_counter() - root_start
    t_done = time.time()
    if args.mode == "probe":
        # Something swallowed the stop: this pass sampled no cell start.
        raise SystemExit(f"probe of {args.workload} never reached a cell")

    executor = executor_module.get_default_executor()
    executed = [r for r in executor.telemetry.records if not r.cache_hit]
    report.update(
        t_entry=t_entry,
        t_first_cell=min((r.started for r in executed), default=t_entry),
        t_done=t_done,
        root_s=root_s,
        jobs=executor.jobs,
        cells=[[r.started, r.finished] for r in executed],
        recovered_cells=executor.telemetry.recovered_cells,
    )
    if outcome is not None:
        report["units"] = [
            [name, workloads.digest(value), workloads.valid_unit(value)]
            for name, value in outcome.units
        ]
        report["model_err"] = outcome.model_err
        report["extras"] = outcome.extras
        report["error"] = outcome.error
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.metrics(root_s)
        if args.spans:
            tracer.dump(args.spans)
    _write(args.out, report)
    return 0


def _write(path: str, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
