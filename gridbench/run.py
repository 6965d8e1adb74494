"""The repository's benchmark: host time, set-up time and memory of three
workloads (with their model error and failures beside them), plus a traced
run that attributes host time to layers.

Run from the root of a checkout::

    python3 gridbench/run.py --workload npb_parsec_grid --seed 1 --seconds 35 --trace 0
    python3 gridbench/run.py --workload all --seed 1 --seconds 1 --trace 0

Every pass of a workload runs in a fresh process (``child.py``) whose
environment fixes ``REPRO_JOBS`` and a fresh, empty ``REPRO_CACHE_DIR``
and clears every other ``REPRO_*`` setting, so faults, sanitizer and trace
capture stay off as they are for users.  ``--trace 0`` repeats passes
while another fits in ``--seconds`` and reports medians of their times
at reference host speed (``speed.py``); ``--trace 1``
runs the traced pass and its untraced base and reports per-layer metrics.
The last line of stdout is one JSON object; the lines before it are the
same figures for a reader.  ``--record`` stores the run's result digests
(and, traced, its exact counts) in ``recorded.jsonl`` for the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from measure import median, percentile, tail_percentile, worker_idle_s  # noqa: E402
from speed import SpeedSampler, reference_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: One line per (workload, seed): the result digests and exact counts a
#: run recorded with ``--record``, which later runs are compared with.
RECORDED = os.path.join(HERE, "recorded.jsonl")
#: Scratch space inside the checkout (caches, per-pass reports, spans).
WORK_DIR = ".gridbench"
#: Worker processes of a pooled pass (the host this was tuned on has 2 CPUs).
JOBS = 2
#: Set-up-only passes per untraced run, on top of the timed passes.
PROBES = 3
#: Share of a traced run's host time the layers' self times must cover.
MIN_ATTRIBUTED = 0.9
#: A pass is killed (with its process group) after this long.
PASS_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Per-layer metrics of a traced run, with their units.  Every "count" is
#: exact and must repeat run to run for the same code and seed.
PER_LAYER = {
    "experiments.self_s": "s", "experiments.build_s": "s", "experiments.warmup_s": "s",
    "experiments.warmup_frac": "ratio",
    "parallel.self_s": "s", "parallel.cells": "count", "parallel.cell_p50_s": "s",
    "parallel.cell_p90_s": "s", "parallel.cell_max_s": "s", "parallel.worker_idle_s": "s",
    "parallel.key_s": "s", "parallel.cache_put_s": "s", "parallel.recovered_cells": "count",
    "guest.self_s": "s", "guest.events": "count", "guest.tick_events": "count",
    "guest.ticks_total": "count", "guest.tick_fold_ratio": "ratio", "guest.ipis_sent": "count",
    "hypervisor.self_s": "s", "hypervisor.events": "count", "hypervisor.schedule_calls": "count",
    "hypervisor.wakes": "count", "hypervisor.context_switches": "count",
    "hypervisor.accounting_s": "s",
    "core.self_s": "s", "core.channel_reads": "count", "core.recomputes": "count",
    "core.recompute_s": "s", "core.freezes": "count", "core.unfreezes": "count",
    "core.reconfig_per_read": "ratio",
    "workloads.self_s": "s", "workloads.resumes": "count",
    "sim.events_scheduled": "count", "sim.events_dispatched": "count",
    "sim.events_cancelled": "count", "sim.sim_s": "s", "sim.self_s": "s", "sim.ns_per_event": "ns",
    "other.self_s": "s",
    "bench.model_err": "ratio",
    "bench.attributed_frac": "ratio", "bench.tracing_overhead": "ratio",
    "bench.traced_wall_s": "s", "bench.untraced_wall_s": "s",
    "bench.results_changed": "count", "bench.results_checked": "count",
    "bench.counts_changed": "count", "bench.counts_checked": "count",
}
#: Simulated (not host) quantities: exact, so they are checked like counts.
EXACT = sorted(
    [name for name, unit in PER_LAYER.items() if unit == "count" and not name.startswith("bench.")]
    + ["sim.sim_s", "guest.tick_fold_ratio", "core.reconfig_per_read", "bench.model_err"]
)


class PassFailed(Exception):
    pass


def launch(workload: str, seed: int, mode: str, jobs: int, work: str,
           spans: str | None = None) -> dict:
    """Run one pass in a fresh process; returns its report plus launch time."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.abspath("src")
    env["REPRO_JOBS"] = str(jobs)
    cache = tempfile.mkdtemp(dir=work, prefix="cache-")
    env["REPRO_CACHE_DIR"] = cache
    out = os.path.join(work, f"pass-{os.getpid()}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--out", out]
    if spans:
        cmd += ["--spans", spans]
    t_launch = time.time()
    proc = subprocess.Popen(cmd, env=env, start_new_session=True, stdout=sys.stderr)
    code = usage = None
    deadline = time.monotonic() + PASS_TIMEOUT_S
    try:
        # wait4, not wait: its rusage is this pass's own process tree (the
        # child plus the pool workers it reaped), even when one parent
        # runs several workloads.
        while time.monotonic() < deadline:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                code = proc.returncode = os.waitstatus_to_exitcode(status)
                break
            time.sleep(0.02)
    finally:
        # The pass's pool workers share its process group: take the whole
        # group down if anything is left, then reap the child.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if code is None:
            proc.wait()
        shutil.rmtree(cache, ignore_errors=True)
    if code != 0 or not os.path.exists(out):
        raise PassFailed(f"{workload} {mode} pass exited with {code}")
    with open(out) as fh:
        report = json.load(fh)
    os.unlink(out)
    report["t_launch"] = t_launch
    report["maxrss_kb"] = usage.ru_maxrss
    return report


def load_recorded() -> dict[tuple[str, int], dict]:
    entries = {}
    with open(RECORDED) as fh:
        for line in fh:
            entry = json.loads(line)
            entries[(entry["workload"], entry["seed"])] = entry
    return entries


def check_units(report: dict, expected: int) -> tuple[int, bool]:
    """(failed units, all well-formed) for one pass report."""
    units = report.get("units") or []
    bad = sum(1 for _, _, ok in units if not ok)
    failed = bad + max(0, expected - len(units))
    return failed, failed == 0 and report.get("error") is None


def digests(report: dict) -> list[str]:
    return [d for _, d, _ in report.get("units") or []]


def results_changed(observed: list[str], recorded: list[str] | None) -> tuple[int, int]:
    """(changed, checked) against the digests recorded for the seed."""
    if not recorded:
        return 0, 0
    changed = sum(1 for a, b in zip(observed, recorded) if a != b)
    return changed + abs(len(observed) - len(recorded)), len(recorded)


def run_untraced(name: str, seed: int, seconds: float, work: str) -> tuple[dict, dict]:
    workload = WORKLOADS[name]
    passes, failures = [], 0
    probes = []
    # Host speed is sampled through every pass and probe, to give their
    # times at reference speed (see speed.py).
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        last = 0.0
        while not passes or time.perf_counter() - start + last <= seconds:
            begun = time.perf_counter()
            try:
                passes.append(launch(name, seed, "run", JOBS, work))
            except PassFailed as exc:
                print(f"[gridbench] {exc}", file=sys.stderr)
                failures += 1
                break
            last = time.perf_counter() - begun
        for _ in range(PROBES):
            try:
                probes.append(launch(name, seed, "probe", JOBS, work))
            except PassFailed as exc:
                print(f"[gridbench] {exc}", file=sys.stderr)
                failures += 1
                break
    walls = [reference_seconds(sampler.samples, p["t_launch"], p["t_done"]) for p in passes]
    setups = [reference_seconds(sampler.samples, p["t_launch"], p["t_first_cell"])
              for p in passes + probes]
    raw_walls = [p["t_done"] - p["t_launch"] for p in passes]

    attempted = workload.units * (len(passes) + failures)
    failed = workload.units * failures
    correct = failures == 0
    for report in passes:
        bad, ok = check_units(report, workload.units)
        failed += bad
        correct &= ok
        if report.get("error"):
            print(report["error"], file=sys.stderr)
    if passes:
        # Same seed, same code: every pass must produce the same results.
        correct &= all(digests(p) == digests(passes[0]) for p in passes)
    metrics = {
        "wall_s": median(walls) if passes else float("nan"),
        "setup_s": median(setups) if setups else float("nan"),
        "peak_rss_mb": max(p["maxrss_kb"] for p in passes) / 1024.0 if passes else float("nan"),
    }
    recorded = load_recorded().get((name, seed), {})
    changed, checked = results_changed(digests(passes[0]) if passes else [],
                                       recorded.get("digests"))
    info = {
        "model_err": passes[0].get("model_err", float("nan")) if passes else float("nan"),
        "passes": len(passes), "setups": [round(s, 4) for s in setups],
        "fail_frac": failed / attempted,
        "pass_walls": [round(w, 3) for w in walls],
        "raw_walls": [round(w, 3) for w in raw_walls],
        "results_changed": changed, "results_checked": checked,
        "extras": passes[0].get("extras", {}) if passes else {},
        "digests": digests(passes[0]) if passes else [],
    }
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": metrics}, info


def cell_metrics(report: dict) -> dict:
    spans = [(s, f) for s, f in report.get("cells", [])]
    durations = [f - s for s, f in spans]
    if not durations:
        durations = [report["t_done"] - report["t_entry"]]
    # The tail is p90 only when >= 10 cells lie beyond it; a workload with
    # fewer cells reports its slowest one in that slot.
    tail = tail_percentile(len(durations))
    return {
        "parallel.cells": len(spans),
        "parallel.cell_p50_s": median(durations),
        "parallel.cell_p90_s": percentile(durations, 90.0) if tail and tail >= 90.0
        else max(durations),
        "parallel.cell_max_s": max(durations),
        "parallel.worker_idle_s": worker_idle_s(spans, report.get("jobs", 1)),
        "parallel.recovered_cells": report.get("recovered_cells", 0),
    }


def run_traced(name: str, seed: int, work: str) -> tuple[dict, dict]:
    workload = WORKLOADS[name]
    reports = {}
    try:
        # The executor telemetry comes from a pass at the e2e run's worker
        # count: at jobs=1 a pool never idles, so worker_idle_s would be 0.
        reports["pooled"] = launch(name, seed, "run", JOBS, work)
        reports["base"] = launch(name, seed, "run", 1, work)
        spans = os.path.join(work, f"spans-{name}-{seed}.jsonl")
        reports["traced"] = launch(name, seed, "traced", 1, work, spans=spans)
    except PassFailed as exc:
        print(f"[gridbench] {exc}", file=sys.stderr)
        return ({"correct": False, "attempted": workload.units, "failed": workload.units,
                 "metrics": {k: float("nan") for k in PER_LAYER}}, {})
    base, traced = reports["base"], reports["traced"]
    failed, correct = 0, True
    for report in reports.values():
        bad, ok = check_units(report, workload.units)
        failed = max(failed, bad)
        correct &= ok
        if report.get("error"):
            print(report["error"], file=sys.stderr)
    # Tracing must not perturb the simulation: identical results.
    correct &= all(digests(r) == digests(base) for r in reports.values())
    # The layers must account for the traced run's host time.
    correct &= traced["layers"]["bench.attributed_frac"] >= MIN_ATTRIBUTED

    metrics = dict(traced["layers"], **cell_metrics(reports["pooled"]))
    metrics["bench.model_err"] = traced.get("model_err", float("nan"))
    entry = load_recorded().get((name, seed), {})
    changed, checked = results_changed(digests(traced), entry.get("digests"))
    recorded = entry.get("counts", {})
    metrics.update({
        "bench.tracing_overhead": traced["root_s"] / base["root_s"],
        "bench.traced_wall_s": traced["root_s"],
        "bench.untraced_wall_s": base["root_s"],
        "bench.results_changed": changed,
        "bench.results_checked": checked,
        "bench.counts_changed": sum(1 for k in recorded if recorded[k] != metrics.get(k)),
        "bench.counts_checked": len(recorded),
    })
    info = {"digests": digests(traced), "counts": {k: metrics[k] for k in EXACT}}
    return ({"correct": bool(correct), "attempted": workload.units, "failed": failed,
             "metrics": {k: metrics[k] for k in PER_LAYER}}, info)


def record(name: str, seed: int, info: dict) -> None:
    entries = load_recorded()
    entry = entries.setdefault((name, seed), {"workload": name, "seed": seed})
    entry["digests"] = info["digests"]
    if "counts" in info:
        entry["counts"] = info["counts"]
    with open(RECORDED, "w") as fh:
        for key in sorted(entries):
            fh.write(json.dumps(entries[key]) + "\n")


def render(name: str, seed: int, result: dict, info: dict, traced: bool) -> str:
    units = END_TO_END if not traced else PER_LAYER
    figures = "  ".join(f"{k}={v:.6g} {units[k]}" for k, v in result["metrics"].items())
    line = f"{name} seed={seed}: {figures}"
    if not traced and info:
        line += (f"  model_err={info['model_err']:.6g} ratio (simulated, exact)"
                 f"  fail_frac={info['fail_frac']:.6g} ({result['failed']}/{result['attempted']})"
                 f"  bench.results_changed={info['results_changed']}"
                 f" (of {info['results_checked']} recorded)"
                 f"  passes={info['passes']} setups={','.join(map(str, info['setups']))}"
                 f"  pass_walls={','.join(map(str, info['pass_walls']))}"
                 f"  raw_walls={','.join(map(str, info['raw_walls']))} (host s)")
        line += "".join(f"  {k}={v:.6g}" for k, v in info["extras"].items())
    return line + f"  correct={result['correct']}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests (and traced counts) as the seed's reference")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join("src", "repro")):
        print("gridbench: run from the root of a repro checkout (src/repro not found)",
              file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_DIR, prefix="run-")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            if args.trace:
                result, info = run_traced(name, args.seed, work)
            else:
                result, info = run_untraced(name, args.seed, args.seconds, work)
            if args.record and result["correct"]:
                record(name, args.seed, info)
            print(render(name, args.seed, result, info, bool(args.trace)))
            results[name] = result
    finally:
        for entry in os.listdir(work):
            if entry.startswith("spans-"):
                os.replace(os.path.join(work, entry), os.path.join(WORK_DIR, entry))
        shutil.rmtree(work, ignore_errors=True)

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    units = PER_LAYER if args.trace else END_TO_END
    final = dict(final, metrics={
        k: {"value": v, "unit": units[k.split(".", 1)[1] if len(results) > 1 else k]}
        for k, v in final["metrics"].items()
    })
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
