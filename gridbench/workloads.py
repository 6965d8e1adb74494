"""The benchmark's workloads: what each runs, its output units, and the
model error against the paper.

Each workload calls the simulator's public experiment API exactly as a
user regenerating the figures would, with the benchmark's ``--seed`` as
the experiment seed.  Its result is split into *units* (grid cells, Apache
points, VMs), each validated and digested on its own so a failure or a
changed result is counted, not just detected.

Experiment modules are imported inside the functions: this file is also
loaded by the parent process and the tests, which never import the
simulator.
"""

from __future__ import annotations

import hashlib
import json
import math
import traceback
from dataclasses import dataclass
from typing import Any, Callable

from measure import mean_abs_log_ratio

SEC = 1_000_000_000


@dataclass
class Outcome:
    #: (unit name, result object) in a fixed order.
    units: list[tuple[str, Any]]
    #: Mean |ln(sim/ref)| against the workload's reference values (NaN
    #: when a failed call left some of them without a result).
    model_err: float
    #: Workload-specific figures shown in the human-readable summary.
    extras: dict[str, float]
    #: Traceback of a call that raised; its units are missing from ``units``.
    error: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[int, dict], Outcome]
    #: Units a full pass yields (counted as failed when a pass dies).
    units: int


def digest(value: Any) -> str:
    """Stable digest of one result, via the result cache's canonical form."""
    from repro.parallel import canonical

    blob = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _finite(*values: float) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def valid_unit(value: Any) -> bool:
    """A unit is malformed when its duration/rate is missing, zero or NaN."""
    from repro.experiments.fig11_13 import ParsecCell
    from repro.experiments.npb_common import NPBCell
    from repro.workloads.apache import HttperfResult

    if isinstance(value, NPBCell):
        return value.duration_ns > 0 and value.wait_ns >= 0 and _finite(value.ipi_rate_per_vcpu)
    if isinstance(value, ParsecCell):
        return value.duration_ns > 0 and _finite(value.ipi_rate_per_vcpu)
    if isinstance(value, HttperfResult):
        return value.sent > 0 and _finite(value.reply_rate) and value.reply_rate > 0
    if isinstance(value, tuple) and len(value) == 2:  # host VM: (consumed, entitled)
        return all(isinstance(v, int) and v > 0 for v in value)
    return False


# ----------------------------------------------------------------------
# Reference values (the paper's numbers, as recorded in EXPERIMENTS.md)
# ----------------------------------------------------------------------
def _reference_values(refs: dict, workload: str) -> dict[str, float]:
    return {row["unit"]: row["paper"] for row in refs["model_err"][workload]["values"]}


# ----------------------------------------------------------------------
# npb_parsec_grid
# ----------------------------------------------------------------------
def _grid(seed: int, refs: dict) -> Outcome:
    from repro.experiments import fig6_7, fig11_13
    from repro.experiments.setups import Config

    # Each call is all-or-nothing (a cell that raises aborts its figure),
    # so a failure costs the units of that call only.
    errors = []
    npb = parsec = None
    try:
        npb = fig6_7.run(vcpus=4, work_scale=0.1, seed=seed)
    except Exception:
        errors.append(traceback.format_exc())
    try:
        parsec = fig11_13.run(vcpus=4, work_scale=0.1, seed=seed)
    except Exception:
        errors.append(traceback.format_exc())
    units: list[tuple[str, Any]] = []
    for (app, spin, config), cell in (npb.cells.items() if npb else ()):
        label = fig6_7.SPINCOUNT_LABELS[spin]
        units.append((f"npb/{app}/{label}/{config.value}", cell))
    for (app, config), cell in (parsec.cells.items() if parsec else ()):
        units.append((f"parsec/{app}/{config.value}", cell))
    if errors:
        return Outcome(units, float("nan"), {}, "\n".join(errors))

    def normalized(unit: str) -> float:
        # "npb/<app>/30B" and "parsec/<app>": the vScale column of the row,
        # normalized to the vanilla run of the same row.
        suite, app, *spin = unit.split("/")
        if suite == "npb":
            spincount = {v: k for k, v in fig6_7.SPINCOUNT_LABELS.items()}[spin[0]]
            return npb.normalized(app, spincount, Config.VSCALE)
        return parsec.normalized(app, Config.VSCALE)

    references = _reference_values(refs, "npb_parsec_grid")
    err = mean_abs_log_ratio((normalized(unit), paper) for unit, paper in references.items())
    return Outcome(units, err, {})


# ----------------------------------------------------------------------
# apache_fig14
# ----------------------------------------------------------------------
def _apache(seed: int, refs: dict) -> Outcome:
    from repro.experiments import fig14
    from repro.experiments.setups import Config
    from repro.parallel import CellSpec, get_default_executor

    # One executor cell, the way the runner schedules fig14 at scale 0.1.
    spec = CellSpec("fig14", "fig14", fig14.run, {"duration_ns": SEC, "seed": seed})
    result = get_default_executor().run_cell(spec)
    units = [
        (f"{config.value}/{rate}", point)
        for (config, rate), point in sorted(
            result.points.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
        )
    ]
    by_name = {config.value: config for config in Config}
    references = _reference_values(refs, "apache_fig14")
    err = mean_abs_log_ratio(
        (result.peak_reply_rate(by_name[unit]), paper) for unit, paper in references.items()
    )
    extras = {f"peak[{unit}]": result.peak_reply_rate(by_name[unit]) for unit in references}
    return Outcome(units, err, extras)


# ----------------------------------------------------------------------
# host_50vm
# ----------------------------------------------------------------------
def _host(seed: int, refs: dict) -> Outcome:
    from repro.experiments import decentralization

    result = decentralization.run(
        vms=50, pcpus=16, vcpus_per_vm=2, duration_ns=30 * SEC, seed=seed
    )
    units = [(name, share) for name, share in result.shares.items()]
    # Mean over the VMs rather than the worst one: the worst of 50 swings
    # with the seed far more than any bound a benchmark could hold.
    err = mean_abs_log_ratio(share for _, share in units)
    return Outcome(units, err, {"worst_share_error": result.worst_share_error,
                                "reconfigurations": float(sum(result.reconfigurations.values()))})


WORKLOADS = {
    "npb_parsec_grid": Workload("npb_parsec_grid", _grid, units=172),
    "apache_fig14": Workload("apache_fig14", _apache, units=40),
    "host_50vm": Workload("host_50vm", _host, units=50),
}


def prepare() -> None:
    """Import everything a workload touches, so a timed span excludes it."""
    import repro.experiments.decentralization  # noqa: F401
    import repro.experiments.fig6_7  # noqa: F401
    import repro.experiments.fig11_13  # noqa: F401
    import repro.experiments.fig14  # noqa: F401
    import repro.parallel  # noqa: F401
