"""A guest RCU grace-period model.

One of the five reasons a frozen vCPU stays quiescent (paper §3.3) is that
"a vCPU that stays idle does not need to participate in RCU's grace period
detection".  This module models the relevant mechanics:

* updaters call :meth:`RCUDomain.call_rcu` to queue a callback behind the
  next grace period;
* a grace period completes once every vCPU that was *online and non-idle*
  at its start has passed through a quiescent state (its scheduler tick
  reports one, as ``rcu_sched`` does);
* idle vCPUs are in *dynticks-idle* and are excluded up front; frozen
  vCPUs are excluded exactly the same way — which is why vScale does not
  need to unfreeze anything for RCU to make progress.

The model hooks the guest tick: each tick on an executing vCPU reports a
quiescent state, just like the real ``rcu_check_callbacks``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TYPE_CHECKING

from repro.hypervisor.domain import VCPUState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.guest.kernel import GuestKernel


@dataclass
class _GracePeriod:
    number: int
    started_ns: int
    #: vCPU indices that still owe a quiescent state.
    waiting_on: set[int]
    callbacks: list[Callable[[], None]] = field(default_factory=list)
    completed_ns: int | None = None


class RCUDomain:
    """Grace-period state for one guest."""

    def __init__(self, kernel: "GuestKernel"):
        self.kernel = kernel
        self._next_number = 1
        self._current: _GracePeriod | None = None
        self._pending_callbacks: list[Callable[[], None]] = []
        self.completed_grace_periods = 0
        #: (grace period number, latency ns) history for analysis.
        self.latencies: list[tuple[int, int]] = []
        kernel.rcu = self

    # ------------------------------------------------------------------
    def call_rcu(self, callback: Callable[[], None]) -> int:
        """Queue a callback to run after the next grace period.

        Returns the grace period number it waits on.
        """
        self._pending_callbacks.append(callback)
        if self._current is None:
            self._start_grace_period()
        assert self._current is not None
        return self._current.number

    def synchronize_rcu_state(self) -> dict:
        """Introspection: the current grace period's progress."""
        if self._current is None:
            return {"active": False}
        return {
            "active": True,
            "number": self._current.number,
            "waiting_on": sorted(self._current.waiting_on),
        }

    # ------------------------------------------------------------------
    def _participants(self) -> set[int]:
        """vCPUs that must report: online and not dynticks-idle/frozen."""
        kernel = self.kernel
        participants = set()
        for index, rq in enumerate(kernel.runqueues):
            if index in kernel.cpu_freeze_mask:
                continue
            vcpu = kernel.domain.vcpus[index]
            if vcpu.state is VCPUState.FROZEN:
                continue
            if rq.load() == 0 and vcpu.state is VCPUState.BLOCKED:
                continue  # dynticks-idle: already quiescent
            participants.add(index)
        return participants

    def _start_grace_period(self) -> None:
        grace_period = _GracePeriod(
            number=self._next_number,
            started_ns=self.kernel.sim.now,
            waiting_on=self._participants(),
        )
        self._next_number += 1
        grace_period.callbacks = self._pending_callbacks
        self._pending_callbacks = []
        self._current = grace_period
        if not grace_period.waiting_on:
            self._complete()

    def note_quiescent_state(self, vcpu_index: int) -> None:
        """Called from the scheduler tick of an executing vCPU."""
        grace_period = self._current
        if grace_period is None:
            return
        grace_period.waiting_on.discard(vcpu_index)
        # A vCPU that went idle or frozen since the GP started no longer
        # owes a report (it cannot hold an RCU read-side section).
        grace_period.waiting_on &= self._participants() | set()
        if not grace_period.waiting_on:
            self._complete()

    def _complete(self) -> None:
        grace_period = self._current
        assert grace_period is not None
        now = self.kernel.sim.now
        grace_period.completed_ns = now
        self.completed_grace_periods += 1
        self.latencies.append((grace_period.number, now - grace_period.started_ns))
        self._current = None
        for callback in grace_period.callbacks:
            callback()
        if self._pending_callbacks:
            self._start_grace_period()
