"""Execution plans: the unit of work the execution plane dispatches.

An :class:`ExecutionPlan` is a named, ordered batch of calls to one
module-level function.  Callers (the sweep executor, the batch facade,
the serve daemon) describe *what* to compute; backends decide *where*
(in-process or in a persistent worker pool) -- the plan itself is
backend-agnostic and picklable by construction.

Determinism contract: results are keyed by call index, and every
backend yields each index exactly once; :meth:`~repro.exec.backends`
``run`` methods return results in call order regardless of completion
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.exec.jobs import ExecError


def _validate_picklable_fn(fn: Callable, role: str) -> None:
    qualname = getattr(fn, "__qualname__", "")
    module = getattr(fn, "__module__", "")
    if not module or "<lambda>" in qualname or "<locals>" in qualname:
        raise ExecError(
            f"{role} must be a module-level function (picklable "
            f"by process pools); got {fn!r}"
        )


@dataclass(frozen=True)
class ExecutionPlan:
    """One ordered batch of ``fn(*call)`` invocations.

    Parameters
    ----------
    name:
        Label for metrics and error messages (bounded cardinality --
        use the sweep/endpoint name, not per-item values).
    fn:
        Module-level callable; each element of ``calls`` is its
        positional argument tuple.
    calls:
        The argument tuples, in deterministic order.  The call index is
        the result key.
    weights:
        Optional per-call item counts (a chunked call covering 32 items
        has weight 32).  Used for failover accounting; defaults to 1
        per call.
    """

    name: str
    fn: Callable[..., Any]
    calls: Tuple[Tuple[Any, ...], ...]
    weights: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if not self.name:
            raise ExecError("execution plans need a non-empty name")
        _validate_picklable_fn(self.fn, "plan functions")
        object.__setattr__(self, "calls", tuple(tuple(c) for c in self.calls))
        if self.weights is not None:
            weights = tuple(int(w) for w in self.weights)
            if len(weights) != len(self.calls):
                raise ExecError(
                    f"plan {self.name!r}: {len(weights)} weights for "
                    f"{len(self.calls)} calls"
                )
            object.__setattr__(self, "weights", weights)

    @property
    def n_calls(self) -> int:
        return len(self.calls)

    @property
    def n_items(self) -> int:
        if self.weights is None:
            return len(self.calls)
        return sum(self.weights)

    def weight(self, index: int) -> int:
        return 1 if self.weights is None else self.weights[index]


class TaskFailed(ExecError):
    """One plan call raised; the original exception is ``__cause__``.

    Backends wrap genuine task errors (not infrastructure crashes) in
    this type so callers can attribute the failure to a call index and
    re-raise in their own vocabulary (:class:`~repro.sweep.executor.
    SweepError` keeps its historical message format this way).
    """

    def __init__(self, plan: "ExecutionPlan", index: int, cause: BaseException):
        super().__init__(
            f"plan {plan.name!r}: call {index} failed: {cause!r}"
        )
        self.plan_name = plan.name
        self.index = index
