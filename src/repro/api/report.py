"""Typed, frozen analysis reports -- the façade's result objects.

An :class:`AnalysisReport` is the single result shape of the whole
analysis pipeline (response-time analysis -> latency/jitter interface ->
jitter-margin stability verdict): one :class:`TaskVerdict` per task plus
the system-level schedulability/stability rollup.  Reports serialise to a
versioned canonical JSON schema (``schema_version`` +
``canonical_sha256``) following the sweep-artifact conventions of
:mod:`repro.sweep.result`: sorted keys, compact separators, non-finite
floats encoded as sentinel strings, atomic writes.  Two reports of the
same system -- produced serially, in a process pool, or reloaded from
disk -- are byte-identical in canonical form.  The served bytes
(:meth:`AnalysisReport.report_json`) come from the typed encoder of
:mod:`repro.api.wire`; ``_canonical_dict`` and the generic encoder stay
the definition it is tested against.

Schema note (sentinel escaping): string fields whose value reads as a
non-finite sentinel (``"NaN"``/``"Infinity"``/``"-Infinity"``, optionally
behind ``~`` escape markers) are escaped with one leading ``~`` in the
JSON encoding and unescaped on load.  Encode and decode live strictly at
the JSON boundary (``write``/``load``, the sweep chunk cache):
``from_dict`` takes decoded dicts verbatim, so a task genuinely named
``"NaN"`` -- or ``"~NaN"`` -- round-trips losslessly through files, the
process-pool batch path, and the serve layer alike, and canonical hashes
of reports without colliding names are unchanged by the rule.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.errors import ModelError
from repro.jittermargin.linearbound import LinearStabilityBound
from repro.rta.interface import ResponseTimes
from repro.sweep.result import (
    atomic_write_json,
    canonical_sha256_of,
    combined_sha256,
    decode_nonfinite,
)

#: Version of the report (and system-model) JSON schema.  Bump on any
#: field addition/removal/semantic change; the API-surface snapshot test
#: pins it so accidental schema drift fails CI in seconds.
SCHEMA_VERSION = 1

#: Guard against division by a degenerate latency budget in ``rel_slack``.
_MIN_BUDGET = 1e-12


def _decode_float(value: Any) -> float:
    """One numeric schema field -> float, sentinel strings included."""
    return float(decode_nonfinite(value))


@dataclass(frozen=True)
class TaskVerdict:
    """Verdict of one task: response times, (L, J) interface, margin.

    The derived fields follow the conventions every consumer package used
    to re-implement locally:

    * ``slack`` is ``None`` for tasks without a stability bound, ``-inf``
      for bounded tasks that miss their deadline, and the signed margin
      ``b - L - a J`` otherwise;
    * ``stable`` is vacuously ``True`` without a bound (deadline misses
      are reported through ``deadline_met``/``ok``).
    """

    name: str
    period: float
    wcet: float
    bcet: float
    #: ``None`` when the task was judged without an assignment (e.g. a
    #: server-hosted task through :func:`repro.api.verdict_from_times`).
    priority: Optional[int]
    times: ResponseTimes
    bound: Optional[LinearStabilityBound]

    @property
    def latency(self) -> float:
        """``L = R^b`` (paper eq. (2))."""
        return self.times.latency

    @property
    def jitter(self) -> float:
        """``J = R^w - R^b`` (paper eq. (2))."""
        return self.times.jitter

    @property
    def deadline_met(self) -> bool:
        """``R^w <= h`` (the implicit deadline, required by eq. (3))."""
        return self.times.finite

    @property
    def slack(self) -> Optional[float]:
        """Signed stability margin ``b - L - a J``; ``None`` without a bound."""
        if self.bound is None:
            return None
        if not self.times.finite:
            return float("-inf")
        # float(): bound coefficients fitted from curves may be numpy
        # scalars, which would poison the JSON schema downstream.
        return float(self.bound.slack(self.times.latency, self.times.jitter))

    @property
    def rel_slack(self) -> Optional[float]:
        """Slack relative to the latency budget ``b``; ``None`` without a bound."""
        slack = self.slack
        if slack is None or self.bound is None:
            return None
        return float(slack / max(self.bound.b, _MIN_BUDGET))

    @property
    def stable(self) -> bool:
        """Stability constraint ``L + a J <= b`` (paper eq. (5))."""
        if self.bound is None:
            return True
        if not self.times.finite:
            return False
        return bool(
            self.bound.is_stable(self.times.latency, self.times.jitter)
        )

    @property
    def ok(self) -> bool:
        """Deadline met *and* stability constraint satisfied."""
        return self.deadline_met and self.stable

    @property
    def utilization(self) -> float:
        return self.wcet / self.period

    def to_dict(self) -> Dict[str, Any]:
        """Flat schema dict (floats kept raw; encoding happens at JSON time)."""
        return {
            "name": self.name,
            "period": float(self.period),
            "wcet": float(self.wcet),
            "bcet": float(self.bcet),
            "priority": None if self.priority is None else int(self.priority),
            "best": float(self.times.best),
            "worst": float(self.times.worst),
            "latency": float(self.latency),
            "jitter": float(self.jitter),
            "deadline_met": self.deadline_met,
            "bound": (
                None
                if self.bound is None
                else {"a": float(self.bound.a), "b": float(self.bound.b)}
            ),
            "slack": self.slack,
            "rel_slack": self.rel_slack,
            "stable": self.stable,
            "ok": self.ok,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TaskVerdict":
        """Rebuild a verdict from its schema dict.

        Expects *decoded* values: raw ``to_dict()`` output, a sweep
        worker record, or a JSON file passed through
        :func:`~repro.sweep.result.decode_nonfinite` (which
        :meth:`AnalysisReport.load` does).  String fields are taken
        verbatim -- unescaping happens only at the JSON boundary, where
        escaping happened -- so a task genuinely named ``"NaN"`` or
        ``"~NaN"`` survives every path.  Numeric fields tolerate
        sentinel strings either way (field-typed decode).
        """
        bound = data.get("bound")
        return cls(
            name=str(data["name"]),
            period=_decode_float(data["period"]),
            wcet=_decode_float(data["wcet"]),
            bcet=_decode_float(data["bcet"]),
            priority=(
                int(data["priority"]) if data.get("priority") is not None else None
            ),
            times=ResponseTimes(
                best=_decode_float(data["best"]),
                worst=_decode_float(data["worst"]),
            ),
            bound=(
                None
                if bound is None
                else LinearStabilityBound(
                    a=_decode_float(bound["a"]), b=_decode_float(bound["b"])
                )
            ),
        )


@dataclass(frozen=True)
class AnalysisReport:
    """Frozen outcome of :func:`repro.api.analyze` for one system."""

    name: str
    priority_policy: str
    verdicts: Tuple[TaskVerdict, ...]

    @property
    def n_tasks(self) -> int:
        return len(self.verdicts)

    @property
    def utilization(self) -> float:
        """Total worst-case utilisation of the analysed task set."""
        return float(sum(v.utilization for v in self.verdicts))

    @property
    def schedulable(self) -> bool:
        """Every task meets its implicit deadline (``R^w_i <= h_i``)."""
        return all(v.deadline_met for v in self.verdicts)

    @property
    def stable(self) -> bool:
        """Every task meets its deadline *and* its stability constraint."""
        return all(v.ok for v in self.verdicts)

    @property
    def violating(self) -> Tuple[str, ...]:
        """Names of tasks failing deadline or stability, in task-set order."""
        return tuple(v.name for v in self.verdicts if not v.ok)

    @property
    def min_rel_slack(self) -> Optional[float]:
        """Minimum relative stability margin over bounded tasks.

        The tightest ``rel_slack`` in the system -- the drift detectors'
        primary signal (:mod:`repro.obs.detectors`); ``None`` when no
        task carries a stability bound.
        """
        values = [
            v.rel_slack for v in self.verdicts if v.rel_slack is not None
        ]
        return min(values) if values else None

    def summary(self) -> Dict[str, Any]:
        """Small verdict rollup for observability (not part of the schema).

        Matches :func:`repro.obs.window.summary_from_report_dict` parsed
        from the serialised report, so window records are identical
        whether a response was computed or replayed from the store.
        After :meth:`report_json` this is the rollup its encoding pass
        already computed (:mod:`repro.api.wire`), not a second walk.
        """
        cached = self.__dict__.get("_cache_summary")
        if cached is not None:
            return dict(cached)
        return {
            "name": self.name,
            "n_tasks": self.n_tasks,
            "utilization": self.utilization,
            "schedulable": self.schedulable,
            "stable": self.stable,
            "min_rel_slack": self.min_rel_slack,
        }

    def task(self, name: str) -> TaskVerdict:
        for verdict in self.verdicts:
            if verdict.name == name:
                return verdict
        raise ModelError(f"no verdict for task {name!r} in report {self.name!r}")

    # -- canonical serialisation ---------------------------------------------
    def _canonical_dict(self) -> Dict[str, Any]:
        """The deterministic view covered by ``canonical_sha256``."""
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "priority_policy": self.priority_policy,
            "n_tasks": self.n_tasks,
            "utilization": self.utilization,
            "schedulable": self.schedulable,
            "stable": self.stable,
            "violating": list(self.violating),
            "tasks": [v.to_dict() for v in self.verdicts],
        }

    def canonical_json(self) -> str:
        """Deterministic JSON (sorted keys, compact, sentinel non-finites)."""
        from repro.api.wire import report_body

        return report_body(self)

    def canonical_sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        """Full schema dict: the canonical view plus its embedded hash."""
        payload = self._canonical_dict()
        payload["canonical_sha256"] = canonical_sha256_of(payload)
        return payload

    def report_json(self, memo: Optional[Any] = None) -> str:
        """The served bytes: canonical JSON with ``canonical_sha256`` embedded.

        One typed encoding pass (:func:`repro.api.wire.report_json`),
        byte-identical to ``canonical_json_with_hash(_canonical_dict())``.
        ``memo`` (an :class:`~repro.memo.AnalysisMemo`) reuses the
        encoded fragments of verdicts it has seen; without it every
        verdict is encoded.
        """
        from repro.api.wire import report_json

        return report_json(self, memo)

    def write(self, path: str) -> None:
        """Write the report atomically (temp file + rename), indented."""
        atomic_write_json(path, self.to_dict())

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AnalysisReport":
        # No decoding here: from_dict takes decoded (in-memory) dicts,
        # and load() decodes JSON files before calling it.  Unescaping a
        # raw dict would corrupt names that legitimately start with the
        # escape marker.  Numeric sentinel tolerance lives field-typed
        # in TaskVerdict.from_dict.
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ModelError(
                f"unsupported analysis report schema_version {version!r} "
                f"(expected {SCHEMA_VERSION})"
            )
        return cls(
            name=str(data["name"]),
            priority_policy=str(data["priority_policy"]),
            verdicts=tuple(TaskVerdict.from_dict(t) for t in data["tasks"]),
        )

    @classmethod
    def load(cls, path: str) -> "AnalysisReport":
        with open(path) as handle:
            # The file was encoded at write time; decode (floats back
            # from sentinels, escaped strings unescaped) exactly once,
            # at the same boundary.
            return cls.from_dict(decode_nonfinite(json.load(handle)))

    def render(self) -> str:
        # Imported here: repro.experiments imports api through its drivers,
        # so a top-level import would be circular.
        from repro.experiments.report import format_table

        rows = []
        for v in self.verdicts:
            rows.append(
                (
                    v.name,
                    "-" if v.priority is None else v.priority,
                    f"{v.period:.4g}",
                    f"{v.latency:.4g}",
                    f"{v.jitter:.4g}" if v.deadline_met else "inf",
                    "-" if v.slack is None else f"{v.slack:.4g}",
                    "ok" if v.ok else "VIOLATED",
                )
            )
        table = format_table(
            ["task", "prio", "h", "L", "J", "slack", "verdict"],
            rows,
            title=(
                f"Analysis of {self.name!r} "
                f"(policy {self.priority_policy}, U = {self.utilization:.3f})"
            ),
        )
        footer = (
            f"\nschedulable: {self.schedulable}; stable: {self.stable}"
            + (f"; violating: {', '.join(self.violating)}" if self.violating else "")
            + f"\n[schema v{SCHEMA_VERSION}, canonical sha256 "
            f"{self.canonical_sha256()[:16]}]"
        )
        return table + footer


def batch_report_dict(reports: Sequence[AnalysisReport]) -> Dict[str, Any]:
    """Versioned envelope of many reports (``analyze_batch`` artifact).

    The envelope hash covers the per-report canonical hashes, so two batch
    artifacts can be compared by a single field regardless of job count.
    """
    dicts = [r.to_dict() for r in reports]
    combined = combined_sha256([d["canonical_sha256"] for d in dicts])
    return {
        "schema_version": SCHEMA_VERSION,
        "n_systems": len(reports),
        "reports": dicts,
        "canonical_sha256": combined,
    }


def write_batch_report(reports: Sequence[AnalysisReport], path: str) -> None:
    """Write the batch envelope atomically."""
    atomic_write_json(path, batch_report_dict(reports))
