"""The rolling window of served analysis outcomes the detectors watch.

The daemon appends one :func:`record` per successfully served
``/v1/analyze`` response -- a small summary dict (verdict rollup,
minimum relative slack, cache provenance, latency), never the full
report -- into a bounded deque.  Detectors read a consistent snapshot
via :meth:`ReportWindow.snapshot`; the daemon's revalidation hook uses
the parallel sha -> model map to replay flagged entries through the
Monte-Carlo harness.

Records carry a monotone ``seq`` so a snapshot is self-describing:
detectors split it into baseline/recent halves by position, and two
snapshots can be compared without wall-clock timestamps (which would
break the byte-identical-findings contract).
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict, deque
from typing import Any, Dict, List, Mapping, Optional

from repro.sweep.result import atomic_write_text, canonical_dumps, decode_nonfinite

#: Keys every window record carries (missing values are ``None``).
RECORD_KEYS = (
    "seq",
    "sha",
    "name",
    "n_tasks",
    "utilization",
    "schedulable",
    "stable",
    "min_rel_slack",
    "source",
    "memo_hits",
    "memo_recomputations",
    "latency_seconds",
    "trace_id",
)


def summary_from_report_dict(report: Mapping[str, Any]) -> Dict[str, Any]:
    """Verdict summary out of a (decoded) report schema dict.

    The fallback path for store-replayed bodies whose in-memory summary
    is unknown (e.g. warm disk tier after a restart): parses the
    canonical report dict once.  ``min_rel_slack`` is the minimum
    relative stability margin over bounded tasks -- the drift detectors'
    primary signal -- or ``None`` when no task carries a bound.
    """
    rel_slacks: List[float] = []
    for task in report.get("tasks", ()):
        # Non-finite values arrive as sentinels ("-Infinity" for a
        # deadline miss).
        value = decode_nonfinite(task.get("rel_slack"))
        if isinstance(value, (int, float)):
            rel_slacks.append(float(value))
    return {
        "name": report.get("name"),
        "n_tasks": report.get("n_tasks"),
        "utilization": report.get("utilization"),
        "schedulable": report.get("schedulable"),
        "stable": report.get("stable"),
        "min_rel_slack": min(rel_slacks) if rel_slacks else None,
    }


def summary_from_report_body(body: str) -> Optional[Dict[str, Any]]:
    """Like :func:`summary_from_report_dict`, from raw response bytes."""
    try:
        data = json.loads(body)
    except ValueError:
        return None
    if not isinstance(data, dict) or "tasks" not in data:
        return None
    return summary_from_report_dict(data)


class ReportWindow:
    """Thread-safe bounded window of served-analysis summary records."""

    def __init__(self, max_entries: int = 2048, *, model_entries: int = 512):
        if max_entries < 2:
            raise ValueError(f"max_entries must be >= 2, got {max_entries}")
        self.max_entries = int(max_entries)
        self._records: "deque[Dict[str, Any]]" = deque(maxlen=self.max_entries)
        self._lock = threading.Lock()
        self._seq = 0
        self.total_recorded = 0
        # sha -> last seen model dict / summary, LRU-bounded: the
        # revalidation hook needs flagged models back, and store hits
        # need summaries without re-parsing response bodies.
        self._model_entries = int(model_entries)
        self._models: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._summaries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

    def record(
        self,
        sha: str,
        summary: Optional[Mapping[str, Any]],
        *,
        source: str,
        latency_seconds: Optional[float] = None,
        memo_hits: Optional[int] = None,
        memo_recomputations: Optional[int] = None,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        summary = summary or {}
        with self._lock:
            self._seq += 1
            entry = {
                "seq": self._seq,
                "sha": sha,
                "name": summary.get("name"),
                "n_tasks": summary.get("n_tasks"),
                "utilization": summary.get("utilization"),
                "schedulable": summary.get("schedulable"),
                "stable": summary.get("stable"),
                "min_rel_slack": summary.get("min_rel_slack"),
                "source": source,
                "memo_hits": memo_hits,
                "memo_recomputations": memo_recomputations,
                "latency_seconds": latency_seconds,
                "trace_id": trace_id,
            }
            self._records.append(entry)
            self.total_recorded += 1
            return entry

    # -- side maps -----------------------------------------------------------
    def remember_model(self, sha: str, model: Mapping[str, Any]) -> None:
        with self._lock:
            self._models[sha] = dict(model)
            self._models.move_to_end(sha)
            while len(self._models) > self._model_entries:
                self._models.popitem(last=False)

    def model_for(self, sha: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            model = self._models.get(sha)
            return dict(model) if model is not None else None

    def remember_summary(self, sha: str, summary: Mapping[str, Any]) -> None:
        with self._lock:
            self._summaries[sha] = dict(summary)
            self._summaries.move_to_end(sha)
            while len(self._summaries) > self._model_entries:
                self._summaries.popitem(last=False)

    def summary_for(self, sha: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            summary = self._summaries.get(sha)
            return dict(summary) if summary is not None else None

    # -- persistence ---------------------------------------------------------
    #: Snapshot-file format stamp; bump on incompatible layout changes
    #: (a mismatched or corrupt file is ignored, never fatal).
    STATE_FORMAT = "repro-obs-window/1"

    def to_state(self) -> Dict[str, Any]:
        """The whole window as one plain dict (records may hold ``-inf``).

        :meth:`save` serialises it through ``canonical_dumps``, whose
        sentinel encoding handles the non-finite ``min_rel_slack``
        values; pre-encoding here would double-escape them.
        """
        with self._lock:
            return {
                "format": self.STATE_FORMAT,
                "seq": self._seq,
                "total_recorded": self.total_recorded,
                "records": [dict(record) for record in self._records],
                "models": {s: dict(m) for s, m in self._models.items()},
                "summaries": {
                    s: dict(m) for s, m in self._summaries.items()
                },
            }

    def restore(self, state: Mapping[str, Any]) -> int:
        """Load a :meth:`to_state` dict; returns records restored.

        A wrong format stamp or malformed payload restores nothing --
        the window simply starts empty, matching a fresh daemon.
        """
        if not isinstance(state, Mapping):
            return 0
        if state.get("format") != self.STATE_FORMAT:
            return 0
        try:
            records = [dict(record) for record in state["records"]]
            models = {
                str(sha): dict(model)
                for sha, model in state.get("models", {}).items()
            }
            summaries = {
                str(sha): dict(summary)
                for sha, summary in state.get("summaries", {}).items()
            }
            seq = int(state.get("seq", 0))
            total = int(state.get("total_recorded", 0))
        except (TypeError, ValueError, KeyError, AttributeError):
            return 0
        with self._lock:
            self._records.clear()
            self._records.extend(records[-self.max_entries :])
            self._seq = max(seq, *(r.get("seq", 0) for r in records), 0)
            self.total_recorded = max(total, len(self._records))
            self._models = OrderedDict(
                list(models.items())[-self._model_entries :]
            )
            self._summaries = OrderedDict(
                list(summaries.items())[-self._model_entries :]
            )
            return len(self._records)

    def save(self, path: str) -> int:
        """Atomically snapshot the window to ``path``; returns records."""
        state = self.to_state()
        atomic_write_text(path, canonical_dumps(state) + "\n")
        return len(state["records"])

    def load(self, path: str) -> int:
        """Restore from ``path``; missing/corrupt files restore nothing."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                state = json.load(handle)
        except (OSError, ValueError):
            return 0
        return self.restore(decode_nonfinite(state))

    # -- reading -------------------------------------------------------------
    def snapshot(self, last: Optional[int] = None) -> List[Dict[str, Any]]:
        """A consistent copy of the newest ``last`` records (all if None)."""
        with self._lock:
            records = list(self._records)
        if last is not None and last >= 0:
            records = records[-last:] if last else []
        return [dict(record) for record in records]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "entries": len(self._records),
                "max_entries": self.max_entries,
                "total_recorded": self.total_recorded,
                "models_remembered": len(self._models),
            }
