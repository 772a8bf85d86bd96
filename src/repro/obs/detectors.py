"""Pure, versioned anomaly detectors over served traffic.

Each :class:`Detector` is a pure function of a window of
:mod:`repro.obs.window` records: same window in, byte-identical
canonical-JSON findings out -- no clocks, no randomness, no hidden
state.  Every detector carries an ``algorithm_version`` that must be
bumped on any change to its maths, so findings are comparable across
deployments (the interface pattern of SNIPPETS.md snippets 2-3).

Findings are **advisory only**: the daemon reports them via
``POST /v1/detect`` and the event log but never changes serving
behaviour because of one.  The catalogue is fixed: four detectors, each
with its thresholds as class attributes, watching the four failure
modes ROADMAP item 5 names:

* :class:`VerdictDriftDetector` -- served verdicts staying "stable"
  while the minimum relative stability margin collapses against the
  rolling baseline (the optimistic-drift precursor: the analysis keeps
  saying yes as the margin the paper's eq. (5) guards evaporates);
* :class:`NearBoundaryPileupDetector` -- a rising fraction of verdicts
  landing inside the near-boundary band where the Monte-Carlo harness
  treats sim/analysis disagreement as inconclusive;
* :class:`LatencyRegressionDetector` -- served latency percentiles
  regressing against the baseline half of the window;
* :class:`CacheEfficiencyDetector` -- store/memo hit-rate collapse
  (traffic turning adversarial to the content-addressed caches).

Baseline vs recent: a window snapshot is split positionally into an
older *baseline* half and a newer *recent* half (records carry monotone
``seq``, not timestamps, precisely so this split is deterministic).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.metrics import percentile
from repro.sweep.result import canonical_json_with_hash

#: Version of the detect-report JSON schema (distinct from the analysis
#: report's schema_version; bump on envelope shape changes).
OBS_SCHEMA_VERSION = 1

#: Severity ladder, informational only.
SEVERITIES = ("info", "warning", "critical")


@dataclass(frozen=True)
class Finding:
    """One advisory anomaly finding (canonical-JSON serialisable)."""

    detector: str
    algorithm_version: int
    severity: str
    summary: str
    #: Content hashes of the implicated served models, newest last --
    #: the revalidation hook's work list.
    flagged_shas: Tuple[str, ...] = ()
    #: The numbers behind the verdict (rounded, deterministic).
    metrics: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "detector": self.detector,
            "algorithm_version": self.algorithm_version,
            "severity": self.severity,
            "summary": self.summary,
            "flagged_shas": list(self.flagged_shas),
            "metrics": dict(self.metrics),
        }


class Detector(ABC):
    """A pure, versioned detector over window records."""

    #: Catalogue key; stable across versions.
    name: str = ""
    #: Bumped on ANY change to the detector's maths or thresholds.
    algorithm_version: int = 1
    description: str = ""

    @abstractmethod
    def detect(self, records: Sequence[Mapping[str, Any]]) -> List[Finding]:
        """Findings over one window snapshot (possibly empty)."""


def _round(value: float, digits: int = 9) -> float:
    """Deterministic metric rounding (and -0.0 normalisation)."""
    rounded = round(float(value), digits)
    return 0.0 if rounded == 0.0 else rounded


def split_baseline_recent(
    records: Sequence[Mapping[str, Any]]
) -> Tuple[Sequence[Mapping[str, Any]], Sequence[Mapping[str, Any]]]:
    """Older half (baseline) vs newer half (recent), positionally."""
    half = len(records) // 2
    return records[:half], records[half:]


def _finite(values) -> List[float]:
    return [v for v in values if v is not None and math.isfinite(v)]


def _rel_slacks(records: Sequence[Mapping[str, Any]]) -> List[float]:
    return _finite(
        record.get("min_rel_slack")
        for record in records
        if record.get("stable")
    )


class VerdictDriftDetector(Detector):
    """Stable verdicts whose stability margin is collapsing.

    Fires when the *recent* half's mean minimum relative slack (over
    still-stable verdicts) has dropped below ``drop_ratio`` times the
    baseline half's mean while most recent verdicts remain "stable" --
    i.e. the analysis keeps answering yes as the margin drains, the
    precursor of optimistic verdicts.  Flags the recent stable models
    whose margin already sits inside ``flag_band``.
    """

    name = "verdict_drift"
    algorithm_version = 1
    description = (
        "stable-verdict share holds while mean min rel_slack collapses "
        "vs the baseline half of the window"
    )

    min_records = 16
    drop_ratio = 0.5
    stable_floor = 0.5
    flag_band = 0.1

    def detect(self, records: Sequence[Mapping[str, Any]]) -> List[Finding]:
        if len(records) < self.min_records:
            return []
        baseline, recent = split_baseline_recent(records)
        base_slacks = _rel_slacks(baseline)
        recent_slacks = _rel_slacks(recent)
        if len(base_slacks) < 4 or len(recent_slacks) < 4:
            return []
        base_mean = sum(base_slacks) / len(base_slacks)
        recent_mean = sum(recent_slacks) / len(recent_slacks)
        stable_fraction = sum(
            1 for r in recent if r.get("stable")
        ) / len(recent)
        if base_mean <= 0:
            return []
        if recent_mean > self.drop_ratio * base_mean:
            return []
        if stable_fraction < self.stable_floor:
            return []
        flagged = tuple(
            record["sha"]
            for record in recent
            if record.get("stable")
            and record.get("min_rel_slack") is not None
            and math.isfinite(record["min_rel_slack"])
            and record["min_rel_slack"] <= self.flag_band
            and record.get("sha")
        )
        severity = "critical" if recent_mean <= 0.25 * base_mean else "warning"
        return [
            Finding(
                detector=self.name,
                algorithm_version=self.algorithm_version,
                severity=severity,
                summary=(
                    "stable verdicts persist while mean min rel_slack fell "
                    f"from {base_mean:.4f} (baseline) to {recent_mean:.4f} "
                    "(recent)"
                ),
                flagged_shas=flagged,
                metrics={
                    "baseline_mean_rel_slack": _round(base_mean),
                    "recent_mean_rel_slack": _round(recent_mean),
                    "drop_ratio_threshold": self.drop_ratio,
                    "recent_stable_fraction": _round(stable_fraction),
                    "baseline_records": len(base_slacks),
                    "recent_records": len(recent_slacks),
                },
            )
        ]


class NearBoundaryPileupDetector(Detector):
    """Verdicts piling up inside the near-boundary slack band.

    The Monte-Carlo validation harness treats ``|rel_slack| <= band`` as
    the inconclusive near-boundary zone; a traffic mix concentrating
    there means served verdicts lean on margins too thin to trust.
    Fires when the recent half's in-band fraction exceeds ``threshold``
    and the baseline fraction by ``min_rise``.
    """

    name = "near_boundary_pileup"
    algorithm_version = 1
    description = (
        "fraction of served verdicts with |min rel_slack| inside the "
        "near-boundary band rises above threshold and baseline"
    )

    band = 0.05
    threshold = 0.3
    min_rise = 0.1
    min_records = 16

    def _in_band_fraction(
        self, records: Sequence[Mapping[str, Any]]
    ) -> Tuple[float, List[str]]:
        eligible = [
            record
            for record in records
            if record.get("min_rel_slack") is not None
            and math.isfinite(record["min_rel_slack"])
        ]
        if not eligible:
            return 0.0, []
        in_band = [
            record
            for record in eligible
            if abs(record["min_rel_slack"]) <= self.band
        ]
        shas = [r["sha"] for r in in_band if r.get("sha")]
        return len(in_band) / len(eligible), shas

    def detect(self, records: Sequence[Mapping[str, Any]]) -> List[Finding]:
        if len(records) < self.min_records:
            return []
        baseline, recent = split_baseline_recent(records)
        base_fraction, _ = self._in_band_fraction(baseline)
        recent_fraction, flagged = self._in_band_fraction(recent)
        if recent_fraction < self.threshold:
            return []
        if recent_fraction - base_fraction < self.min_rise:
            return []
        severity = "critical" if recent_fraction >= 0.6 else "warning"
        return [
            Finding(
                detector=self.name,
                algorithm_version=self.algorithm_version,
                severity=severity,
                summary=(
                    f"{recent_fraction:.0%} of recent verdicts sit within "
                    f"±{self.band} rel_slack of the stability boundary "
                    f"(baseline {base_fraction:.0%})"
                ),
                flagged_shas=tuple(flagged),
                metrics={
                    "band": self.band,
                    "baseline_in_band_fraction": _round(base_fraction),
                    "recent_in_band_fraction": _round(recent_fraction),
                    "threshold": self.threshold,
                },
            )
        ]


class LatencyRegressionDetector(Detector):
    """Served-latency percentiles regressing against the baseline."""

    name = "latency_regression"
    algorithm_version = 1
    description = (
        "recent p50/p99 request latency exceeds the baseline half by "
        "the regression ratio"
    )

    ratio = 2.0
    min_records = 16
    min_baseline_seconds = 1e-5

    def detect(self, records: Sequence[Mapping[str, Any]]) -> List[Finding]:
        if len(records) < self.min_records:
            return []
        baseline, recent = split_baseline_recent(records)
        base = _finite(r.get("latency_seconds") for r in baseline)
        newer = _finite(r.get("latency_seconds") for r in recent)
        if len(base) < 4 or len(newer) < 4:
            return []
        base_p50 = max(percentile(base, 0.5), self.min_baseline_seconds)
        base_p99 = max(percentile(base, 0.99), self.min_baseline_seconds)
        recent_p50 = percentile(newer, 0.5)
        recent_p99 = percentile(newer, 0.99)
        p50_ratio = recent_p50 / base_p50
        p99_ratio = recent_p99 / base_p99
        if p50_ratio < self.ratio and p99_ratio < self.ratio:
            return []
        severity = (
            "critical"
            if max(p50_ratio, p99_ratio) >= 2 * self.ratio
            else "warning"
        )
        return [
            Finding(
                detector=self.name,
                algorithm_version=self.algorithm_version,
                severity=severity,
                summary=(
                    f"request latency regressed: p50 {p50_ratio:.1f}x, "
                    f"p99 {p99_ratio:.1f}x the baseline half"
                ),
                metrics={
                    "baseline_p50_seconds": _round(base_p50),
                    "baseline_p99_seconds": _round(base_p99),
                    "recent_p50_seconds": _round(recent_p50),
                    "recent_p99_seconds": _round(recent_p99),
                    "p50_ratio": _round(p50_ratio, 4),
                    "p99_ratio": _round(p99_ratio, 4),
                    "ratio_threshold": self.ratio,
                },
            )
        ]


class CacheEfficiencyDetector(Detector):
    """Store/memo hit-rate collapse against the baseline half.

    Watches two independent rates: whole-model store replays
    (``source == "store"``) and per-task memo hits among memo-routed
    computations.  Either collapsing below ``floor`` after a baseline
    above ``baseline_min`` fires -- the signature of traffic drifting
    adversarial to the content-addressed caches (or a cache
    regression).
    """

    name = "cache_efficiency"
    algorithm_version = 1
    description = (
        "store or memo hit rate collapses in the recent half after a "
        "healthy baseline"
    )

    floor = 0.1
    baseline_min = 0.3
    min_records = 16

    @staticmethod
    def _store_rate(records: Sequence[Mapping[str, Any]]) -> Optional[float]:
        sourced = [r for r in records if r.get("source") in ("store", "computed")]
        if not sourced:
            return None
        return sum(1 for r in sourced if r["source"] == "store") / len(sourced)

    @staticmethod
    def _memo_rate(records: Sequence[Mapping[str, Any]]) -> Optional[float]:
        hits = recomputations = 0
        for record in records:
            if record.get("memo_hits") is None:
                continue
            hits += record["memo_hits"]
            recomputations += record.get("memo_recomputations") or 0
        total = hits + recomputations
        if total == 0:
            return None
        return hits / total

    def detect(self, records: Sequence[Mapping[str, Any]]) -> List[Finding]:
        if len(records) < self.min_records:
            return []
        baseline, recent = split_baseline_recent(records)
        findings: List[Finding] = []
        for kind, rate_of in (
            ("store", self._store_rate),
            ("memo", self._memo_rate),
        ):
            base_rate = rate_of(baseline)
            recent_rate = rate_of(recent)
            if base_rate is None or recent_rate is None:
                continue
            if base_rate < self.baseline_min or recent_rate > self.floor:
                continue
            findings.append(
                Finding(
                    detector=self.name,
                    algorithm_version=self.algorithm_version,
                    severity="warning",
                    summary=(
                        f"{kind} hit rate collapsed from {base_rate:.0%} "
                        f"(baseline) to {recent_rate:.0%} (recent)"
                    ),
                    metrics={
                        "cache": kind,
                        "baseline_hit_rate": _round(base_rate),
                        "recent_hit_rate": _round(recent_rate),
                        "floor": self.floor,
                    },
                )
            )
        return findings


# -- catalogue ---------------------------------------------------------------
_CATALOGUE: Dict[str, Detector] = {
    detector.name: detector
    for detector in (
        VerdictDriftDetector(),
        NearBoundaryPileupDetector(),
        LatencyRegressionDetector(),
        CacheEfficiencyDetector(),
    )
}


def detector_names() -> Tuple[str, ...]:
    return tuple(sorted(_CATALOGUE))


def get_detector(name: str) -> Detector:
    try:
        return _CATALOGUE[name]
    except KeyError:
        raise KeyError(
            f"unknown detector {name!r}; known: {', '.join(detector_names())}"
        ) from None


def all_detectors() -> Tuple[Detector, ...]:
    return tuple(_CATALOGUE[name] for name in detector_names())


def detector_catalogue() -> List[Dict[str, Any]]:
    """The catalogue, as data (the ``obs detectors`` CLI body)."""
    return [
        {
            "name": detector.name,
            "algorithm_version": detector.algorithm_version,
            "description": detector.description,
        }
        for detector in all_detectors()
    ]


def detect_report(
    records: Sequence[Mapping[str, Any]],
    detectors: Optional[Sequence[Detector]] = None,
) -> Dict[str, Any]:
    """Run detectors over one window; the canonical findings envelope.

    Pure: the envelope is a function of ``records`` and the detector
    set alone, so the same window yields byte-identical canonical JSON
    (see :func:`detect_report_json`).
    """
    chosen = tuple(detectors) if detectors is not None else all_detectors()
    findings: List[Dict[str, Any]] = []
    ran: List[Dict[str, Any]] = []
    for detector in chosen:
        detected = detector.detect(records)
        ran.append(
            {
                "name": detector.name,
                "algorithm_version": detector.algorithm_version,
                "findings": len(detected),
            }
        )
        findings.extend(finding.to_dict() for finding in detected)
    seqs = [r["seq"] for r in records if r.get("seq") is not None]
    return {
        "obs_schema_version": OBS_SCHEMA_VERSION,
        "n_records": len(records),
        "first_seq": min(seqs) if seqs else None,
        "last_seq": max(seqs) if seqs else None,
        "detectors": ran,
        "n_findings": len(findings),
        "findings": findings,
        "advisory_only": True,
    }


def detect_report_json(
    records: Sequence[Mapping[str, Any]],
    detectors: Optional[Sequence[Detector]] = None,
) -> str:
    """Canonical JSON (embedded ``canonical_sha256``) of the envelope."""
    json_with_hash, _ = canonical_json_with_hash(
        detect_report(records, detectors)
    )
    return json_with_hash
