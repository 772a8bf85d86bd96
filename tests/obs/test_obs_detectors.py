"""Detector purity, determinism, and the hash-pinned canonical envelope.

The detectors' contract is the strongest in the layer: pure functions of
the window snapshot, versioned, advisory-only, with byte-identical
canonical-JSON findings.  The golden-hash test at the bottom pins the
full envelope bytes for a fixed synthetic window -- any change to
detector maths, rounding, or the envelope shape must bump
``algorithm_version`` / ``OBS_SCHEMA_VERSION`` and regenerate the pin
deliberately.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    OBS_SCHEMA_VERSION,
    CacheEfficiencyDetector,
    Finding,
    LatencyRegressionDetector,
    NearBoundaryPileupDetector,
    VerdictDriftDetector,
    all_detectors,
    detect_report,
    detect_report_json,
    detector_catalogue,
    detector_names,
    get_detector,
)
from repro.obs.detectors import split_baseline_recent
from repro.sweep.result import canonical_sha256_of

pytestmark = pytest.mark.obs


def make_record(seq, **overrides):
    """One synthetic window record; overrides patch individual fields."""
    record = {
        "seq": seq,
        "sha": f"sha-{seq:04d}",
        "name": f"model-{seq}",
        "n_tasks": 4,
        "utilization": 0.5,
        "schedulable": True,
        "stable": True,
        "min_rel_slack": 0.3,
        "source": "computed",
        "memo_hits": None,
        "memo_recomputations": None,
        "latency_seconds": 0.001,
        "trace_id": f"t-{seq}",
    }
    record.update(overrides)
    return record


def drift_window(n=24, base_slack=0.3, final_slack=0.02):
    """A window whose min_rel_slack decays while verdicts stay stable."""
    return [
        make_record(
            k + 1,
            min_rel_slack=base_slack
            + (final_slack - base_slack) * k / (n - 1),
        )
        for k in range(n)
    ]


class TestRegistry:
    def test_catalogue_names_sorted_and_versioned(self):
        names = detector_names()
        assert names == tuple(sorted(names))
        assert set(names) == {
            "cache_efficiency",
            "latency_regression",
            "near_boundary_pileup",
            "verdict_drift",
        }
        for entry in detector_catalogue():
            assert entry["algorithm_version"] >= 1
            assert entry["description"]

    def test_get_detector_unknown_rejected(self):
        with pytest.raises(KeyError, match="unknown detector"):
            get_detector("no_such_detector")

    def test_all_detectors_match_names(self):
        assert tuple(d.name for d in all_detectors()) == detector_names()

    def test_thresholds_are_fixed_class_attributes(self):
        thresholds = {
            VerdictDriftDetector: {
                "min_records": 16, "drop_ratio": 0.5,
                "stable_floor": 0.5, "flag_band": 0.1,
            },
            NearBoundaryPileupDetector: {
                "band": 0.05, "threshold": 0.3,
                "min_rise": 0.1, "min_records": 16,
            },
            LatencyRegressionDetector: {
                "ratio": 2.0, "min_records": 16,
                "min_baseline_seconds": 1e-5,
            },
            CacheEfficiencyDetector: {
                "floor": 0.1, "baseline_min": 0.3, "min_records": 16,
            },
        }
        for cls, values in thresholds.items():
            assert {name: getattr(cls, name) for name in values} == values
            assert isinstance(get_detector(cls.name), cls)


class TestFinding:
    def test_bad_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            Finding(
                detector="x", algorithm_version=1,
                severity="catastrophic", summary="nope",
            )

    def test_to_dict_roundtrips_json(self):
        finding = Finding(
            detector="x", algorithm_version=2, severity="warning",
            summary="s", flagged_shas=("a", "b"), metrics={"k": 1.5},
        )
        assert json.loads(json.dumps(finding.to_dict())) == finding.to_dict()


class TestSplit:
    def test_positional_half_split(self):
        records = [make_record(k) for k in range(1, 11)]
        baseline, recent = split_baseline_recent(records)
        assert len(baseline) == 5 and len(recent) == 5
        assert baseline[-1]["seq"] < recent[0]["seq"]


class TestVerdictDrift:
    def test_fires_on_margin_collapse_with_stable_verdicts(self):
        findings = VerdictDriftDetector().detect(drift_window())
        assert len(findings) == 1
        finding = findings[0]
        assert finding.detector == "verdict_drift"
        assert finding.severity in ("warning", "critical")
        # Flagged models are the recent ones inside the flag band.
        assert finding.flagged_shas
        assert all(sha.startswith("sha-") for sha in finding.flagged_shas)
        assert finding.metrics["recent_mean_rel_slack"] < (
            finding.metrics["baseline_mean_rel_slack"]
        )

    def test_silent_on_healthy_margins(self):
        healthy = [make_record(k + 1) for k in range(24)]
        assert VerdictDriftDetector().detect(healthy) == []

    def test_silent_below_min_records(self):
        assert VerdictDriftDetector().detect(drift_window(n=8)) == []

    def test_silent_when_verdicts_already_flip(self):
        # Margin collapse *with* verdict flips is not drift -- the
        # analysis is answering honestly.
        flipping = [
            make_record(k + 1, stable=k < 4, min_rel_slack=0.3 if k < 4 else None)
            for k in range(24)
        ]
        assert VerdictDriftDetector().detect(flipping) == []

    def test_critical_on_deep_collapse(self):
        # A step collapse (healthy baseline, near-zero recent margins)
        # pushes recent/baseline below the 0.25 critical ratio.
        window = [
            make_record(k + 1, min_rel_slack=0.4 if k < 12 else 0.01)
            for k in range(24)
        ]
        findings = VerdictDriftDetector().detect(window)
        assert findings and findings[0].severity == "critical"


class TestNearBoundaryPileup:
    def test_fires_on_recent_pileup(self):
        window = [
            make_record(
                k + 1, min_rel_slack=0.4 if k < 12 else 0.01
            )
            for k in range(24)
        ]
        findings = NearBoundaryPileupDetector().detect(window)
        assert len(findings) == 1
        assert findings[0].severity == "critical"  # 100% in band
        assert len(findings[0].flagged_shas) == 12

    def test_silent_when_always_near_boundary(self):
        # High in-band fraction with no *rise* over baseline: not a
        # regression, just a tight workload.
        window = [make_record(k + 1, min_rel_slack=0.01) for k in range(24)]
        assert NearBoundaryPileupDetector().detect(window) == []


class TestLatencyRegression:
    def test_fires_on_latency_jump(self):
        window = [
            make_record(k + 1, latency_seconds=0.001 if k < 12 else 0.01)
            for k in range(24)
        ]
        findings = LatencyRegressionDetector().detect(window)
        assert len(findings) == 1
        assert findings[0].metrics["p50_ratio"] >= 2.0

    def test_silent_on_flat_latency(self):
        window = [make_record(k + 1) for k in range(24)]
        assert LatencyRegressionDetector().detect(window) == []


class TestCacheEfficiency:
    def test_fires_on_store_rate_collapse(self):
        window = [
            make_record(k + 1, source="store" if k < 12 else "computed")
            for k in range(24)
        ]
        findings = CacheEfficiencyDetector().detect(window)
        assert len(findings) == 1
        assert findings[0].metrics["cache"] == "store"

    def test_fires_on_memo_rate_collapse(self):
        window = [
            make_record(
                k + 1,
                memo_hits=9 if k < 12 else 0,
                memo_recomputations=1 if k < 12 else 10,
            )
            for k in range(24)
        ]
        findings = CacheEfficiencyDetector().detect(window)
        assert [f.metrics["cache"] for f in findings] == ["memo"]

    def test_silent_on_cold_baseline(self):
        window = [make_record(k + 1) for k in range(24)]
        assert CacheEfficiencyDetector().detect(window) == []


class TestPurityAndBatch:
    def test_detect_is_pure(self):
        window = drift_window()
        detector = VerdictDriftDetector()
        first = [f.to_dict() for f in detector.detect(window)]
        second = [f.to_dict() for f in detector.detect(window)]
        assert first == second

    def test_detect_does_not_mutate_records(self):
        window = drift_window()
        frozen = json.dumps(window, sort_keys=True)
        for detector in all_detectors():
            detector.detect(window)
        assert json.dumps(window, sort_keys=True) == frozen


class TestEnvelope:
    def test_envelope_shape(self):
        report = detect_report(drift_window())
        assert report["obs_schema_version"] == OBS_SCHEMA_VERSION
        assert report["advisory_only"] is True
        assert report["n_records"] == 24
        assert report["first_seq"] == 1 and report["last_seq"] == 24
        assert report["n_findings"] == len(report["findings"]) == 1
        ran = {d["name"]: d["findings"] for d in report["detectors"]}
        assert set(ran) == set(detector_names())
        assert ran["verdict_drift"] == 1

    def test_canonical_json_embeds_consistent_hash(self):
        text = detect_report_json(drift_window())
        data = json.loads(text)
        embedded = data.pop("canonical_sha256")
        assert embedded == canonical_sha256_of(data)

    def test_golden_hash_pinned(self):
        """Byte-identical findings for a fixed window, forever.

        Regenerate deliberately (alongside an ``algorithm_version`` or
        ``OBS_SCHEMA_VERSION`` bump) with::

            PYTHONPATH=src python -c "
            import json
            from tests.obs.test_obs_detectors import drift_window  # noqa
            from repro.obs import detect_report_json
            print(json.loads(detect_report_json(drift_window()))
                  ['canonical_sha256'])"
        """
        text = detect_report_json(drift_window())
        assert json.loads(text)["canonical_sha256"] == GOLDEN_SHA256
        # Stability across repeated serialisation (byte identity).
        assert detect_report_json(drift_window()) == text


#: Pinned canonical hash of ``detect_report(drift_window())``.
GOLDEN_SHA256 = (
    "b887480883911ad6158d235c2cac5871f0ab949467adf4dbf4bd6c238885ba04"
)
