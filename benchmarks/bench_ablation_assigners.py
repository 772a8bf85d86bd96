"""Ablation bench: the whole assigner zoo on the same instances.

DESIGN.md calls out the design choice in Algorithm 1 (max-slack candidate
ordering + backtracking).  This ablation times all the alternatives --
classic Audsley OPA (sound, incomplete), single-pass slack-monotonic
(cheapest, unsound), rate-monotonic (free, stability-blind), exhaustive
ground truth (small n) -- on the identical instance set, and records their
success/validity profile, which is the quality side of the trade-off.
"""

from __future__ import annotations

import pytest

from repro.api import analyze
from repro.assignment.audsley import assign_audsley
from repro.assignment.backtracking import assign_backtracking
from repro.assignment.exhaustive import assign_exhaustive
from repro.assignment.heuristics import assign_rate_monotonic, assign_slack_monotonic

ALGORITHMS = {
    "backtracking": assign_backtracking,
    "audsley": assign_audsley,
    "slack_monotonic": assign_slack_monotonic,
    "rate_monotonic": assign_rate_monotonic,
}


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_ablation_assigner_runtime(benchmark, benchmark_instances, algorithm):
    instances = benchmark_instances[12]
    run = ALGORITHMS[algorithm]

    results = benchmark(lambda: [run(ts) for ts in instances])

    valid = sum(
        1
        for ts, r in zip(instances, results)
        if r.priorities is not None and analyze(r.apply_to(ts)).stable
    )
    print(f"\n{algorithm}: {valid}/{len(instances)} valid assignments")
    if algorithm in ("backtracking", "audsley"):
        # Sound algorithms: every claimed success validates.
        for ts, r in zip(instances, results):
            if r.priorities is not None and r.claims_valid:
                assert analyze(r.apply_to(ts)).stable


def test_ablation_exhaustive_ground_truth(benchmark, benchmark_instances):
    """Exhaustive search at n = 4: the strawman the paper dismisses at
    n = 20 ('more than 20 years'); even at n = 4 it is measurably the
    costliest sound method."""
    instances = benchmark_instances[4]
    results = benchmark(lambda: [assign_exhaustive(ts) for ts in instances])
    for ts, r in zip(instances, results):
        bt = assign_backtracking(ts)
        assert (r.priorities is None) == (bt.priorities is None)
