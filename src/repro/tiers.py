"""Kernel-tier observability shared by the population kernels.

The stacked RTA fixed points (:mod:`repro.rta.popbatch`) and the stacked
frequency-domain margins (:mod:`repro.jittermargin.popmargin`) report
which tier handled each batch through one metrics contract.  It lives
here, dependency-free, so either layer can import it without pulling in
the other's module graph.
"""

from __future__ import annotations


def observe_tier(tier: str, n_problems: int, group_size: int) -> None:
    """Tick the kernel-tier counters in the shared metrics registry.

    ``repro_kernel_tier_total{tier}`` counts problems per tier so a
    serving deployment can see which tier handled each batch; stacked
    tiers also record their group size in the
    ``repro_popbatch_group_size`` histogram.
    """
    from repro.obs.metrics import default_registry

    registry = default_registry()
    registry.counter(
        "repro_kernel_tier_total",
        "Analysis problems handled, by kernel tier",
        labels=("tier",),
    ).inc(n_problems, tier=tier)
    if tier in ("popbatch", "popmargin"):
        registry.histogram(
            "repro_popbatch_group_size",
            "Problems per stacked population-kernel group",
        ).observe(group_size)
