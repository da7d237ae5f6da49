"""The three benchmark workloads and their sizes.

Each workload is a ``pqcapprox report`` experiment config run through
``cli.run_experiment``, followed by timed single-point calls of the public
evaluation path (see stage.py).  This table imports nothing from pqcapprox,
so the parent process stays light.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload: its report config and its single-point stage."""

    name: str
    experiment: dict
    points: int  # timed single-point calls per child interpreter
    child_s: float  # typical wall time of one full child here; sizes a run


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "taylor_d2",
            dict(experiment="taylor", target="product_sines", d=2, K=4, s=1,
                 points_per_axis=13),
            points=240,
            child_s=13.0,
        ),
        Workload(
            "bernstein_d2",
            dict(experiment="bernstein", target="abs_centered", d=2, n=4, eps=0.3,
                 points_per_axis=8),
            points=150,
            child_s=13.0,
        ),
        Workload(
            "localization_k8",
            dict(experiment="localization", K=8, delta=0.0375, eps=0.0625),
            points=450,
            child_s=35.0,
        ),
    )
}
