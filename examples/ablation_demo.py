"""Scenario: which control-plane mechanisms actually earn their keep?

The reproduction's governor stacks several mechanisms on top of the
paper's core predict-then-pick loop: the asymmetric training objective
(§3.3), the safety margin (§3.4), program slicing (§3.2), online
recalibration, the certificate bound-skip, AIMD margin adaptation, and
the drift fallback.  An *ablation matrix* answers the natural question
— what does each one buy? — by disabling them one at a time and
replaying byte-identical job streams against the all-on baseline.

This demo ablates two components on rijndael under heavy timing jitter
(where safety mechanisms earn their keep) and prints the ranked
component-importance table.  Expect:

- ``no-safety_margin``: misses go UP, energy goes DOWN — the margin is
  exactly a performance-energy trade, and the matrix measures its price;
- ``no-asymmetric_loss``: misses go UP with little energy to show for
  it — symmetric training under-predicts, which is the expensive
  direction.

The full matrix (every component, several workloads and scenarios,
multiprocess) is the ``repro ablate`` CLI; per-job records and decision
provenance land in ``--out`` for ``repro ablate report`` to re-score.

Run:  python examples/ablation_demo.py
"""

from repro.ablation.emit import ranked_table
from repro.ablation.planner import Scenario, plan_matrix
from repro.ablation.runner import run_ablation
from repro.ablation.score import score_ablation

COMPONENTS = ("asymmetric_loss", "safety_margin")


def main() -> None:
    plan = plan_matrix(
        ["rijndael"],
        seed=7,
        components=COMPONENTS,
        scenarios=[Scenario("jitter", jitter_sigma=0.10)],
        n_jobs=120,
    )
    print(
        f"running {len(plan.cells)} cells "
        f"({len(plan.variants)} variants x {plan.n_jobs} jobs)..."
    )
    result = run_ablation(plan, workers=2)
    report = score_ablation(result)

    print()
    print(ranked_table(report))
    print()

    margin = report.score_for("no-safety_margin")
    asym = report.score_for("no-asymmetric_loss")
    print(
        "reading the table: disabling the margin trades "
        f"{100 * margin.miss_rate_delta:+.1f}pp misses for "
        f"{100 * margin.energy_delta_frac:+.1f}% energy; disabling the "
        f"asymmetric objective costs {100 * asym.miss_rate_delta:+.1f}pp "
        f"misses for only {100 * asym.energy_delta_frac:+.1f}% energy."
    )


if __name__ == "__main__":
    main()
