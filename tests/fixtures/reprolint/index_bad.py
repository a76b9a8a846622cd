# Fixture: violates the REP061 floor-seam rule.  Parsed, never run.
import numpy as np  # noqa — never imported


def prune_candidates(bounds, floor):
    """Operator-form floor comparisons outside the seam: two findings."""
    kept = []
    for upper in bounds:
        if upper < floor:  # finding: inline strict discard
            continue
        kept.append(upper)
    return [value for value in kept if value >= floor]  # finding: restated


def vectorized_prune(bounds, topk_floor):
    """Ufunc-form bypass: np.greater_equal spells the same inequality."""
    return bounds[np.greater_equal(bounds, topk_floor)]  # finding


def best_first_rounds(frontier, solve_block, sizes):
    """A round loop that restates the stop rule: one more finding."""
    floor = float("-inf")
    for size in sizes:
        block = [
            position for position in frontier.order[:size]
            if not frontier.bounds[position] < floor  # finding: inline discard
        ]
        if not block:
            break
        floor = max(floor, min(solve_block(block)))
