# Fixture: the conforming twin of index_bad.py.
import numpy as np  # noqa — never imported


def survives_floor(upper_bounds, floor):
    """The seam itself may compare — this is the audited inequality."""
    return np.greater_equal(upper_bounds, floor)


def prune_candidates(bounds, floor):
    """Every discard decision is the seam's verdict, never restated."""
    kept = []
    for upper in bounds:
        if not survives_floor(upper, floor):
            continue
        kept.append(upper)
    return kept


def vectorized_prune(bounds, topk_floor):
    keep = survives_floor(bounds, topk_floor)
    return bounds[keep]


def floor_bookkeeping(scores, k):
    """Touching the floor without comparing it is fine."""
    topk_floor = sorted(scores, reverse=True)[k - 1]
    return max(topk_floor, -1.0)


def best_first_rounds(frontier, solve_block, sizes):
    """A round loop asks the seam (through the frontier) and only folds."""
    topk_floor = float("-inf")
    for size in sizes:
        block = [
            position for position in frontier.order[:size]
            if survives_floor(frontier.bounds[position], topk_floor)
        ]
        if not block:
            break
        topk_floor = max([topk_floor] + solve_block(block))
