"""The paper's Baheux grid: 4 deltas x 10 orders, the cells of the
acceptance criteria. ``perfbench/workloads.py`` keeps its own copy."""

PAPER_DELTAS = (0.0, 0.2, 5.0, 8.0)
PAPER_DIMS = (20, 40, 60, 80, 100, 200, 400, 600, 800, 1000)
