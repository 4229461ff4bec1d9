"""Lanczos-type linear solvers with a breakdown-avoiding switching framework."""

from .linalg import (
    DimensionError,
    LinalgError,
    NonFiniteError,
    SparseMatrix,
    dot,
    norm2,
)
from .problems import (
    BaheuxSpec,
    MatrixMarketError,
    ProblemInstance,
    gen_baheux,
    read_matrix_market,
    write_matrix_market,
)
from .solvers import (
    AlgoId,
    OutcomeKind,
    SolverConfig,
    SolverState,
    SolverStateError,
    StepOutcome,
    denominator_report,
    init,
    run,
)
from .switching import (
    ST1,
    ST2,
    ST3,
    CoinToss,
    EventKind,
    RunRecord,
    SelectionPolicy,
    SwitchEvent,
    SwitchPlan,
    SwitchTrace,
    run_switching,
    select_next,
)
from .harness import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    PAPER_COMBOS,
    ExperimentConfig,
    SwitchTemplate,
    emit_table,
    run_experiment,
)

__version__ = "0.1.0"
