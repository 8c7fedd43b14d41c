"""Uncoupled no-regret dynamics for correlated equilibria, with diagnostics."""

from .errors import (
    DimensionMismatchError,
    GameFormatError,
    StationaryResidualError,
    ValidationError,
)
from .games import Game, expected_loss, load_game, random_game, save_game
from .internal_dynamics import ArboDynamics, SlOmwu, verify_equivalence
from .markov_tree import (
    Arborescence,
    all_arborescences,
    enumerate_arborescences,
    solve_stationary,
    tree_theorem_stationary,
)
from .metrics import (
    RunTrace,
    average_product_distribution,
    ce_gap,
    clamped_internal_regret,
    external_regret,
    internal_regret,
    swap_regret,
)
from .omwu import Omwu
from .runner import RunConfig, emit_outputs, run_dynamics
from .swap_dynamics import BmOmwu

__all__ = [
    "ArboDynamics",
    "Arborescence",
    "BmOmwu",
    "DimensionMismatchError",
    "Game",
    "GameFormatError",
    "Omwu",
    "RunConfig",
    "RunTrace",
    "SlOmwu",
    "StationaryResidualError",
    "ValidationError",
    "all_arborescences",
    "average_product_distribution",
    "ce_gap",
    "clamped_internal_regret",
    "emit_outputs",
    "enumerate_arborescences",
    "expected_loss",
    "external_regret",
    "internal_regret",
    "load_game",
    "random_game",
    "run_dynamics",
    "save_game",
    "solve_stationary",
    "swap_regret",
    "tree_theorem_stationary",
    "verify_equivalence",
]
