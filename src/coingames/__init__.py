"""Games of cutting strings between coins: exact solving, winner
preserving reductions, a positive-DNF game compiler, and scripted
strategies for the compiled boards."""

from .engine import GameKind, GameState, Outcome, Player, apply_move, initial_state, is_terminal, legal_moves
from .errors import (
    BudgetExceeded,
    CoinGameError,
    DegenerateInput,
    FormulaError,
    IllegalMove,
    InvalidEndpoint,
    ParseError,
    ReductionError,
    StrategyError,
)
from .gamesat import DnfFormula, GameSatValue, Mover, format_dnf, parse_dnf, solve_gamesat
from .multigraph import GROUND, GraphBuilder, Multigraph, StringEdge, canonical_text, parse_text
from .reduce import (
    ReductionArtifact,
    compile_gamesat_to_lava,
    full_pipeline,
    reduce_lava_to_nimstring,
    reduce_nimstring_to_sac,
)
from .solver import SolveResult, find_loony_witnesses, loony_first_move, naive_solve, solve, winner_of
from .strategy import FallonScript, GreedyDisabler, TrudyScript, UniformRandom, playout

__version__ = "0.1.0"

__all__ = [
    "GROUND",
    "BudgetExceeded",
    "CoinGameError",
    "DegenerateInput",
    "DnfFormula",
    "FallonScript",
    "FormulaError",
    "GameKind",
    "GameSatValue",
    "GameState",
    "GraphBuilder",
    "GreedyDisabler",
    "IllegalMove",
    "InvalidEndpoint",
    "Mover",
    "Multigraph",
    "Outcome",
    "ParseError",
    "Player",
    "ReductionArtifact",
    "ReductionError",
    "SolveResult",
    "StrategyError",
    "StringEdge",
    "TrudyScript",
    "UniformRandom",
    "apply_move",
    "canonical_text",
    "compile_gamesat_to_lava",
    "find_loony_witnesses",
    "format_dnf",
    "full_pipeline",
    "initial_state",
    "is_terminal",
    "legal_moves",
    "loony_first_move",
    "naive_solve",
    "parse_dnf",
    "parse_text",
    "playout",
    "reduce_lava_to_nimstring",
    "reduce_nimstring_to_sac",
    "solve",
    "solve_gamesat",
    "winner_of",
]
