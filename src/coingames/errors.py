"""Exception types shared across the package."""

ECHO_LIMIT = 200


def clip(text: str) -> str:
    """``text`` cut to ``ECHO_LIMIT`` characters: an error message that
    quotes input stays one short line whatever the input's size."""
    return text if len(text) <= ECHO_LIMIT else text[: ECHO_LIMIT - 3] + "..."


class CoinGameError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CoinGameError):
    """An input is malformed: a text input (board, formula, plan or
    transcript) or a command-line flag, such as a size out of range."""


class InvalidEndpoint(CoinGameError):
    """A string endpoint references a coin index that does not exist."""


class DegenerateInput(CoinGameError):
    """The board contains a self-loop.  Raised only where a game is
    set up on a board: building a ``GameState`` or a ``LiveBoard``."""


class IllegalMove(CoinGameError):
    """A move was attempted that the rules do not allow."""


class BudgetExceeded(CoinGameError):
    """An exact solve was requested on a position above the size budget."""


class FormulaError(CoinGameError):
    """A DNF formula violates an input precondition (empty or too-small
    clause, unused variable, or evaluation with unset variables)."""


class ReductionError(CoinGameError):
    """A reduction cannot be built from its parameters: a chain too
    short, N below 2, or a board above the string cap."""


class StrategyError(CoinGameError):
    """A scripted strategy hit an unrecoverable inconsistency: the board
    contradicts its tracker, a required oracle is missing, or a policy
    emitted an illegal move during a playout."""
