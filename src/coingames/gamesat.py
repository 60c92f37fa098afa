"""Positive-DNF Game SAT.

Two players alternate turns; on each turn a player either sets one
still-unset variable to true or false, or skips.  The game ends when
every variable is set.  Trudy wins if the formula (an or of ands over
plain variables, no negations) is then true; Fallon wins if it is
false.  Wrong-value moves (Trudy setting false, Fallon setting true)
are legal.

Skips create two-state cycles inside each layer of the game graph
(layer = number of set variables), so plain backward induction does not
apply.  ``solve_gamesat`` computes forced-win attractors layer by
layer: a player wins a state only by forcing the game into a winning
terminal in finitely many moves; states in neither attractor, where
best play is endless mutual skipping, are reported Unresolved rather
than mapped to a winner.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional, Sequence

from .errors import BudgetExceeded, FormulaError, ParseError

DEFAULT_VAR_BUDGET = 12


class Mover(Enum):
    TRUDY = "trudy"
    FALLON = "fallon"

    @property
    def other(self) -> "Mover":
        return Mover.FALLON if self is Mover.TRUDY else Mover.TRUDY


class GameSatValue(Enum):
    TRUDY_WINS = "TrudyWins"
    FALLON_WINS = "FallonWins"
    UNRESOLVED = "Unresolved"


Assignment = tuple[Optional[bool], ...]


@dataclass(frozen=True)
class DnfFormula:
    """A positive DNF: clauses are sets of variable indices."""

    variable_count: int
    clauses: tuple[frozenset[int], ...]
    names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.variable_count < 0:
            raise FormulaError("negative variable count")
        for clause in self.clauses:
            for v in clause:
                if not (0 <= v < self.variable_count):
                    raise FormulaError(f"clause variable {v} out of range")
        if not self.names:
            object.__setattr__(
                self, "names", tuple(f"x{i + 1}" for i in range(self.variable_count))
            )
        elif len(self.names) != self.variable_count:
            raise FormulaError("names do not match variable count")

    @property
    def clause_count(self) -> int:
        return len(self.clauses)

    def occurrences(self) -> list[int]:
        """k_i: the number of clauses containing each variable."""
        k = [0] * self.variable_count
        for clause in self.clauses:
            for v in clause:
                k[v] += 1
        return k

    def unset_assignment(self) -> Assignment:
        return (None,) * self.variable_count

    @cached_property
    def _attractors(self) -> tuple["_GsSolver", "_GsSolver"]:
        """Attractor tables indexed by ``allow_skip``: filled lazily and
        shared by every solve and move query on this formula.  Refuses a
        formula above ``DEFAULT_VAR_BUDGET`` variables, as a full table
        has 3^n assignments."""
        if self.variable_count > DEFAULT_VAR_BUDGET:
            raise BudgetExceeded(f"{self.variable_count} variables exceed budget {DEFAULT_VAR_BUDGET}")
        return (_GsSolver(self, allow_skip=False), _GsSolver(self, allow_skip=True))


def evaluate(f: DnfFormula, assignment: Sequence[Optional[bool]]) -> bool:
    if len(assignment) != f.variable_count:
        raise FormulaError("assignment length does not match variable count")
    if any(v is None for v in assignment):
        raise FormulaError("assignment has unset variables")
    return any(all(assignment[v] for v in clause) for clause in f.clauses)


def _set_children(assignment: Assignment) -> list[Assignment]:
    out = []
    for v, cur in enumerate(assignment):
        if cur is None:
            for value in (True, False):
                out.append(assignment[:v] + (value,) + assignment[v + 1 :])
    return out


class _GsSolver:
    """Computes the pair (value when Trudy moves, value when Fallon
    moves) per assignment, bottom-up over layers via memoized recursion.

    With skips, the two states of a layer pair form a 2-cycle.  Taking
    the least fixed point of the attractor equations over that cycle:

        Trudy-to-move wins  iff some set move reaches a Trudy win;
        Fallon-to-move is a Trudy win iff all its set moves reach Trudy
        wins and the paired Trudy state is itself a Trudy win

    and symmetrically for Fallon.  Mutual skipping forever resolves to
    neither attractor: Unresolved.
    """

    def __init__(self, f: DnfFormula, allow_skip: bool):
        # The clauses, not ``f``: ``f`` caches this solver, and a reference
        # back would leave both, tables included, to the cycle collector.
        self.clauses = f.clauses
        self.variable_count = f.variable_count
        self.allow_skip = allow_skip
        self.memo: dict[Assignment, tuple[GameSatValue, GameSatValue]] = {}

    def pair(self, assignment: Assignment) -> tuple[GameSatValue, GameSatValue]:
        cached = self.memo.get(assignment)
        if cached is not None:
            return cached
        if None not in assignment:
            if len(assignment) != self.variable_count:
                raise FormulaError("assignment length does not match variable count")
            won = any(all(assignment[v] for v in clause) for clause in self.clauses)
            v = GameSatValue.TRUDY_WINS if won else GameSatValue.FALLON_WINS
            result = (v, v)
        else:
            child_pairs = [self.pair(a) for a in _set_children(assignment)]
            # After Trudy sets, Fallon moves (index 1), and vice versa.
            ct = [p[1] for p in child_pairs]
            cf = [p[0] for p in child_pairs]
            TW, FW = GameSatValue.TRUDY_WINS, GameSatValue.FALLON_WINS
            if self.allow_skip:
                t_tw = any(c is TW for c in ct)
                f_fw = any(c is FW for c in cf)
                f_tw = t_tw and all(c is TW for c in cf)
                t_fw = f_fw and all(c is FW for c in ct)
                vt = TW if t_tw else FW if t_fw else GameSatValue.UNRESOLVED
                vf = FW if f_fw else TW if f_tw else GameSatValue.UNRESOLVED
            else:
                vt = TW if any(c is TW for c in ct) else FW
                vf = FW if any(c is FW for c in cf) else TW
            result = (vt, vf)
        self.memo[assignment] = result
        return result


def solve_gamesat(
    f: DnfFormula,
    first: Mover,
    allow_skip: bool = True,
    assignment: Assignment | None = None,
) -> GameSatValue:
    """Exact value with ``first`` to move from ``assignment`` (default:
    all unset)."""
    if assignment is None:
        assignment = f.unset_assignment()
    pair = f._attractors[allow_skip].pair(tuple(assignment))
    return pair[0] if first is Mover.TRUDY else pair[1]


def skip_dominance_check(f: DnfFormula, first: Mover) -> bool:
    """True iff allowing skips neither changes the value nor leaves it
    Unresolved: skipping and wrong-value moves are dominated."""
    with_skip = solve_gamesat(f, first, allow_skip=True)
    without = solve_gamesat(f, first, allow_skip=False)
    return with_skip is without and with_skip is not GameSatValue.UNRESOLVED


def winning_set_move(f: DnfFormula, assignment: Assignment, mover: Mover) -> tuple[int, bool] | None:
    """A set move for ``mover`` that preserves their forced win, or None
    if the position is not a win for ``mover``.  A winning position
    always has one: the attractor equations show the player to move can
    only win through some set edge.  Deterministic: lowest variable
    first, preferred value (Trudy true, Fallon false) first."""
    solver = f._attractors[True]
    target = GameSatValue.TRUDY_WINS if mover is Mover.TRUDY else GameSatValue.FALLON_WINS
    here = solver.pair(tuple(assignment))[0 if mover is Mover.TRUDY else 1]
    if here is not target:
        return None
    values = (True, False) if mover is Mover.TRUDY else (False, True)
    opp_index = 1 if mover is Mover.TRUDY else 0
    for v, cur in enumerate(assignment):
        if cur is not None:
            continue
        for value in values:
            child = tuple(assignment[:v]) + (value,) + tuple(assignment[v + 1 :])
            if solver.pair(child)[opp_index] is target:
                return (v, value)
    return None


def parse_dnf(text: str) -> DnfFormula:
    """Parse the DNF text format: one clause per line, space-separated
    variable names, ``#`` comments.  Variables are indexed by first
    appearance."""
    order: list[str] = []
    index: dict[str, int] = {}
    clauses: list[frozenset[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        vars_here = []
        for tok in line.split():
            if tok not in index:
                index[tok] = len(order)
                order.append(tok)
            vars_here.append(index[tok])
        if not vars_here:
            raise ParseError(f"line {lineno}: empty clause")
        clauses.append(frozenset(vars_here))
    if not clauses:
        raise ParseError("formula has no clauses")
    return DnfFormula(len(order), tuple(clauses), tuple(order))


def format_dnf(f: DnfFormula) -> str:
    lines = []
    for clause in f.clauses:
        lines.append(" ".join(f.names[v] for v in sorted(clause)))
    return "\n".join(lines) + "\n"
