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
than mapped to a winner.  The attractors of all 3^n assignments are
held as four Python ints used as bitsets, one bit per assignment, and
each layer is one sweep of shifts and masks over the whole table: at
the 12-variable budget a bitset is 66 KB, and both skip rules' tables
take 40-60 ms on a 2-vCPU host.
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
        """Attractor tables indexed by ``allow_skip``: both built whole
        on first use and shared by every solve and move query on this
        formula.  Refuses a formula above ``DEFAULT_VAR_BUDGET``
        variables, as a table has 3^n assignments."""
        if self.variable_count > DEFAULT_VAR_BUDGET:
            raise BudgetExceeded(f"{self.variable_count} variables exceed budget {DEFAULT_VAR_BUDGET}")
        return (_GsSolver(self, allow_skip=False), _GsSolver(self, allow_skip=True))


class _GsSolver:
    """The value with each player to move at every assignment, as four
    bitsets over the 3^n assignments, computed in one sweep of the whole
    table per layer.

    An assignment's index is the sum of d_v * 3^v, with d_v = 0 for unset,
    1 for true and 2 for false, so setting an unset v adds 3^v (true) or
    2 * 3^v (false).  For a bitset X, ``((X >> 3^v) | (X >> 2 * 3^v)) &
    U_v``, where U_v marks the positions with v unset, marks the
    positions that reach X by setting v.

    With skips, the two states of a layer pair form a 2-cycle.  Taking
    the least fixed point of the attractor equations over that cycle:

        Trudy-to-move wins  iff some set move reaches a Trudy win;
        Fallon-to-move is a Trudy win iff all its set moves reach Trudy
        wins and the paired Trudy state is itself a Trudy win

    and symmetrically for Fallon.  Mutual skipping forever resolves to
    neither attractor: Unresolved.  The terminal positions start at
    their value and the others in neither attractor, and each sweep
    applies the equations to every position; a position's children have
    one more variable set, so after n sweeps every layer holds its value.
    """

    def __init__(self, f: DnfFormula, allow_skip: bool):
        # Nothing of ``f``: ``f`` caches this solver, and a reference back
        # would leave both, tables included, to the cycle collector.
        n = f.variable_count
        self.variable_count = n
        self.steps = steps = [3**v for v in range(n)]
        # zeros: the positions whose digits 0..v are all 0, that is the
        # multiples of 3^(v + 1), built from the top digit down.
        unset = [0] * n
        zeros = 1
        for v in reversed(range(n)):
            s = steps[v]
            unset[v] = (zeros << s) - zeros
            zeros |= zeros << s | zeros << 2 * s
        full = (1 << 3**n) - 1
        open_ = 0
        for u in unset:
            open_ |= u
        terminal = full ^ open_
        won = 0
        for clause in f.clauses:
            sat = terminal
            for v in clause:
                sat &= unset[v] << steps[v]
            won |= sat
        lost = terminal ^ won

        def some_child(x: int) -> int:
            out = 0
            for s, u in zip(steps, unset):
                out |= (x >> s | x >> 2 * s) & u
            return out

        # t_* with Trudy to move, f_* with Fallon to move; *_tw and *_fw
        # are the Trudy and Fallon wins.  After Trudy sets, Fallon moves,
        # and vice versa.
        t_tw = f_tw = won
        t_fw = f_fw = lost
        for _ in range(n):
            t_reach = some_child(f_tw)
            f_reach = some_child(t_fw)
            if allow_skip:
                f_stay = t_reach & ~some_child(full ^ t_tw)
                t_stay = f_reach & ~some_child(full ^ f_fw)
                t_tw, t_fw = won | t_reach, lost | t_stay & ~t_reach
                f_tw, f_fw = won | f_stay & ~f_reach, lost | f_reach
            else:
                t_tw, t_fw = won | t_reach, lost | open_ ^ t_reach
                f_tw, f_fw = won | open_ ^ f_reach, lost | f_reach
        # As bytes, so that reading one bit does not copy the table.
        width = (3**n + 7) // 8
        self.tables = {
            mover: (tw.to_bytes(width, "little"), fw.to_bytes(width, "little"))
            for mover, tw, fw in ((Mover.TRUDY, t_tw, t_fw), (Mover.FALLON, f_tw, f_fw))
        }

    def index(self, assignment: Sequence[Optional[bool]]) -> int:
        if len(assignment) != self.variable_count:
            raise FormulaError("assignment length does not match variable count")
        i = 0
        for s, cur in zip(self.steps, assignment):
            if cur is not None:
                i += s if cur else 2 * s
        return i

    def value(self, i: int, mover: Mover) -> GameSatValue:
        tw, fw = self.tables[mover]
        if _bit(tw, i):
            return GameSatValue.TRUDY_WINS
        if _bit(fw, i):
            return GameSatValue.FALLON_WINS
        return GameSatValue.UNRESOLVED


def _bit(bits: bytes, i: int) -> int:
    return bits[i >> 3] >> (i & 7) & 1


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
    solver = f._attractors[allow_skip]
    return solver.value(solver.index(assignment), first)


def skip_dominance_check(f: DnfFormula, first: Mover) -> bool:
    """True iff allowing skips neither changes the value nor leaves it
    Unresolved: skipping and wrong-value moves are dominated."""
    with_skip = solve_gamesat(f, first, allow_skip=True)
    without = solve_gamesat(f, first, allow_skip=False)
    return with_skip is without and with_skip is not GameSatValue.UNRESOLVED


def winning_set_move(f: DnfFormula, assignment: Assignment, mover: Mover) -> tuple[int, bool] | None:
    """A set move for ``mover`` that preserves their forced win, or None
    if the position is not a win for ``mover`` or has no unset variable
    (a fully set winning assignment has no move).  A won position with
    an unset variable always has one: the attractor equations show the
    player to move can only win through some set edge.  Deterministic:
    lowest variable first, preferred value (Trudy true, Fallon false)
    first."""
    solver = f._attractors[True]
    i = solver.index(assignment)
    side = 0 if mover is Mover.TRUDY else 1
    if not _bit(solver.tables[mover][side], i):
        return None
    won_after = solver.tables[mover.other][side]
    values = (True, False) if mover is Mover.TRUDY else (False, True)
    for v, (s, cur) in enumerate(zip(solver.steps, assignment)):
        if cur is None:
            for value in values:
                if _bit(won_after, i + (s if value else 2 * s)):
                    return (v, value)
    return None


def parse_dnf(text: str) -> DnfFormula:
    """Parse the DNF text format: one clause per line, space-separated
    variable names, ``#`` comments.  Variables are indexed by first
    appearance."""
    order: list[str] = []
    index: dict[str, int] = {}
    clauses: list[frozenset[int]] = []
    for raw in text.splitlines():
        vars_here = []
        for tok in raw.split("#", 1)[0].split():
            if tok not in index:
                index[tok] = len(order)
                order.append(tok)
            vars_here.append(index[tok])
        if vars_here:
            clauses.append(frozenset(vars_here))
    if not clauses:
        raise ParseError("formula has no clauses")
    return DnfFormula(len(order), tuple(clauses), tuple(order))


def format_dnf(f: DnfFormula) -> str:
    lines = []
    for clause in f.clauses:
        lines.append(" ".join(f.names[v] for v in sorted(clause)))
    return "\n".join(lines) + "\n"
