"""Positive-DNF Game SAT.

Two players alternate turns; on each turn a player either sets one
still-unset variable to true or false, or skips.  The game ends when
every variable is set.  Trudy wins if the formula (an or of ands over
plain variables, no negations) is then true; Fallon wins if it is
false.  Wrong-value moves (Trudy setting false, Fallon setting true)
are legal.  Without the skip this is Schaefer's G_pos(POS DNF) (T. J.
Schaefer, "On the complexity of some two-person perfect-information
games", JCSS 16, 1978).

Skips make two-state cycles inside each layer of the game graph (layer
= number of set variables), so a state is a player's win only if they
can force a winning terminal in finitely many moves: (P, Trudy to move)
is a Trudy win if some move, set or skip, reaches one, and (P, Fallon
to move) if every move does; likewise for Fallon.  The skips change
nothing, so ``solve_gamesat`` solves the finite game without them.

Theorem.  In the set-or-skip game every state has a forced winner, and
it is the winner of the same state in the game without skips.

Proof.  "Wins" below is in the game without skips, which is finite, so
every state there has a winner.

1. Monotonicity (strategy stealing).  If Trudy wins (P, m), with m to
   move, and x is unset in P, she wins (P + x=true, m).  She plays her
   strategy for (P, m) on an imagined board on which x, the phantom, is
   still unset.  Fallon's moves are legal on both boards.  When the
   strategy sets a variable other than the phantom, she sets it on the
   real board; when it sets the phantom, she sets some unset variable
   true on the real board, and that variable becomes the phantom.  Each
   real move pairs with one imagined move, so the same player moves on
   both boards; the real board's unset variables are the imagined
   one's less the phantom, which is true on the real board; and every
   variable true on the imagined board is true on the real one.  When
   the real board is full, only the phantom is unset on the imagined
   board, and as the strategy wins, one of its two completions
   satisfies the formula.  Every variable true there is true on the
   real board, and a positive DNF is monotone, so the real board
   satisfies it too.  Symmetrically, Fallon keeps a win when x is set
   false.
2. The move never hurts.  If Trudy wins (P, Fallon) and P has an unset
   variable, she wins (P, Trudy): she sets any unset variable true, and
   step 1 applies.  Equivalently, if Fallon wins (P, Trudy), Fallon
   wins (P, Fallon).
3. Induction over the layers.  A full assignment has the same winner in
   both games.  Let P have an unset variable, and let every state with
   more variables set have its no-skip winner as its forced winner.
   Then every set move from P reaches a state with a forced winner.  If
   Trudy wins (P, Trudy), some set move forces her win there; (P,
   Fallon) is then a forced Trudy win exactly when every set move from
   it reaches one (its skip reaches (P, Trudy)), which is the no-skip
   rule, and otherwise some set move forces Fallon's win.  If Fallon
   wins (P, Trudy), step 2 gives a set move that forces Fallon's win
   from (P, Fallon), and every move from (P, Trudy), the skip included,
   then reaches a forced Fallon win.  Either way both states of P get
   their no-skip winners.  QED

So one table answers both games, and a won state with an unset
variable always has a winning set move.  ``verify skip-dominance``
checks the theorem against an explicit solve of the set-or-skip game.

The table holds Trudy's wins with each player to move as two Python
ints used as bitsets, one bit per assignment of the 3^n, and each layer
is one sweep of shifts and masks over the whole table: at the
12-variable budget a bitset is 66 KB, and the table takes 12-14 ms on a
2-vCPU host.
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
    def _table(self) -> "_GsSolver":
        """The value table, built whole on first use and shared by every
        solve and move query on this formula.  Refuses a formula above
        ``DEFAULT_VAR_BUDGET`` variables, as the table has 3^n
        assignments."""
        if self.variable_count > DEFAULT_VAR_BUDGET:
            raise BudgetExceeded(f"{self.variable_count} variables exceed budget {DEFAULT_VAR_BUDGET}")
        return _GsSolver(self)


class _GsSolver:
    """Trudy's wins with each player to move at every assignment, as two
    bitsets over the 3^n assignments, computed in one sweep of the whole
    table per layer.

    An assignment's index is the sum of d_v * 3^v, with d_v = 0 for unset,
    1 for true and 2 for false, so setting an unset v adds 3^v (true) or
    2 * 3^v (false).  For a bitset X, ``((X >> 3^v) | (X >> 2 * 3^v)) &
    U_v``, where U_v marks the positions with v unset, marks the
    positions that reach X by setting v.

    A satisfying terminal is a Trudy win with either player to move;
    otherwise, with Trudy to move, a state is a Trudy win iff some set
    move reaches a Trudy win with Fallon to move, and with Fallon to
    move iff every set move reaches a Trudy win with Trudy to move.
    Every other state is a Fallon win.  The bitsets start at the
    satisfying terminals, and each sweep applies the rules to every
    position; a position's children have one more variable set, so
    after n sweeps every layer holds its value.
    """

    def __init__(self, formula: DnfFormula):
        # Nothing of ``formula``: it caches this solver, and a reference
        # back would leave both, table included, to the cycle collector.
        n = formula.variable_count
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
        for clause in formula.clauses:
            sat = terminal
            for v in clause:
                sat &= unset[v] << steps[v]
            won |= sat

        def some_child(x: int) -> int:
            out = 0
            for s, u in zip(steps, unset):
                out |= (x >> s | x >> 2 * s) & u
            return out

        # t with Trudy to move, f with Fallon to move.  After Trudy
        # sets, Fallon moves, and vice versa.
        t = f = won
        for _ in range(n):
            t, f = won | some_child(f), won | open_ & ~some_child(full ^ t)
        # As bytes, so that reading one bit does not copy the table.
        width = (3**n + 7) // 8
        self.trudy_wins = {Mover.TRUDY: t.to_bytes(width, "little"), Mover.FALLON: f.to_bytes(width, "little")}

    def index(self, assignment: Sequence[Optional[bool]]) -> int:
        if len(assignment) != self.variable_count:
            raise FormulaError("assignment length does not match variable count")
        i = 0
        for s, cur in zip(self.steps, assignment):
            if cur is not None:
                i += s if cur else 2 * s
        return i


def _bit(bits: bytes, i: int) -> int:
    return bits[i >> 3] >> (i & 7) & 1


def solve_gamesat(f: DnfFormula, first: Mover, assignment: Assignment | None = None) -> GameSatValue:
    """Exact value with ``first`` to move from ``assignment`` (default:
    all unset), with or without skips (see the theorem above)."""
    if assignment is None:
        assignment = f.unset_assignment()
    table = f._table
    if _bit(table.trudy_wins[first], table.index(assignment)):
        return GameSatValue.TRUDY_WINS
    return GameSatValue.FALLON_WINS


def winning_set_move(f: DnfFormula, assignment: Assignment, mover: Mover) -> tuple[int, bool] | None:
    """A set move for ``mover`` that keeps their win, or None if the
    position is not a win for ``mover`` or has no unset variable (a
    fully set winning assignment has no move).  A won position with an
    unset variable always has one, by the theorem above: skipping never
    wins what no set move wins.  Deterministic: lowest variable first,
    preferred value (Trudy true, Fallon false) first."""
    table = f._table
    i = table.index(assignment)
    trudy = mover is Mover.TRUDY
    if _bit(table.trudy_wins[mover], i) != trudy:
        return None
    after = table.trudy_wins[mover.other]
    values = (True, False) if trudy else (False, True)
    for v, (s, cur) in enumerate(zip(table.steps, assignment)):
        if cur is None:
            for value in values:
                if _bit(after, i + (s if value else 2 * s)) == trudy:
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
