"""Exact solvers for all three games, plus loony-position tools.

``solve`` runs one of two memoized searches.  The games share their one
move, cutting a string, and differ in two rules: a cut that frees a coin
is illegal in Lava and scores the coin in Strings-and-Coins.  In every
game a freeing cut keeps the turn; any other cut passes it.

Nimstring and Coins-are-Lava decide only who wins, and ``_wins`` solves
them by a plain negamax with early stop (*Winning Ways*, vol. 3,
ch. 16).  A position is won when some cut reaches a won position by a
freeing cut (the mover moves again) or a lost one by a plain cut (the
opponent moves); it returns at the first such cut.  Its memo maps a won
position to its winning rope plus 1 and a lost one to 0, and the root's
entry gives the principal move.  A lost root has none.

Strings-and-Coins is valued by ``_value``, a fail-soft alpha-beta
negamax on the net score still to come for the player to move.  A
position searched on the window (alpha, beta) returns its exact value
when that lies strictly inside the window, else a bound on the side it
fell: an upper bound at or below alpha, a lower bound at or above beta.
A plain cut searches its child on (-beta, -alpha) and negates the
result; a freeing cut that scores g coins searches its child on
(alpha - g, beta - g) and adds g.  Each position's window is first
clamped to plus or minus the coins that still have an alive string.
The memo keeps a (lower, upper) bound pair per position and narrows the
window with it.  The principal move is recorded while the root is
searched on the full window: the first child, in search order, worth
the root's value.

Both searches walk the moves inline, in two passes over the ropes: the
freeing cuts in rope order (Lava skips this pass), then the plain cuts
in rope order.  The walk restores the alive counts and degrees after
each child, so each rope's freeing status is read at the position's
own degrees.  A win, or a beta cut, returns at once and skips every rope
not yet reached.  ``states_visited`` counts the distinct positions
expanded: one searched again under another window counts once, and one
that the clamp alone answers is not expanded.

The search runs over the rope quotient of the position.  Parallel
strings (a rope: same endpoint pair) are interchangeable, so a position
is its alive count per rope.  The search keeps one slot per rope
(endpoints, alive count, place value), and a cut of a rope names its
lowest string id.  The memo key reads the counts as mixed-radix digits,
base w + 1 for a rope of width w: a board's keys are exactly 0 to the
product of (w + 1) minus 1, the full board's key is the largest, and a
cut subtracts its rope's place value.  ``budget`` keeps the full key
below 2^budget (a string budget on boards without parallel strings).
The key alone suffices: in Nimstring and Coins-are-Lava the value
depends only on the alive set, and in Strings-and-Coins the optimal
future net score for the mover is mover-symmetric (both players face
identical move rights).  The search recurses once per cut, so a position
with more than ``MAX_DEPTH`` alive strings is refused whatever its
budget.

``naive_solve`` is an independent correctness oracle: plain minimax
with no short-circuiting, memoized on the position (alive strings,
mover) packed into one int, alive*2 + p1.  Scores never decide which
cut is legal, whether it frees a coin or who moves next, so they stay
out of the key: a position is worth what is still to come, P1's margin
in Strings-and-Coins (a freeing cut adds its coins when P1 cuts and
takes them off when P2 does) and elsewhere whether P1 wins.  From the
engine it takes the mask table ``Rules.table``, which ``Rules.moves``
and ``Rules.freed`` also read, and the freeing rule ``alive & mask ==
bit``.  It walks that table once per position, probes the memo for
each child before it recurses, and folds every child into one running
best, the largest for P1 and the smallest for P2.  It shares no code
with ``_Search``, ``_value`` or ``_wins``, expands every child (no rope
quotient, window or early stop), and keeps the mover in its key, so it
does not lean on the mover symmetry that ``solve`` assumes for
Strings-and-Coins.  A fault in either shows up as a disagreement.  It
is exponential in the string count and capped at 14 strings.

A loony position has a degree-2 coin adjacent to exactly one degree-1
coin; the mover wins Nimstring from it with a scripted opening of one
or two cuts, chosen by solving the remainder graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, zip_longest
from operator import mul

from .engine import GameKind, GameState, Player, Rules, bitmask
from .errors import BudgetExceeded
from .multigraph import ropes

DEFAULT_BUDGET = 24
NAIVE_BUDGET = 14
# Deepest search ``solve`` accepts: one Python frame per cut, kept well
# under the interpreter's default recursion limit of 1000.
MAX_DEPTH = 400


@dataclass(frozen=True)
class SolveResult:
    kind: GameKind
    winner_for_mover: bool | None = None
    net_for_mover: int | None = None
    principal_move: int | None = None
    states_visited: int = 0


@dataclass(frozen=True)
class LoonyWitness:
    """Strings a, b realizing the pattern: a joins degree-1 coin A to
    degree-2 coin B, b is B's other string, and A is the only degree-1
    coin adjacent to B."""

    a: int
    b: int
    coin_a: int
    coin_b: int


class _Search:
    def __init__(self, state: GameState, groups: dict[tuple[int, int], list[int]], kind: GameKind):
        board = state.board
        # One slot per rope, in order of lowest string id: alive count, that
        # lowest id (the string a cut names) and what a cut reads: (index,
        # endpoints, place value), digits base w + 1 for a rope of width w.
        self.first = [ids[0] for ids in groups.values()]
        self.count = [len(ids) for ids in groups.values()]
        *place, top = accumulate((w + 1 for w in self.count), mul, initial=1)
        self.full_key = top - 1
        self.ropes = [(r, a, b, p) for r, ((a, b), p) in enumerate(zip(groups, place))]
        # Alive degree per coin, then one slot for the ground, which
        # ``GROUND`` (-1) indexes: it starts at 2, so it never reads 1 and
        # the ground is never freed.
        self.deg = [0] * board.coin_count + [2]
        for (a, b), w in zip(groups, self.count):
            self.deg[a] += w
            self.deg[b] += w
        self.states = 0
        self.principal = None
        # Whether each pass walks the freeing cuts: Lava forbids them.
        self.passes = (False,) if kind is GameKind.COINS_ARE_LAVA else (True, False)
        # Strings-and-Coins only.  ``reach`` bounds the value of the
        # position being searched: the coins that still have an alive
        # string (a freeing cut lowers it by the coins it scores).
        # ``floor`` is below every move's value.
        self.reach = sum(1 for d in self.deg[:-1] if d)
        self.floor = -board.coin_count - 1


def _wins(s: _Search, key: int, memo: dict[int, int]) -> int:
    """Nimstring or Coins-are-Lava position ``key`` for the player to
    move: its winning rope plus 1 if it is won, else 0.  A freeing
    child wins if it is won (the mover moves again), a plain child if it
    is lost; the walk stops at the first winning child."""
    w = memo.get(key)
    if w is not None:
        return w
    s.states += 1
    count, deg = s.count, s.deg
    for freeing in s.passes:
        for r, a, b, p in s.ropes:
            if count[r] and (deg[a] == 1 or deg[b] == 1) is freeing:
                count[r] -= 1
                deg[a] -= 1
                deg[b] -= 1
                won = _wins(s, key - p, memo) > 0
                count[r] += 1
                deg[a] += 1
                deg[b] += 1
                if won is freeing:
                    memo[key] = r + 1
                    return r + 1
    memo[key] = 0
    return 0


def _value(s: _Search, key: int, alpha: int, beta: int, memo: dict[int, tuple[int, int]]) -> int:
    """Fail-soft alpha-beta value of Strings-and-Coins position ``key``
    for the player to move: the net score still to come.  A result
    inside (alpha, beta) is exact; one at or below alpha is an upper
    bound on the value, one at or above beta a lower bound.  ``memo``
    keeps a (lower, upper) bound pair per key."""
    entry = memo.get(key)
    if entry is None:
        lo, hi = -s.reach, s.reach
    else:
        lo, hi = entry
        if lo == hi:
            return lo
    if lo >= beta:
        return lo
    if hi <= alpha:
        return hi
    if entry is None:
        s.states += 1
    alpha, beta = max(alpha, lo), min(beta, hi)
    a, best = alpha, s.floor
    count, deg = s.count, s.deg
    for freeing in s.passes:
        for r, ea, eb, p in s.ropes:
            if count[r] and ((f := (deg[ea] == 1) + (deg[eb] == 1)) > 0) is freeing:
                count[r] -= 1
                deg[ea] -= 1
                deg[eb] -= 1
                if f:
                    # The mover keeps the turn and scores f: shift the window.
                    s.reach -= f
                    value = _value(s, key - p, a - f, beta - f, memo) + f
                    s.reach += f
                else:
                    value = -_value(s, key - p, -beta, -a, memo)
                count[r] += 1
                deg[ea] += 1
                deg[eb] += 1
                if value > best:
                    best = value
                    # Only the root records: it runs on its full window, so
                    # a child that raises ``best`` there returns its exact value.
                    if key == s.full_key:
                        s.principal = s.first[r]
                    if best >= beta:
                        memo[key] = (best, hi)
                        return best
                    a = max(a, best)
    memo[key] = (lo, best) if best <= alpha else (best, best)
    return best


def _product(factors: list[int]) -> int:
    """Product by pairwise rounds: near-linear in the product's bits,
    where a running product over many factors is quadratic."""
    while len(factors) > 1:
        factors = [x * y for x, y in zip_longest(factors[::2], factors[1::2], fillvalue=1)]
    return factors[0] if factors else 1


def solve(state: GameState, kind: GameKind, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Exact optimal value of ``state`` under ``kind`` by memoized search
    over the rope quotient; refuses positions with more than 2^budget
    quotient states or more than ``MAX_DEPTH`` alive strings."""
    groups = ropes(state.board, state.alive)
    need = (_product([len(ids) + 1 for ids in groups.values()]) - 1).bit_length()
    if need > budget:
        raise BudgetExceeded(
            f"{len(state.alive)} alive strings in {len(groups)} ropes need budget {need}, above {budget}"
        )
    if len(state.alive) > MAX_DEPTH:
        raise BudgetExceeded(f"{len(state.alive)} alive strings exceed search depth {MAX_DEPTH}")
    s = _Search(state, groups, kind)
    if kind is GameKind.STRINGS_AND_COINS:
        # The empty board is a terminal that the search does not count.
        # ``floor`` is below every value and ``-floor`` above: the full window.
        value = _value(s, s.full_key, s.floor, -s.floor, {0: (0, 0)})
        return SolveResult(kind, net_for_mover=value, principal_move=s.principal, states_visited=s.states)
    # Nimstring's empty board is a lost terminal that the search does not
    # count, while Lava visits it as a position with no legal cut.
    w = _wins(s, s.full_key, {} if kind is GameKind.COINS_ARE_LAVA else {0: 0})
    return SolveResult(
        kind, winner_for_mover=w > 0, principal_move=s.first[w - 1] if w else None, states_visited=s.states
    )


def naive_solve(state: GameState, kind: GameKind) -> SolveResult:
    """Oracle twin of ``solve``: plain minimax over the engine's table
    ``Rules.table``, every child expanded, memoized on the position
    (alive strings, mover) with a fresh memo per call: scores never
    change play, and the mover stays so that no mover symmetry is
    assumed.  It shares no code with ``_Search``, ``_value`` or
    ``_wins``.  ``states_visited`` counts the distinct positions
    evaluated, terminal ones included.  Refuses positions above
    ``NAIVE_BUDGET`` alive strings."""
    if len(state.alive) > NAIVE_BUDGET:
        raise BudgetExceeded(f"{len(state.alive)} alive strings exceed naive budget {NAIVE_BUDGET}")
    sac = kind is GameKind.STRINGS_AND_COINS
    rules = Rules(state.board, kind)
    table, lava = rules.table, rules.lava
    # Values are absolute: P1's margin still to come in Strings-and-Coins,
    # else whether P1 wins under optimal play.
    memo: dict[int, int | bool] = {}
    probe = memo.get

    def value(key: int) -> int | bool:
        alive, p1 = key >> 1, key & 1
        # One fold for every game: P1 keeps the largest child, P2 the
        # smallest, and a win/loss value is a bool, where False < True.
        best = None
        # A freeing cut keeps the turn and, in Strings-and-Coins, adds its
        # coins to P1's margin when P1 cuts and takes them off when P2
        # does; a plain cut also flips the key's mover bit.
        gain = (1 if p1 else -1) if sac else 0
        flip = key - 1 if p1 else key + 1
        for bit, a, b in table:
            if not alive & bit:
                continue
            f = (alive & a == bit) + (alive & b == bit)
            if f:
                if lava:
                    continue
                child = key - 2 * bit
                v = probe(child)
                if v is None:
                    v = value(child)
                if gain:
                    v += f * gain
            else:
                child = flip - 2 * bit
                v = probe(child)
                if v is None:
                    v = value(child)
            if best is None or (v > best if p1 else v < best):
                best = v
        # With no move the game is over: nothing is left to score in
        # Strings-and-Coins; elsewhere the stuck mover loses.
        if best is None:
            best = 0 if sac else not p1
        memo[key] = best
        return best

    p1 = state.mover is Player.P1
    v = value(bitmask(state.alive) * 2 + p1)
    if sac:
        return SolveResult(kind, net_for_mover=v if p1 else -v, states_visited=len(memo))
    return SolveResult(kind, winner_for_mover=v == p1, states_visited=len(memo))


def winner_of(state: GameState, kind: GameKind, result: SolveResult) -> Player | None:
    """Map a SolveResult back to an absolute winner (None = draw)."""
    if kind is GameKind.STRINGS_AND_COINS:
        lead = state.score(state.mover) - state.score(state.mover.other)
        total = lead + (result.net_for_mover or 0)
        if total > 0:
            return state.mover
        if total < 0:
            return state.mover.other
        return None
    return state.mover if result.winner_for_mover else state.mover.other


def find_loony_witnesses(state: GameState) -> list[LoonyWitness]:
    board = state.board
    alive_inc = [[sid for sid in strings if sid in state.alive] for strings in board.incidence]
    out = []
    for coin_b, incident in enumerate(alive_inc):
        if len(incident) != 2:
            continue
        degree1_neighbors = set()
        for sid in incident:
            x, y = board.strings[sid]
            other = y if x == coin_b else x
            if other >= 0 and len(alive_inc[other]) == 1:
                degree1_neighbors.add(other)
        if len(degree1_neighbors) != 1:
            continue
        coin_a = degree1_neighbors.pop()
        a, b = incident if coin_a in board.strings[incident[0]] else incident[::-1]
        out.append(LoonyWitness(a, b, coin_a, coin_b))
    out.sort(key=lambda w: (w.a, w.b))
    return out


def loony_first_move(state: GameState, w: LoonyWitness) -> list[int]:
    """Winning Nimstring opening from a loony position.

    Removing coins A and B removes exactly strings a and b (A carries
    only a; B carries a and b), leaving remainder G'.  Cutting a then b
    frees A then B, so both cuts are free moves and the mover plays
    first in G': do that when the mover wins Nimstring on G'.
    Otherwise cut only b and let the opponent face the lone a plus a
    remainder they cannot afford.
    """
    sub = GameState(state.board, state.alive - {w.a, w.b}, state.mover)
    res = solve(sub, GameKind.NIMSTRING)
    return [w.a, w.b] if res.winner_for_mover else [w.b]
