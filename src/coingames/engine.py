"""Rule semantics for the three string-cutting games.

Strings-and-Coins: cutting a string that frees one or two coins scores
that many points and grants an immediate extra cut; most points wins,
draws possible.  Nimstring: same moves, no points, the first player
unable to move loses (so the player who cuts the last string loses,
because freeing keeps the turn).  Coins-are-Lava: cuts that would free
a coin are forbidden, every cut flips the mover, and the first player
with no legal cut loses.

A coin is freed when its alive degree drops to zero by a cut.
Ground endpoints never free anything.  Coins of degree zero at game
start are inert: never freed, never scored.

The rules live in two places that check each other.  ``Rules`` is the
kernel over alive bitmasks (bit ``sid`` set while string ``sid`` is
alive), one table of ``(bit, mask_a, mask_b)`` per string and one
freeing rule, ``alive & mask == bit``.  The immutable ``GameState``
functions (``legal_moves``, ``apply_move``, ``is_terminal``) turn a
state's alive set into a mask and call ``Rules.moves`` and
``Rules.freed``; the oracle ``solver.naive_solve`` walks the table
itself.  The three functions stay public because the benchmark
(``perfbench/``) traces them and calls ``legal_moves``.  ``LiveBoard``
is the mutable playout board with O(1) updates per cut, and one bulk
update for a run of parallel cuts that frees and freezes nothing.

A self-loop (a string from a coin to itself) leaves freeing undefined,
so a board with one is refused at two doors: building a ``GameState``
and building a ``LiveBoard``.  Nothing that takes a state checks again.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import DegenerateInput, IllegalMove
from .multigraph import Multigraph


class GameKind(Enum):
    STRINGS_AND_COINS = "sac"
    NIMSTRING = "nimstring"
    COINS_ARE_LAVA = "lava"


class Player(Enum):
    P1 = "P1"
    P2 = "P2"

    @property
    def other(self) -> "Player":
        return Player.P2 if self is Player.P1 else Player.P1


@dataclass(frozen=True)
class GameState:
    """A position: immutable board reference, alive string ids, mover,
    and accumulated scores (meaningful for Strings-and-Coins only)."""

    board: Multigraph
    alive: frozenset[int]
    mover: Player = Player.P1
    scores: tuple[int, int] = (0, 0)

    def __post_init__(self) -> None:
        if self.board.has_self_loop:
            raise DegenerateInput("board has a self-loop; freeing semantics undefined")

    def score(self, p: Player) -> int:
        return self.scores[0] if p is Player.P1 else self.scores[1]


@dataclass(frozen=True)
class Outcome:
    """winner None means a draw (possible only in Strings-and-Coins)."""

    winner: Player | None
    scores: tuple[int, int] = (0, 0)

    @property
    def winner_text(self) -> str:
        return "Draw" if self.winner is None else self.winner.value


def initial_state(board: Multigraph, mover: Player = Player.P1) -> GameState:
    return GameState(board, frozenset(range(board.string_count)), mover)


def bitmask(ids: Iterable[int]) -> int:
    """The int with bit ``i`` set for each distinct id ``i``."""
    return sum(map((1).__lshift__, ids))


class Rules:
    """The rules of one game on one board, over alive bitmasks.

    ``table[sid]`` is ``(bit, mask_a, mask_b)``: the string's own bit
    ``1 << sid`` and the masks of the strings at its two endpoints, 0
    for the ground.  A cut of ``sid`` frees an endpoint exactly when
    ``alive & mask == bit``; the ground's 0 never matches, so the
    ground is never freed.  ``moves``, ``freed`` and the oracle
    ``solver.naive_solve`` all read this one table.  Built per call: O(E).
    """

    def __init__(self, board: Multigraph, kind: GameKind):
        self.lava = kind is GameKind.COINS_ARE_LAVA
        mask = [bitmask(ids) for ids in board.incidence]
        self.table = [
            (1 << sid, mask[a] if a >= 0 else 0, mask[b] if b >= 0 else 0) for sid, (a, b) in enumerate(board.strings)
        ]

    def moves(self, alive: int) -> list[int]:
        """The legal cuts in ascending order: every alive string, less
        the freeing cuts in Lava."""
        lava = self.lava
        return [
            sid
            for sid, (bit, a, b) in enumerate(self.table)
            if alive & bit and not (lava and (alive & a == bit or alive & b == bit))
        ]

    def freed(self, alive: int, sid: int) -> int:
        """How many coins the cut of ``sid`` frees."""
        bit, a, b = self.table[sid]
        return (alive & a == bit) + (alive & b == bit)


def legal_moves(state: GameState, kind: GameKind) -> set[int]:
    return set(Rules(state.board, kind).moves(bitmask(state.alive)))


def apply_move(state: GameState, kind: GameKind, sid: int) -> GameState:
    board = state.board
    if sid not in state.alive:
        raise IllegalMove(f"string {sid} is not alive")
    rules = Rules(board, kind)
    alive = bitmask(state.alive)
    freed = rules.freed(alive, sid)
    if freed and rules.lava:
        bit, *masks = rules.table[sid]
        coins = tuple(c for c, mask in zip(board.strings[sid], masks) if alive & mask == bit)
        raise IllegalMove(f"string {sid} would free coin(s) {coins}")
    rest = state.alive - {sid}
    if not freed:
        return GameState(board, rest, state.mover.other, state.scores)
    # Free move: the capturing player cuts again.
    scores = state.scores
    if kind is GameKind.STRINGS_AND_COINS:
        if state.mover is Player.P1:
            scores = (scores[0] + freed, scores[1])
        else:
            scores = (scores[0], scores[1] + freed)
    return GameState(board, rest, state.mover, scores)


def _stuck(kind: GameKind, mover: Player, scores) -> Outcome:
    """The outcome once ``mover`` has no legal cut: in Strings-and-Coins
    the scores decide, elsewhere the stuck mover loses."""
    if kind is not GameKind.STRINGS_AND_COINS:
        return Outcome(mover.other)
    p1, p2 = scores
    winner = Player.P1 if p1 > p2 else Player.P2 if p2 > p1 else None
    return Outcome(winner, (p1, p2))


def is_terminal(state: GameState, kind: GameKind) -> Outcome | None:
    """The outcome once the mover has no legal cut, else None."""
    if Rules(state.board, kind).moves(bitmask(state.alive)):
        return None
    return _stuck(kind, state.mover, state.scores)


class LiveBoard:
    """Mutable playout accelerator for one game on a fixed board.

    Tracks alive strings, alive coin degrees, mover, and scores with
    O(1) updates per cut.  For Coins-are-Lava it also maintains an exact
    count of legal strings, exploiting that illegality is monotone: once
    a coin's degree drops to 1 its last string can never become legal
    again, because degrees never rise.  ``run_room`` and ``cut_run``
    apply that freeze rule to runs of parallel cuts.
    """

    def __init__(self, board: Multigraph, kind: GameKind, mover: Player = Player.P1):
        if board.has_self_loop:
            raise DegenerateInput("board has a self-loop; freeing semantics undefined")
        self.board = board
        self.kind = kind
        self._lava = kind is GameKind.COINS_ARE_LAVA
        self._sac = kind is GameKind.STRINGS_AND_COINS
        self.mover = mover
        self.scores = [0, 0]
        self.alive = [True] * board.string_count
        self.alive_count = board.string_count
        # A coin's degree is its incidence count on a self-loop-free board.
        self.degree = [len(ids) for ids in board.incidence]
        self._incidence = board.incidence
        self._strings = board.strings
        # frozen[sid] is True once cutting sid would free a coin.
        self.frozen = [False] * board.string_count
        self.legal_count = board.string_count
        for c in range(board.coin_count):
            if self.degree[c] == 1:
                self._freeze_last_string(c)

    def _freeze_last_string(self, coin: int) -> None:
        for sid in self._incidence[coin]:
            if self.alive[sid] and not self.frozen[sid]:
                self.frozen[sid] = True
                self.legal_count -= 1

    def cut(self, sid: int) -> int:
        """Apply a cut for the current mover; returns coins freed (0 in
        Coins-are-Lava, where freeing cuts raise IllegalMove)."""
        alive = self.alive
        if not 0 <= sid < len(alive) or not alive[sid]:
            raise IllegalMove(f"string {sid} is not a legal cut")
        # An alive string frees a coin exactly when it is frozen (its
        # coin is down to this one string), so only frozen cuts count.
        freed = 0
        a, b = self._strings[sid]
        degree = self.degree
        if self.frozen[sid]:
            if self._lava:
                raise IllegalMove(f"string {sid} is not a legal cut")
            freed = (a >= 0 and degree[a] == 1) + (b >= 0 and degree[b] == 1)
        else:
            self.legal_count -= 1
        alive[sid] = False
        self.alive_count -= 1
        if a >= 0:
            degree[a] -= 1
            if degree[a] == 1:
                self._freeze_last_string(a)
        if b >= 0:
            degree[b] -= 1
            if degree[b] == 1:
                self._freeze_last_string(b)
        if not freed:
            self.mover = Player.P2 if self.mover is Player.P1 else Player.P1
        elif self._sac:
            self.scores[0 if self.mover is Player.P1 else 1] += freed
        return freed

    def run_room(self, sid: int, other: int) -> int:
        """The most rounds that can be played, each cutting one string
        parallel to ``sid`` and then one parallel to ``other`` (the same
        string or not), before a coin falls to degree 1: after them every
        endpoint keeps degree 2 or more, so nothing is frozen or freed.
        0 if not even one."""
        ends = self._strings[sid] + self._strings[other]
        degree = self.degree
        room = len(self.alive)
        for c in ends:
            if c >= 0:
                room = min(room, (degree[c] - 2) // ends.count(c))
        return max(room, 0)

    def cut_run(self, sid: int, count: int) -> None:
        """Apply ``count`` cuts of the strings ``sid``, ``sid + 1``, ...
        in turn, as ``count`` calls of ``cut`` would: a run of alive
        strings with the same endpoints, neither of which may fall below
        degree 2.  Such cuts free and freeze nothing, so each flips the
        mover in every game.  A run that breaks these terms raises
        IllegalMove and changes nothing."""
        stop = sid + count
        alive, strings, degree = self.alive, self._strings, self.degree
        if count < 1 or sid < 0 or stop > len(alive) or False in alive[sid:stop]:
            raise IllegalMove(f"strings {sid}..{stop - 1} are not a run of alive strings")
        ends = strings[sid]
        if strings[sid:stop].count(ends) != count or any(c >= 0 and degree[c] - count < 2 for c in ends):
            raise IllegalMove(f"strings {sid}..{stop - 1} are not a run of cuts that freeze nothing")
        alive[sid:stop] = [False] * count
        self.alive_count -= count
        self.legal_count -= count
        for c in ends:
            if c >= 0:
                degree[c] -= count
        if count & 1:
            self.mover = self.mover.other

    def outcome(self) -> Outcome | None:
        moves = self.legal_count if self._lava else self.alive_count
        return None if moves else _stuck(self.kind, self.mover, self.scores)
