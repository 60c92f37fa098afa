"""Multigraph boards for string-cutting games.

Coins are vertices and strings are edges.  A string normally joins two
coins, but either endpoint may instead be the ground: a shared, absent
endpoint that never scores and is never freed.  A string is nothing but
its endpoint pair, and its id is its index in ``Multigraph.strings``;
parallel strings are allowed and stored individually, one index each.
String ids are stable: game play never re-indexes a board, it only marks
strings dead in a separate alive set.  ``GraphBuilder`` adds coins,
strings and ropes, and appends whole boards with their coins and ids
shifted past its own.  Labels line up with the strings: ``labels[sid]``
is string ``sid``'s label or None, and a board with no label at all has
``labels == ()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import InvalidEndpoint, ParseError, clip

# Endpoint encoding: a coin index (>= 0) or GROUND.
GROUND = -1
# Most coins a board file may declare.  Boards allocate per-coin tables,
# so an absurd header would exhaust memory before any move is checked;
# the largest compiled board (N=5 majority: 34 coins, 30,401 strings)
# is far below.
MAX_COINS = 1_000_000
# Most strings a generated or compiled board may have.  The builders loop
# once per string; a board of this size takes about 5 s and 21 MB to
# generate.
MAX_STRINGS = 1_000_000


class StringEdge(NamedTuple):
    """One string: its two endpoints, whose order means nothing in play.
    Its id is its index in ``Multigraph.strings``."""

    a: int
    b: int


@dataclass(frozen=True)
class Multigraph:
    """An immutable board: ``coin_count`` coins and a dense string list.

    ``labels`` is ``()`` on a board without labels, or else one slot per
    string, in id order: the provenance text of the string (which
    reduction gadget created it), or None.  Labels never affect game
    semantics, equality or serialization.
    """

    coin_count: int = 0
    strings: tuple[StringEdge, ...] = ()
    labels: tuple[str | None, ...] = field(default=(), compare=False)

    @property
    def string_count(self) -> int:
        return len(self.strings)

    @cached_property
    def has_self_loop(self) -> bool:
        return any(a == b and a >= 0 for a, b in self.strings)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """String ids incident to each coin, ascending, each listed once;
        computed once per board.  On a board without a self-loop, the one
        kind a game accepts, ``len(incidence[c])`` is coin c's degree."""
        inc: list[list[int]] = [[] for _ in range(self.coin_count)]
        for sid, (a, b) in enumerate(self.strings):
            if a >= 0:
                inc[a].append(sid)
            if b >= 0 and b != a:
                inc[b].append(sid)
        return tuple(map(tuple, inc))


@dataclass
class GraphBuilder:
    """Single-owner mutable builder; ``build()`` freezes the result."""

    coin_count: int = 0
    _strings: list[StringEdge] = field(default_factory=list)
    _labels: list[str | None] = field(default_factory=list)

    def add_coin(self) -> int:
        self.coin_count += 1
        return self.coin_count - 1

    def add_coins(self, n: int) -> list[int]:
        return [self.add_coin() for _ in range(n)]

    def _check(self, a: int, b: int) -> None:
        for e in (a, b):
            if e != GROUND and not (0 <= e < self.coin_count):
                raise InvalidEndpoint(f"endpoint {e} out of range (coins: {self.coin_count})")

    def add_string(self, a: int, b: int, label: str | None = None) -> int:
        self._check(a, b)
        sid = len(self._strings)
        self._strings.append(StringEdge(a, b))
        self._labels.append(label)
        return sid

    def add_rope(self, a: int, b: int, width: int, label: str | None = None) -> list[int]:
        """Add ``width`` parallel strings, checking the endpoints once."""
        if width < 1:
            raise ValueError("rope width must be >= 1")
        self._check(a, b)
        ids = list(range(len(self._strings), len(self._strings) + width))
        self._strings += [StringEdge(a, b)] * width
        self._labels += [label] * width
        return ids

    def add_board(self, g: Multigraph) -> None:
        """Append ``g``: its coins and string ids come after this
        builder's, the ground stays the ground, and its labels follow its
        strings (Nones for a board without labels)."""
        coin_off = self.coin_count

        def shift(e: int) -> int:
            return e if e == GROUND else e + coin_off

        self._strings += [StringEdge(shift(a), shift(b)) for a, b in g.strings] if coin_off else g.strings
        self._labels += g.labels or [None] * g.string_count
        self.coin_count += g.coin_count

    def build(self) -> Multigraph:
        """Freeze the board, with ``labels == ()`` if no string has a label."""
        labelled = self._labels.count(None) < len(self._labels)
        return Multigraph(self.coin_count, tuple(self._strings), tuple(self._labels) if labelled else ())


def canonical_text(g: Multigraph) -> str:
    """Deterministic text serialization; round-trips through parse_text."""
    lines = [f"coins {g.coin_count}"]
    for sid, (a, b) in enumerate(g.strings):
        ea = "ground" if a == GROUND else str(a)
        eb = "ground" if b == GROUND else str(b)
        lines.append(f"string {sid} {ea} {eb}")
    return "\n".join(lines) + "\n"


def _end(tok: str, coin_count: int, lineno: int) -> int:
    """One endpoint token of a string record: ``ground`` or a coin index."""
    if tok == "ground":
        return GROUND
    try:
        e = int(tok)
    except ValueError:
        raise ParseError(f"line {lineno}: bad endpoint {clip(repr(tok))}") from None
    if not (0 <= e < coin_count):
        raise ParseError(f"line {lineno}: coin {clip(str(e))} out of range")
    return e


def parse_text(text: str) -> Multigraph:
    """Parse the board text format.

    One record per line: a ``coins <count>`` header, then
    ``string <id> <end> <end>`` records where each end is a decimal coin
    index or the literal ``ground``.  Ids must appear in increasing order
    from 0.  ``#`` begins a comment line.

    A run of records with the same endpoint tokens is checked once and
    shares one ``StringEdge``, as a rope from ``GraphBuilder.add_rope``
    does.
    """
    coin_count: int | None = None
    strings: list[StringEdge] = []
    append = strings.append
    prev: list[str] = []  # endpoint tokens of the last string record
    edge = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if len(parts) == 4 and parts[0] == "string" and coin_count is not None:
            if parts[1] != str(len(strings)):
                try:
                    sid = int(parts[1])
                except ValueError:
                    raise ParseError(f"line {lineno}: bad string id {clip(repr(parts[1]))}") from None
                if sid != len(strings):
                    raise ParseError(f"line {lineno}: string id {clip(str(sid))} out of order (expected {len(strings)})")
            ends = parts[2:]
            if ends != prev:
                edge = StringEdge(_end(ends[0], coin_count, lineno), _end(ends[1], coin_count, lineno))
                prev = ends
            append(edge)
        elif not parts or parts[0][0] == "#":
            continue
        elif parts[0] == "coins":
            if coin_count is not None:
                raise ParseError(f"line {lineno}: duplicate coins header")
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'coins <count>'")
            try:
                coin_count = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad coin count {clip(repr(parts[1]))}") from None
            if coin_count < 0:
                raise ParseError(f"line {lineno}: negative coin count")
            if coin_count > MAX_COINS:
                raise ParseError(f"line {lineno}: coin count {clip(str(coin_count))} above {MAX_COINS}")
        elif parts[0] != "string":
            raise ParseError(f"line {lineno}: unknown record {clip(repr(parts[0]))}")
        elif coin_count is None:
            raise ParseError(f"line {lineno}: string record before coins header")
        else:
            raise ParseError(f"line {lineno}: expected 'string <id> <end> <end>'")
    if coin_count is None:
        raise ParseError("missing coins header")
    return Multigraph(coin_count, tuple(strings))


def ropes(g: Multigraph, alive: Iterable[int] | None = None) -> dict[tuple[int, int], list[int]]:
    """Group (alive) strings into ropes by their endpoint pair."""
    keep = set(alive) if alive is not None else None
    out: dict[tuple[int, int], list[int]] = {}
    for sid, (a, b) in enumerate(g.strings):
        if keep is not None and sid not in keep:
            continue
        out.setdefault((a, b) if a <= b else (b, a), []).append(sid)
    return out


def to_dot(
    g: Multigraph,
    *,
    string_colors: dict[int, str] | None = None,
    coin_names: dict[int, str] | None = None,
) -> str:
    """DOT export: coins as circles, one shared ground box, parallel
    strings drawn as parallel edges."""
    string_colors = string_colors or {}
    coin_names = coin_names or {}
    lines = ["graph board {"]
    lines.append("  node [shape=circle];")
    uses_ground = any(s.a == GROUND or s.b == GROUND for s in g.strings)
    if uses_ground:
        lines.append('  ground [shape=box, label="ground"];')
    for c in range(g.coin_count):
        name = coin_names.get(c, f"c{c}")
        lines.append(f'  c{c} [label="{name}"];')
    for sid, (a, b) in enumerate(g.strings):
        na = "ground" if a == GROUND else f"c{a}"
        nb = "ground" if b == GROUND else f"c{b}"
        attrs = [f'tooltip="string {sid}"']
        color = string_colors.get(sid)
        if color:
            attrs.append(f'color="{color}"')
        lines.append(f"  {na} -- {nb} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
