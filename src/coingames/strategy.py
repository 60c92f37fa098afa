"""Scripted strategies over compiled Coins-are-Lava instances.

The two scripts realize the winning plays behind the Game SAT
reduction.  Intended gameplay has four phases: (1) set all variable
gadgets, steered by a Game SAT oracle; (2) fight over the wires:
Fallon disables the wrong level-1 wires, and Trudy wounds the wires
into the empty clause and empties the top ropes of one chosen clause;
(3) Fallon's fight one level up, over the level-2 wires out of the root
coin; (4) cleanup, which empties the clause ropes and whittles every
remaining rope to its floor.  Trudy's script has no phase-3 stage, so
its transcripts show phases 1, 2 and 4 only.  Progress is monotone
(strings only die), so each script is a priority waterfall: the first
stage with work remaining supplies the move, and a lowest-id cleanup
cut is the final fallback.  A stage that finds no work stays dry until
some rope is first cut or emptied, so the waterfall skips it until
then; no stage is exempt, Fallon's racing stage that watches the
opponent's top cuts included.  Cleanup has one guard: Trudy's script
keeps the bottom ropes of its chosen clause's live wires until nothing
else is legal.

The decisive facts the waterfalls are built on:

* A clause dies for good once any incident wire is disabled (the dead
  wire's last top strand freezes and supports the clause rope forever)
  or once its rope empties.  It survives to the end iff its rope holds
  a string while every incident top rope is empty.
* Disabling a rope is a factor of N cheaper than activating it, so a
  contested wire is always lost; wires are only won through freezes
  (a variable's last bottom strand, the root's last bottom strand) or
  by emptying the top rope first, which freezes the bottom at one.
* Keepers are therefore dynamic: "the lowest-id good wire still alive"
  rather than a precommitted choice.  Opposing scripts disable
  complementary sets, so both converge on sparing the same wire.
* Singleton clauses for variables with a single occurrence have no
  level-1 wires at all, so their survival rests entirely on their
  level-2 wire; Fallon's script disables those wires first once the
  opponent has started pumping them.

Legality does the rest: the Lava rules freeze any string whose cut
would free a coin, so "keep one wire per variable" and "the root stays
supported" are enforced by the board itself.

Each side's wire rule is written once: ``_fallon_class`` sorts wires
into Fallon's classes and ``_trudy_threat`` marks the level-2 wires an
attacker on Trudy chews through.  The script of a side and the
``GreedyDisabler`` that targets it both read that rule.

Walking the waterfalls every ply stays cheap because the facts they
branch on are monotone and move only when a rope is first cut or
emptied, a few dozen times in a game of thousands of plies.
``ArtifactTracker`` keeps them current inside ``observe``: the set of
doomed clauses (a wire's bottom rope or a clause rope emptied), the
induced assignment (a variable rope emptied), and an ``epoch`` that
counts first cuts and emptyings of ropes.  The scripts and the greedy
attacker share one base, ``_TrackedPolicy``: one ``reset``, one step
that rebuilds a policy's wire lists as tuples when the epoch moves (per
ply they are only re-sorted by rope counts), and one lowest-id cleanup
scan with a monotone cursor.  The tracker and
those lists live for one playout: ``playout`` makes a new tracker and
``Policy.reset`` starts every policy afresh.

A ply of ``playout`` does only what can change the game: the mover's
policy chooses, the ``LiveBoard`` cuts, the tracker observes, the cut
and the mover's phase are appended to two lists, and both policies
observe.  A policy's ``choose`` compares epochs inline and calls
``_sync`` only when the epoch has moved; a script asks its variable
stage only while in phase 1, and its stages read rope counters
directly.  The transcript is not formatted during play:
``PlayoutRecord`` formats it from the cuts and phases on demand.

Between two epoch moves a tracked policy cuts one rope over and over,
so a game between two of them is under a hundred *runs* at every N
tried, while its plies grow as N^5.
After each ply ``playout`` asks both policies whether they are
``steady``: whether each will go on cutting the lowest alive string of
the rope it cut last.  If both are, it plays k whole rounds at once,
stopping short of the next event: the most rounds that leave each rope
a string (``ArtifactTracker.run_room``; a rope's first cut has already
moved the epoch) and every coin of the two ropes at degree 2 or more,
so that nothing freezes (``LiveBoard.run_room``).  ``LiveBoard.cut_run``
and ``ArtifactTracker.observe_run`` apply them, and their cuts reach
neither ``choose`` nor ``observe``.  The cuts, phases, winner and
census are those of the game played ply by ply.
"""

from __future__ import annotations

import random
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass

from .engine import GameKind, LiveBoard, Player
from .errors import IllegalMove, StrategyError
from .gamesat import Mover, winning_set_move
from .reduce import ReductionArtifact


class _Rope:
    """Alive counter plus a monotone lowest-alive cursor over one
    contiguous id range.  All strands of a rope share endpoints, so they
    are always equally legal; one representative id suffices."""

    __slots__ = ("start", "stop", "width", "alive", "cursor")

    def __init__(self, rng: tuple[int, int]):
        self.start, self.stop = rng
        self.width = self.alive = self.stop - self.start
        self.cursor = self.start

    def lowest_legal(self, live: LiveBoard) -> int | None:
        # A tracked board is a Lava board: an alive string is legal
        # unless frozen.
        alive, cursor, stop = live.alive, self.cursor, self.stop
        while cursor < stop and not alive[cursor]:
            cursor += 1
        self.cursor = cursor
        if cursor < stop and not live.frozen[cursor]:
            return cursor
        return None


@dataclass(eq=False)
class _Wire:
    index: int
    level: int
    source_var: int | None  # None for root wires
    target: str
    bottom: _Rope
    top: _Rope


class ArtifactTracker:
    """Incremental per-gadget state over a live board: rope counters
    (a wire's HP is its ``bottom.alive``), clause dooms, and the induced
    variable assignment.  A playout keeps one, observes each cut into it
    once, and hands it to both policies.

    Dooms and the assignment change only when some rope's ``alive``
    reaches 0, so ``observe`` updates them there.  ``doomed`` is the set
    of clause keys whose rope is empty or one of whose wires is
    disabled, either of which lasts to the end of the game;
    ``assignment`` is the induced assignment, a tuple of True, False or
    None per variable.  ``epoch`` counts those events and each rope's
    first cut: anything computed from which ropes are empty and which
    are whole holds until it moves."""

    def __init__(self, artifact: ReductionArtifact, live: LiveBoard):
        self.artifact = artifact
        self.live = live
        self.rope_of: list[_Rope | None] = [None] * artifact.graph.string_count
        self.var_bottom: list[_Rope] = []
        self.var_top: list[_Rope] = []
        self.wires: list[_Wire] = []
        self.clause_rope: dict[str, _Rope] = {}
        self.pad: _Rope | None = None
        # The clause each rope dooms by emptying: a wire's bottom dooms
        # its target, a clause rope its own clause.
        self._dooms: dict[_Rope, str] = {}
        for p in artifact.plan:
            if p.kind == "variable":
                bot, top = _Rope(p.bottom), _Rope(p.top)
                self.var_bottom.append(bot)
                self.var_top.append(top)
                self._register(bot)
                self._register(top)
            elif p.kind == "wire":
                src = int(p.source.split(":")[1]) if p.source.startswith("var:") else None
                w = _Wire(len(self.wires), p.level, src, p.target, _Rope(p.bottom), _Rope(p.top))
                self.wires.append(w)
                self._register(w.bottom)
                self._register(w.top)
                self._dooms[w.bottom] = w.target
            elif p.kind == "clause":
                rope = _Rope(p.rope)
                self.clause_rope[p.clause] = rope
                self._register(rope)
                self._dooms[rope] = p.clause
            elif p.kind == "pad":
                self.pad = _Rope(p.rope)
                self._register(self.pad)
        self.clause_keys = [p.clause for p in artifact.plan if p.kind == "clause"]
        # The layout lists every level-1 wire before the level-2 ones, so
        # each clause's wires come level-1 first.
        self.clause_wires: dict[str, list[_Wire]] = {key: [] for key in self.clause_keys}
        for w in self.wires:
            self.clause_wires[w.target].append(w)
        self._var_ropes = set(self.var_bottom + self.var_top)
        # Every rope starts with at least one string: nothing is doomed yet.
        self.epoch = 0
        self.doomed: set[str] = set()
        self.assignment = self._induced_assignment()

    def _register(self, rope: _Rope) -> None:
        self.rope_of[rope.start : rope.stop] = [rope] * rope.width

    def observe(self, sid: int) -> None:
        rope = self.rope_of[sid]
        if rope is None or rope.alive <= 0:
            raise StrategyError(f"tracker out of sync at string {sid}")
        rope.alive -= 1
        if rope.alive == rope.width - 1:
            self.epoch += 1
        if rope.alive == 0:
            self.epoch += 1
            key = self._dooms.get(rope)
            if key is not None:
                self.doomed.add(key)
            elif rope in self._var_ropes:
                self.assignment = self._induced_assignment()

    def run_room(self, rope: _Rope, other: _Rope) -> int:
        """The most rounds, each cutting one string of ``rope`` and then
        one of ``other`` (the same rope or not), that leave the epoch
        where it is: 0 if a rope is still whole, else as many as keep
        each rope holding a string."""
        if rope.alive == rope.width or other.alive == other.width:
            return 0
        if rope is other:
            return (rope.alive - 1) // 2
        return min(rope.alive, other.alive) - 1

    def observe_run(self, sid: int, count: int) -> None:
        """``observe`` for the cuts of ``sid`` and the ``count - 1``
        strings above it, the lowest alive strings of a rope that has
        been cut before; refuses a run that would move the epoch.  It
        moves the rope's cursor past them, so that the next
        ``lowest_legal`` does not walk them one by one."""
        rope = self.rope_of[sid]
        if rope is None or not 0 < count < rope.alive < rope.width or sid != rope.stop - rope.alive:
            raise StrategyError(f"tracker cannot take a run of {count} at string {sid}")
        rope.alive -= count
        rope.cursor = sid + count

    def census(self) -> dict:
        """Alive strings per gadget, keyed in plan order."""
        names = self.artifact.formula.names
        variables = enumerate(zip(self.var_bottom, self.var_top))
        return {
            "variables": {names[v]: bot.alive + top.alive for v, (bot, top) in variables},
            "wires": {str(w.index): w.bottom.alive + w.top.alive for w in self.wires},
            "clauses": {key: rope.alive for key, rope in self.clause_rope.items()},
            "pad": self.pad.alive if self.pad is not None else 0,
        }

    def _induced_assignment(self) -> tuple[bool | None, ...]:
        out = []
        for bot, top in zip(self.var_bottom, self.var_top):
            if bot.alive and top.alive:
                out.append(None)
            elif top.alive:
                out.append(False)  # bottom cut
            else:
                out.append(True)  # top cut
        return tuple(out)

    def satisfied(self, key: str, assignment: tuple[bool | None, ...]) -> bool:
        """Whether ``assignment`` sets every variable of clause ``key``
        true.  ``key`` names a real or a singleton clause; callers test
        for the empty clause first."""
        kind, _, idx = key.partition(":")
        if kind == "real":
            return all(assignment[v] is True for v in self.artifact.formula.clauses[int(idx)])
        return assignment[int(idx)] is True


def is_fallon_terminal(census: dict) -> bool:
    return (
        all(v == 1 for v in census["variables"].values())
        and all(v == 1 for v in census["wires"].values())
        and all(v == 0 for v in census["clauses"].values())
    )


def is_trudy_terminal(census: dict) -> bool:
    clause_counts = sorted(census["clauses"].values())
    return (
        all(v == 1 for v in census["variables"].values())
        and all(v == 1 for v in census["wires"].values())
        and clause_counts[:-1] == [0] * (len(clause_counts) - 1)
        and clause_counts[-1] == 1
    )


class Policy:
    """Interface: reset before a playout with the playout's tracker
    (which carries the artifact and the live board, and has already seen
    each cut when ``observe`` runs), observe the cuts by either player,
    choose a legal string id when it is this policy's turn, and say
    whether it is ``steady``.  ``observe`` sees every cut of a playout
    only if one of its two policies is never steady: cuts that
    ``playout`` fast-forwards are passed to neither policy."""

    name = "policy"
    phase: int | str = "-"

    def reset(self, tracker: ArtifactTracker, seat: Player, seed: int) -> None:
        raise NotImplementedError

    def observe(self, sid: int, mine: bool) -> None:
        pass

    def choose(self) -> int:
        raise NotImplementedError

    def steady(self, other_rope: _Rope | None) -> bool:
        """Whether this policy's next choices are the lowest alive
        string of the rope it cut last, round after round, while the
        opponent cuts ``other_rope`` from its lowest alive string up,
        until a rope is first cut or emptied or a coin falls to degree 1.
        While both policies say so, ``playout`` applies whole rounds at
        once and passes their cuts to neither ``choose`` nor
        ``observe``; a policy that must see every cut keeps the default,
        False."""
        return False


def _live(wires) -> tuple[_Wire, ...]:
    """The wires whose bottom rope still holds a string."""
    return tuple(w for w in wires if w.bottom.alive)


def _by_top_alive(w: _Wire) -> tuple[int, int]:
    return w.top.alive, w.index


def _fallon_class(t: ArtifactTracker, w: _Wire, assignment) -> str:
    """Fallon's class of a wire.  Level 1: from a true variable, good
    into a real clause and bad into its singleton; from any other
    variable, neutral.  Level 2: into the empty clause, empty; into a
    clause with no level-1 wires, danger (activation alone would let it
    survive); otherwise good."""
    if w.level == 1:
        if assignment[w.source_var] is not True:
            return "l1_neutral"
        return "l1_good" if w.target.startswith("real:") else "l1_bad"
    if w.target == "empty":
        return "l2_empty"
    return "l2_good" if t.clause_wires[w.target][0].level == 1 else "l2_danger"


def _trudy_threat(t: ArtifactTracker, w: _Wire, assignment) -> bool:
    """Trudy's threat rule: a level-2 wire into the empty clause, or
    into a satisfied clause that is not yet doomed.  An HP-greedy
    attacker on Trudy chews through these."""
    return w.level == 2 and (
        w.target == "empty" or (t.satisfied(w.target, assignment) and w.target not in t.doomed)
    )


class UniformRandom(Policy):
    """Uniform choice among legal strings.  Keeps a candidate pool with
    lazy swap-removal; Lava illegality is monotone, so every discarded
    candidate is gone for good and the pool stays a superset of the
    legal set."""

    name = "random"

    def reset(self, tracker, seat, seed):
        self.live = tracker.live
        self.rng = random.Random(f"{seed}/{seat.value}")
        self.pool = list(range(self.live.board.string_count))

    def choose(self) -> int:
        pool, getrandbits = self.pool, self.rng.getrandbits
        alive, frozen = self.live.alive, self.live.frozen
        while True:
            # Draw the index as ``randrange(len(pool))`` does, inline.
            n = len(pool)
            k = n.bit_length()
            idx = getrandbits(k)
            while idx >= n:
                if not n:
                    raise StrategyError("asked to move with no legal cut available")
                idx = getrandbits(k)
            sid = pool[idx]
            if alive[sid] and not frozen[sid]:
                return sid
            pool[idx] = pool[-1]
            pool.pop()


class _TrackedPolicy(Policy):
    """Shared machinery of the policies that read the tracker: the
    greedy attacker and both scripts.

    Each keeps the wire lists it reads as tuples that depend only on
    which ropes are empty and which are whole.  ``choose`` compares its
    ``epoch`` with the tracker's and, when it has moved since the last
    rebuild, calls ``_sync``, which has ``_refresh`` rebuild them.
    Cleanup cuts the
    lowest-id legal string whose rope is not in ``protected``, and a
    protected string only once no other cut is left."""

    def __init__(self, artifact: ReductionArtifact):
        self.artifact = artifact

    def reset(self, tracker, seat, seed):
        self.live = tracker.live
        self.tracker = tracker
        self.scan_at = 0
        self.deferred: list[int] = []
        self.protected: frozenset[_Rope] = frozenset()
        self.epoch = -1

    def _sync(self) -> None:
        self.epoch = self.tracker.epoch
        self._refresh()

    def _refresh(self) -> None:
        raise NotImplementedError

    def steady(self, other_rope):
        """Steady while the epoch has not moved since the last choice.

        A script in phase 1 is never steady: its last cut came from the
        variable stage (any other stage, or cleanup, ends phase 1), and
        a variable rope holds one string, so that cut moved the epoch.
        Within an epoch every stage and cleanup keep choosing the same
        rope, as the settling rule in ``_ScriptBase`` says, except where
        wires are sorted by rope counts.  Greedy's lowest-HP bottom and
        Trudy's lowest pumped top keep their lead: the lead loses at
        least its own string per round and a rival wire at most the one
        the opponent cuts, so the gap between them never closes.
        Fallon's sorts of the danger wires by their tops can be
        overtaken, and ``FallonScript.steady`` rules that case out."""
        return self.epoch == self.tracker.epoch

    def _cleanup_move(self) -> int:
        alive, frozen = self.live.alive, self.live.frozen
        rope_of, protected = self.tracker.rope_of, self.protected
        total = len(alive)
        sid = self.scan_at
        rope = rope_of[sid] if sid < total else None
        if rope is not None and rope.cursor > sid:
            # Every string of a rope below its cursor is dead.
            sid = rope.cursor
        while sid < total:
            # Lava legality is monotone, so a skipped string never
            # becomes cuttable later.
            if alive[sid] and not frozen[sid]:
                if rope_of[sid] not in protected:
                    self.scan_at = sid
                    return sid
                self.deferred.append(sid)
            sid += 1
        self.scan_at = sid
        for sid in self.deferred:
            if alive[sid] and not frozen[sid]:
                return sid  # forced: only protected cuts remain
        raise StrategyError("asked to move with no legal cut available")


class GreedyDisabler(_TrackedPolicy):
    """Adversarial baseline: always cuts the lowest-id legal string in
    the lowest-HP non-empty bottom rope among the wires the targeted
    script counts as good, stressing its HP-majority invariants.  Those
    are Fallon's good wires, or Trudy's threats plus the level-1 wires
    into the first satisfied real clause and its variables' singletons
    (the script picks its clause by margin instead).  Falls back to
    cleanup, with nothing protected."""

    name = "greedy"

    def __init__(self, artifact: ReductionArtifact, target_side: Mover):
        super().__init__(artifact)
        self.target_side = target_side

    def _refresh(self):
        """Keep the target script's good wires that are not yet disabled."""
        t = self.tracker
        assignment = t.assignment
        if self.target_side is Mover.FALLON:
            goods = (w for w in t.wires if _fallon_class(t, w, assignment) in ("l1_good", "l2_good"))
        else:
            f = self.artifact.formula
            sat = (i for i, c in enumerate(f.clauses) if all(assignment[v] is True for v in c))
            c_idx = next(sat, None)
            # Level-1 wires run only from a clause's own variables.
            targets = set()
            if c_idx is not None:
                targets = {f"real:{c_idx}", *(f"singleton:{v}" for v in f.clauses[c_idx])}
            goods = (
                w
                for w in t.wires
                if (w.target in targets if w.level == 1 else _trudy_threat(t, w, assignment))
            )
        self.goods = _live(goods)

    def choose(self) -> int:
        if self.epoch != self.tracker.epoch:
            self._sync()
        live = self.live
        best, best_hp = None, None
        # The goods are in wire order, so the lowest id wins a tie in HP.
        for w in self.goods:
            hp = w.bottom.alive
            if best_hp is None or hp < best_hp:
                sid = w.bottom.lowest_legal(live)
                if sid is not None:
                    best, best_hp = sid, hp
        return best if best is not None else self._cleanup_move()


class _ScriptBase(_TrackedPolicy):
    """Shared waterfall machinery for the two scripts.

    ``stages`` is the waterfall: (phase, function) pairs in priority
    order, kept on the class so that an instance holds no reference to
    itself.  The variable stage runs only in phase 1: the assignment is
    monotone, and the first move after every variable is set leaves
    phase 1 for good.  From then on each move first brings the script's
    wire lists up to the tracker's epoch.

    A stage that returns None keeps returning None until the epoch
    moves: its wire tuples are fixed between refreshes, which
    wires are pumped changes only with a top rope's first cut,
    every rope's ``alive`` only falls, ``frozen`` never clears, and a
    wounded bottom rope never heals.  So the stages still worth asking
    in this epoch are a suffix of ``stages``, from the monotone cursor
    ``stage_at``: every refresh resets it to 0, and a stage that returns
    None moves it past itself."""

    side: Mover
    stages: tuple = ()

    def reset(self, tracker, seat, seed):
        super().reset(tracker, seat, seed)
        self.phase = 1

    # -- phase 1 ------------------------------------------------------
    def _variable_move(self) -> int | None:
        t = self.tracker
        assignment = t.assignment
        if None not in assignment:
            return None
        move = winning_set_move(self.artifact.formula, assignment, self.side)
        if move is None:
            move = self._fallback_set(assignment)
        v, value = move
        rope = t.var_top[v] if value else t.var_bottom[v]
        # The top string of an unset variable is frozen once every
        # level-1 wire of the variable is disabled; its bottom string is
        # always legal.
        sid = rope.lowest_legal(self.live)
        return sid if sid is not None else t.var_bottom[v].lowest_legal(self.live)

    def _fallback_set(self, assignment) -> tuple[int, bool]:
        raise NotImplementedError

    # -- generic helpers ----------------------------------------------
    def _disable_first(self, wires: Sequence[_Wire]) -> int | None:
        live = self.live
        for w in wires:
            if w.bottom.alive:
                sid = w.bottom.lowest_legal(live)
                if sid is not None:
                    return sid
        return None

    def _activate_first(self, wires: Sequence[_Wire]) -> int | None:
        live = self.live
        for w in wires:
            if w.bottom.alive and w.top.alive:
                sid = w.top.lowest_legal(live)
                if sid is not None:
                    return sid
        return None

    def _sync(self) -> None:
        super()._sync()
        self.stage_at = 0

    def choose(self) -> int:
        if self.phase == 1:
            sid = self._variable_move()
            if sid is not None:
                return sid
        if self.epoch != self.tracker.epoch:
            self._sync()
        stages = self.stages
        while self.stage_at < len(stages):
            stage_phase, stage = stages[self.stage_at]
            sid = stage(self)
            if sid is not None:
                if stage_phase > self.phase:
                    self.phase = stage_phase
                return sid
            self.stage_at += 1
        self.phase = 4
        return self._cleanup_move()


class FallonScript(_ScriptBase):
    """Play for the formula-false side: doom every clause.

    By ``_fallon_class`` over the final assignment: disable the level-1
    bads, then the neutrals and all but the lowest good wire of each
    true variable.  At level 2, disable the danger wires (with racing
    priority, ahead of the level-1 neutrals, once pumped) and the
    empty-clause wires.  Cleanup does the rest, clause ropes included.

    Each wire is classed once per playout, at the first refresh; every
    refresh keeps the wires of each class that are not yet disabled.
    """

    name = "fallon-script"
    side = Mover.FALLON

    def _fallback_set(self, assignment):
        return assignment.index(None), False

    def reset(self, tracker, seat, seed):
        super().reset(tracker, seat, seed)
        self.classes: defaultdict[str, list[_Wire]] | None = None
        self.raced: _Rope | None = None

    def steady(self, other_rope):
        """Also False while the last cut came from a sort of the danger
        wires by their tops and ``other_rope`` is the top of another
        danger wire: the opponent's cuts there can move that wire ahead
        of the one being disabled.  ``raced`` is set exactly then: each
        call of a racing stage sets it, to None when it finds no cut,
        and every refresh clears it.  A danger top that the opponent
        cuts is pumped, so ``l2_danger`` covers both sorts."""
        if self.epoch != self.tracker.epoch:
            return False
        raced = self.raced
        return raced is None or not any(w.top is other_rope and w.bottom is not raced for w in self.l2_danger)

    def _refresh(self):
        t = self.tracker
        self.raced = None
        classes = self.classes
        if classes is None:
            # The variables are all set by now, so the assignment, and
            # with it every wire's class, is final.
            assignment = t.assignment
            classes = self.classes = defaultdict(list)
            for w in t.wires:
                classes[_fallon_class(t, w, assignment)].append(w)
        # The layout lists each variable's level-1 wires together, so a
        # variable's keeper is its first good wire in wire order.
        keepers: list[_Wire] = []
        surplus: list[_Wire] = []
        for w in _live(classes["l1_good"]):
            same_var = keepers and keepers[-1].source_var == w.source_var
            (surplus if same_var else keepers).append(w)
        self.l1_rest = _live(classes["l1_neutral"]) + tuple(surplus)
        self.l1_bad = _live(classes["l1_bad"])
        self.l2_empty = _live(classes["l2_empty"])
        self.l2_danger = _live(classes["l2_danger"])

    def _race(self, danger) -> int | None:
        """Disable the first of ``danger`` by ``_by_top_alive``, and keep
        its bottom rope in ``raced`` (None if there is no such cut) for
        ``steady``."""
        sid = self._disable_first(sorted(danger, key=_by_top_alive))
        self.raced = None if sid is None else self.tracker.rope_of[sid]
        return sid

    def _l1_bads(self):
        return self._disable_first(self.l1_bad)

    def _danger_raced(self):
        # A pumped level-2 wire into a no-level-1 singleton is a race
        # the opponent can win; kill those bottoms before anything else.
        return self._race([w for w in self.l2_danger if w.top.alive < w.top.width])

    def _l1_rest(self):
        return self._disable_first(self.l1_rest)

    def _l2_bads(self):
        sid = self._race(self.l2_danger)
        if sid is not None:
            return sid
        return self._disable_first(self.l2_empty)

    stages = (
        (2, _l1_bads),
        (3, _danger_raced),
        (2, _l1_rest),
        (3, _l2_bads),
    )


class TrudyScript(_ScriptBase):
    """Play for the formula-true side: walk one clause to survival.

    A clause survives iff its rope outlives every incident top rope,
    and a wire whose top rope empties first has its bottom frozen at
    one string, beyond disabling.  So the script sets variables to
    satisfy the formula, picks the satisfied not-yet-doomed clause
    whose activation is best covered (judged against an HP-greedy
    attacker: total bottom strings such an attacker chews through
    before reaching the clause's level-2 wire, minus the tops still to
    pump), and empties that clause's top ropes.  Each empty-clause wire
    is wounded by one string first, pulling HP-ordered attackers onto
    those long sacrificial ropes before any candidate wire.  Cleanup
    does the rest, keeping the bottoms of the chosen clause's live wires
    to the last.
    """

    name = "trudy-script"
    side = Mover.TRUDY

    def _fallback_set(self, assignment):
        f = self.artifact.formula
        for clause in f.clauses:
            if all(assignment[v] is not False for v in clause):
                for v in sorted(clause):
                    if assignment[v] is None:
                        return v, True
        return assignment.index(None), True

    def reset(self, tracker, seat, seed):
        super().reset(tracker, seat, seed)
        self.c_prime: str | None = None
        self.picked = False
        self.wound_targets = tuple(
            w for w in tracker.wires if w.level == 2 and w.target == "empty" and w.bottom.width >= 2
        )

    def _refresh(self):
        """Pick c' once, and again only when it is doomed, then rebuild
        the lists that hang on c' and on the dooms."""
        t = self.tracker
        # The assignment is final by now and the dooms only grow, so the
        # candidates only shrink: a c' that is not doomed is still the
        # pick, and a None c' stays None.
        if not self.picked or self.c_prime in t.doomed:
            self.picked = True
            assignment = t.assignment
            threats = tuple(u for u in _live(t.wires) if _trudy_threat(t, u, assignment))
            self.c_prime = max(
                self._candidates(), key=lambda k: (self._margin(k, threats), k), default=None
            )
        mine = t.clause_wires[self.c_prime] if self.c_prime is not None else ()
        # Cleanup keeps the bottoms of the live wires of c' to the last.
        self.protected = frozenset(w.bottom for w in mine if w.bottom.alive)
        # c' is fully activated once no wire is left to pump.
        self.to_pump = tuple(w for w in mine if w.bottom.alive and w.top.alive)

    # -- candidate bookkeeping ------------------------------------------
    def _candidates(self) -> list[str]:
        t = self.tracker
        assignment = t.assignment
        return [
            k for k in t.clause_keys if k != "empty" and k not in t.doomed and t.satisfied(k, assignment)
        ]

    def _margin(self, key: str, threats: Sequence[_Wire]) -> int:
        t = self.tracker
        # The layout gives a real or singleton clause one level-2 wire, and
        # a candidate is not doomed, so that wire is not disabled.
        w = next(u for u in t.clause_wires[key] if u.level == 2)
        distance = sum(
            u.bottom.alive for u in threats if u is not w and (u.bottom.alive, u.index) < (w.bottom.alive, w.index)
        )
        work = sum(u.top.alive for u in t.clause_wires[key] if u.bottom.alive)
        return distance - work

    def _wounds(self):
        for w in self.wound_targets:
            if w.bottom.alive == w.bottom.width:
                sid = w.bottom.lowest_legal(self.live)
                if sid is not None:
                    return sid
        return None

    def _pump(self):
        return self._activate_first(sorted(self.to_pump, key=_by_top_alive))

    stages = (
        (2, _wounds),
        (2, _pump),
    )


@dataclass
class PlayoutRecord:
    """One finished playout.  ``cuts[k]`` is the string cut at ply
    k + 1 and ``phases[k]`` its mover's ``phase`` right after the cut;
    ``labels`` are the board's.  P1 moves first and every Lava cut
    passes the turn, so the odd plies are P1's and the even ones P2's.

    ``lines`` formats the transcript from these on demand, one line per
    ply: ``ply <k> <seat> cut <sid> # <label> phase=<phase>``, with
    ``-`` for a string without a label (every string of a board read
    from text).  ``transcript_text`` joins the lines."""

    winner: Player
    stuck: Player
    cuts: list[int]
    phases: list[int | str]
    labels: tuple[str | None, ...]
    census: dict
    policy_names: tuple[str, str]

    @property
    def plies(self) -> int:
        return len(self.cuts)

    @property
    def lines(self) -> list[str]:
        labels, cuts = self.labels, self.cuts
        if labels:
            shown = ["-" if labels[sid] is None else labels[sid] for sid in cuts]
        else:
            shown = ["-"] * len(cuts)
        seats = (Player.P2.value, Player.P1.value)
        return [
            f"ply {k} {seats[k & 1]} cut {sid} # {label} phase={phase}"
            for k, (sid, label, phase) in enumerate(zip(cuts, shown, self.phases), start=1)
        ]

    def transcript_text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def summary(self) -> dict:
        return {
            "winner": self.winner.value,
            "stuck": self.stuck.value,
            "plies": self.plies,
            "p1": self.policy_names[0],
            "p2": self.policy_names[1],
            "census": self.census,
        }


def playout(
    artifact: ReductionArtifact,
    policy_p1: Policy,
    policy_p2: Policy,
    seed: int = 0,
) -> PlayoutRecord:
    """Run one Coins-are-Lava game to the end; deterministic given the
    seed and the policies.  Raises StrategyError if a policy emits an
    illegal move (a test failure signal, never auto-corrected)."""
    live = LiveBoard(artifact.graph, GameKind.COINS_ARE_LAVA, Player.P1)
    tracker = ArtifactTracker(artifact, live)
    policy_p1.reset(tracker, Player.P1, seed)
    policy_p2.reset(tracker, Player.P2, seed)
    choose_p1, observe_p1 = policy_p1.choose, policy_p1.observe
    choose_p2, observe_p2 = policy_p2.choose, policy_p2.observe
    steady_p1, steady_p2 = policy_p1.steady, policy_p2.steady
    # A policy that keeps the default ``steady`` is never steady, and
    # then no ply needs to ask.
    bulk = Policy.steady not in (type(policy_p1).steady, type(policy_p2).steady)
    cut, track = live.cut, tracker.observe
    cut_run, track_run, rope_of = live.cut_run, tracker.observe_run, tracker.rope_of
    p1 = Player.P1
    cuts: list[int] = []
    phases: list[int | str] = []
    add_cut, add_phase = cuts.append, phases.append
    # A Lava board has a legal move exactly while legal_count is positive.
    while live.legal_count:
        p1_moved = live.mover is p1
        if p1_moved:
            policy, sid = policy_p1, choose_p1()
        else:
            policy, sid = policy_p2, choose_p2()
        try:
            cut(sid)
        except IllegalMove:
            raise StrategyError(
                f"policy {policy.name} at seat {live.mover.value} chose illegal string {sid}"
            ) from None
        track(sid)
        add_cut(sid)
        add_phase(policy.phase)
        observe_p1(sid, p1_moved)
        observe_p2(sid, not p1_moved)
        # While both policies are steady, the next mover cuts ``theirs``
        # (the rope of its last cut) and this one ``mine``, round after
        # round: play the rounds up to the next event at once.
        if not bulk:
            continue
        mine = rope_of[sid]
        if len(cuts) < 2 or not (steady_p2 if p1_moved else steady_p1)(mine):
            continue
        theirs = rope_of[cuts[-2]]
        if not (steady_p1 if p1_moved else steady_p2)(theirs):
            continue
        k = tracker.run_room(theirs, mine)
        if k:
            k = min(k, live.run_room(theirs.start, mine.start))
        if not k:
            continue
        # A steady policy cuts the lowest alive string of its rope, so
        # under two of them each rope's alive strings are
        # [stop - alive, stop).
        a = theirs.stop - theirs.alive
        if theirs is mine:
            cut_run(a, 2 * k)
            track_run(a, 2 * k)
            cuts += range(a, a + 2 * k)
        else:
            b = mine.stop - mine.alive
            cut_run(a, k)
            cut_run(b, k)
            track_run(a, k)
            track_run(b, k)
            run = [a] * (2 * k)
            run[::2] = range(a, a + k)
            run[1::2] = range(b, b + k)
            cuts += run
        phases += [(policy_p2 if p1_moved else policy_p1).phase, policy.phase] * k
    stuck = live.mover
    return PlayoutRecord(
        winner=stuck.other,
        stuck=stuck,
        cuts=cuts,
        phases=phases,
        labels=artifact.graph.labels,
        census=tracker.census(),
        policy_names=(policy_p1.name, policy_p2.name),
    )


def script_for(side: Mover, artifact: ReductionArtifact) -> Policy:
    return TrudyScript(artifact) if side is Mover.TRUDY else FallonScript(artifact)
