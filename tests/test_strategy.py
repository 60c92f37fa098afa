"""Scripted players and seeded playouts on compiled Lava boards."""

import hashlib
import random
import re
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from coingames.engine import GameKind, LiveBoard, Player
from coingames.errors import StrategyError
from coingames.gamesat import Mover, parse_dnf
from coingames.multigraph import Multigraph, canonical_text, parse_text
from coingames.reduce import compile_gamesat_to_lava
from coingames.strategy import (
    ArtifactTracker,
    FallonScript,
    GreedyDisabler,
    Policy,
    TrudyScript,
    UniformRandom,
    is_fallon_terminal,
    is_trudy_terminal,
    playout,
    script_for,
)
from coingames.verify import random_formula


MAJORITY = "x1 x2\nx1 x3\nx2 x3"


def _legal(live) -> list[int]:
    # A playout's board is a Lava board: an alive string is legal unless
    # frozen.
    return [sid for sid, alive in enumerate(live.alive) if alive and not live.frozen[sid]]


def compiled(text: str, first: Mover):
    return compile_gamesat_to_lava(parse_dnf(text), 2, first)


def hero_and_artifact(text: str, first: Mover):
    art = compiled(text, first)
    side = Mover.TRUDY if art.predicted["gamesat_value"] == "TrudyWins" else Mover.FALLON
    return art, side


def seat_policies(art, side, opponent):
    hero = script_for(side, art)
    seats = {art.player_for(side): hero, art.player_for(side.other): opponent}
    return seats[Player.P1], seats[Player.P2], hero


def test_script_for_picks_the_matching_class():
    art = compiled(MAJORITY, Mover.TRUDY)
    assert isinstance(script_for(Mover.TRUDY, art), TrudyScript)
    assert isinstance(script_for(Mover.FALLON, art), FallonScript)


def test_census_predicates():
    fallon = {
        "variables": {"x1": 1, "x2": 1},
        "wires": {"0": 1, "1": 1},
        "clauses": {"real:0": 0, "empty": 0},
        "pad": 0,
    }
    assert is_fallon_terminal(fallon)
    assert not is_trudy_terminal(fallon)
    trudy = dict(fallon, clauses={"real:0": 1, "empty": 0})
    assert is_trudy_terminal(trudy)
    assert not is_fallon_terminal(trudy)


def test_playout_is_deterministic():
    art, side = hero_and_artifact(MAJORITY, Mover.TRUDY)
    records = []
    for _ in range(2):
        p1, p2, _ = seat_policies(art, side, UniformRandom())
        records.append(playout(art, p1, p2, seed=7))
    a, b = records
    assert a.lines == b.lines
    assert a.winner is b.winner
    assert a.census == b.census


def test_playout_seed_changes_random_lines():
    art, side = hero_and_artifact(MAJORITY, Mover.TRUDY)
    p1, p2, _ = seat_policies(art, side, UniformRandom())
    a = playout(art, p1, p2, seed=1)
    p1, p2, _ = seat_policies(art, side, UniformRandom())
    b = playout(art, p1, p2, seed=2)
    assert a.lines != b.lines


@pytest.mark.parametrize("text", ["x1 x2", MAJORITY])
@pytest.mark.parametrize("first", list(Mover))
@pytest.mark.parametrize("opponent", ["random", "greedy", "script"])
def test_predicted_winner_wins_each_matchup(text, first, opponent):
    art, side = hero_and_artifact(text, first)
    for seed in range(3):
        if opponent == "random":
            opp: Policy = UniformRandom()
        elif opponent == "greedy":
            opp = GreedyDisabler(art, side)
        else:
            opp = script_for(side.other, art)
        p1, p2, hero = seat_policies(art, side, opp)
        record = playout(art, p1, p2, seed=seed)
        assert record.winner is art.player_for(side)
        assert record.stuck is art.player_for(side.other)
        if side is Mover.TRUDY:
            assert is_trudy_terminal(record.census)
        else:
            assert is_fallon_terminal(record.census)


def test_transcript_format_and_phase_monotonicity():
    """On 36 fixture playouts (both fixtures and first movers, the
    winner's script against each opponent, seeds 0-2), the seats
    alternate P1, P2, ... by ply and each seat's numeric phase never
    falls."""
    for text in ("x1 x2", MAJORITY):
        for first in Mover:
            art, side = hero_and_artifact(text, first)
            for seed in range(3):
                for opp in (UniformRandom(), GreedyDisabler(art, side), script_for(side.other, art)):
                    p1, p2, _ = seat_policies(art, side, opp)
                    record = playout(art, p1, p2, seed=seed)
                    assert record.plies == len(record.lines) > 0
                    last_phase = {"P1": 0, "P2": 0}
                    for k, line in enumerate(record.lines, start=1):
                        parts = line.split()
                        assert parts[0] == "ply" and int(parts[1]) == k
                        seat = parts[2]
                        assert seat == ("P1" if k % 2 else "P2")
                        assert parts[3] == "cut"
                        phase_text = line.rsplit("phase=", 1)[1]
                        if phase_text != "-":
                            phase = int(phase_text)
                            assert phase >= last_phase[seat]
                            last_phase[seat] = phase
                    assert record.transcript_text().endswith("phase=" + phase_text + "\n")


def test_lines_are_the_transcript_text():
    art, side = hero_and_artifact(MAJORITY, Mover.FALLON)
    for opp in (UniformRandom(), GreedyDisabler(art, side), script_for(side.other, art)):
        p1, p2, _ = seat_policies(art, side, opp)
        record = playout(art, p1, p2, seed=4)
        assert record.lines == record.transcript_text().splitlines()
        assert record.plies == len(record.cuts) == len(record.phases) == len(record.lines)
        assert [int(line.split()[4]) for line in record.lines] == record.cuts


def test_a_board_read_from_text_prints_a_dash_on_every_ply():
    """A board read from text has no labels: the scripts play the same
    cuts on it, and every ply prints ``# -`` before its phase."""
    art, side = hero_and_artifact(MAJORITY, Mover.TRUDY)
    bare = replace(art, graph=parse_text(canonical_text(art.graph)))
    assert bare.graph.labels == ()
    records = []
    for a in (art, bare):
        p1, p2, _ = seat_policies(a, side, script_for(side.other, a))
        records.append(playout(a, p1, p2, seed=0))
    labelled, record = records
    assert record.cuts == labelled.cuts and record.phases == labelled.phases
    assert record.plies > 0
    for line in record.lines:
        assert re.fullmatch(r"ply \d+ P[12] cut \d+ # - phase=\d", line), line


def test_a_policy_without_phases_prints_a_dash():
    """Random and greedy play report no phase; the script's seat
    reports a numeric one on every ply."""
    art, side = hero_and_artifact("x1 x2", Mover.TRUDY)
    for opp in (UniformRandom(), GreedyDisabler(art, side)):
        p1, p2, _ = seat_policies(art, side, opp)
        record = playout(art, p1, p2, seed=2)
        theirs = art.player_for(side.other).value
        for line in record.lines:
            phase_text = line.rsplit(" phase=", 1)[1]
            assert (phase_text == "-") is (line.split()[2] == theirs), line


def test_transcript_prints_a_dash_for_no_label_only():
    """A string without a label prints ``-``; an empty label prints as
    itself, and a board read from text prints ``-`` on every ply."""
    art = compiled("x1 x2", Mover.TRUDY)
    g = art.graph
    kinds = (None, "", "wire")
    labelled = Multigraph(g.coin_count, g.strings, tuple(kinds[sid % 3] for sid in range(g.string_count)))
    for board, shown in ((labelled, ("-", "", "wire")), (parse_text(canonical_text(g)), ("-",) * 3)):
        record = playout(replace(art, graph=board), UniformRandom(), UniformRandom(), seed=3)
        assert record.plies > 0
        for line in record.lines:
            sid = int(line.split()[4])
            assert line.split(" # ", 1)[1] == f"{shown[sid % 3]} phase=-"


def test_playout_rejects_illegal_policy_moves():
    class Stubborn(Policy):
        """Plays lowest-id legal cuts until ``pick`` names a string."""

        name = "stubborn"

        def __init__(self, pick):
            self.pick = pick

        def reset(self, tracker, seat, seed):
            self.live = tracker.live

        def choose(self):
            sid = self.pick(self.live)
            return _legal(self.live)[0] if sid is None else sid

    def frozen(live):
        # Alive but Lava-illegal: cutting it would free a coin.
        return next((s for s, f in enumerate(live.frozen) if f and live.alive[s]), None)

    art, side = hero_and_artifact("x1 x2", Mover.FALLON)
    p2 = script_for(side, art) if art.player_for(side) is Player.P2 else UniformRandom()
    def wrapped(live):
        # Off the board, but a list index would wrap it to a legal string.
        return _legal(live)[0] - len(live.alive)

    # A dead string (5 is legal once, then cut), ids off the board, and
    # an alive string whose cut would free a coin.
    for pick in (lambda live: 5, lambda live: -1, wrapped, frozen):
        with pytest.raises(StrategyError, match="chose illegal string"):
            playout(art, Stubborn(pick), p2, seed=0)
    # The message names the policy, its seat and the string, at either seat.
    with pytest.raises(StrategyError) as err:
        playout(art, Stubborn(lambda live: 5), p2, seed=0)
    assert str(err.value) == "policy stubborn at seat P1 chose illegal string 5"
    with pytest.raises(StrategyError) as err:
        playout(art, UniformRandom(), Stubborn(lambda live: -1), seed=0)
    assert str(err.value) == "policy stubborn at seat P2 chose illegal string -1"


def test_script_sets_a_variable_whose_top_string_is_frozen():
    """Once both bottom strings of x2's only level-1 wire are cut, x2's
    top string is frozen; Trudy's script, which wants x2 true, sets it
    by its bottom string instead of picking the frozen one."""

    class WireCutter(Policy):
        """Cuts x2's level-1 wire bottom (strings 10 and 11), then the
        lowest-id legal string."""

        name = "wire-cutter"

        def reset(self, tracker, seat, seed):
            self.live = tracker.live
            self.first = [10, 11]

        def choose(self):
            return self.first.pop(0) if self.first else _legal(self.live)[0]

    art = compiled("x1 x2", Mover.FALLON)
    assert art.player_for(Mover.TRUDY) is Player.P2
    record = playout(art, WireCutter(), TrudyScript(art), seed=0)
    assert record.lines[3].startswith("ply 4 P2 cut 2 ")
    assert record.plies == len(record.lines)
    assert record.winner is record.stuck.other


# The winning seat, the ply count and the sha256 of transcript_text()
# (first 16 hex digits) at N=3, keyed by (formula, first mover, script,
# opponent, seed).  Any change to a policy, the tracker or LiveBoard
# that alters one cut, seat, label or phase shows in the digest; the
# outcome columns, checked first, show whether the game's result moved
# with it.
GOLDEN_FORMULAS = {"majority": MAJORITY, "x1x2": "x1 x2"}
GOLDEN_TRANSCRIPTS = {
    ("majority", "trudy", "trudy-script", "random", 1): ("P1", 2979, "85143e2d445eca25"),
    ("majority", "trudy", "trudy-script", "random", 2): ("P1", 2979, "b93411b770a5769e"),
    ("majority", "trudy", "trudy-script", "greedy", 1): ("P1", 2979, "3748446af24ca40e"),
    ("majority", "trudy", "trudy-script", "greedy", 2): ("P1", 2979, "3748446af24ca40e"),
    ("majority", "trudy", "trudy-script", "fallon-script", 1): ("P1", 2979, "f86ac1ce27bbaeaf"),
    ("majority", "trudy", "trudy-script", "fallon-script", 2): ("P1", 2979, "f86ac1ce27bbaeaf"),
    ("majority", "trudy", "fallon-script", "random", 1): ("P2", 2980, "ecbb080766b00189"),
    ("majority", "trudy", "fallon-script", "random", 2): ("P2", 2980, "f602732d1928a204"),
    ("majority", "trudy", "fallon-script", "greedy", 1): ("P2", 2980, "2fd4b42fe2e09f3d"),
    ("majority", "trudy", "fallon-script", "greedy", 2): ("P2", 2980, "2fd4b42fe2e09f3d"),
    ("majority", "fallon", "fallon-script", "random", 1): ("P1", 2981, "87e882c5b524943f"),
    ("majority", "fallon", "fallon-script", "random", 2): ("P1", 2981, "bb29282dbf2b7852"),
    ("majority", "fallon", "fallon-script", "greedy", 1): ("P1", 2981, "1822ef4bb63c131c"),
    ("majority", "fallon", "fallon-script", "greedy", 2): ("P1", 2981, "1822ef4bb63c131c"),
    ("majority", "fallon", "trudy-script", "fallon-script", 1): ("P1", 2981, "af12ec895283561e"),
    ("majority", "fallon", "trudy-script", "fallon-script", 2): ("P1", 2981, "af12ec895283561e"),
    ("majority", "fallon", "trudy-script", "random", 1): ("P2", 2980, "845fc80e658b83c5"),
    ("majority", "fallon", "trudy-script", "random", 2): ("P2", 2980, "75887af46be1fa06"),
    ("majority", "fallon", "trudy-script", "greedy", 1): ("P2", 2980, "f765f2beba20626b"),
    ("majority", "fallon", "trudy-script", "greedy", 2): ("P2", 2980, "f765f2beba20626b"),
    ("x1x2", "trudy", "fallon-script", "random", 1): ("P2", 1532, "e4501ad6de9833a0"),
    ("x1x2", "trudy", "fallon-script", "random", 2): ("P2", 1532, "4a8dd497b771c788"),
    ("x1x2", "trudy", "fallon-script", "greedy", 1): ("P2", 1532, "a5b7fdcd71bad39c"),
    ("x1x2", "trudy", "fallon-script", "greedy", 2): ("P2", 1532, "a5b7fdcd71bad39c"),
    ("x1x2", "trudy", "trudy-script", "fallon-script", 1): ("P2", 1532, "ee70b2210559b0af"),
    ("x1x2", "trudy", "trudy-script", "fallon-script", 2): ("P2", 1532, "ee70b2210559b0af"),
    ("x1x2", "trudy", "trudy-script", "random", 1): ("P1", 1531, "90a16c522a8ceaa7"),
    ("x1x2", "trudy", "trudy-script", "random", 2): ("P1", 1531, "405cf1dc825cde92"),
    ("x1x2", "trudy", "trudy-script", "greedy", 1): ("P1", 1531, "d763bb5bbdc5ca62"),
    ("x1x2", "trudy", "trudy-script", "greedy", 2): ("P1", 1531, "d763bb5bbdc5ca62"),
    ("x1x2", "fallon", "fallon-script", "random", 1): ("P1", 1531, "931ed9f1106e077c"),
    ("x1x2", "fallon", "fallon-script", "random", 2): ("P1", 1531, "973acaaf5c8a1f5e"),
    ("x1x2", "fallon", "fallon-script", "greedy", 1): ("P1", 1531, "77909fa48b5682b5"),
    ("x1x2", "fallon", "fallon-script", "greedy", 2): ("P1", 1531, "77909fa48b5682b5"),
    ("x1x2", "fallon", "trudy-script", "fallon-script", 1): ("P1", 1531, "d5630dea9685a88a"),
    ("x1x2", "fallon", "trudy-script", "fallon-script", 2): ("P1", 1531, "d5630dea9685a88a"),
    ("x1x2", "fallon", "trudy-script", "random", 1): ("P2", 1530, "2678a194f402f311"),
    ("x1x2", "fallon", "trudy-script", "random", 2): ("P2", 1530, "8287441366add839"),
    ("x1x2", "fallon", "trudy-script", "greedy", 1): ("P2", 1530, "6ac07d00b867e108"),
    ("x1x2", "fallon", "trudy-script", "greedy", 2): ("P2", 1530, "6ac07d00b867e108"),
}


@pytest.mark.parametrize(
    "key", sorted(GOLDEN_TRANSCRIPTS), ids=lambda key: "-".join(map(str, key))
)
def test_golden_transcripts(key):
    formula, first, script, opponent, seed = key
    art = compile_gamesat_to_lava(parse_dnf(GOLDEN_FORMULAS[formula]), 3, Mover(first))
    side = Mover.TRUDY if script == "trudy-script" else Mover.FALLON
    if opponent == "random":
        opp: Policy = UniformRandom()
    elif opponent == "greedy":
        opp = GreedyDisabler(art, side)
    else:
        opp = script_for(side.other, art)
    p1, p2, _ = seat_policies(art, side, opp)
    record = playout(art, p1, p2, seed=seed)
    winner, plies, golden = GOLDEN_TRANSCRIPTS[key]
    assert (record.winner.value, record.plies) == (winner, plies)
    assert hashlib.sha256(record.transcript_text().encode()).hexdigest()[:16] == golden


# sha256 of every transcript of a seeded sweep over random formulas at
# N=2: both first movers, each side's script against random, greedy and
# the opposing script (156 playouts).  The golden transcripts cover two
# fixtures; this covers the shapes random_formula makes.
SWEEP_DIGEST = "2c04b9c4bb1e4fa789888a72ac74b89ee1f38c725df7b7a9dd4157383569022b"


def test_script_sweep_transcripts_are_pinned():
    rng = random.Random(0)
    digest = hashlib.sha256()
    for seed in range(13):
        formula = random_formula(rng)
        for first in Mover:
            art = compile_gamesat_to_lava(formula, 2, first)
            for side in Mover:
                opponents = (UniformRandom(), GreedyDisabler(art, side), script_for(side.other, art))
                for opp in opponents:
                    p1, p2, _ = seat_policies(art, side, opp)
                    digest.update(playout(art, p1, p2, seed=seed).transcript_text().encode())
    assert digest.hexdigest() == SWEEP_DIGEST


# sha256 of every transcript on the two fixtures at N=3 and N=4 with
# Trudy first: each side's script against random, greedy and the
# opposing script at seed 1 (24 playouts, about 127,000 plies).  Long
# epochs on large boards are where a script's waterfall state lives
# longest; the N=2 sweep above barely reaches them.
LARGE_BOARD_DIGEST = "02528c47daed5700ad1bc6df510634f9b0a33be8b8eacf97b3eb1519c6646f8d"


def test_large_board_transcripts_are_pinned():
    digest = hashlib.sha256()
    for text in ("x1 x2", MAJORITY):
        for N in (3, 4):
            art = compile_gamesat_to_lava(parse_dnf(text), N, Mover.TRUDY)
            for side in Mover:
                opponents = (UniformRandom(), GreedyDisabler(art, side), script_for(side.other, art))
                for opp in opponents:
                    p1, p2, _ = seat_policies(art, side, opp)
                    digest.update(playout(art, p1, p2, seed=1).transcript_text().encode())
    assert digest.hexdigest() == LARGE_BOARD_DIGEST


def test_record_summary_fields():
    art, side = hero_and_artifact("x1 x2", Mover.FALLON)
    p1, p2, _ = seat_policies(art, side, UniformRandom())
    record = playout(art, p1, p2, seed=0)
    doc = record.summary()
    assert doc["winner"] in ("P1", "P2")
    assert doc["stuck"] in ("P1", "P2")
    assert doc["plies"] == record.plies
    assert {"variables", "wires", "clauses", "pad"} <= set(doc["census"])


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_random_vs_random_playouts_terminate(seed: int):
    """Property: unscripted play still ends with the loser stuck and no
    clause gadget ever fully drained below the variable floor."""
    art = compiled("x1 x2", Mover.FALLON)
    record = playout(art, UniformRandom(), UniformRandom(), seed=seed)
    assert record.winner is record.stuck.other
    assert record.plies <= art.graph.string_count
    # Lava floor: a variable gadget never loses both strings.
    assert all(v >= 1 for v in record.census["variables"].values())


def _recount(tracker):
    """Dooms, assignment and epoch, straight from the rope counters: the
    epoch counts each rope once when it is first cut and once when it
    is emptied."""
    t = tracker
    doomed = {
        key
        for key in t.clause_keys
        if t.clause_rope[key].alive == 0
        or any(w.bottom.alive == 0 for w in t.wires if w.target == key)
    }
    assignment = tuple(
        None if bot.alive and top.alive else top.alive == 0
        for bot, top in zip(t.var_bottom, t.var_top)
    )
    ropes = t.var_bottom + t.var_top + list(t.clause_rope.values())
    ropes += [r for w in t.wires for r in (w.bottom, w.top)]
    ropes += [t.pad] if t.pad is not None else []
    epoch = sum((r.alive < r.width) + (r.alive == 0) for r in ropes)
    return doomed, assignment, epoch


class _AuditedRandom(UniformRandom):
    """Random play that checks the tracker's stored facts after every
    ply (``observe`` runs once the tracker has seen the cut)."""

    def reset(self, tracker, seat, seed):
        super().reset(tracker, seat, seed)
        self.tracker = tracker
        self.plies = 0

    def observe(self, sid, mine):
        t = self.tracker
        stored = (t.doomed, t.assignment, t.epoch)
        assert stored == _recount(t)
        self.plies += 1


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    text=st.sampled_from(["x1 x2", MAJORITY]),
    first=st.sampled_from(list(Mover)),
    side=st.sampled_from(list(Mover)),
)
@settings(max_examples=12, deadline=None)
def test_tracker_keeps_dooms_assignment_and_epoch(seed, text, first, side):
    art = compiled(text, first)
    auditor = _AuditedRandom()
    p1, p2, _ = seat_policies(art, side, auditor)
    record = playout(art, p1, p2, seed=seed)
    assert auditor.plies == record.plies


def _settle_audited(script_class):
    """``script_class`` with its settling rule checked: ``_sync`` runs
    only once the epoch has moved, right after it the stage cursor is
    back at the first stage, and after every cut by either player each
    stage before the cursor is called again and still finds no move
    (``observe`` runs once the tracker has seen the cut, so a cut that
    moves the epoch is skipped until the refresh).  ``refreshes``
    counts the refreshes the audit saw: a script that refreshed without
    ``_sync`` would leave it at 0."""

    class Audited(script_class):
        def reset(self, tracker, seat, seed):
            super().reset(tracker, seat, seed)
            self.rechecked: dict[str, int] = {}
            self.refreshes = 0

        def _sync(self):
            assert self.epoch != self.tracker.epoch, "_sync called with the epoch unmoved"
            super()._sync()
            assert self.stage_at == 0
            self.refreshes += 1

        def observe(self, sid, mine):
            if self.epoch != self.tracker.epoch:
                return
            for _, stage in self.stages[: self.stage_at]:
                assert stage(self) is None, f"{stage.__name__} found a move in its dropped epoch"
                self.rechecked[stage.__name__] = self.rechecked.get(stage.__name__, 0) + 1

    return Audited


@pytest.mark.parametrize("N", [2, 3])
def test_dropped_stages_stay_settled_until_the_epoch_moves(N):
    audited = {Mover.TRUDY: _settle_audited(TrudyScript), Mover.FALLON: _settle_audited(FallonScript)}
    rechecked = {Mover.TRUDY: set(), Mover.FALLON: set()}
    for text in ("x1 x2", MAJORITY):
        for first in Mover:
            art = compile_gamesat_to_lava(parse_dnf(text), N, first)
            for side in Mover:
                for opp in (UniformRandom(), GreedyDisabler(art, side), audited[side.other](art)):
                    hero = audited[side](art)
                    seats = {art.player_for(side): hero, art.player_for(side.other): opp}
                    playout(art, seats[Player.P1], seats[Player.P2], seed=1)
                    rechecked[side] |= set(hero.rechecked)
                    # Every audited script saw its wire lists refreshed.
                    assert hero.refreshes > 0
                    assert getattr(opp, "refreshes", 1) > 0
    # Every stage was passed by the cursor and re-called somewhere.
    for side, script_class in ((Mover.TRUDY, TrudyScript), (Mover.FALLON, FallonScript)):
        assert rechecked[side] == {stage.__name__ for _, stage in script_class.stages}


def _pick_counted(script_class, picks: dict[str, int]):
    """``script_class`` with each stage wrapped to count, in ``picks``,
    the cuts it supplies (its non-None returns)."""

    def counted(stage):
        def wrapped(self):
            sid = stage(self)
            if sid is not None:
                picks[stage.__name__] += 1
            return sid

        return wrapped

    picks.update((stage.__name__, 0) for _, stage in script_class.stages)
    stages = tuple((phase, counted(stage)) for phase, stage in script_class.stages)
    return type(script_class.__name__, (script_class,), {"stages": stages})


def test_every_stage_picks_a_cut_in_seeded_play():
    """No stage is dead: over the playouts of the settling test above,
    every stage of both scripts supplies at least one cut."""
    picks = {Mover.TRUDY: {}, Mover.FALLON: {}}
    counted = {
        Mover.TRUDY: _pick_counted(TrudyScript, picks[Mover.TRUDY]),
        Mover.FALLON: _pick_counted(FallonScript, picks[Mover.FALLON]),
    }
    for N in (2, 3):
        for text in ("x1 x2", MAJORITY):
            for first in Mover:
                art = compile_gamesat_to_lava(parse_dnf(text), N, first)
                for side in Mover:
                    for opp in (UniformRandom(), GreedyDisabler(art, side), counted[side.other](art)):
                        seats = {art.player_for(side): counted[side](art), art.player_for(side.other): opp}
                        playout(art, seats[Player.P1], seats[Player.P2], seed=1)
    for side in Mover:
        assert picks[side] and all(picks[side].values()), (side, picks[side])


def _tracker(art) -> ArtifactTracker:
    return ArtifactTracker(art, LiveBoard(art.graph, GameKind.COINS_ARE_LAVA))


def test_the_tracker_refuses_a_string_it_has_already_seen():
    art = compiled(MAJORITY, Mover.TRUDY)
    tracker = _tracker(art)
    sid = next(p.top[0] for p in art.plan if p.kind == "variable")
    tracker.observe(sid)
    with pytest.raises(StrategyError, match=f"^tracker out of sync at string {sid}$"):
        tracker.observe(sid)


def test_cleanup_with_every_string_cut_has_no_move():
    art = compiled(MAJORITY, Mover.TRUDY)
    tracker = _tracker(art)
    tracker.live.alive[:] = [False] * art.graph.string_count
    policy = GreedyDisabler(art, Mover.TRUDY)
    policy.reset(tracker, Player.P1, seed=0)
    with pytest.raises(StrategyError, match="^asked to move with no legal cut available$"):
        policy._cleanup_move()


def _bare_live(n: int):
    """A board stand-in of ``n`` strings, all alive and none frozen."""
    return SimpleNamespace(board=SimpleNamespace(string_count=n), alive=[True] * n, frozen=[False] * n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 64, 65, 1000])
def test_uniform_random_draws_as_randrange(n):
    """``UniformRandom`` picks the index ``randrange`` picks from the
    same stream: on a pool of fixed size (1, powers of two, 2^k + 1 and
    others), and on a pool that shrinks as its picks die and are
    swap-removed when drawn again."""
    live = _bare_live(n)
    policy = UniformRandom()
    policy.reset(SimpleNamespace(live=live), Player.P2, seed=n)
    rng = random.Random(f"{n}/P2")
    assert [policy.choose() for _ in range(50)] == [rng.randrange(n) for _ in range(50)]
    pool = list(range(n))
    for _ in range(n):
        while True:
            idx = rng.randrange(len(pool))
            sid = pool[idx]
            if live.alive[sid]:
                break
            pool[idx] = pool[-1]
            pool.pop()
        assert policy.choose() == sid
        live.alive[sid] = False
    with pytest.raises(StrategyError, match="no legal cut"):
        policy.choose()
