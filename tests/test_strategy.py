"""Scripted players and seeded playouts on compiled Lava boards."""

import pytest
from hypothesis import given, settings, strategies as st

from coingames.engine import Player
from coingames.errors import StrategyError
from coingames.gamesat import Mover, parse_dnf
from coingames.reduce import compile_gamesat_to_lava
from coingames.strategy import (
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


MAJORITY = "x1 x2\nx1 x3\nx2 x3"


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
    art, side = hero_and_artifact(MAJORITY, Mover.TRUDY)
    p1, p2, hero = seat_policies(art, side, script_for(side.other, art))
    record = playout(art, p1, p2, seed=0)
    assert record.plies == len(record.lines)
    last_phase = {"P1": 0, "P2": 0}
    for k, line in enumerate(record.lines, start=1):
        parts = line.split()
        assert parts[0] == "ply" and int(parts[1]) == k
        seat = parts[2]
        assert parts[3] == "cut"
        phase_text = line.rsplit("phase=", 1)[1]
        if phase_text != "-":
            phase = int(phase_text)
            assert phase >= last_phase[seat]
            last_phase[seat] = phase
    assert record.transcript_text().endswith("phase=" + phase_text + "\n")


def test_playout_rejects_illegal_policy_moves():
    class Stubborn(Policy):
        name = "stubborn"

        def reset(self, tracker, seat, seed):
            pass

        def choose(self):
            return 5

    art, side = hero_and_artifact("x1 x2", Mover.FALLON)
    p1 = Stubborn()
    p2 = script_for(side, art) if art.player_for(side) is Player.P2 else UniformRandom()
    with pytest.raises(StrategyError):
        playout(art, p1, p2, seed=0)


def test_playout_ply_cap():
    art, side = hero_and_artifact("x1 x2", Mover.FALLON)
    p1, p2, _ = seat_policies(art, side, UniformRandom())
    with pytest.raises(StrategyError):
        playout(art, p1, p2, seed=0, max_plies=1)


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
