"""Rule semantics for the three game kinds, plus the LiveBoard fast path."""

import random

import pytest
from hypothesis import given, strategies as st

from coingames.engine import (
    GameKind,
    GameState,
    LiveBoard,
    Player,
    apply_move,
    initial_state,
    is_terminal,
    legal_moves,
)
from coingames.errors import DegenerateInput, IllegalMove
from coingames.multigraph import GROUND, GraphBuilder
from coingames.verify import random_multigraph


def _legal(live) -> list[int]:
    """Alive strings, less the frozen ones in Coins-are-Lava."""
    lava = live.kind is GameKind.COINS_ARE_LAVA
    frozen = live.frozen
    return [sid for sid, alive in enumerate(live.alive) if alive and not (lava and frozen[sid])]


def two_chain():
    # ground - c0 - c1 - ground, three strings
    b = GraphBuilder()
    c0, c1 = b.add_coins(2)
    b.add_string(GROUND, c0)
    b.add_string(c0, c1)
    b.add_string(c1, GROUND)
    return b.build()


def test_player_other():
    assert Player.P1.other is Player.P2
    assert Player.P2.other is Player.P1


def test_initial_state_rejects_self_loop():
    b = GraphBuilder()
    c = b.add_coin()
    b.add_string(c, c)
    with pytest.raises(DegenerateInput):
        initial_state(b.build())
    with pytest.raises(DegenerateInput):
        LiveBoard(b.build(), GameKind.NIMSTRING)


def test_a_state_over_a_self_loop_board_is_refused():
    """Every function that takes a state relies on ``GameState`` itself
    refusing a coin-to-itself string; a ground-to-ground string frees
    nothing and is allowed."""
    b = GraphBuilder()
    c = b.add_coin()
    b.add_string(c, c)
    b.add_string(c, GROUND)
    with pytest.raises(DegenerateInput, match="^board has a self-loop; freeing semantics undefined$"):
        GameState(b.build(), frozenset({0, 1}))
    b = GraphBuilder()
    c = b.add_coin()
    b.add_string(GROUND, GROUND)
    b.add_string(c, GROUND)
    state = GameState(b.build(), frozenset({0, 1}))
    assert legal_moves(state, GameKind.NIMSTRING) == {0, 1}


def test_lava_forbids_freeing_cuts():
    g = two_chain()
    st0 = initial_state(g)
    # Every cut here keeps both coins at degree >= 1, so all are legal.
    assert legal_moves(st0, GameKind.COINS_ARE_LAVA) == {0, 1, 2}
    st1 = apply_move(st0, GameKind.COINS_ARE_LAVA, 1)
    # c0 and c1 are now pendant: their last strings would free them.
    assert legal_moves(st1, GameKind.COINS_ARE_LAVA) == set()
    with pytest.raises(IllegalMove):
        apply_move(st1, GameKind.COINS_ARE_LAVA, 0)
    out = is_terminal(st1, GameKind.COINS_ARE_LAVA)
    assert out is not None
    # P2 is stuck, so P1 wins.
    assert out.winner is Player.P1


@pytest.mark.parametrize("kind", list(GameKind))
def test_live_board_rejects_ids_off_the_board(kind):
    """A list index would wrap -1 to the last string; the board refuses
    it, and any id past the end, without changing anything."""
    live = LiveBoard(two_chain(), kind)
    for sid in (-1, -3, 3, 99):
        with pytest.raises(IllegalMove):
            live.cut(sid)
    assert live.alive == [True, True, True]
    assert live.mover is Player.P1


def test_sac_scoring_and_free_move():
    g = two_chain()
    st0 = initial_state(g)
    kind = GameKind.STRINGS_AND_COINS
    st1 = apply_move(st0, kind, 0)  # no coin freed, turn passes
    assert st1.mover is Player.P2
    assert st1.scores == (0, 0)
    st2 = apply_move(st1, kind, 1)  # frees c0: P2 scores and cuts again
    assert st2.mover is Player.P2
    assert st2.scores == (0, 1)
    st3 = apply_move(st2, kind, 2)  # frees c1
    assert st3.scores == (0, 2)
    out = is_terminal(st3, kind)
    assert out is not None
    assert out.winner is Player.P2
    assert out.scores == (0, 2)
    assert out.winner_text == "P2"


def test_sac_draw_outcome():
    # Two coins, each tied to ground twice: natural play splits them 1-1.
    b = GraphBuilder()
    c0, c1 = b.add_coins(2)
    b.add_rope(GROUND, c0, 2)
    b.add_rope(GROUND, c1, 2)
    g = b.build()
    kind = GameKind.STRINGS_AND_COINS
    s = initial_state(g)
    s = apply_move(s, kind, 0)  # P1; c0 now pendant
    s = apply_move(s, kind, 1)  # P2 frees c0, cuts again
    s = apply_move(s, kind, 2)  # P2; c1 now pendant
    s = apply_move(s, kind, 3)  # P1 frees c1
    out = is_terminal(s, kind)
    assert out is not None
    assert out.scores == (1, 1)
    assert out.winner is None
    assert out.winner_text == "Draw"


def test_nimstring_last_cut_loses_via_free_move():
    # One coin tied to ground twice: the player forced to free it is
    # left holding the extra move on an empty board.
    b = GraphBuilder()
    c = b.add_coin()
    b.add_rope(GROUND, c, 2)
    g = b.build()
    kind = GameKind.NIMSTRING
    s = initial_state(g)
    s = apply_move(s, kind, 0)
    assert s.mover is Player.P2
    s = apply_move(s, kind, 1)  # P2 frees the coin, keeps the move, is stuck
    assert s.mover is Player.P2
    out = is_terminal(s, kind)
    assert out.winner is Player.P1


def test_inert_degree_zero_coin_never_scores():
    b = GraphBuilder()
    b.add_coin()  # isolated
    c = b.add_coin()
    b.add_string(GROUND, c)
    g = b.build()
    kind = GameKind.STRINGS_AND_COINS
    s = apply_move(initial_state(g), kind, 0)
    out = is_terminal(s, kind)
    assert out.scores == (1, 0)


def test_lava_stuck_on_empty_board_loses():
    b = GraphBuilder()
    b.add_coin()
    g = b.build()
    out = is_terminal(initial_state(g), GameKind.COINS_ARE_LAVA)
    assert out is not None
    assert out.winner is Player.P2


def test_apply_move_rejects_dead_string():
    b = GraphBuilder(coin_count=3)
    for c in range(3):
        b.add_string(c, (c + 1) % 3)
    s = apply_move(initial_state(b.build()), GameKind.NIMSTRING, 0)
    with pytest.raises(IllegalMove):
        apply_move(s, GameKind.NIMSTRING, 0)


@given(
    seed=st.integers(min_value=0, max_value=3000),
    kind=st.sampled_from(list(GameKind)),
)
def test_live_board_matches_functional_engine(seed: int, kind: GameKind):
    """Property: LiveBoard and the bitmask kernel behind the immutable
    engine, two separate implementations of the rules, agree move for
    move on random playouts: legal sets, mover, scores, and outcome."""
    rng = random.Random(seed)
    g = random_multigraph(rng, rng.randint(1, 4), rng.randint(0, 8), 0.3)
    state = initial_state(g)
    live = LiveBoard(g, kind)
    while True:
        legal = legal_moves(state, kind)
        assert sorted(legal) == _legal(live)
        assert (live.legal_count if kind is GameKind.COINS_ARE_LAVA else live.alive_count) == len(legal)
        slow_out = is_terminal(state, kind)
        fast_out = live.outcome()
        if slow_out is None:
            assert fast_out is None
        else:
            assert fast_out is not None
            assert fast_out.winner == slow_out.winner
            if kind is GameKind.STRINGS_AND_COINS:
                assert fast_out.scores == slow_out.scores
            break
        sid = rng.choice(sorted(legal))
        state = apply_move(state, kind, sid)
        live.cut(sid)
        assert live.mover is state.mover
        if kind is GameKind.STRINGS_AND_COINS:
            assert tuple(live.scores) == state.scores


@given(seed=st.integers(min_value=0, max_value=3000))
def test_lava_illegality_is_monotone(seed: int):
    """Property: once a string is illegal in Coins-are-Lava it stays
    illegal for the rest of the game."""
    rng = random.Random(seed)
    g = random_multigraph(rng, rng.randint(1, 4), rng.randint(0, 8), 0.3)
    live = LiveBoard(g, GameKind.COINS_ARE_LAVA)
    ever_illegal: set[int] = set()
    while live.legal_count:
        for sid in range(g.string_count):
            if live.alive[sid] and live.frozen[sid]:
                ever_illegal.add(sid)
        legal = _legal(live)
        assert not ever_illegal.intersection(legal)
        live.cut(rng.choice(legal))


@given(seed=st.integers(min_value=0, max_value=3000))
def test_cut_frees_pendant_endpoints(seed: int):
    """Property: a cut frees, and scores, exactly the distinct coin
    endpoints at alive degree one."""
    rng = random.Random(seed)
    g = random_multigraph(rng, rng.randint(1, 4), rng.randint(0, 8), 0.3)
    live = LiveBoard(g, GameKind.STRINGS_AND_COINS)
    while live.alive_count:
        sid = rng.choice(_legal(live))
        expect = sum(
            1
            for c in set(g.strings[sid])
            if c != GROUND and live.degree[c] == 1
        )
        assert live.cut(sid) == expect
