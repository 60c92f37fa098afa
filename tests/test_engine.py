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


def _rope_board(rng: random.Random):
    """A board of 2-5 ropes, each a run of consecutive parallel strings
    between two of 3 coins or a coin and the ground: the board and each
    rope's (first id, width)."""
    b = GraphBuilder()
    coins = b.add_coins(3)
    ropes = []
    for _ in range(rng.randint(2, 5)):
        a, c = rng.sample([*coins, GROUND], 2)
        width = rng.randint(1, 7)
        ropes.append((b.add_rope(a, c, width)[0], width))
    return b.build(), ropes


def _snapshot(live):
    return (live.alive[:], live.degree[:], live.frozen[:], live.alive_count, live.legal_count, live.mover, live.scores[:])


@pytest.mark.parametrize("kind", list(GameKind))
def test_a_run_of_parallel_cuts_is_that_many_cuts(kind):
    """``run_room(a, b)`` counts the rounds (a cut parallel to ``a``,
    then one parallel to ``b``) that leave every endpoint at degree 2 or
    more: ``cut`` plays that many, or as many as the ropes hold, with no
    new freeze, and one round more brings a coin to degree 1.
    ``cut_run`` of the same cuts leaves the board, mover and scores as
    ``cut`` does, in any game."""
    rng = random.Random(kind.value)
    checked = 0
    for _ in range(200):
        g, ropes = _rope_board(rng)
        (sa, wa), (sb, wb) = rng.choice(ropes), rng.choice(ropes)
        per_ply, bulk = LiveBoard(g, kind), LiveBoard(g, kind)
        room = per_ply.run_room(sa, sb)
        # The strings each rope holds bound the rounds that can be cut.
        held = wa // 2 if sa == sb else min(wa, wb)
        k = min(room, held)
        frozen = per_ply.frozen[:]
        cuts = list(range(sa, sa + 2 * k)) if sa == sb else [s for i in range(k) for s in (sa + i, sb + i)]
        for sid in cuts:
            per_ply.cut(sid)
        ends = [c for c in g.strings[sa] + g.strings[sb] if c >= 0]
        if room < held:
            # One round more takes each endpoint's share off its degree.
            assert min(per_ply.degree[c] - ends.count(c) for c in ends) <= 1
        if not k:
            continue
        assert per_ply.frozen == frozen and min(per_ply.degree[c] for c in ends) >= 2
        checked += 1
        if sa == sb:
            bulk.cut_run(sa, 2 * k)
        else:
            bulk.cut_run(sa, k)
            bulk.cut_run(sb, k)
        assert _snapshot(bulk) == _snapshot(per_ply)
    assert checked > 40


def test_a_run_that_would_freeze_or_leave_its_rope_is_refused():
    """Rope A (ids 0-4) joins c0 to c1, rope B (ids 5-7) c1 to the
    ground.  Three rounds leave c0 and c1 at degree 2; a fourth cut of A
    would freeze c0's last string.  Runs past a rope's end, over a dead
    string, off the board or of no cuts are refused, the board
    untouched."""
    b = GraphBuilder()
    c0, c1 = b.add_coins(2)
    b.add_rope(c0, c1, 5)
    b.add_rope(c1, GROUND, 3)
    live = LiveBoard(b.build(), GameKind.COINS_ARE_LAVA)
    assert (live.run_room(0, 5), live.run_room(0, 0), live.run_room(5, 5)) == (3, 1, 3)
    before = _snapshot(live)
    for start, count in ((0, 4), (4, 2), (-1, 1), (6, 3), (0, 0)):
        with pytest.raises(IllegalMove):
            live.cut_run(start, count)
        assert _snapshot(live) == before
    live.cut_run(0, 3)
    live.cut_run(5, 3)
    assert live.mover is Player.P1 and live.degree[:2] == [2, 2] and live.run_room(3, 3) == 0
    with pytest.raises(IllegalMove):
        live.cut_run(2, 1)
