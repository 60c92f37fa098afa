"""Exact game values on small boards and solver/oracle agreement.

The literal values pinned here were computed by the full-expansion
oracle and cross-checked by hand against chain arithmetic: an opened
chain of k coins is worth k to the opener's opponent, so a lone open
k-chain scores net -k for the mover.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from coingames.engine import GameKind, Player, initial_state
from coingames.errors import BudgetExceeded
from coingames.multigraph import GROUND, GraphBuilder, cycle_graph
from coingames.solver import (
    DEFAULT_BUDGET,
    NAIVE_BUDGET,
    find_loony_witnesses,
    loony_first_move,
    naive_solve,
    solve,
    winner_of,
)
from coingames.verify import random_multigraph


def open_chain(k: int):
    b = GraphBuilder()
    coins = b.add_coins(k)
    prev = GROUND
    for c in coins:
        b.add_string(prev, c)
        prev = c
    b.add_string(prev, GROUND)
    return b.build()


def test_single_pendant_coin_values():
    # One coin, one string to ground: the cut scores the coin but the
    # extra move lands on an empty board.
    b = GraphBuilder()
    c = b.add_coin()
    b.add_string(GROUND, c)
    state = initial_state(b.build())
    assert solve(state, GameKind.STRINGS_AND_COINS).net_for_mover == 1
    assert solve(state, GameKind.NIMSTRING).winner_for_mover is False


@pytest.mark.parametrize(
    "k,net",
    [(1, -1), (2, -2), (3, -3), (4, -4)],
)
def test_open_chain_net_scores(k: int, net: int):
    """The mover must open the lone chain and loses every coin in it."""
    state = initial_state(open_chain(k))
    assert solve(state, GameKind.STRINGS_AND_COINS).net_for_mover == net


@pytest.mark.parametrize(
    "k,mover_wins",
    [(1, True), (2, True), (3, False), (4, False)],
)
def test_open_chain_nimstring_values(k: int, mover_wins: bool):
    state = initial_state(open_chain(k))
    assert solve(state, GameKind.NIMSTRING).winner_for_mover is mover_wins


@pytest.mark.parametrize(
    "n,net,nim_win,lava_win",
    [(3, -3, True, True), (4, -4, False, False)],
)
def test_cycle_values(n: int, net: int, nim_win: bool, lava_win: bool):
    state = initial_state(cycle_graph(n))
    assert solve(state, GameKind.STRINGS_AND_COINS).net_for_mover == net
    assert solve(state, GameKind.NIMSTRING).winner_for_mover is nim_win
    assert solve(state, GameKind.COINS_ARE_LAVA).winner_for_mover is lava_win


def test_stuck_mover_loses_everywhere():
    b = GraphBuilder()
    b.add_coin()
    state = initial_state(b.build())
    for kind in (GameKind.NIMSTRING, GameKind.COINS_ARE_LAVA):
        r = solve(state, kind)
        assert r.winner_for_mover is False
        assert r.principal_move is None
        assert winner_of(state, kind, r) is Player.P2


def test_double_ground_tie_is_second_player_win_in_sac():
    b = GraphBuilder()
    c = b.add_coin()
    b.add_rope(GROUND, c, 2)
    state = initial_state(b.build())
    r = solve(state, GameKind.STRINGS_AND_COINS)
    assert r.net_for_mover == -1
    assert winner_of(state, GameKind.STRINGS_AND_COINS, r) is Player.P2
    assert solve(state, GameKind.NIMSTRING).winner_for_mover is True


def test_winner_of_reports_draws():
    b = GraphBuilder()
    c0, c1 = b.add_coins(2)
    b.add_rope(GROUND, c0, 2)
    b.add_rope(GROUND, c1, 2)
    state = initial_state(b.build())
    r = solve(state, GameKind.STRINGS_AND_COINS)
    assert r.net_for_mover == 0
    assert winner_of(state, GameKind.STRINGS_AND_COINS, r) is None


def test_budget_is_enforced():
    g = cycle_graph(4)
    with pytest.raises(BudgetExceeded):
        solve(initial_state(g), GameKind.NIMSTRING, budget=3)
    with pytest.raises(BudgetExceeded):
        naive_solve(initial_state(g), GameKind.NIMSTRING, budget=3)
    assert NAIVE_BUDGET < DEFAULT_BUDGET


def test_principal_move_is_optimal():
    g = open_chain(2)
    state = initial_state(g)
    r = solve(state, GameKind.NIMSTRING)
    assert r.winner_for_mover is True
    assert r.principal_move in (0, 1, 2)
    # Principal move of a solved win must itself lead to a position the
    # opponent loses.
    from coingames.engine import apply_move

    nxt = apply_move(state, GameKind.NIMSTRING, r.principal_move)
    assert solve(nxt, GameKind.NIMSTRING).winner_for_mover is False


def test_solve_result_is_frozen():
    r = solve(initial_state(cycle_graph(3)), GameKind.NIMSTRING)
    with pytest.raises(AttributeError):
        r.winner_for_mover = False


def test_loony_witness_on_minimal_pattern():
    # A (degree 1) - a - B (degree 2) - b - ground.
    b = GraphBuilder()
    coin_a, coin_b = b.add_coins(2)
    a_sid = b.add_string(coin_a, coin_b)
    b_sid = b.add_string(coin_b, GROUND)
    state = initial_state(b.build())
    witnesses = find_loony_witnesses(state)
    assert any(w.a == a_sid and w.b == b_sid for w in witnesses)
    w = witnesses[0]
    # Empty remainder: the mover should decline the pair and cut only b,
    # leaving the opponent the freeing cut and the stuck extra move.
    assert loony_first_move(state, w) == [w.b]


def test_no_loony_witness_on_plain_cycle():
    state = initial_state(cycle_graph(4))
    assert find_loony_witnesses(state) == []


@given(
    seed=st.integers(min_value=0, max_value=2000),
    kind=st.sampled_from(list(GameKind)),
)
@settings(max_examples=60, deadline=None)
def test_memoized_solver_matches_naive(seed: int, kind: GameKind):
    """Property: the memoized solver and the full-expansion oracle
    agree on the winner (and on the exact net for Strings-and-Coins)."""
    rng = random.Random(seed)
    g = random_multigraph(rng, rng.randint(1, 4), rng.randint(0, 7), 0.3)
    state = initial_state(g)
    fast = solve(state, kind)
    slow = naive_solve(state, kind)
    if kind is GameKind.STRINGS_AND_COINS:
        assert fast.net_for_mover == slow.net_for_mover
    assert fast.winner_for_mover == slow.winner_for_mover


def test_oracle_matches_solver_past_the_criterion_1_cap():
    """Seeded boards of 11-13 strings, above criterion 1's 10-string
    cap, solved by both solvers under every rule set."""
    rng = random.Random(1113)
    for strings in (11, 11, 12, 12, 13):
        g = random_multigraph(rng, rng.randint(2, 5), strings, 0.3)
        state = initial_state(g)
        for kind in GameKind:
            fast = solve(state, kind)
            slow = naive_solve(state, kind)
            assert slow.winner_for_mover == fast.winner_for_mover, (kind, strings)
            assert slow.net_for_mover == fast.net_for_mover, (kind, strings)


@given(seed=st.integers(min_value=0, max_value=2000))
@settings(max_examples=40, deadline=None)
def test_solver_is_deterministic(seed: int):
    """Property: solving the same position twice gives identical results,
    including the states_visited count."""
    rng = random.Random(seed)
    g = random_multigraph(rng, rng.randint(1, 4), rng.randint(0, 8), 0.3)
    state = initial_state(g)
    for kind in GameKind:
        a = solve(state, kind)
        b = solve(state, kind)
        assert a == b


@given(seed=st.integers(min_value=0, max_value=2000))
@settings(max_examples=40, deadline=None)
def test_memoization_never_expands_more_states(seed: int):
    """Property: the memoized solver visits no more states than the
    naive recursion on the same position."""
    rng = random.Random(seed)
    g = random_multigraph(rng, rng.randint(1, 4), rng.randint(0, 7), 0.3)
    state = initial_state(g)
    for kind in GameKind:
        assert (
            solve(state, kind).states_visited
            <= naive_solve(state, kind).states_visited
        )
