"""Exact game values on small boards and solver/oracle agreement.

The literal values pinned here were computed by the full-expansion
oracle and cross-checked by hand against chain arithmetic: an opened
chain of k coins is worth k to the opener's opponent, so a lone open
k-chain scores net -k for the mover.
"""

import hashlib
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from coingames.engine import GameKind, GameState, Player, apply_move, initial_state, legal_moves
from coingames.errors import BudgetExceeded, DegenerateInput
from coingames.multigraph import GROUND, GraphBuilder, ropes
from coingames.reduce import reduce_lava_to_nimstring, reduce_nimstring_to_sac
from coingames.solver import (
    DEFAULT_BUDGET,
    MAX_DEPTH,
    NAIVE_BUDGET,
    SolveResult,
    find_loony_witnesses,
    loony_first_move,
    naive_solve,
    solve,
    winner_of,
)
from coingames.verify import RandomMultigraphs, random_multigraph


def cycle(n: int):
    b = GraphBuilder(coin_count=n)
    for c in range(n):
        b.add_string(c, (c + 1) % n)
    return b.build()


def open_chain(k: int):
    b = GraphBuilder()
    coins = b.add_coins(k)
    prev = GROUND
    for c in coins:
        b.add_string(prev, c)
        prev = c
    b.add_string(prev, GROUND)
    return b.build()


SAC, NIM, LAVA = GameKind.STRINGS_AND_COINS, GameKind.NIMSTRING, GameKind.COINS_ARE_LAVA


def test_single_pendant_coin_values():
    # One coin, one string to ground: the cut scores the coin but the
    # extra move lands on an empty board.
    b = GraphBuilder()
    c = b.add_coin()
    b.add_string(GROUND, c)
    state = initial_state(b.build())
    assert solve(state, SAC) == SolveResult(SAC, net_for_mover=1, principal_move=0, states_visited=1)
    assert solve(state, NIM) == SolveResult(NIM, winner_for_mover=False, states_visited=1)
    assert solve(state, LAVA) == SolveResult(LAVA, winner_for_mover=False, states_visited=1)


# The results below pin the principal move (the first best cut in
# search order; none from a lost position) and the exact number of
# states the search visits, early stops and uncounted leaves included.


@pytest.mark.parametrize(
    "k,net,states",
    [(1, -1, 2), (2, -2, 6), (3, -3, 10), (4, -4, 15)],
)
def test_open_chain_net_scores(k: int, net: int, states: int):
    """The mover must open the lone chain and loses every coin in it."""
    state = initial_state(open_chain(k))
    assert solve(state, SAC) == SolveResult(SAC, net_for_mover=net, principal_move=0, states_visited=states)


@pytest.mark.parametrize(
    "k,mover_wins,move,states",
    [(1, True, 0, 2), (2, True, 1, 5), (3, False, None, 12), (4, False, None, 17)],
)
def test_open_chain_nimstring_values(k: int, mover_wins: bool, move, states: int):
    state = initial_state(open_chain(k))
    expected = SolveResult(NIM, winner_for_mover=mover_wins, principal_move=move, states_visited=states)
    assert solve(state, NIM) == expected


@pytest.mark.parametrize(
    "k,mover_wins,move,states",
    [(1, True, 0, 2), (2, True, 1, 4), (3, False, None, 8), (4, True, 2, 9)],
)
def test_open_chain_lava_values(k: int, mover_wins: bool, move, states: int):
    state = initial_state(open_chain(k))
    expected = SolveResult(LAVA, winner_for_mover=mover_wins, principal_move=move, states_visited=states)
    assert solve(state, LAVA) == expected


@pytest.mark.parametrize(
    "n,sac,nim,lava",
    [
        (3, (-3, 0, 6), (True, 0, 4), (True, 0, 2)),
        (4, (-4, 0, 10), (False, None, 15), (False, None, 7)),
    ],
)
def test_cycle_values(n: int, sac, nim, lava):
    """Each rule set's (value, principal move, states visited)."""
    state = initial_state(cycle(n))
    net, move, states = sac
    assert solve(state, SAC) == SolveResult(SAC, net_for_mover=net, principal_move=move, states_visited=states)
    for kind, (win, move, states) in ((NIM, nim), (LAVA, lava)):
        expected = SolveResult(kind, winner_for_mover=win, principal_move=move, states_visited=states)
        assert solve(state, kind) == expected


def test_empty_board_has_no_principal_move():
    state = initial_state(GraphBuilder().build())
    assert solve(state, SAC) == SolveResult(SAC, net_for_mover=0)
    assert solve(state, NIM) == SolveResult(NIM, winner_for_mover=False)
    assert solve(state, LAVA) == SolveResult(LAVA, winner_for_mover=False, states_visited=1)


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
    g = cycle(4)
    with pytest.raises(BudgetExceeded):
        solve(initial_state(g), GameKind.NIMSTRING, budget=3)
    with pytest.raises(BudgetExceeded):
        naive_solve(initial_state(cycle(NAIVE_BUDGET + 1)), GameKind.NIMSTRING)
    assert NAIVE_BUDGET < DEFAULT_BUDGET


def test_principal_move_is_optimal():
    g = open_chain(2)
    state = initial_state(g)
    r = solve(state, GameKind.NIMSTRING)
    assert r.winner_for_mover is True
    assert r.principal_move in (0, 1, 2)
    # Principal move of a solved win must itself lead to a position the
    # opponent loses.
    nxt = apply_move(state, GameKind.NIMSTRING, r.principal_move)
    assert solve(nxt, GameKind.NIMSTRING).winner_for_mover is False


def test_solve_result_is_frozen():
    r = solve(initial_state(cycle(3)), GameKind.NIMSTRING)
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
    state = initial_state(cycle(4))
    assert find_loony_witnesses(state) == []


def test_loony_witnesses_refuse_a_self_loop():
    b = GraphBuilder()
    c = b.add_coin()
    b.add_string(c, c)
    b.add_string(c, GROUND)
    with pytest.raises(DegenerateInput):
        find_loony_witnesses(GameState(b.build(), frozenset({0, 1})))


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


def test_oracle_expansion_on_the_criterion_1_boards_is_pinned():
    """The oracle expands every child, so the positions it visits on
    criterion 1's 200 boards are a fixed count per rule set, and the
    same for Strings-and-Coins as for Nimstring."""
    totals = dict.fromkeys(GameKind, 0)
    for g in RandomMultigraphs(5, 10, 0.3, seed=2024, small_bias=True).instances(200):
        state = initial_state(g)
        for kind in GameKind:
            totals[kind] += naive_solve(state, kind).states_visited
    assert totals == {SAC: totals[NIM], NIM: 14_583, LAVA: 11_568}


def test_oracle_expands_the_same_positions_in_strings_and_coins_as_in_nimstring():
    """The two games have the same cuts and the same turn rule, and the
    oracle's key holds no score, so on each of criterion 1's 200 boards
    both expand the same positions."""
    for i, g in enumerate(RandomMultigraphs(5, 10, 0.3, seed=2024, small_bias=True).instances(200)):
        state = initial_state(g)
        assert naive_solve(state, SAC).states_visited == naive_solve(state, NIM).states_visited, i


def test_oracle_ignores_the_start_scores():
    """Scores never change which cut is legal or who moves next, so
    seeded mid-game Strings-and-Coins positions give the same net and
    the same expansion from start scores (0, 0) as from random ones."""
    rng = random.Random(4242)
    for i in range(60):
        g = random_multigraph(rng, rng.randint(2, 5), rng.randint(5, 11), 0.3)
        state = initial_state(g)
        for _ in range(rng.randint(1, 4)):
            legal = sorted(legal_moves(state, SAC))
            if not legal:
                break
            state = apply_move(state, SAC, rng.choice(legal))
        mover = rng.choice(list(Player))
        bare = naive_solve(GameState(g, state.alive, mover), SAC)
        scored = naive_solve(GameState(g, state.alive, mover, (rng.randint(0, 9), rng.randint(0, 9))), SAC)
        assert (scored.net_for_mover, scored.states_visited) == (bare.net_for_mover, bare.states_visited), i


def test_oracle_matches_solver_from_mid_game_positions_with_scores():
    """Seeded mid-game positions with P2 to move and start scores of 0-9
    on both sides, above the coin count that bounds what the oracle can
    gain from them."""
    rng = random.Random(907)
    for i in range(300):
        kind = list(GameKind)[i % 3]
        g = random_multigraph(rng, rng.randint(1, 4), rng.randint(0, 7), 0.3)
        state = initial_state(g)
        for _ in range(rng.randint(0, 3)):
            legal = sorted(legal_moves(state, kind))
            if not legal:
                break
            state = apply_move(state, kind, rng.choice(legal))
        state = GameState(g, state.alive, Player.P2, (rng.randint(0, 9), rng.randint(0, 9)))
        fast, slow = solve(state, kind), naive_solve(state, kind)
        assert slow.winner_for_mover == fast.winner_for_mover, (i, kind)
        assert slow.net_for_mover == fast.net_for_mover, (i, kind)
        assert winner_of(state, kind, slow) == winner_of(state, kind, fast), (i, kind)


def safe_captures(state: GameState) -> list[tuple[int, int]]:
    """Each safe capture of ``state`` with the coins it frees, read from
    the board alone: an alive string from a coin of alive degree 1 to the
    ground or to a coin whose alive degree is not 2."""
    g = state.board
    deg = [0] * g.coin_count
    for sid in state.alive:
        for c in g.strings[sid]:
            if c != GROUND:
                deg[c] += 1
    out = []
    for sid in sorted(state.alive):
        ends = [None if c == GROUND else deg[c] for c in g.strings[sid]]
        if 1 in ends and 2 not in ends:
            out.append((sid, ends.count(1)))
    return out


def capture_heavy_position(rng: random.Random, max_strings: int) -> GameState:
    """A ``reduce_lava_to_nimstring`` or ``reduce_nimstring_to_sac`` image
    of a random 1-2-coin board, at ``max_strings`` strings or fewer, with
    about a tenth of its strings cut and either player to move."""
    coins = rng.randint(1, 2)
    if rng.random() < 0.5:
        h = reduce_lava_to_nimstring(random_multigraph(rng, coins, rng.randint(0, max_strings - 5 * coins), 0.3))
    else:
        h = reduce_nimstring_to_sac(random_multigraph(rng, coins, rng.randint(0, max_strings - 3), 0.3))
    alive = frozenset(sid for sid in range(h.string_count) if rng.random() >= 0.1)
    return GameState(h, alive, rng.choice(list(Player)))


def test_a_safe_capture_keeps_the_oracle_value():
    """The capture rule of ``solve``, checked with the oracle alone: on
    the first 100 seeded positions of at most 12 strings that hold a safe
    capture, random boards and capture-heavy images alike, taking any
    safe capture s keeps the mover's Nimstring outcome, and the mover's
    Strings-and-Coins net is the coins s frees plus the net after s,
    with the same mover."""
    rng = random.Random(3535)
    positions = checked = 0
    while positions < 100:
        if positions % 2:
            state = capture_heavy_position(rng, 12)
        else:
            g = random_multigraph(rng, rng.randint(1, 4), rng.randint(2, 12), 0.3)
            alive = frozenset(sid for sid in range(g.string_count) if rng.random() >= 0.2)
            state = GameState(g, alive, rng.choice(list(Player)))
        captures = safe_captures(state)
        if not captures:
            continue
        positions += 1
        nim, sac = naive_solve(state, NIM), naive_solve(state, SAC)
        for sid, freed in captures:
            after = GameState(state.board, state.alive - {sid}, state.mover)
            assert naive_solve(after, NIM).winner_for_mover == nim.winner_for_mover, (positions, sid)
            assert freed + naive_solve(after, SAC).net_for_mover == sac.net_for_mover, (positions, sid)
            checked += 1
    assert checked == 122


def test_a_capture_next_to_a_degree_2_coin_can_lose():
    """Why the rule spares a coin hung on a degree-2 coin: on a 2-chain
    hung from the ground beside an open 3-chain, taking the free end
    loses Nimstring and nets -1 in Strings-and-Coins, where the mover
    wins the first and nets 1 by declining it."""
    b = GraphBuilder()
    a, bb = b.add_coins(2)
    take = b.add_string(a, bb)
    b.add_string(bb, GROUND)
    prev = GROUND
    for c in b.add_coins(3):
        b.add_string(prev, c)
        prev = c
    b.add_string(prev, GROUND)
    state = initial_state(b.build())
    assert safe_captures(state) == []
    after = GameState(state.board, state.alive - {take})
    assert naive_solve(after, NIM).winner_for_mover is False
    assert 1 + naive_solve(after, SAC).net_for_mover == -1
    for solver in (naive_solve, solve):
        assert solver(state, NIM).winner_for_mover is True
        assert solver(state, SAC).net_for_mover == 1


def test_a_capture_that_fails_low_stores_an_upper_bound():
    """A Strings-and-Coins walk stopped at a safe capture whose child
    failed low knows only an upper bound, and must memoize it as one:
    stored as exact, it makes this 11-string board read 1, not 3."""
    b = GraphBuilder(coin_count=5)
    for a, e in [(0, GROUND), (3, 4), (0, GROUND), (2, GROUND), (4, GROUND), (3, 0),
                 (4, 0), (1, GROUND), (3, 1), (3, 1), (2, GROUND)]:
        b.add_string(a, e)
    state = initial_state(b.build())
    assert solve(state, SAC).net_for_mover == naive_solve(state, SAC).net_for_mover == 3


def test_solver_matches_oracle_on_capture_heavy_boards():
    """Lemma-1 and Lemma-3 images of 1-2-coin boards, at 14 strings or
    fewer, with about a tenth of their strings cut and either player to
    move: ``solve`` agrees with the oracle under every rule set.  Random
    boards seldom hold a ground chain, and the search meets a safe
    capture each time it eats one down to its last coin."""
    rng = random.Random(3636)
    for i in range(60):
        state = capture_heavy_position(rng, 14)
        for kind in GameKind:
            fast, slow = solve(state, kind), naive_solve(state, kind)
            assert fast.winner_for_mover == slow.winner_for_mover, (i, kind)
            assert fast.net_for_mover == slow.net_for_mover, (i, kind)


# sha256 of every ``repr(SolveResult)``, one per line, over the seeded
# positions of ``test_oracle_results_from_mid_game_positions_are_pinned``.
NAIVE_MID_GAME_DIGEST = "6365fa0b205d51b3403bee3a262781c70261cead073142b04a4dadb94eb9636f"


def test_oracle_results_from_mid_game_positions_are_pinned():
    """Boards of 5-12 strings cut 1-4 times at random under the rule set
    being solved, then handed to P2 with start scores of 1-9 on each
    side, solved by the oracle: every field of every result is pinned,
    states visited included.  P2 moves first, so the oracle's P2 fold
    and its P2 sign on freed coins are on every path; over half of the
    Lava positions have a frozen string (one whose cut would free a coin)."""
    rng = random.Random(2424)
    digest = hashlib.sha256()
    totals = dict.fromkeys(GameKind, 0)
    frozen = 0
    for i in range(120):
        kind = list(GameKind)[i % 3]
        g = random_multigraph(rng, rng.randint(2, 5), rng.randint(5, 12), 0.3)
        state = initial_state(g)
        for _ in range(rng.randint(1, 4)):
            legal = sorted(legal_moves(state, kind))
            if not legal:
                break
            state = apply_move(state, kind, rng.choice(legal))
        state = GameState(g, state.alive, Player.P2, (rng.randint(1, 9), rng.randint(1, 9)))
        if kind is LAVA and len(legal_moves(state, kind)) < len(state.alive):
            frozen += 1
        result = naive_solve(state, kind)
        totals[kind] += result.states_visited
        digest.update(repr(result).encode() + b"\n")
    assert frozen == 22
    assert totals == {SAC: 5_995, NIM: 13_355, LAVA: 6_445}
    assert digest.hexdigest() == NAIVE_MID_GAME_DIGEST


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


def rope_board(rng: random.Random, coins: int, strings: int):
    """Ropes of width 2-5 (the last may be narrower) between random
    distinct endpoints until ``strings`` strings are placed; two ropes on
    one pair merge into a wider one."""
    b = GraphBuilder()
    b.add_coins(coins)
    ends = [GROUND] + list(range(coins))
    while strings > 0:
        a, c = rng.sample(ends, 2)
        width = min(strings, rng.randint(2, 5))
        b.add_rope(a, c, width)
        strings -= width
    return b.build()


def quotient_states(g) -> int:
    return math.prod(len(group) + 1 for group in ropes(g).values())


def margin_for(state, kind, player) -> int:
    """Final score margin of ``player`` under optimal Strings-and-Coins
    play from ``state``."""
    net = solve(state, kind).net_for_mover
    lead = state.score(player) - state.score(player.other)
    return lead + (net if state.mover is player else -net)


@given(
    seed=st.integers(min_value=0, max_value=5000),
    coins=st.integers(min_value=1, max_value=4),
    strings=st.integers(min_value=2, max_value=NAIVE_BUDGET - 2),
)
@settings(max_examples=40, deadline=None)
def test_rope_quotient_matches_oracle_on_rope_heavy_boards(seed: int, coins: int, strings: int):
    """Property: on boards built from ropes, the quotient search agrees
    with the oracle under every rule set, visits at most prod(w + 1)
    states, and its principal move is legal and keeps the solved value.
    Boards stop at 12 strings: the oracle needs about 0.2 s for the three
    rule sets on a 14-string rope board."""
    g = rope_board(random.Random(seed), coins, strings)
    state = initial_state(g)
    for kind in GameKind:
        fast = solve(state, kind)
        slow = naive_solve(state, kind)
        assert fast.winner_for_mover == slow.winner_for_mover, kind
        assert fast.net_for_mover == slow.net_for_mover, kind
        assert fast.states_visited <= quotient_states(g), kind
        if fast.principal_move is None:
            assert kind is not GameKind.STRINGS_AND_COINS and not fast.winner_for_mover
            continue
        assert fast.principal_move in legal_moves(state, kind), kind
        # Ties within a rope go to its lowest string id, as in a search
        # over every string in id order.
        assert fast.principal_move == min(ropes(g)[tuple(sorted(g.strings[fast.principal_move]))])
        nxt = apply_move(state, kind, fast.principal_move)
        if kind is GameKind.STRINGS_AND_COINS:
            assert margin_for(nxt, kind, state.mover) == fast.net_for_mover
        else:
            assert fast.winner_for_mover
            assert winner_of(nxt, kind, solve(nxt, kind)) is state.mover, kind


def test_rope_quotient_matches_oracle_at_13_and_14_strings():
    """Seeded rope boards of 2-4 coins at the top of the oracle's range,
    above the 12 strings that the property test draws: the quotient
    search agrees with the oracle under every rule set and visits at
    most prod(w + 1) states."""
    rng = random.Random(1314)
    for strings in (13, 13, 14, 14, 14):
        g = rope_board(rng, rng.randint(2, 4), strings)
        state = initial_state(g)
        for kind in GameKind:
            fast, slow = solve(state, kind), naive_solve(state, kind)
            assert fast.winner_for_mover == slow.winner_for_mover, (strings, kind)
            assert fast.net_for_mover == slow.net_for_mover, (strings, kind)
            assert fast.states_visited <= quotient_states(g), (strings, kind)


@pytest.mark.parametrize(
    "seed,coins,strings,winner",
    [(0, 3, 22, Player.P2), (1, 3, 22, Player.P1), (2, 3, 22, Player.P1), (2, 4, 30, Player.P1)],
)
def test_lemma1_pair_above_the_old_string_budget(seed: int, coins: int, strings: int, winner: Player):
    """A Lemma-1 pair whose Strings-and-Coins side has 26 or 35 strings,
    most of them in ropes: above the string budget, within the state
    budget."""
    g = rope_board(random.Random(seed), coins, strings)
    h = reduce_nimstring_to_sac(g)
    assert h.string_count > DEFAULT_BUDGET
    assert quotient_states(h) <= 2**DEFAULT_BUDGET
    gs, hs = initial_state(g), initial_state(h)
    assert winner_of(gs, GameKind.NIMSTRING, solve(gs, GameKind.NIMSTRING)) is winner
    assert winner_of(hs, GameKind.STRINGS_AND_COINS, solve(hs, GameKind.STRINGS_AND_COINS)) is winner


def test_budget_counts_quotient_states():
    """A rope of w strings is w + 1 states: 2^budget states admit a rope
    of width 2^budget - 1 but no wider, and the depth ceiling refuses
    long boards whatever the budget."""
    for width, ok in ((7, True), (8, False)):
        b = GraphBuilder()
        b.add_rope(GROUND, b.add_coin(), width)
        state = initial_state(b.build())
        if ok:
            assert solve(state, GameKind.NIMSTRING, budget=3).winner_for_mover is (width % 2 == 0)
        else:
            with pytest.raises(BudgetExceeded, match="need budget 4, above 3"):
                solve(state, GameKind.NIMSTRING, budget=3)
    with pytest.raises(BudgetExceeded, match="search depth"):
        solve(initial_state(open_chain(MAX_DEPTH)), GameKind.NIMSTRING, budget=MAX_DEPTH + 1)


# sha256 of every ``repr(SolveResult)``, one per line, over the seeded
# positions of ``test_solve_results_from_mid_game_positions_are_pinned``.
MID_GAME_SOLVE_DIGEST = "38a514d0e15f320893257716f4faaa3956a949f61d9a615676016c295e29cd00"


def test_solve_results_from_mid_game_positions_are_pinned():
    """Random and rope-heavy boards of up to 24 strings with about a
    fifth of their strings cut, either player to move, start scores of
    0-3, solved under every rule set: every field of every result
    (value, principal move, states visited) is pinned."""
    rng = random.Random(1717)
    digest = hashlib.sha256()
    for i in range(300):
        if i % 2:
            g = rope_board(rng, rng.randint(1, 4), rng.randint(4, 24))
        else:
            g = random_multigraph(rng, rng.randint(1, 5), rng.randint(0, 16), 0.3)
        alive = frozenset(sid for sid in range(g.string_count) if rng.random() < 0.8)
        mover = Player.P1 if i % 4 < 2 else Player.P2
        state = GameState(g, alive, mover, (rng.randint(0, 3), rng.randint(0, 3)))
        for kind in GameKind:
            digest.update(repr(solve(state, kind)).encode() + b"\n")
    assert digest.hexdigest() == MID_GAME_SOLVE_DIGEST


# sha256 of every ``repr(SolveResult)``, one per line, over the seeded
# Lemma-3 pairs of ``test_win_loss_solves_on_many_ropes_are_pinned``.
MANY_ROPES_SOLVE_DIGEST = "dda30362897a136523b1a4b8ea255f6044f5aa7d9c7fb1b41ba1af8ab110dad3"


def test_win_loss_solves_on_many_ropes_are_pinned():
    """Lemma-3 pairs shaped like the benchmark's: G has 3 coins, none
    isolated, and 3-7 strings; H is G with every coin chained to ground,
    18-22 strings in 16 or more ropes.  H is solved as Nimstring and G
    as Coins-are-Lava, and on every fifth pair one or two strings of H
    (and those of them that G shares) are cut first, leaving 15 or more
    ropes.  Every field of every result is pinned."""
    rng = random.Random(1919)
    digest = hashlib.sha256()
    start = time.perf_counter()
    for i in range(100):
        while True:
            g = random_multigraph(rng, 3, rng.randint(3, 7), 0.3)
            if all(g.incidence[:3]):
                break
        h = reduce_lava_to_nimstring(g)
        alive = frozenset(range(h.string_count))
        if i % 5 == 0:
            alive -= set(rng.sample(sorted(alive), rng.randint(1, 2)))
        assert len(ropes(h, alive)) >= 15
        for board, kind in ((h, NIM), (g, LAVA)):
            state = GameState(board, alive & frozenset(range(board.string_count)))
            digest.update(repr(solve(state, kind)).encode() + b"\n")
    assert digest.hexdigest() == MANY_ROPES_SOLVE_DIGEST
    assert time.perf_counter() - start < 2


# sha256 of every ``repr(SolveResult)``, one per line, over the seeded
# boards of ``test_win_loss_solves_on_lava_item_boards_are_pinned``.
LAVA_ITEM_SOLVE_DIGEST = "5cbde150814d5088e7152c989617703e64e592afdb56938771c90078fb535cb8"


def test_win_loss_solves_on_lava_item_boards_are_pinned():
    """Fresh random boards of 3-5 coins and 17-22 strings, the shape of
    the benchmark's Lava items and above the 16 strings that the
    mid-game pin draws, solved as Nimstring and as Coins-are-Lava: every
    field of every result is pinned."""
    rng = random.Random(2121)
    digest = hashlib.sha256()
    start = time.perf_counter()
    for _ in range(12):
        state = initial_state(random_multigraph(rng, rng.randint(3, 5), rng.randint(17, 22), 0.3))
        for kind in (NIM, LAVA):
            digest.update(repr(solve(state, kind)).encode() + b"\n")
    assert digest.hexdigest() == LAVA_ITEM_SOLVE_DIGEST
    assert time.perf_counter() - start < 1


def test_the_deepest_search_needs_one_frame_per_cut():
    """``solve`` holds one Python frame per cut and no more: a rope of
    ``MAX_DEPTH`` strings from a coin to the ground is solved under every
    rule set from 500 frames deep, inside the default recursion limit of
    1000, visiting one position per alive count."""
    b = GraphBuilder()
    b.add_rope(b.add_coin(), GROUND, MAX_DEPTH)
    state = initial_state(b.build())

    def solve_from(depth: int, kind: GameKind) -> SolveResult:
        return solve_from(depth - 1, kind) if depth else solve(state, kind)

    for kind in GameKind:
        assert solve_from(500, kind).states_visited == MAX_DEPTH


def test_a_board_of_many_ropes_is_refused_quickly():
    """A board of 10^5 single-string ropes needs budget 10^5.  Its
    refusal multiplies the rope factors pairwise and builds no search
    table, so it finishes well within three seconds."""
    b = GraphBuilder()
    for c in b.add_coins(100_000):
        b.add_string(c, GROUND)
    state = initial_state(b.build())
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="in 100000 ropes need budget 100000, above 24"):
        solve(state, LAVA)
    assert time.perf_counter() - start < 3
