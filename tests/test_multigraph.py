"""Board construction, text serialization, and rope grouping."""

import random

import pytest
from hypothesis import given, strategies as st

from coingames.errors import InvalidEndpoint, ParseError
from coingames.multigraph import (
    GROUND,
    GraphBuilder,
    Multigraph,
    StringEdge,
    canonical_text,
    cycle_graph,
    disjoint_union,
    is_coin,
    parse_text,
    ropes,
    to_dot,
)
from coingames.verify import random_multigraph


def small_board(seed: int) -> Multigraph:
    rng = random.Random(seed)
    return random_multigraph(rng, rng.randint(0, 5), rng.randint(0, 9), 0.3)


def test_ground_is_not_a_coin():
    assert not is_coin(GROUND)
    assert is_coin(0)


def test_builder_counts_and_degrees():
    b = GraphBuilder()
    c0, c1 = b.add_coins(2)
    b.add_string(c0, c1)
    b.add_string(GROUND, c0)
    g = b.build()
    assert g.coin_count == 2
    assert g.string_count == 2
    assert g.degrees() == [2, 1]


def test_builder_rejects_out_of_range_endpoint():
    b = GraphBuilder()
    b.add_coin()
    with pytest.raises(InvalidEndpoint):
        b.add_string(0, 5)


def test_rope_builder_and_labels():
    b = GraphBuilder()
    c = b.add_coin()
    ids = b.add_rope(c, GROUND, 3, label="anchor")
    g = b.build()
    assert ids == [0, 1, 2]
    assert g.degrees()[c] == 3
    assert all(g.labels[sid] == "anchor" for sid in ids)
    with pytest.raises(ValueError):
        b.add_rope(c, GROUND, 0)


def test_labels_do_not_affect_equality_or_hash():
    g = cycle_graph(3)
    labelled = Multigraph(g.coin_count, g.strings, ("wire", None, "clause"))
    assert labelled == g
    assert hash(labelled) == hash(g)
    assert len({g, labelled, parse_text(canonical_text(labelled))}) == 1


def test_self_loop_detection():
    b = GraphBuilder()
    c = b.add_coin()
    b.add_string(c, c)
    g = b.build()
    assert g.has_self_loop
    assert g.strings[0] == (c, c)
    assert g.degrees()[c] == 2


def test_ground_loop_is_not_a_self_loop():
    b = GraphBuilder()
    b.add_string(GROUND, GROUND)
    g = b.build()
    assert not g.has_self_loop


def test_string_edge_helpers():
    """A string is its endpoint pair: two fields, equal to the plain tuple."""
    s = StringEdge(3, GROUND)
    assert (s.a, s.b) == (3, GROUND) == s
    assert StringEdge._fields == ("a", "b")


def test_cycle_graph_shape():
    g = cycle_graph(4)
    assert g.coin_count == 4
    assert g.string_count == 4
    assert g.degrees() == [2, 2, 2, 2]
    with pytest.raises(ValueError):
        cycle_graph(0)


def test_disjoint_union_reindexes():
    g = cycle_graph(3)
    b = GraphBuilder()
    c = b.add_coin()
    b.add_string(c, GROUND, label="tail")
    h = b.build()
    u = disjoint_union(g, h)
    assert u.coin_count == 4
    assert u.string_count == 4
    moved = u.strings[3]
    assert (moved.a, moved.b) == (3, GROUND)
    assert u.labels[3] == "tail"


def test_incidence_lists_each_string_once():
    b = GraphBuilder()
    c0, c1 = b.add_coins(2)
    b.add_string(c0, c1)
    b.add_string(c0, GROUND)
    g = b.build()
    inc = g.incidence
    assert inc[0] == (0, 1)
    assert inc[1] == (0,)


def test_ropes_group_parallel_strings():
    b = GraphBuilder()
    c0, c1 = b.add_coins(2)
    b.add_rope(c0, c1, 2)
    b.add_string(c1, GROUND)
    g = b.build()
    grouped = ropes(g)
    assert grouped[(0, 1)] == [0, 1]
    assert grouped[(GROUND, 1)] == [2]
    alive_only = ropes(g, alive=[1, 2])
    assert alive_only[(0, 1)] == [1]


def test_parse_text_basic():
    g = parse_text("coins 2\nstring 0 0 1\nstring 1 1 ground\n# comment\n")
    assert g.coin_count == 2
    assert g.string_count == 2
    assert (g.strings[1].a, g.strings[1].b) == (1, GROUND)


@pytest.mark.parametrize(
    "text",
    [
        "string 0 0 1\n",
        "coins 2\ncoins 2\n",
        "coins -1\n",
        "coins 1\nstring 1 0 ground\n",
        "coins 1\nstring 0 2 ground\n",
        "coins 1\nwire 0 0 ground\n",
        "",
    ],
)
def test_parse_text_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_text(text)


def test_to_dot_mentions_every_string():
    g = parse_text("coins 2\nstring 0 0 1\nstring 1 1 ground\n")
    dot = to_dot(g, string_colors={0: "red"}, coin_names={0: "root"})
    assert dot.startswith("graph board {")
    assert 'label="root"' in dot
    assert 'color="red"' in dot
    assert dot.count(" -- ") == 2
    assert "ground [shape=box" in dot


@given(seed=st.integers(min_value=0, max_value=5000))
def test_text_round_trip(seed: int):
    """Property: canonical_text then parse_text reproduces the board."""
    g = small_board(seed)
    h = parse_text(canonical_text(g))
    assert h.coin_count == g.coin_count
    assert [(s.a, s.b) for s in h.strings] == [(s.a, s.b) for s in g.strings]


@given(seed=st.integers(min_value=0, max_value=5000))
def test_degree_handshake(seed: int):
    """Property: coin degrees sum to twice the coin-to-coin string count
    plus the number of coin-to-ground endpoints."""
    g = small_board(seed)
    endpoint_total = sum(
        sum(1 for e in (s.a, s.b) if is_coin(e)) for s in g.strings
    )
    assert sum(g.degrees()) == endpoint_total


@given(seed=st.integers(min_value=0, max_value=5000))
def test_random_boards_have_no_self_loops(seed: int):
    """Property: the random board generator never emits a self-loop."""
    assert not small_board(seed).has_self_loop
