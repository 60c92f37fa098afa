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
    parse_text,
    ropes,
    to_dot,
)
from coingames.verify import random_multigraph


def small_board(seed: int) -> Multigraph:
    rng = random.Random(seed)
    return random_multigraph(rng, rng.randint(0, 5), rng.randint(0, 9), 0.3)


def rope_board(seed: int) -> Multigraph:
    rng = random.Random(seed)
    b = GraphBuilder()
    ends = b.add_coins(rng.randint(1, 4)) + [GROUND]
    for _ in range(rng.randint(0, 6)):
        b.add_rope(rng.choice(ends), rng.choice(ends), rng.randint(1, 5))
    return b.build()


def cycle(n: int) -> Multigraph:
    b = GraphBuilder(coin_count=n)
    for c in range(n):
        b.add_string(c, (c + 1) % n)
    return b.build()


def test_builder_counts_and_degrees():
    b = GraphBuilder()
    c0, c1 = b.add_coins(2)
    b.add_string(c0, c1)
    b.add_string(GROUND, c0)
    g = b.build()
    assert g.coin_count == 2
    assert g.string_count == 2
    assert [len(ids) for ids in g.incidence] == [2, 1]


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
    assert len(g.incidence[c]) == 3
    assert all(g.labels[sid] == "anchor" for sid in ids)
    with pytest.raises(ValueError):
        b.add_rope(c, GROUND, 0)


def test_labels_do_not_affect_equality_or_hash():
    g = cycle(3)
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


def test_disjoint_union_reindexes():
    b = GraphBuilder()
    c = b.add_coin()
    b.add_string(c, GROUND, label="tail")
    h = b.build()
    b = GraphBuilder()
    b.add_board(cycle(3))
    b.add_board(h)
    u = b.build()
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


# Every ParseError text, line number included.  The repeat cases fail on
# a record whose endpoints are those of the record before it.
PARSE_ERRORS = {
    "string 0 0 1\n": "line 1: string record before coins header",
    "coins 2\ncoins 2\n": "line 2: duplicate coins header",
    "coins -1\n": "line 1: negative coin count",
    "coins 1\nstring 1 0 ground\n": "line 2: string id 1 out of order (expected 0)",
    "coins 1\nstring 0 2 ground\n": "line 2: coin 2 out of range",
    "coins 1\nwire 0 0 ground\n": "line 2: unknown record 'wire'",
    "": "missing coins header",
    "# a comment\n\n": "missing coins header",
    "coins\n": "line 1: expected 'coins <count>'",
    "coins 2 3\n": "line 1: expected 'coins <count>'",
    "coins two\n": "line 1: bad coin count 'two'",
    "coins 1000001\n": "line 1: coin count 1000001 above 1000000",
    "coins 1\nstring 0 0\n": "line 2: expected 'string <id> <end> <end>'",
    "coins 1\nstring 0 0 ground 1\n": "line 2: expected 'string <id> <end> <end>'",
    "coins 1\nstring x 0 ground\n": "line 2: bad string id 'x'",
    "coins 1\nstring 0 zero ground\n": "line 2: bad endpoint 'zero'",
    "coins 1\nstring 0 ground -1\n": "line 2: coin -1 out of range",
    "coins 1\nstring 0 0 01\n": "line 2: coin 1 out of range",
    "coins 2\nstring 0 0 1\nstring 0 0 1\n": "line 3: string id 0 out of order (expected 1)",
    "coins 2\nstring 0 0 1\nstring one 0 1\n": "line 3: bad string id 'one'",
    "coins 2\nstring 0 0 1\nstring 1 0 1 1\n": "line 3: expected 'string <id> <end> <end>'",
    "coins 2\nstring 0 0 1\nstring 1 0 1\nstring 3 0 1\n": "line 4: string id 3 out of order (expected 2)",
    "coins 2\nstring 0 0 1\nstring 1 0 1\ncoins 2\n": "line 4: duplicate coins header",
    "coins 2\nstring 0 0 1\nstring 1 0 1\nrope 2 0 1\n": "line 4: unknown record 'rope'",
    "coins 2\nstring 0 0 1\nstring 1 0 2\n": "line 3: coin 2 out of range",
    "coins 2\nstring 0 1 ground\nstring 1 1 groun\n": "line 3: bad endpoint 'groun'",
    "coins 2\r\n\r\n# c\r\nstring 0 0 1\r\nstring 2 0 1\r\n": "line 5: string id 2 out of order (expected 1)",
}


@pytest.mark.parametrize("text", list(PARSE_ERRORS))
def test_parse_text_rejects_malformed(text):
    with pytest.raises(ParseError) as info:
        parse_text(text)
    assert str(info.value) == PARSE_ERRORS[text]


def test_parse_error_clips_a_long_token():
    with pytest.raises(ParseError) as info:
        parse_text("coins 1\nstring " + "x" * 300 + " 0 ground\n")
    assert str(info.value) == "line 2: bad string id '" + "x" * 196 + "..."


def test_parse_text_accepts_odd_layout():
    """Tabs, indents, CRLF, blank and comment lines inside a rope, and ids
    or endpoints written with a sign or a leading zero."""
    text = (
        "  coins 3\t\r\n"
        "\tstring 0 0 1\r\n"
        "   # an indented comment inside the rope\r\n"
        "\r\n"
        "string 01 0 1\r\n"
        "string +2\t0   1\r\n"
        "string 3 00 +1\r\n"
        "string 4 ground 2\r\n"
    )
    g = parse_text(text)
    assert g == Multigraph(3, (StringEdge(0, 1),) * 4 + (StringEdge(GROUND, 2),))
    assert g.labels == ()


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
    """Property: canonical_text then parse_text reproduces the board, a
    random one or one of ropes, and a run of equal strings read from text
    shares one record, as a rope from ``add_rope`` does."""
    for g in (small_board(seed), rope_board(seed)):
        h = parse_text(canonical_text(g))
        assert h == g
        assert all(s is t for s, t in zip(h.strings, h.strings[1:]) if s == t)


@given(seed=st.integers(min_value=0, max_value=5000))
def test_degree_handshake(seed: int):
    """Property: coin degrees sum to twice the coin-to-coin string count
    plus the number of coin-to-ground endpoints."""
    g = small_board(seed)
    endpoint_total = sum(
        sum(1 for e in (s.a, s.b) if e >= 0) for s in g.strings
    )
    assert sum(map(len, g.incidence)) == endpoint_total


@given(seed=st.integers(min_value=0, max_value=5000))
def test_random_boards_have_no_self_loops(seed: int):
    """Property: the random board generator never emits a self-loop."""
    assert not small_board(seed).has_self_loop
