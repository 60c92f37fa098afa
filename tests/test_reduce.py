"""Reduction chain: anchors, winner cycles, and the gadget compiler.

Closed-form counts pinned here follow from the construction arithmetic:
W1 = 2*sum(k_i) - n level-1 wires, W2 = 2(n + m) - 1 level-2 wires,
m + n + 1 clause gadgets, and T(N) = 2n + W1(N + N^2) + W2(N^3 + N^4)
+ (m + n + 1)N^5 strings before the pad.  The literal values were also
recomputed by recounting compiled graphs string by string.
"""

import hashlib
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from coingames import reduce as reduce_module
from coingames.engine import GameKind, Player, initial_state
from coingames.errors import FormulaError, ParseError, ReductionError
from coingames.gamesat import DnfFormula, GameSatValue, Mover, parse_dnf
from coingames.multigraph import GROUND, GraphBuilder, canonical_text, parse_text
from coingames.reduce import (
    DEFAULT_CHAIN_LEN,
    ReductionArtifact,
    artifact_from_json,
    artifact_to_json,
    check_formula,
    closed_form_counts,
    compile_gamesat_to_lava,
    full_pipeline,
    gadget_layout,
    reduce_lava_to_nimstring,
    reduce_nimstring_to_sac,
    total_strings,
)
from coingames.solver import solve, winner_of
from coingames.verify import RandomMultigraphs, random_formula


MAJORITY = "x1 x2\nx1 x3\nx2 x3"
# A 12-variable chain: its Game SAT solve alone takes seconds, and its
# board has 2,064 strings at N=2.
CHAIN12 = "".join(f"x{i} x{i + 1}\n" for i in range(1, 12))


def cycle(n: int):
    b = GraphBuilder(coin_count=n)
    for c in range(n):
        b.add_string(c, (c + 1) % n)
    return b.build()


def test_winner_cycle_size():
    g = cycle(3)
    h = reduce_nimstring_to_sac(g)
    # Fresh cycle on coin_count + 1 = 4 coins.
    assert h.coin_count == 7
    assert h.string_count == 7
    assert all(
        h.labels[sid] == "winner-cycle" for sid in range(3, 7)
    )


def test_winner_cycle_avoids_self_loop_on_empty_board():
    g = GraphBuilder().build()
    h = reduce_nimstring_to_sac(g)
    assert h.coin_count == 2
    assert h.string_count == 2
    assert not h.has_self_loop


def test_nimstring_to_sac_preserves_the_winner():
    for g in (cycle(3), cycle(4)):
        state = initial_state(g)
        nim = solve(state, GameKind.NIMSTRING)
        reduced = initial_state(reduce_nimstring_to_sac(g))
        sac = solve(reduced, GameKind.STRINGS_AND_COINS)
        nim_winner = winner_of(state, GameKind.NIMSTRING, nim)
        sac_winner = winner_of(reduced, GameKind.STRINGS_AND_COINS, sac)
        assert nim_winner == sac_winner


def test_anchor_chains_shape():
    b = GraphBuilder()
    c0, c1 = b.add_coins(2)
    b.add_string(c0, c1)
    b.add_string(GROUND, c0)
    g = b.build()
    h = reduce_lava_to_nimstring(g, chain_len=5)
    # One chain per coin: 4 fresh coins and 5 strings each.
    assert h.coin_count == 2 + 2 * 4
    assert h.string_count == 2 + 2 * 5
    # Original strings keep their ids and endpoints.
    assert (h.strings[0].a, h.strings[0].b) == (g.strings[0].a, g.strings[0].b)
    assert (h.strings[1].a, h.strings[1].b) == (g.strings[1].a, g.strings[1].b)
    # Every fresh coin has degree 2 (chain interior) and each chain ends
    # at ground.
    assert all(len(h.incidence[c]) == 2 for c in range(2, h.coin_count))


def test_anchor_chain_length_floor():
    with pytest.raises(ReductionError):
        reduce_lava_to_nimstring(cycle(3), chain_len=4)
    assert DEFAULT_CHAIN_LEN == 5


def test_lava_to_nimstring_preserves_the_winner_on_fixed_boards():
    # Values verified by the exhaustive solver on both sides.
    for g in (cycle(3), cycle(4)):
        lava = solve(initial_state(g), GameKind.COINS_ARE_LAVA)
        h = reduce_lava_to_nimstring(g)
        nim = solve(initial_state(h), GameKind.NIMSTRING)
        assert lava.winner_for_mover == nim.winner_for_mover


def test_layout_clause_keys():
    f = parse_dnf(MAJORITY)
    keys = [p.clause for p in gadget_layout(f) if p.kind == "clause"]
    assert keys == [
        "real:0",
        "real:1",
        "real:2",
        "singleton:0",
        "singleton:1",
        "singleton:2",
        "empty",
    ]
    assert len(keys) == closed_form_counts(f)["clause_gadgets"] == 7


def test_check_formula_rejects_small_clauses():
    with pytest.raises(FormulaError):
        check_formula(parse_dnf("x1\nx1 x2"))


def test_the_compiler_refuses_a_formula_without_clauses():
    with pytest.raises(FormulaError, match="^formula has no clauses$"):
        compile_gamesat_to_lava(DnfFormula(2, ()), 2, Mover.TRUDY)


def test_check_formula_rejects_unused_variables():
    f = DnfFormula(3, (frozenset({0, 1}),))
    with pytest.raises(FormulaError):
        check_formula(f)


@pytest.mark.parametrize(
    "text,W1,W2,gadgets,t2,t3",
    [
        ("x1 x2", 2, 5, 4, 264, 1540),
        (MAJORITY, 9, 11, 7, 548, 3003),
        ("x1 x2 x3\nx2 x3\nx3 x4", 10, 13, 8, 636, 3476),
    ],
)
def test_closed_form_counts(text, W1, W2, gadgets, t2, t3):
    f = parse_dnf(text)
    counts = closed_form_counts(f)
    assert counts == {"W1": W1, "W2": W2, "clause_gadgets": gadgets}
    assert total_strings(f, 2) == t2
    assert total_strings(f, 3) == t3


def test_compiler_requires_n_at_least_two():
    with pytest.raises(ReductionError):
        compile_gamesat_to_lava(parse_dnf("x1 x2"), 1, Mover.TRUDY)


def test_compiler_respects_string_cap():
    with pytest.raises(ReductionError):
        compile_gamesat_to_lava(parse_dnf(MAJORITY), 2, Mover.TRUDY, string_cap=100)


def test_compiler_refuses_on_the_cap_before_solving_the_game(monkeypatch):
    """The Game SAT solve is exponential in the variable count, so the
    cheap refusals come first."""

    def solve_gamesat(*args, **kwargs):
        raise AssertionError("solved before the string cap was checked")

    monkeypatch.setattr(reduce_module, "solve_gamesat", solve_gamesat)
    with pytest.raises(ReductionError, match="above cap 300"):
        compile_gamesat_to_lava(parse_dnf(CHAIN12), 2, Mover.TRUDY, string_cap=300)
    with pytest.raises(FormulaError):
        compile_gamesat_to_lava(parse_dnf("x1\nx1 x2"), 2, Mover.TRUDY)


def test_compiled_artifact_structure():
    f = parse_dnf(MAJORITY)
    art = compile_gamesat_to_lava(f, 2, Mover.TRUDY)
    assert art.N == 2
    assert len([p for p in art.plan if p.kind == "variable"]) == 3
    wires = [p for p in art.plan if p.kind == "wire"]
    assert sum(1 for w in wires if w.level == 1) == 9
    assert sum(1 for w in wires if w.level == 2) == 11
    clauses = [p for p in art.plan if p.kind == "clause"]
    assert len(clauses) == 7
    # Every level-1 wire: bottom rope N, top rope N^2.
    for w in wires:
        lo = art.N ** (2 * w.level - 1)
        hi = art.N ** (2 * w.level)
        assert w.bottom[1] - w.bottom[0] == lo
        assert w.top[1] - w.top[0] == hi
    for p in clauses:
        assert p.rope[1] - p.rope[0] == art.N**5


def test_string_ownership_is_a_partition():
    f = parse_dnf(MAJORITY)
    art = compile_gamesat_to_lava(f, 2, Mover.TRUDY)
    owned: list[int] = []
    for p in art.plan:
        owned.extend(p.owned_ids())
    assert sorted(owned) == list(range(art.graph.string_count))


@pytest.mark.parametrize(
    "text,first,pad,total,r_fallon",
    [
        ("x1 x2", Mover.TRUDY, True, 265, 9),
        ("x1 x2", Mover.FALLON, False, 264, 9),
        (MAJORITY, Mover.TRUDY, True, 549, 23),
        (MAJORITY, Mover.FALLON, False, 548, 23),
    ],
)
def test_parity_pad_decision(text, first, pad, total, r_fallon):
    art = compile_gamesat_to_lava(parse_dnf(text), 2, first)
    assert art.predicted["pad"] is pad
    assert art.graph.string_count == total
    assert art.predicted["R_fallon"] == r_fallon
    pads = [p for p in art.plan if p.kind == "pad"]
    assert len(pads) == pad
    if pad:
        s = art.graph.strings[pads[0].rope[0]]
        assert (s.a, s.b) == (GROUND, GROUND)


def test_parity_places_the_stuck_seat_on_trudy():
    # With the pad decided, the number of cuts to the canonical
    # Fallon-win terminal leaves the Trudy-mapped player to move.
    for text in ("x1 x2", MAJORITY):
        for first in Mover:
            art = compile_gamesat_to_lava(parse_dnf(text), 2, first)
            cuts = art.predicted["fallon_terminal_cuts"]
            stuck = Player.P1 if cuts % 2 == 0 else Player.P2
            assert stuck is art.player_for(Mover.TRUDY)


def test_player_mapping_follows_first_mover():
    f = parse_dnf(MAJORITY)
    art = compile_gamesat_to_lava(f, 2, Mover.TRUDY)
    assert art.player_for(Mover.FALLON) is Player.P2
    assert art.predicted["gamesat_value"] == GameSatValue.TRUDY_WINS.value
    assert art.player_for(Mover.TRUDY) is Player.P1
    art2 = compile_gamesat_to_lava(f, 2, Mover.FALLON)
    assert art2.player_for(Mover.TRUDY) is Player.P2
    assert art2.predicted["gamesat_value"] == GameSatValue.FALLON_WINS.value
    assert art2.player_for(Mover.FALLON) is Player.P1


def test_full_pipeline_chains_all_three_reductions():
    f = parse_dnf("x1 x2")
    lava, nim, sac = full_pipeline(f, 2, Mover.FALLON)
    assert isinstance(lava, ReductionArtifact)
    assert nim.string_count == lava.graph.string_count + 5 * lava.graph.coin_count
    # The winner cycle adds nim.coin_count + 1 coins and strings.
    assert sac.string_count == nim.string_count + nim.coin_count + 1
    assert sac.coin_count == 2 * nim.coin_count + 1


def test_artifact_json_round_trip():
    f = parse_dnf(MAJORITY)
    art = compile_gamesat_to_lava(f, 2, Mover.TRUDY)
    text = artifact_to_json(art)
    back = artifact_from_json(text, art.graph)
    assert back.N == art.N
    assert back.first is art.first
    assert back.root_coin == art.root_coin
    assert back.predicted == art.predicted
    assert back.plan == art.plan
    assert set(back.formula.clauses) == set(f.clauses)


@pytest.mark.parametrize(
    "text, first, size, digest",
    [
        # Every gadget kind, the parity pad included.
        ("x1 x2 x3\nx2 x3\nx3 x4\n", Mover.TRUDY, 8834,
         "d8682d53634e11da9e267d034ebdf4f2caf31708a7fca30e77f4ab6bb6e9397f"),
        ("x1 x2\n", Mover.FALLON, 3305,
         "9b44bddb4133d9293d4b74b71dc4e3c5bf2f9425bd63a3d25cd92f24afc2f95c"),
    ],
)
def test_plan_files_are_byte_stable(text, first, size, digest):
    """Plan text pinned as written before ``artifact_to_json`` stopped
    deep-copying gadgets: key order, omitted ``None`` fields, ranges as
    lists."""
    plan = artifact_to_json(compile_gamesat_to_lava(parse_dnf(text), 2, first))
    assert len(plan) == size
    assert hashlib.sha256(plan.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "text, first, N, strings, board_digest, labels_digest",
    [
        ("x1 x2", Mover.TRUDY, 2, 265,
         "461a71f10195d89853e316b8c6c21803ccd53c6df9e979fef036d4a313fb7cab",
         "f5ada099ba88a6f4586425ec9cc8454732b79715a2c4a0279ebcd2813fd0b595"),
        ("x1 x2", Mover.FALLON, 2, 264,
         "f470b64f8f47068e887e032b16b0446a90480cad4ee3aa28569496093226935c",
         "495d821cd59c97e12e37d91b079773c4d7a743db4e3ef4c3fcd5cb351af9dad7"),
        (MAJORITY, Mover.TRUDY, 3, 3003,
         "6454220f8d569c123f4d8e0eb180a46bf9ae17626661004f9841f54f47ee68d4",
         "22499a43cbb0c316545afb27e661fe3496ffb153630828908c87159c82bccd9d"),
        (MAJORITY, Mover.FALLON, 3, 3004,
         "28c52988550e0b7ec21a3c516c86b79094aa95b6e7caeca29d9bd4243764870c",
         "fbdc6a10fdce5bd991d8cbaff9af03ddc097ac499d34ef37021780a8b12cfd82"),
        ("x1 x2 x3\nx2 x3\nx3 x4\n", Mover.TRUDY, 2, 637,
         "b8965f84b8259e455585a2c7e981a643470a82756262bfaf6c60ff1a96f84a4d",
         "d6b086215cbb272e50d54fabd6d63fd238077dd059314ef7c78094a8794e3e10"),
    ],
)
def test_compiled_boards_and_labels_are_byte_stable(text, first, N, strings, board_digest, labels_digest):
    """Board text and string labels, padded and unpadded, pinned as
    written before the compiler built each board in one pass."""
    g = compile_gamesat_to_lava(parse_dnf(text), N, first).graph
    labels = "".join(f"{sid} {label}\n" for sid, label in enumerate(g.labels) if label is not None)
    assert g.string_count == strings
    assert hashlib.sha256(canonical_text(g).encode()).hexdigest() == board_digest
    assert hashlib.sha256(labels.encode()).hexdigest() == labels_digest


def _drop_first_variable_into_a_pad(doc):
    doc["gadgets"] = doc["gadgets"][1:] + [{"kind": "pad", "rope": [0, 2]}]


def _shrink_last_clause_rope(doc):
    rope = [g for g in doc["gadgets"] if g["kind"] == "clause"][-1]["rope"]
    rope[1] -= 1


def _set(path, value):
    def mutate(doc):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        doc[last] = value

    return mutate


def _swap(*places):
    """Swap the values of each pair of (gadget index, key) places."""

    def mutate(doc):
        gadgets = doc["gadgets"]
        for (i, a), (j, b) in places:
            gadgets[i][a], gadgets[j][b] = gadgets[j][b], gadgets[i][a]

    return mutate


@pytest.mark.parametrize(
    "mutate,message",
    [
        (_set(["gadgets"], 7), "malformed plan"),
        (_set(["first"], "nobody"), "malformed plan"),
        (_set(["gadgets", 0, "colour"], "red"), '"output_coin": 1, "colour": "red"}, but the compiled plan has'),
        (_set(["predicted", "gamesat_value"], "Maybe"), 'plan: predicted is {"gamesat_value": "Maybe",'),
        (_set(["gadgets", 0, "kind"], "gizmo"), 'plan: gadget 0 is {"kind": "gizmo",'),
        (_set(["gadgets", 0, "kind"], ["variable"]), 'plan: gadget 0 is {"kind": ["variable"],'),
        (_set(["gadgets", 0, "bottom"], ["a", 1]), '"var": 0, "bottom": ["a", 1], "top": [1, 2],'),
        (_set(["gadgets", -1, "rope"], [200, 300]), 'plan: gadget 13 is {"kind": "pad", "rope": [200, 300]}, but the compiled plan has {"kind": "pad", "rope": [264, 265]}'),
        (_set(["gadgets", 1, "bottom"], [0, 1]), '"var": 1, "bottom": [0, 1], "top": [3, 4],'),
        (_drop_first_variable_into_a_pad, 'plan: gadget 0 is {"kind": "variable", "level": 0, "var": 1,'),
        (_set(["gadgets", 2, "mid_coin"], 16), '"input_coin": 1, "mid_coin": 16, "output_coin": 5}, but'),
        (_set(["root_coin"], -1), "plan: root_coin is -1, but the compiled plan has 4"),
        (_set(["formula"], "x1 x2 x3"), "plan does not compile to this board: instance needs 352 strings, above cap 266"),
        (_set(["gadgets", 1, "var"], 5), 'gadget 1 is {"kind": "variable", "level": 0, "var": 5,'),
        (_set(["gadgets", 12, "clause"], "real:0"), 'gadget 12 is {"kind": "clause", "level": 3, "clause": "real:0",'),
        (_set(["gadgets", 2, "source"], "var:7"), 'gadget 2 is {"kind": "wire", "level": 1, "source": "var:7", "target": "real:0",'),
        (_set(["gadgets", 4, "source"], "var:0"), 'gadget 4 is {"kind": "wire", "level": 2, "source": "var:0", "target": "real:0",'),
        (_set(["gadgets", 3, "target"], "real:1"), 'gadget 3 is {"kind": "wire", "level": 1, "source": "var:1", "target": "real:1",'),
        # A real clause key, but not the one the layout puts there.
        (_set(["gadgets", 5, "target"], "real:0"), 'gadget 5 is {"kind": "wire", "level": 2, "source": "root", "target": "real:0",'),
        (_set(["gadgets", 13, "level"], 0), 'gadget 13 is {"kind": "pad", "rope": [264, 265], "level": 0}, but the compiled plan has {"kind": "pad", "rope": [264, 265]}'),
        (_shrink_last_clause_rope, '"clause": "empty", "rope": [232, 263], "input_coin": 8}, but'),
        # Ropes of the right shape on the wrong gadget: a wire's bottom
        # and top, and the ranges of two level-1 wires, exchanged.
        (_swap(((2, "bottom"), (2, "top"))), '"target": "real:0", "bottom": [6, 10], "top": [4, 6],'),
        (_swap(((2, "bottom"), (3, "bottom")), ((2, "top"), (3, "top"))), '"target": "real:0", "bottom": [10, 12], "top": [12, 16],'),
        (_set(["formula"], CHAIN12), "plan does not compile to this board: instance needs 2064 strings, above cap 266"),
    ],
)
def test_artifact_from_json_rejects_plans_that_do_not_fit_the_board(mutate, message):
    art = compile_gamesat_to_lava(parse_dnf("x1 x2"), 2, Mover.TRUDY)
    doc = json.loads(artifact_to_json(art))
    mutate(doc)
    with pytest.raises(ParseError, match=re.escape(message)):
        artifact_from_json(json.dumps(doc), art.graph)


@given(seed=st.integers(min_value=0, max_value=3000))
@settings(max_examples=40, deadline=None)
def test_compiled_totals_match_closed_form(seed: int):
    """Property: compiled string totals equal the closed form plus the
    pad, on random formulas at N in {2, 3}."""
    rng = random.Random(seed)
    f = random_formula(rng, max_n=3, max_m=2)
    N = rng.choice((2, 3))
    first = rng.choice(list(Mover))
    art = compile_gamesat_to_lava(f, N, first)
    expect = total_strings(f, N) + (1 if art.predicted["pad"] else 0)
    assert art.graph.string_count == expect
    assert art.predicted["T0"] == total_strings(f, N)


@given(seed=st.integers(min_value=0, max_value=3000))
@settings(max_examples=40, deadline=None)
def test_compiled_boards_are_lava_playable(seed: int):
    """Property: compiled boards have no self-loop and a first legal cut
    exists for every string class except the pad."""
    rng = random.Random(seed)
    f = random_formula(rng, max_n=3, max_m=2)
    art = compile_gamesat_to_lava(f, 2, rng.choice(list(Mover)))
    g = art.graph
    assert not g.has_self_loop
    state = initial_state(g)
    from coingames.engine import legal_moves

    legal = legal_moves(state, GameKind.COINS_ARE_LAVA)
    # Nothing is pendant at the start, so every cut is legal.
    assert len(legal) == g.string_count


def _text_and_labels(g) -> str:
    labels = "".join(f"{sid} {label}\n" for sid, label in enumerate(g.labels) if label is not None)
    return canonical_text(g) + labels


def test_reduced_boards_and_labels_are_byte_stable():
    """Both board-to-board reductions, on a compiled (labelled) board and
    on 20 seeded random boards with isolated coins and ground strings,
    pinned as written before the builder appended whole boards."""
    boards = [compile_gamesat_to_lava(parse_dnf("x1 x2"), 2, Mover.TRUDY).graph]
    boards += RandomMultigraphs(max_coins=5, max_strings=10, ground_prob=0.3, seed=18).instances(20)
    digest = hashlib.sha256()
    for g in boards:
        digest.update(_text_and_labels(reduce_lava_to_nimstring(g)).encode())
        digest.update(_text_and_labels(reduce_nimstring_to_sac(g)).encode())
    assert len(boards) == 21
    assert digest.hexdigest() == "da92d3b3359e9c508865753bf8abca9739f44386e2a41af9058ea372509c3c2c"


def _label_slots(g) -> tuple:
    """A board's labels, one slot per string: ``()`` or aligned."""
    assert g.labels == () or len(g.labels) == g.string_count
    return g.labels or (None,) * g.string_count


def test_labels_are_empty_or_one_slot_per_string():
    """Every source of boards keeps ``labels`` empty or aligned with
    ``strings``, and a reduction of an unlabelled board labels exactly
    the strings it adds."""
    b = GraphBuilder()
    c = b.add_coin()
    b.add_rope(c, GROUND, 2)
    bare = b.build()
    assert bare.labels == ()
    b.add_string(c, c, "loop")
    b.add_rope(c, GROUND, 2)
    assert b.build().labels == (None, None, "loop", None, None)
    plain = parse_text("coins 2\nstring 0 0 1\nstring 1 1 ground\n")
    assert plain.labels == ()
    compiled = compile_gamesat_to_lava(parse_dnf("x1 x2"), 2, Mover.TRUDY).graph
    assert None not in _label_slots(compiled)

    def union(*boards):
        b = GraphBuilder()
        for g in boards:
            b.add_board(g)
        return b.build()

    assert _label_slots(union(compiled, plain)) == compiled.labels + (None, None)
    assert _label_slots(union(plain, compiled)) == (None, None) + compiled.labels
    assert union(plain, bare).labels == ()
    for g in (plain, compiled):
        nim = reduce_lava_to_nimstring(g)
        sac = reduce_nimstring_to_sac(g)
        for h, added in ((nim, [f"anchor-chain:{c}" for c in range(g.coin_count) for _ in range(5)]),
                         (sac, ["winner-cycle"] * (g.coin_count + 1))):
            assert _label_slots(h) == _label_slots(g) + tuple(added)
