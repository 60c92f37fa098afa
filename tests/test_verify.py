"""Self-auditing campaigns: oracles, reductions, structure, and parity."""

import hashlib
import json
import random
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from coingames import gamesat as gamesat_module, verify as verify_module
from coingames.cli import run
from coingames.engine import GameKind, Player, initial_state
from coingames.errors import BudgetExceeded
from coingames.gamesat import Mover, parse_dnf
from coingames.multigraph import GROUND, GraphBuilder, canonical_text
from coingames.reduce import reduce_lava_to_nimstring
from coingames.solver import NAIVE_BUDGET, SolveResult, solve
from coingames.strategy import TrudyScript
from coingames.verify import (
    CampaignReport,
    LoonyPlanter,
    RandomMultigraphs,
    campaign_strategies,
    check_lemma1,
    check_lemma3,
    check_loony,
    check_oracle,
    check_skip_dominance,
    check_structure,
    enumerate_small_formulas,
    fallon_win_combos,
    parity_campaign,
    random_multigraph,
    recount_structure,
    sweep_structure,
)


MAJORITY = "x1 x2\nx1 x3\nx2 x3"


def test_report_ok_requires_no_fails_and_no_skips():
    assert CampaignReport("x", passes=3).ok
    assert not CampaignReport("x", fails=1).ok
    assert not CampaignReport("x", skipped=1).ok
    assert not CampaignReport("x").ok


def test_a_campaign_that_checks_nothing_is_not_ok():
    """Library calls with empty sizes (the CLI refuses these flags with
    exit 2) do no work, so none of them may report success."""
    strategies = campaign_strategies(parse_dnf("x1 x2\n"), Mover.TRUDY, seeds=0)
    reports = [
        strategies,
        check_oracle(RandomMultigraphs(3, 5, 0.3, 1), 0),
        parity_campaign(minimum=0),
        check_skip_dominance(0, 0),
        sweep_structure(0, 1),
        check_loony(LoonyPlanter(1), -3),
    ]
    assert [(r.name, r.passes, r.ok) for r in reports] == [(r.name, 0, False) for r in reports]
    assert strategies.details["minimal_N"] is None


def test_report_serializes_to_json():
    rep = CampaignReport("demo", seed=1, count=2, passes=2)
    doc = json.loads(rep.to_json())
    assert doc["name"] == "demo"
    assert doc["ok"] is True
    assert doc["counterexamples"] == []


def test_a_seeded_oracle_report_is_pinned_byte_for_byte():
    gen = RandomMultigraphs(max_coins=3, max_strings=5, ground_prob=0.3, seed=7)
    assert check_oracle(gen, 4).to_json() == (
        "{\n"
        '  "count": 4,\n'
        '  "counterexamples": [],\n'
        '  "details": {\n'
        '    "comparisons": 12\n'
        "  },\n"
        '  "fails": 0,\n'
        '  "name": "oracle",\n'
        '  "ok": true,\n'
        '  "passes": 4,\n'
        '  "seed": 7,\n'
        '  "skipped": 0\n'
        "}\n"
    )


def test_generator_is_reproducible():
    gen = RandomMultigraphs(max_coins=4, max_strings=8, ground_prob=0.3, seed=11)
    a = [g for g in gen.instances(5)]
    b = [g for g in gen.instances(5)]
    assert [
        (g.coin_count, [(s.a, s.b) for s in g.strings]) for g in a
    ] == [(g.coin_count, [(s.a, s.b) for s in g.strings]) for g in b]


@given(seed=st.integers(min_value=0, max_value=2000))
@settings(max_examples=30, deadline=None)
def test_no_isolated_generator_anchors_every_coin(seed: int):
    """Property: with no_isolated set, every coin touches a string."""
    gen = RandomMultigraphs(
        max_coins=3, max_strings=5, ground_prob=0.3, seed=seed, no_isolated=True
    )
    for g in gen.instances(3):
        assert all(g.incidence)


def test_small_bias_shrinks_instances():
    big = RandomMultigraphs(max_coins=5, max_strings=12, ground_prob=0.3, seed=5)
    small = RandomMultigraphs(
        max_coins=5, max_strings=12, ground_prob=0.3, seed=5, small_bias=True
    )
    def mean(gs):
        return sum(g.string_count for g in gs) / len(gs)

    assert mean(list(small.instances(60))) < mean(list(big.instances(60)))


def test_enumerate_small_formulas_counts():
    assert sum(1 for _ in enumerate_small_formulas(2, 2)) == 7
    assert sum(1 for _ in enumerate_small_formulas(3, 2)) == 35


def test_enumerate_small_formulas_stops_at_the_clause_count():
    """Three variables have 7 distinct clauses, so a clause bound past 7
    adds nothing and costs nothing."""
    start = time.perf_counter()
    huge = list(enumerate_small_formulas(3, 10**5))
    assert time.perf_counter() - start < 1
    assert huge == list(enumerate_small_formulas(3, 7))
    assert len(huge) == 135


def test_oracle_campaign_small():
    gen = RandomMultigraphs(
        max_coins=3, max_strings=6, ground_prob=0.3, seed=99, small_bias=True
    )
    rep = check_oracle(gen, 15)
    assert rep.ok
    assert rep.count == 15
    assert rep.details["comparisons"] == 45


def test_oracle_campaign_at_12_to_14_strings():
    """Ten seeded boards at the top of the oracle's range: 4 of 12
    strings, 3 of 13 and 3 of 14, each with 3-6 coins."""
    rng = random.Random(1214)
    boards = [random_multigraph(rng, rng.randint(3, 6), strings, 0.3) for strings in [12] * 4 + [13] * 3 + [14] * 3]
    gen = SimpleNamespace(seed=1214, instances=lambda count: iter(boards[:count]))
    rep = check_oracle(gen, len(boards))
    assert rep.ok, rep.counterexamples[:3]
    assert rep.count == 10
    assert rep.details["comparisons"] == 30


def test_lemma1_campaign_small():
    gen = RandomMultigraphs(max_coins=3, max_strings=6, ground_prob=0.3, seed=7)
    rep = check_lemma1(gen, 10)
    assert rep.ok
    assert rep.passes == 10


def test_lemma3_campaign_small():
    gen = RandomMultigraphs(
        max_coins=2, max_strings=4, ground_prob=0.3, seed=13, no_isolated=True
    )
    rep = check_lemma3(gen, 10)
    assert rep.ok
    assert rep.passes == 10


def test_lemma3_sweep_with_three_coin_g():
    """G of up to 3 coins and 7 strings, so H reaches 22 strings: every
    instance is solved on both sides, none is skipped."""
    gen = RandomMultigraphs(max_coins=3, max_strings=7, ground_prob=0.3, seed=7, no_isolated=True)
    rep = check_lemma3(gen, 100)
    assert rep.ok, rep.counterexamples[:3]
    assert (rep.passes, rep.skipped) == (100, 0)


def test_lemma1_sweep_above_the_oracle_cap():
    """G of up to 4 coins and 22 strings, a quarter of them above the
    oracle's 14: Nimstring on G and Strings-and-Coins on H run in
    different searches, so each cross-checks the other where the oracle
    cannot."""
    gen = RandomMultigraphs(max_coins=4, max_strings=22, ground_prob=0.3, seed=8)
    assert max(g.string_count for g in gen.instances(30)) > NAIVE_BUDGET
    rep = check_lemma1(gen, 30)
    assert rep.ok, rep.counterexamples[:3]
    assert (rep.passes, rep.skipped) == (30, 0)


@pytest.mark.parametrize(
    "check,no_isolated", [(check_lemma1, False), (check_lemma3, True)], ids=["lemma1", "lemma3"]
)
def test_lemma_crosscheck_skips_sides_above_the_oracle_limit(check, no_isolated):
    # One coin and 15 strings: G is above NAIVE_BUDGET, and so
    # is H.  The exact solves still run; only the oracle re-solve is left out.
    gen = RandomMultigraphs(
        max_coins=1, max_strings=15, ground_prob=0.3, seed=6, no_isolated=no_isolated
    )
    [g] = gen.instances(1)
    assert g.string_count > NAIVE_BUDGET
    rep = check(gen, 1)
    assert rep.ok
    assert rep.passes == 1
    assert rep.details["crosschecked"] == 0


def test_lemma3_needs_every_coin_anchored():
    # The one-coin, zero-string board: the Lava mover is stuck at once,
    # but the anchored Nimstring board hands the mover a chain whose
    # final freeing cut buys a winning extra move.  This is exactly why
    # the equivalence is only claimed for boards without isolated coins.
    b = GraphBuilder()
    b.add_coin()
    g = b.build()
    lava = solve(initial_state(g), GameKind.COINS_ARE_LAVA)
    nim = solve(initial_state(reduce_lava_to_nimstring(g)), GameKind.NIMSTRING)
    assert lava.winner_for_mover is False
    assert nim.winner_for_mover is True


def test_lemma3_holds_on_the_empty_board():
    g = GraphBuilder().build()
    lava = solve(initial_state(g), GameKind.COINS_ARE_LAVA)
    nim = solve(initial_state(reduce_lava_to_nimstring(g)), GameKind.NIMSTRING)
    assert lava.winner_for_mover is nim.winner_for_mover


def test_loony_campaign_small():
    rep = check_loony(LoonyPlanter(seed=3), 10)
    assert rep.ok
    assert rep.passes == 10


def test_recount_matches_closed_form():
    rep = check_structure(parse_dnf(MAJORITY), 2, Mover.TRUDY)
    assert rep.ok
    assert rep.fails == 0


def test_recount_flags_a_tampered_board():
    from coingames.reduce import compile_gamesat_to_lava

    art = compile_gamesat_to_lava(parse_dnf(MAJORITY), 2, Mover.TRUDY)
    g = art.graph
    from coingames.multigraph import Multigraph

    tampered = Multigraph(g.coin_count, g.strings[:-2], g.labels[:-2])
    observed = recount_structure(tampered, 2)
    full = recount_structure(g, 2)
    assert observed != full
    assert full["all_strings_counted"]


def test_a_structure_audit_lists_each_count_off_its_closed_form(monkeypatch):
    real = verify_module.closed_form_counts

    def wrong_w1(f):
        return {**real(f), "W1": real(f)["W1"] + 1}

    monkeypatch.setattr(verify_module, "closed_form_counts", wrong_w1)
    rep = check_structure(parse_dnf(MAJORITY), 2, Mover.TRUDY)
    assert not rep.ok and (rep.count, rep.passes, rep.fails) == (12, 10, 2)
    (counterexample,) = rep.counterexamples
    assert counterexample["formula"] == "x1 x2\nx1 x3\nx2 x3\n"
    assert (counterexample["N"], counterexample["first"]) == (2, "trudy")
    w1 = real(parse_dnf(MAJORITY))["W1"]
    assert counterexample["mismatches"] == {
        key: {"expected": w1 + 1, "observed": w1} for key in ("W1_bottom", "W1_top")
    }


@pytest.mark.parametrize("output_first", [False, True])
def test_recount_finds_a_variable_gadget_whichever_coin_comes_first(output_first):
    """A variable gadget's top rope joins its middle coin to its output
    coin; the recount finds it whether the output coin has the lower id
    or the higher."""
    b = GraphBuilder()
    out, mid = b.add_coins(2) if output_first else b.add_coins(2)[::-1]
    b.add_rope(mid, GROUND, 1)
    b.add_rope(mid, out, 1)
    counts = recount_structure(b.build(), 2)
    assert (counts["variables"], counts["out_wire_counts"]) == (1, [0])
    assert counts["all_strings_counted"]


def test_skip_dominance_exhaustive_small():
    rep = check_skip_dominance(2, 2)
    assert rep.ok
    assert rep.details["formulas"] == 7
    assert rep.count == 14


def test_skip_dominance_names_the_first_state_the_table_gets_wrong(monkeypatch):
    """One flipped bit of the table (x1, nothing set, Fallon to move)
    fails Fallon's check there and leaves Trudy's alone."""
    build = gamesat_module._GsSolver.__init__

    def flipped(self, formula):
        build(self, formula)
        bits = bytearray(self.trudy_wins[Mover.FALLON])
        bits[0] ^= 1
        self.trudy_wins[Mover.FALLON] = bytes(bits)

    monkeypatch.setattr(gamesat_module._GsSolver, "__init__", flipped)
    rep = check_skip_dominance(1, 1)
    assert not rep.ok and (rep.count, rep.passes, rep.fails) == (2, 1, 1)
    assert rep.counterexamples == [
        {
            "formula": "x1\n",
            "mover": "fallon",
            "assignment": [None],
            "table": "TrudyWins",
            "explicit": "FallonWins",
            "move": None,
        }
    ]


def test_skip_dominance_checks_where_each_winning_move_leads(monkeypatch):
    """A move query that answers the lowest unset variable at the wrong
    value is caught at the first won state of each mover."""
    monkeypatch.setattr(
        verify_module, "winning_set_move", lambda f, a, mover: (a.index(None), mover is Mover.FALLON)
    )
    rep = check_skip_dominance(1, 1)
    assert not rep.ok and (rep.count, rep.fails) == (2, 2)
    assert rep.counterexamples == [
        {
            "formula": "x1\n",
            "mover": mover,
            "assignment": [None],
            "table": value,
            "explicit": value,
            "move": [0, mover == "fallon"],
        }
        for mover, value in (("trudy", "TrudyWins"), ("fallon", "FallonWins"))
    ]


def test_fallon_win_combos_are_fallon_wins():
    combos = list(fallon_win_combos(2, 2))
    assert combos
    from coingames.gamesat import GameSatValue, solve_gamesat

    for f, first in combos:
        assert solve_gamesat(f, first) is GameSatValue.FALLON_WINS
        assert all(len(c) >= 2 for c in f.clauses)


def test_parity_campaign_small():
    rep = parity_campaign(N_values=(2,), max_n=3, max_m=2, minimum=5)
    assert rep.ok
    assert rep.details["canonical_terminals"] >= 5
    assert rep.details["non_canonical"] == 0


def test_strategy_campaign_records_minimal_n():
    rep = campaign_strategies(parse_dnf("x1 x2"), Mover.TRUDY, seeds=5)
    assert rep.ok
    assert rep.details["minimal_N"] == 2
    stats = rep.details["per_N"]["2"]
    for name in ("random", "greedy", "opposing-script"):
        assert stats[name]["losses"] == 0
        assert stats[name]["violations"] == 0
        assert stats[name]["census_ok"] is True


@pytest.mark.parametrize("first", list(Mover), ids=lambda m: m.value)
@pytest.mark.parametrize("text", ["x1 x2", MAJORITY], ids=["x1x2", "majority"])
def test_scripts_win_both_fixtures_at_every_n_from_2_to_4(text, first):
    """The predicted winner's script wins each N on its own, not only the
    minimal N where ``campaign_strategies`` stops by default."""
    for N in (2, 3, 4):
        rep = campaign_strategies(parse_dnf(text), first, (N,), seeds=2)
        assert rep.ok, (N, rep.counterexamples[:1])


def test_campaigns_seat_the_winners_script_at_its_own_seat(monkeypatch):
    """Each playout puts the predicted winner's script in the seat its
    side maps to; a campaign that judged the win from that seat while
    playing the script from the other one would still report wins."""
    seatings = []
    real_playout = verify_module.playout

    def spy(artifact, p1, p2, seed=0):
        seatings.append((artifact, p1.name, p2.name))
        return real_playout(artifact, p1, p2, seed=seed)

    monkeypatch.setattr(verify_module, "playout", spy)
    for text, first in (("x1 x2", Mover.TRUDY), ("x1 x2", Mover.FALLON), (MAJORITY, Mover.TRUDY)):
        campaign_strategies(parse_dnf(text), first, N_values=(2,), seeds=1)
    parity_campaign((2,), 3, 2, minimum=3)
    assert len(seatings) == 3 * 3 + 3
    for artifact, p1_name, p2_name in seatings:
        names = {Player.P1: p1_name, Player.P2: p2_name}
        assert names[artifact.player_for(artifact.winner)] == f"{artifact.winner.value}-script"


def test_an_illegal_script_cut_fails_the_playout_in_both_campaigns(monkeypatch, capsys):
    monkeypatch.setattr(TrudyScript, "choose", lambda self: -1)
    assert run(["verify", "parity", "--minimum", "3"]) == 1
    out, err = capsys.readouterr()
    rep = json.loads(out)  # exactly one JSON document, and no error line
    assert err == ""
    assert rep["ok"] is False
    assert rep["counterexamples"][0]["problem"] == "illegal cut in script-vs-script play"

    rep = campaign_strategies(parse_dnf(MAJORITY), Mover.TRUDY, N_values=(2,), seeds=2)
    row = rep.details["per_N"]["2"]["opposing-script"]
    assert row["violations"] == row["losses"] == 2
    assert not rep.ok


def test_a_failing_parity_campaign_stops_at_its_minimum(monkeypatch):
    """A fault that fails every playout costs ``minimum`` playouts and
    their counterexamples, plus the shortfall of canonical terminals."""
    monkeypatch.setattr(TrudyScript, "choose", lambda self: -1)
    rep = parity_campaign(minimum=3)
    assert rep.details["playouts"] == rep.count == 3
    assert rep.ok is False
    assert len(rep.counterexamples) <= 4


def test_an_oracle_mismatch_lists_each_disagreeing_kind(monkeypatch):
    monkeypatch.setattr(verify_module, "naive_solve", lambda state, kind: SolveResult(kind, net_for_mover=99))
    rep = check_oracle(RandomMultigraphs(2, 3, 0.3, 1), 3)
    assert (rep.count, rep.passes, rep.fails, rep.ok) == (3, 0, 3, False)
    for example in rep.counterexamples:
        assert set(example) == {"instance", "mismatches"}
        assert set(example["mismatches"]) == {"sac", "nimstring", "lava"}
        assert example["mismatches"]["sac"]["naive"] == 99


def test_a_drawn_point_side_fails_and_counts_the_lemma1_instance(monkeypatch):
    monkeypatch.setattr(verify_module, "solve", lambda state, kind: SolveResult(kind, True, 0))
    rep = check_lemma1(RandomMultigraphs(2, 3, 0.3, 1), 3)
    assert (rep.count, rep.passes, rep.fails, rep.details["draws"], rep.ok) == (3, 0, 3, 3, False)
    assert [set(ex) for ex in rep.counterexamples] == [{"instance", "nim_winner", "sac_winner"}] * 3
    assert {ex["sac_winner"] for ex in rep.counterexamples} == {"Draw"}


def test_a_naive_recheck_that_disagrees_fails_the_instance(monkeypatch):
    """Instances 0 and 10 are re-solved by the oracle; there a flipped
    oracle fails them although both exact solves agree."""
    monkeypatch.setattr(
        verify_module, "naive_solve", lambda state, kind: SolveResult(kind, not solve(state, kind).winner_for_mover)
    )
    rep = check_lemma3(RandomMultigraphs(2, 4, 0.3, 13, no_isolated=True), 11)
    assert (rep.count, rep.passes, rep.fails, rep.details["crosschecked"], rep.ok) == (11, 9, 2, 2, False)
    assert [set(ex) for ex in rep.counterexamples] == [{"instance", "lava_winner", "nim_winner"}] * 2


def test_a_solve_over_budget_skips_the_instance(monkeypatch):
    def over_budget(state, kind):
        raise BudgetExceeded("over budget")

    monkeypatch.setattr(verify_module, "solve", over_budget)
    reports = [check_lemma1(RandomMultigraphs(2, 3, 0.3, 1), 3), check_loony(LoonyPlanter(1), 3)]
    assert [(r.count, r.skipped, r.passes, r.fails, r.ok, r.counterexamples) for r in reports] == [
        (3, 3, 0, 0, False, [])
    ] * 2


def test_parity_failures_name_their_problem(monkeypatch):
    """A canonical terminal that the Fallon seat lost is reported with
    the stuck seat; a non-canonical one with its problem, and then the
    shortfall of canonical terminals too."""
    real_playout = verify_module.playout

    def lost(*args, **kw):
        record = real_playout(*args, **kw)
        return replace(record, winner=record.stuck)

    def not_canonical(*args, **kw):
        record = real_playout(*args, **kw)
        return replace(record, census={**record.census, "clauses": dict.fromkeys(record.census["clauses"], 1)})

    keys = {"formula", "first", "N", "census"}
    monkeypatch.setattr(verify_module, "playout", lost)
    rep = parity_campaign((2,), 3, 2, minimum=3)
    assert (rep.count, rep.fails, rep.details["canonical_terminals"], rep.ok) == (3, 3, 3, False)
    assert [set(ex) for ex in rep.counterexamples] == [keys | {"stuck"}] * 3
    monkeypatch.setattr(verify_module, "playout", not_canonical)
    rep = parity_campaign((2,), 3, 2, minimum=3)
    assert (rep.count, rep.fails, rep.details["non_canonical"], rep.details["canonical_terminals"]) == (3, 4, 3, 0)
    assert [set(ex) for ex in rep.counterexamples] == [keys | {"problem"}] * 3 + [{"problem", "seen"}]


def test_planted_loony_instances_are_pinned():
    """The first 50 planted instances (board text and the two planted
    ids), pinned as written before the builder appended whole boards."""
    digest = hashlib.sha256()
    for g, a_sid, b_sid in LoonyPlanter(seed=11).instances(50):
        digest.update(f"{canonical_text(g)}a {a_sid} b {b_sid}\n".encode())
    assert digest.hexdigest() == "16146401dfa034207f68adeb61023065c30f9e19af498afcf45b748a4e139115"
