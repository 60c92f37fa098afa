"""Acceptance gate: one test per headline claim, full campaign scale.

Each criterion runs the corresponding verification campaign at its
stated size and tolerance with a frozen seed, so the -v report carries
one pass/fail line per claim.  These are the same campaigns the CLI
exposes; the unit suites cover the pieces at small scale.
"""

import random
import time

from coingames.gamesat import GameSatValue, Mover, parse_dnf, solve_gamesat
from coingames.verify import (
    LoonyPlanter,
    RandomMultigraphs,
    campaign_strategies,
    check_lemma1,
    check_lemma3,
    check_loony,
    check_oracle,
    check_skip_dominance,
    check_structure,
    parity_campaign,
    random_formula,
)


def test_criterion_1_solver_matches_naive_oracle_on_600_games():
    # 200 boards of up to 10 strings, each solved under all three rule
    # sets by both solvers: 600 exact comparisons in under a minute.
    started = time.monotonic()
    gen = RandomMultigraphs(
        max_coins=5, max_strings=10, ground_prob=0.3, seed=2024, small_bias=True
    )
    report = check_oracle(gen, 200)
    elapsed = time.monotonic() - started
    assert report.ok, report.counterexamples[:3]
    assert report.count == 200
    assert report.details["comparisons"] == 600
    assert elapsed < 60.0, f"oracle campaign took {elapsed:.1f}s"


def test_criterion_2_winner_cycle_preserves_nimstring_winner_100_of_100():
    # Nimstring on G versus Strings-and-Coins on G plus a fresh cycle;
    # a draw on the point-scoring side counts as a mismatch.
    gen = RandomMultigraphs(max_coins=4, max_strings=7, ground_prob=0.3, seed=7)
    report = check_lemma1(gen, 100)
    assert report.ok, report.counterexamples[:3]
    assert report.passes == 100
    assert report.details["draws"] == 0


def test_criterion_3_planted_loony_positions_are_first_player_wins():
    # 100 planted degree-2-next-to-degree-1 patterns: every instance is
    # a first-player Nimstring win and the scripted opening (cut both
    # strings, or just the far one) is confirmed winning by search.
    report = check_loony(LoonyPlanter(seed=11), 100)
    assert report.ok, report.counterexamples[:3]
    assert report.passes == 100
    # Both branches of the scripted line must actually occur.
    assert report.details["two_cut_lines"] > 0
    assert report.details["one_cut_lines"] > 0


def test_criterion_4_ground_chains_preserve_lava_winner_100_of_100():
    # Coins-are-Lava on G versus Nimstring on G with length-5 ground
    # chains, on boards where every coin touches a string (H stays
    # within 14 strings), well under the five-minute budget.
    started = time.monotonic()
    gen = RandomMultigraphs(
        max_coins=2, max_strings=4, ground_prob=0.4, seed=7, no_isolated=True
    )
    report = check_lemma3(gen, 100, chain_len=5)
    elapsed = time.monotonic() - started
    assert report.ok, report.counterexamples[:3]
    assert report.passes == 100
    assert elapsed < 300.0, f"anchoring campaign took {elapsed:.1f}s"


def test_criterion_5_compiled_boards_match_closed_form_counts_exactly():
    # The four-variable three-clause showcase formula at both rope
    # scales, plus 50 random formulas: an independent plan-free recount
    # of every compiled board must match W1 = 2*sum(k) - n,
    # W2 = 2(n + m) - 1, m + n + 1 clause gadgets, the rope widths
    # N..N^5, and the total string count, exactly.
    showcase = parse_dnf("x1 x2 x3\nx2 x3\nx3 x4")
    reports = [
        check_structure(showcase, 2, Mover.TRUDY),
        check_structure(showcase, 3, Mover.TRUDY),
    ]
    rng = random.Random(505)
    for _ in range(50):
        f = random_formula(rng, max_n=4, max_m=3)
        reports.append(
            check_structure(f, rng.choice((2, 3)), rng.choice(list(Mover)))
        )
    bad = [r.counterexamples for r in reports if not r.ok]
    assert not bad, bad[:3]
    assert sum(r.count for r in reports) == 52 * 12


def test_criterion_6_fallon_terminals_strand_the_trudy_mapped_player():
    # Script-vs-script playouts on small Fallon-win formulas: at least
    # 50 canonical terminals, and in each the stuck mover is the
    # Trudy-mapped player; zero parity violations.
    report = parity_campaign(minimum=50)
    assert report.ok, report.counterexamples[:3]
    assert report.details["canonical_terminals"] >= 50
    assert report.details["non_canonical"] == 0


def test_criterion_7_skips_never_change_the_gamesat_value():
    # Exhaustive over positive DNFs with n <= 3, m <= 3, both movers:
    # the one Game SAT table, which ignores skips, equals an explicit
    # solve of the set-or-skip game at every state, and every winning
    # set move it gives keeps the win.
    report = check_skip_dominance(3, 3)
    assert report.ok, report.counterexamples[:3]
    assert report.details["formulas"] == 71
    assert report.count == 142


def test_criterion_8_scripts_win_every_seeded_playout_at_minimal_n():
    # The predicted winner's script against UniformRandom,
    # GreedyDisabler, and the opposing script: 200 seeded playouts per
    # opponent at the recorded minimal N, 100% wins, zero legality
    # violations, and every terminal census canonical (each variable
    # and wire keeps one string; the winners differ by one clause
    # string).
    fixtures = {
        "x1 x2": GameSatValue.FALLON_WINS,
        "x1 x2\nx1 x3\nx2 x3": GameSatValue.TRUDY_WINS,
    }
    for text, expected in fixtures.items():
        f = parse_dnf(text)
        assert solve_gamesat(f, Mover.TRUDY) is expected
        report = campaign_strategies(f, Mover.TRUDY, seeds=200)
        assert report.ok, (text, report.counterexamples[:1])
        minimal = report.details["minimal_N"]
        assert minimal == 2
        stats = report.details["per_N"][str(minimal)]
        for opponent in ("random", "greedy", "opposing-script"):
            assert stats[opponent]["wins"] == 200, (text, opponent, stats)
            assert stats[opponent]["losses"] == 0
            assert stats[opponent]["violations"] == 0
            assert stats[opponent]["census_ok"] is True
