"""Command line round-trips: every subcommand, every exit code."""

import contextlib
import hashlib
import io
import itertools
import json
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from coingames import cli as cli_module, reduce as reduce_module, verify as verify_module
from coingames.cli import build_parser, run
from coingames.engine import GameKind, Player, apply_move, initial_state, is_terminal
from coingames.errors import IllegalMove
from coingames.gamesat import Mover, format_dnf
from coingames.multigraph import parse_text
from coingames.verify import CampaignReport


TRIANGLE = "coins 3\nstring 0 0 1\nstring 1 1 2\nstring 2 2 0\n"
CONJUNCTION = "x1 x2\n"


@pytest.fixture
def board(tmp_path):
    path = tmp_path / "board.txt"
    path.write_text(TRIANGLE)
    return str(path)


@pytest.fixture
def formula(tmp_path):
    path = tmp_path / "formula.dnf"
    path.write_text(CONJUNCTION)
    return str(path)


def test_solve_lone_string_fixture(tmp_path, capsys):
    path = tmp_path / "lone.txt"
    path.write_text("coins 1\nstring 0 0 ground\n")
    assert run(["solve", "--game", "nimstring", "--in", str(path)]) == 0
    assert "winner=P2" in capsys.readouterr().out


def test_solve_reports_winner_and_states(board, capsys):
    assert run(["solve", "--game", "nimstring", "--in", board]) == 0
    out = capsys.readouterr().out
    assert out.startswith("winner=P1 ")
    assert "states=" in out


def test_solve_sac_score_line(board, capsys):
    assert run(["solve", "--game", "sac", "--in", board]) == 0
    out = capsys.readouterr().out
    # The triangle is a 3-coin giveaway: mover loses 0-3.
    assert "winner=P2 score=0-3" in out


def test_solve_sac_with_p2_first_prints_the_score_from_p1s_side(tmp_path, capsys):
    """The solver's net is the mover's; with P2 to move the CLI swaps it
    so the score still reads P1-P2."""
    path = tmp_path / "board.txt"
    path.write_text("coins 2\nstring 0 0 1\nstring 1 1 ground\nstring 2 0 ground\nstring 3 0 ground\n")
    assert run(["solve", "--game", "sac", "--in", str(path), "--first", "P2"]) == 0
    assert capsys.readouterr().out.startswith("winner=P2 score=0-2 ")


def test_solve_budget_exhaustion_is_usage_error(board, capsys):
    assert run(["solve", "--game", "sac", "--in", board, "--budget", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_refuses_a_search_deeper_than_its_ceiling(tmp_path, capsys):
    """An open chain of 1,199 coins (1,200 strings) fits a budget of
    5000 but would recurse once per string."""
    chain = ["coins 1199", "string 0 ground 0"]
    chain += [f"string {i} {i - 1} {i}" for i in range(1, 1199)]
    chain.append("string 1199 1198 ground")
    path = tmp_path / "chain.txt"
    path.write_text("\n".join(chain) + "\n")
    assert run(["solve", "--game", "nimstring", "--in", str(path), "--budget", "5000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "search depth" in err
    assert err.count("\n") == 1


def test_missing_file_is_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert run(["solve", "--game", "sac", "--in", missing]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_board_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("coins -3\n")
    assert run(["solve", "--game", "sac", "--in", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_a_bare_coins_header_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bare.txt"
    path.write_text("coins\n")
    assert run(["solve", "--game", "sac", "--in", str(path)]) == 2
    assert _one_error_line(capsys) == "error: line 1: expected 'coins <count>'\n"


def test_solve_refuses_a_self_loop_board(tmp_path, capsys):
    path = tmp_path / "loop.txt"
    path.write_text("coins 1\nstring 0 0 0\nstring 1 0 ground\n")
    assert run(["solve", "--game", "sac", "--in", str(path)]) == 2
    assert _one_error_line(capsys) == "error: board has a self-loop; freeing semantics undefined\n"


@pytest.mark.parametrize("command", ["solve", "replay"])
def test_a_huge_coin_count_is_usage_error(command, tmp_path, capsys):
    """The header is refused before any per-coin table is allocated."""
    board, transcript = tmp_path / "huge.txt", tmp_path / "game.log"
    board.write_text(f"coins {10**12}\nstring 0 0 ground\n")
    transcript.write_text("cut 0\n")
    extra = ["--transcript", str(transcript)] if command == "replay" else []
    assert run([command, "--game", "sac", "--in", str(board), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 1: coin count") and captured.err.count("\n") == 1


def test_unknown_game_is_rejected_by_argparse(board):
    with pytest.raises(SystemExit):
        run(["solve", "--game", "checkers", "--in", board])


def test_reduce_nim_to_sac_writes_board(board, tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert run(["reduce", "nim-to-sac", "--in", board, "--out", str(out)]) == 0
    assert "coins=7 strings=7" in capsys.readouterr().out
    g = parse_text(out.read_text())
    assert g.coin_count == 7


def test_reduce_lava_to_nim_enforces_chain_floor(board, tmp_path, capsys):
    out = tmp_path / "out.txt"
    code = run(
        ["reduce", "lava-to-nim", "--in", board, "--out", str(out), "--chain-len", "3"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert run(["reduce", "lava-to-nim", "--in", board, "--out", str(out)]) == 0
    g = parse_text(out.read_text())
    assert g.string_count == 3 + 3 * 5


@pytest.mark.parametrize("board_text, chain_len", [("coins 1000000\n", "5"), ("coins 1\n", "100000000")])
def test_reduce_lava_to_nim_refuses_an_oversized_board(board_text, chain_len, tmp_path, capsys):
    """Five million and a hundred million chain strings: refused before
    any is built."""
    board, out = tmp_path / "big.txt", tmp_path / "out.txt"
    board.write_text(board_text)
    code = run(["reduce", "lava-to-nim", "--in", str(board), "--out", str(out), "--chain-len", chain_len])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: anchored board needs") and err.count("\n") == 1
    assert not out.exists()


def test_reduce_gamesat_to_lava_with_plan(formula, tmp_path, capsys):
    out = tmp_path / "lava.txt"
    plan = tmp_path / "plan.json"
    code = run(
        [
            "reduce",
            "gamesat-to-lava",
            "--formula",
            formula,
            "--N",
            "2",
            "--first",
            "fallon",
            "--out",
            str(out),
            "--plan",
            str(plan),
        ]
    )
    assert code == 0
    line = capsys.readouterr().out
    assert "predicted=FallonWins" in line
    assert "strings=264" in line
    doc = json.loads(plan.read_text())
    assert doc["N"] == 2
    assert doc["predicted"]["pad"] is False
    assert parse_text(out.read_text()).string_count == 264


def test_reduce_pipeline_writes_all_three_boards(formula, tmp_path, capsys):
    paths = {name: tmp_path / f"{name}.txt" for name in ("lava", "nim", "sac")}
    code = run(
        [
            "reduce",
            "pipeline",
            "--formula",
            formula,
            "--N",
            "2",
            "--first",
            "fallon",
            "--out-lava",
            str(paths["lava"]),
            "--out-nim",
            str(paths["nim"]),
            "--out-sac",
            str(paths["sac"]),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "lava=264" in out
    lava = parse_text(paths["lava"].read_text())
    nim = parse_text(paths["nim"].read_text())
    sac = parse_text(paths["sac"].read_text())
    assert nim.string_count == lava.string_count + 5 * lava.coin_count
    assert sac.string_count == nim.string_count + nim.coin_count + 1


def test_reduce_pipeline_plan_fits_its_lava_board(formula, tmp_path, capsys):
    lava, plan = str(tmp_path / "lava.txt"), str(tmp_path / "plan.json")
    argv = ["reduce", "pipeline", "--formula", formula, "--N", "2", "--first", "trudy", "--out-lava", lava]
    argv += ["--out-nim", str(tmp_path / "nim.txt"), "--out-sac", str(tmp_path / "sac.txt"), "--plan", plan]
    assert run(argv) == 0
    capsys.readouterr()
    assert run(["play", "--in", lava, "--plan", plan, "--policy-a", "random", "--policy-b", "random"]) == 0
    assert "'winner':" in capsys.readouterr().out


def test_reduce_gamesat_to_lava_refuses_more_variables_than_the_budget(tmp_path, capsys):
    path = tmp_path / "wide.dnf"
    path.write_text(" ".join(f"x{i}" for i in range(1, 14)) + "\n")
    argv = ["reduce", "gamesat-to-lava", "--formula", str(path), "--N", "2", "--first", "trudy"]
    assert run(argv + ["--out", str(tmp_path / "lava.txt")]) == 2
    assert _one_error_line(capsys) == "error: 13 variables exceed budget 12\n"


def test_verify_oracle_small(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(
        [
            "verify",
            "oracle",
            "--count",
            "10",
            "--seed",
            "5",
            "--max-coins",
            "3",
            "--max-strings",
            "6",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True
    assert doc["count"] == 10


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--seed", "1"],
        ["lemma1", "--seed", "1"],
        ["lemma3", "--seed", "1"],
        ["loony", "--seed", "1"],
        ["structure"],
        ["strategies", "--formula", "f.dnf", "--first", "trudy"],
        ["parity"],
        ["skip-dominance"],
    ],
)
def test_every_campaign_takes_an_optional_out_file(argv):
    parser = build_parser()
    assert parser.parse_args(["verify", *argv]).out is None
    args = parser.parse_args(["verify", *argv, "--out", "report.json"])
    assert args.out == "report.json" and args.func.__name__ == "_cmd_verify"


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--seed", "3", "--count", "20"],
        ["lemma1", "--seed", "3", "--count", "10"],
        ["lemma3", "--seed", "3", "--count", "10"],
        ["loony", "--seed", "3", "--count", "5"],
        ["structure", "--seed", "3", "--count", "2"],
        ["structure", "--formula", "FORMULA"],
        ["strategies", "--formula", "FORMULA", "--first", "trudy", "--seeds", "2", "--N-max", "2"],
        ["parity", "--minimum", "2"],
        ["skip-dominance", "--max-n", "3", "--max-m", "2"],
    ],
)
def test_every_campaign_prints_the_same_report_twice(argv, formula, capsys):
    """Reports are byte-reproducible: the same flags, run twice in one
    process, print the same text and exit the same way."""
    argv = ["verify", *(formula if arg == "FORMULA" else arg for arg in argv)]
    runs = []
    for _ in range(2):
        code = run(argv)
        runs.append((code, capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] in (0, 1) and runs[0][1].out.startswith("{")


def test_verify_lemma_checks_small(capsys):
    assert run(["verify", "lemma1", "--count", "5", "--seed", "1", "--max-coins", "3", "--max-strings", "5"]) == 0
    assert run(["verify", "lemma3", "--count", "5", "--seed", "1"]) == 0
    assert run(["verify", "loony", "--count", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count('"ok": true') == 3


def test_verify_structure_single_formula(formula, capsys):
    assert run(["verify", "structure", "--formula", formula, "--N", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True


def test_verify_structure_sweep(capsys):
    assert run(["verify", "structure", "--count", "3", "--seed", "9"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fails"] == 0
    assert len(doc["details"]["audits"]) == 3


def test_a_failing_structure_sweep_prints_one_report(tmp_path, monkeypatch, capsys):
    mismatches = {"pad": {"expected": 1, "observed": 0}}

    def check_structure(f, N, first):
        counterexample = {"formula": format_dnf(f), "N": N, "first": first.value, "mismatches": mismatches}
        return CampaignReport("structure", count=1, fails=1, counterexamples=[counterexample])

    monkeypatch.setattr(verify_module, "check_structure", check_structure)
    out = tmp_path / "report.json"
    assert run(["verify", "structure", "--count", "4", "--seed", "9", "--out", str(out)]) == 1
    text = capsys.readouterr().out
    assert text == out.read_text()
    doc = json.loads(text)
    assert doc["fails"] == 4 and not doc["ok"]
    assert [c["mismatches"] for c in doc["counterexamples"]] == [mismatches] * 4
    assert [a["formula"] for a in doc["details"]["audits"]] == [c["formula"] for c in doc["counterexamples"]]


@pytest.mark.parametrize(
    "flags",
    [
        "--N 7",
        "--first fallon",
        "--count 2 --seed 1 --N 7 --first fallon",
        "--formula {formula} --count 2",
        "--formula {formula} --seed 1",
        "--formula {formula} --N 3 --seed 1",
    ],
)
def test_structure_refuses_a_flag_of_the_other_mode(flags, formula, capsys):
    """The sweep draws N and the first mover itself, and one formula is
    one audit, so a flag of the other mode would change nothing."""
    assert run(["verify", "structure", *flags.format(formula=formula).split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_structure_audits_keep_their_defaults(formula, monkeypatch):
    calls = []

    def record(*args):
        calls.append(args[-2:])
        return CampaignReport("structure", passes=1)

    monkeypatch.setattr(cli_module, "check_structure", record)
    monkeypatch.setattr(cli_module, "sweep_structure", record)
    assert run(["verify", "structure", "--formula", formula]) == 0
    assert run(["verify", "structure"]) == 0
    assert calls == [(2, Mover.TRUDY), (50, 0)]


@pytest.mark.parametrize(
    "campaign,defaults",
    [("oracle", (200, 5, 10, 0.3)), ("lemma1", (100, 4, 7, 0.3)), ("lemma3", (100, 2, 4, 0.4))],
)
def test_each_random_board_campaign_keeps_its_own_defaults(campaign, defaults):
    args = build_parser().parse_args(["verify", campaign, "--seed", "1"])
    assert (args.count, args.max_coins, args.max_strings, args.ground_prob) == defaults


def test_verify_skip_dominance(capsys):
    assert run(["verify", "skip-dominance", "--max-n", "2", "--max-m", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True


def test_verify_skip_dominance_refuses_more_variables_than_game_sat_solves(monkeypatch, capsys):
    """Every formula up to the bound is solved, so a bound past the Game
    SAT budget is refused before the first solve."""

    def solve(*args):
        raise AssertionError("solved a formula before the bound was checked")

    monkeypatch.setattr(verify_module, "_set_or_skip_values", solve)
    assert run(["verify", "skip-dominance", "--max-n", "13", "--max-m", "1"]) == 2
    assert capsys.readouterr() == ("", "error: max variables must be at most 12, got 13\n")


@pytest.mark.parametrize("max_n,max_m", [(5, 2), (7, 1), (4, 5), (8, 1), (9, 1), (10, 1), (5, 4)])
def test_verify_skip_dominance_refuses_a_campaign_of_too_much_work(max_n, max_m, monkeypatch, capsys):
    """(5, 2) takes over a second and the others several or more; all
    are refused in well under a second, before the first solve.  The
    work in the message is the sum of 10 + 2 * 3^n over the formulas the
    campaign would solve."""

    def solve(*args):
        raise AssertionError("solved a formula before the work was checked")

    monkeypatch.setattr(verify_module, "_set_or_skip_values", solve)
    start = time.perf_counter()
    assert run(["verify", "skip-dominance", "--max-n", str(max_n), "--max-m", str(max_m)]) == 2
    assert time.perf_counter() - start < 1
    work = sum(10 + 2 * 3**f.variable_count for f in verify_module.enumerate_small_formulas(max_n, max_m))
    assert capsys.readouterr() == ("", f"error: skip-dominance work must be at most 200000, got {work}\n")


@pytest.mark.parametrize("max_n,max_m,formulas", [(2, 2, 7), (3, 3, 71), (4, 3, 646), (6, 1, 120)])
def test_verify_skip_dominance_runs_every_campaign_below_the_work_cap(max_n, max_m, formulas, monkeypatch, capsys):
    """The largest accepted sizes, (4, 3) and (6, 1), run every formula;
    the check is stubbed so that the test does not spend their half
    second."""
    monkeypatch.setattr(verify_module, "_set_or_skip_values", lambda f: None)
    monkeypatch.setattr(verify_module, "_skip_dominance_disagreement", lambda f, solved, mover: None)
    assert run(["verify", "skip-dominance", "--max-n", str(max_n), "--max-m", str(max_m)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and doc["details"]["formulas"] == formulas and doc["count"] == 2 * formulas


def test_verify_strategies_small(formula, capsys):
    code = run(
        [
            "verify",
            "strategies",
            "--formula",
            formula,
            "--first",
            "trudy",
            "--seeds",
            "3",
            "--N-min",
            "2",
            "--N-max",
            "2",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["details"]["minimal_N"] == 2


def test_play_then_replay_round_trip(formula, tmp_path, capsys):
    board_path = tmp_path / "lava.txt"
    plan_path = tmp_path / "plan.json"
    transcript = tmp_path / "game.log"
    run(
        [
            "reduce",
            "gamesat-to-lava",
            "--formula",
            formula,
            "--N",
            "2",
            "--first",
            "fallon",
            "--out",
            str(board_path),
            "--plan",
            str(plan_path),
        ]
    )
    code = run(
        [
            "play",
            "--in",
            str(board_path),
            "--plan",
            str(plan_path),
            "--policy-a",
            "fallon-script",
            "--policy-b",
            "trudy-script",
            "--seed",
            "0",
            "--out",
            str(transcript),
        ]
    )
    assert code == 0
    summary = capsys.readouterr().out
    assert "'winner': 'P1'" in summary
    plies = transcript.read_text().count("\n")
    code = run(
        [
            "replay",
            "--in",
            str(board_path),
            "--game",
            "lava",
            "--transcript",
            str(transcript),
        ]
    )
    assert code == 0
    line = capsys.readouterr().out
    assert f"winner=P1 score=0-0 plies={plies}" in line


def test_play_without_out_prints_the_transcript_then_the_summary(tmp_path, capsys):
    board, plan = _compile(tmp_path, CONJUNCTION, "conj")
    log = tmp_path / "game.log"
    argv = ["play", "--in", board, "--plan", plan, "--policy-a", "trudy-script", "--policy-b", "greedy"]
    capsys.readouterr()
    assert run(argv + ["--out", str(log)]) == 0
    summary = capsys.readouterr().out
    assert summary.count("\n") == 1
    assert run(argv) == 0
    assert capsys.readouterr().out == log.read_text() + summary


def test_replay_flags_illegal_transcripts(board, tmp_path, capsys):
    transcript = tmp_path / "bogus.log"
    cases = [
        ("nimstring", "cut 0\ncut 0\n", "illegal cut 0 at ply 2"),
        # After cut 0, string 1 is coin 1's last alive string.
        ("lava", "cut 0\ncut 1\n", "illegal cut 1 at ply 2"),
        ("nimstring", "cut 999\n", "illegal cut 999 at ply 1"),
        ("nimstring", "cut 1\ncut -1\n", "illegal cut -1 at ply 2"),
    ]
    for game, text, message in cases:
        transcript.write_text(text)
        code = run(
            ["replay", "--in", board, "--game", game, "--transcript", str(transcript)]
        )
        assert code == 1, text
        assert message in capsys.readouterr().err


def test_replay_rejects_malformed_string_id(board, tmp_path, capsys):
    transcript = tmp_path / "bogus.log"
    transcript.write_text("cut 0\ncut abc\n")
    code = run(
        ["replay", "--in", board, "--game", "nimstring", "--transcript", str(transcript)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


def _compile(tmp_path, text: str, name: str) -> tuple[str, str]:
    formula = tmp_path / f"{name}.dnf"
    formula.write_text(text)
    board = tmp_path / f"{name}.txt"
    plan = tmp_path / f"{name}.json"
    argv = ["reduce", "gamesat-to-lava", "--formula", str(formula), "--N", "2", "--first", "trudy"]
    assert run(argv + ["--out", str(board), "--plan", str(plan)]) == 0
    return str(board), str(plan)


@pytest.mark.parametrize("plan_of", ["malformed-json", "other-board", "foreign-variable", "retargeted-wire", "swapped-range"])
def test_play_rejects_a_plan_that_does_not_fit(plan_of, tmp_path, capsys):
    board, plan = _compile(tmp_path, CONJUNCTION, "conj")
    bad = tmp_path / "bad.json"
    if plan_of == "malformed-json":
        bad.write_text('{"N": 2,')
        plan = str(bad)
    elif plan_of == "other-board":
        _, plan = _compile(tmp_path, "x1 x2\nx2 x3\n", "chain")
    else:
        doc = json.loads(Path(plan).read_text())
        if plan_of == "foreign-variable":
            # A wire from a variable the two-variable formula lacks.
            next(g for g in doc["gadgets"] if g["kind"] == "wire")["source"] = "var:7"
        elif plan_of == "swapped-range":
            # Both ranges are ropes of the board, but the tracker would
            # read the wire's top rope as its bottom.
            wire = next(g for g in doc["gadgets"] if g["kind"] == "wire")
            wire["bottom"], wire["top"] = wire["top"], wire["bottom"]
        else:
            # A clause the formula has, but not the one its layout puts
            # there: the trudy script would look up the singleton's
            # missing level-2 wire.
            assert doc["gadgets"][5]["target"] == "singleton:0"
            doc["gadgets"][5]["target"] = "real:0"
        bad.write_text(json.dumps(doc))
        plan = str(bad)
    capsys.readouterr()
    code = run(["play", "--in", board, "--plan", plan, "--policy-a", "random", "--policy-b", "trudy-script", "--seed", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


def _one_error_line(capsys) -> str:
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    return err


def test_play_names_the_size_of_the_board_a_plan_compiles_to(tmp_path, capsys):
    _, plan = _compile(tmp_path, CONJUNCTION, "conj")
    board, _ = _compile(tmp_path, "x1 x2\nx1 x3\nx2 x3\n", "majority")
    capsys.readouterr()
    assert run(["play", "--in", board, "--plan", plan, "--policy-a", "random", "--policy-b", "random"]) == 2
    assert _one_error_line(capsys) == "error: plan: its formula compiles to another board (265 strings)\n"


@pytest.mark.parametrize("flag", ["--in", "--transcript", "--formula", "--plan"])
def test_a_file_that_is_not_utf8_is_usage_error(flag, tmp_path, capsys):
    board, plan = _compile(tmp_path, CONJUNCTION, "conj")
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe")
    argv = {
        "--in": ["solve", "--game", "lava", "--in", str(bad)],
        "--transcript": ["replay", "--in", board, "--game", "lava", "--transcript", str(bad)],
        "--formula": ["reduce", "gamesat-to-lava", "--formula", str(bad), "--N", "2", "--first", "trudy", "--out", str(tmp_path / "o.txt")],
        "--plan": ["play", "--in", board, "--plan", str(bad), "--policy-a", "random", "--policy-b", "random"],
    }[flag]
    capsys.readouterr()
    assert run(argv) == 2
    assert "UTF-8" in _one_error_line(capsys)


@pytest.mark.parametrize("command", ["play", "export-dot"])
def test_a_deeply_nested_plan_is_usage_error(command, tmp_path, capsys):
    board, _ = _compile(tmp_path, CONJUNCTION, "conj")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    argv = {
        "play": ["play", "--in", board, "--plan", str(deep), "--policy-a", "random", "--policy-b", "random"],
        "export-dot": ["export-dot", "--in", board, "--plan", str(deep), "--out", str(tmp_path / "g.dot")],
    }[command]
    capsys.readouterr()
    assert run(argv) == 2
    assert "malformed plan" in _one_error_line(capsys)


@pytest.mark.parametrize(
    "case,quoted",
    [
        ("nested gadget", "plan: gadget 0 is [[[["),
        ("long first", "malformed plan: ValueError(\"'xxxx"),
        ("long transcript line", "unrecognized transcript line: 'cut 9999"),
        ("long string id", "bad string id '1111"),
        ("huge flag", "max coins must be at most 1000000, got 9999"),
    ],
)
def test_an_error_line_quotes_at_most_a_bounded_piece_of_input(case, quoted, tmp_path, capsys):
    """An input value that an error quotes is cut to a fixed length, so
    the error stays one short line however large the value."""
    board, plan = _compile(tmp_path, CONJUNCTION, "conj")
    bad = tmp_path / "bad.txt"
    if case in ("nested gadget", "long first"):
        doc = json.loads(Path(plan).read_text())
        if case == "long first":
            doc["first"] = "x" * 100_000
        else:
            # Gadget 0 becomes an array nested 800 deep: 1,600 characters.
            doc["gadgets"][0] = "nested"
        bad.write_text(json.dumps(doc).replace('"nested"', "[" * 800 + "]" * 800))
    elif case == "long transcript line":
        bad.write_text("cut " + "9" * 100_000 + " x\n")
    elif case == "long string id":
        bad.write_text("coins 1\nstring " + "1" * 100_000 + " 0 ground\n")
    argv = {
        "long transcript line": ["replay", "--in", board, "--game", "lava", "--transcript", str(bad)],
        "long string id": ["solve", "--game", "lava", "--in", str(bad)],
        "huge flag": ["verify", "oracle", "--seed", "1", "--max-coins", "9" * 4000],
    }.get(case, ["play", "--in", board, "--plan", str(bad), "--policy-a", "random", "--policy-b", "random"])
    capsys.readouterr()
    assert run(argv) == 2
    err = _one_error_line(capsys)
    assert quoted in err and len(err) < 600


# sha256 of the ``play`` transcript (first 16 hex digits) of every
# --policy-a/--policy-b pair on CONJUNCTION at N=2, seed 0, keyed by
# (first, policy-a, policy-b).  The CLI's greedy attacks the predicted
# winner; the pairs without a script appear in no strategy test.
PLAY_DIGESTS = {
    ("trudy", "random", "random"): "9166b9fa48dbee4f",
    ("trudy", "random", "greedy"): "d63058588dd5a3ab",
    ("trudy", "random", "trudy-script"): "67743652d8acd0cd",
    ("trudy", "random", "fallon-script"): "24121cf8f6795bc8",
    ("trudy", "greedy", "random"): "bc721435251e5aa3",
    ("trudy", "greedy", "greedy"): "7a37c95fa42db61f",
    ("trudy", "greedy", "trudy-script"): "63c46b80e51879a1",
    ("trudy", "greedy", "fallon-script"): "a9f7ea581261f758",
    ("trudy", "trudy-script", "random"): "36cf53b46094bc89",
    ("trudy", "trudy-script", "greedy"): "e1c5aa5a22000727",
    ("trudy", "trudy-script", "trudy-script"): "9ac654f76948a141",
    ("trudy", "trudy-script", "fallon-script"): "ca233e3b28308e88",
    ("trudy", "fallon-script", "random"): "17e884596c5cfcb1",
    ("trudy", "fallon-script", "greedy"): "36ba333fc610b1fd",
    ("trudy", "fallon-script", "trudy-script"): "f5a51f66f4e5131e",
    ("trudy", "fallon-script", "fallon-script"): "e41d1c0656209dde",
    ("fallon", "random", "random"): "08d07f9944189ae5",
    ("fallon", "random", "greedy"): "c8805c49b9d0caec",
    ("fallon", "random", "trudy-script"): "58a77211c656f7a4",
    ("fallon", "random", "fallon-script"): "659db3ed3ed0e355",
    ("fallon", "greedy", "random"): "963dc570857e11e0",
    ("fallon", "greedy", "greedy"): "138fdf6bd58d6df0",
    ("fallon", "greedy", "trudy-script"): "99f4824144f6a91e",
    ("fallon", "greedy", "fallon-script"): "ea497167ece49423",
    ("fallon", "trudy-script", "random"): "02d38838f111c7b4",
    ("fallon", "trudy-script", "greedy"): "a032b495fded725e",
    ("fallon", "trudy-script", "trudy-script"): "39903af8a7356a15",
    ("fallon", "trudy-script", "fallon-script"): "927f26548d425518",
    ("fallon", "fallon-script", "random"): "3f88b768abd74fb2",
    ("fallon", "fallon-script", "greedy"): "d5b9d575f66903c8",
    ("fallon", "fallon-script", "trudy-script"): "3e8c7ee10cdddc91",
    ("fallon", "fallon-script", "fallon-script"): "e2c9fe45111574b7",
}


@pytest.mark.parametrize("first", ["trudy", "fallon"])
def test_play_transcripts_of_every_policy_pair_are_pinned(first, formula, tmp_path, capsys):
    board, plan, log = (str(tmp_path / n) for n in ("lava.txt", "plan.json", "game.log"))
    argv = ["reduce", "gamesat-to-lava", "--formula", formula, "--N", "2", "--first", first]
    assert run(argv + ["--out", board, "--plan", plan]) == 0
    digests = {}
    for a, b in itertools.product(cli_module._POLICIES, repeat=2):
        argv = ["play", "--in", board, "--plan", plan, "--policy-a", a, "--policy-b", b]
        assert run(argv + ["--seed", "0", "--out", log]) == 0
        digests[first, a, b] = hashlib.sha256(Path(log).read_bytes()).hexdigest()[:16]
    assert digests == {k: v for k, v in PLAY_DIGESTS.items() if k[0] == first}


def test_replay_reports_in_progress(board, tmp_path, capsys):
    transcript = tmp_path / "partial.log"
    transcript.write_text("cut 0\n")
    code = run(
        ["replay", "--in", board, "--game", "nimstring", "--transcript", str(transcript)]
    )
    assert code == 0
    assert "status=in-progress mover=P2 plies=1" in capsys.readouterr().out


def test_gen_multigraph_is_seed_deterministic(capsys):
    assert run(["gen", "multigraph", "--coins", "3", "--strings", "5", "--seed", "4"]) == 0
    first = capsys.readouterr().out
    assert run(["gen", "multigraph", "--coins", "3", "--strings", "5", "--seed", "4"]) == 0
    assert capsys.readouterr().out == first
    g = parse_text(first)
    assert g.coin_count == 3
    assert g.string_count == 5


@pytest.mark.parametrize(
    "argv",
    [
        "gen multigraph --coins -1 --strings 3 --seed 1",
        "gen multigraph --coins 2 --strings -3 --seed 1",
        "gen formula --max-n 1 --seed 1",
        "gen formula --max-m 0 --seed 1",
        "gen formula --max-n 1000000000 --seed 1",
        "gen formula --max-m 1000000000 --seed 1",
        "verify lemma1 --seed 1 --max-coins 0",
        "verify lemma3 --seed 1 --max-coins 0",
        "verify oracle --seed 1 --max-coins 0",
        "verify oracle --seed 1 --max-strings -1",
        "verify oracle --seed 1 --count 0",
        "verify lemma1 --seed 1 --count -5",
        "verify loony --seed 1 --count -3",
        "verify structure --count 0",
        "verify parity --minimum -2",
        "verify skip-dominance --max-n 0",
        "verify skip-dominance --max-m 0",
        "gen multigraph --coins 2 --strings 3 --seed 1 --ground-prob 7",
        "gen multigraph --coins 2 --strings 3 --seed 1 --ground-prob -0.5",
        "gen multigraph --coins 2 --strings 3 --seed 1 --ground-prob nan",
        "gen multigraph --coins 1000000000000 --strings 1 --seed 1",
        "gen multigraph --coins 2 --strings 100000000000 --seed 1",
        "verify oracle --seed 1 --max-strings 100000000000",
        "verify oracle --seed 1 --max-coins 1000000000000",
        "verify oracle --seed 1 --ground-prob 7",
        "verify lemma1 --seed 1 --ground-prob -1",
        "verify lemma3 --seed 1 --ground-prob 1.5",
        "verify strategies --formula {formula} --first trudy --N-min 5 --N-max 2",
        "reduce gamesat-to-lava --formula {formula} --N 30 --first trudy --out {formula}.coins"
        " --string-cap 100000000000",
    ],
)
def test_out_of_range_size_flags_are_usage_errors(argv, formula, capsys):
    assert run(argv.format(formula=formula).split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_a_strategies_campaign_of_no_seeds_is_a_usage_error(formula, capsys):
    assert run(["verify", "strategies", "--formula", formula, "--first", "trudy", "--seeds", "0"]) == 2
    assert capsys.readouterr().err == "error: --seeds must be at least 1, got 0\n"


def test_verify_oracle_refuses_a_string_cap_the_oracle_cannot_check(capsys):
    """``naive_solve`` refuses more than 14 alive strings, so a larger
    ``--max-strings`` is refused before any board is drawn, whatever the
    seed."""
    assert run(["verify", "oracle", "--max-strings", "15", "--count", "1", "--seed", "0"]) == 2
    assert capsys.readouterr() == ("", "error: --max-strings 15 is above the oracle's budget 14\n")


def test_verify_strategies_refuses_a_bad_formula_before_solving_the_game(tmp_path, monkeypatch, capsys):
    """The Game SAT solve is exponential in the variable count, so the
    compiler's formula check comes first."""

    def solve_gamesat(*args, **kwargs):
        raise AssertionError("solved before the formula was checked")

    monkeypatch.setattr(reduce_module, "solve_gamesat", solve_gamesat)
    monkeypatch.setattr(verify_module, "solve_gamesat", solve_gamesat)
    path = tmp_path / "chain.dnf"
    path.write_text("".join(f"x{i} x{i + 1}\n" for i in range(1, 12)) + "x12\n")
    assert run(["verify", "strategies", "--formula", str(path), "--first", "trudy", "--seeds", "1"]) == 2
    assert capsys.readouterr().err == "error: clause 11 has 1 variable(s); need at least 2\n"


def test_gen_formula(capsys):
    assert run(["gen", "formula", "--seed", "2", "--max-n", "3", "--max-m", "2"]) == 0
    out = capsys.readouterr().out
    assert out.strip()
    from coingames.gamesat import parse_dnf

    parse_dnf(out)


def test_gen_formula_out_writes_the_file_and_prints_nothing(tmp_path, capsys):
    argv = ["gen", "formula", "--seed", "2", "--max-n", "3", "--max-m", "2"]
    assert run(argv) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "formula.dnf"
    assert run(argv + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text() == printed


def test_export_dot_colors_gadgets(formula, tmp_path):
    board_path = tmp_path / "lava.txt"
    plan_path = tmp_path / "plan.json"
    dot_path = tmp_path / "board.dot"
    run(
        [
            "reduce",
            "gamesat-to-lava",
            "--formula",
            formula,
            "--N",
            "2",
            "--first",
            "fallon",
            "--out",
            str(board_path),
            "--plan",
            str(plan_path),
        ]
    )
    code = run(
        ["export-dot", "--in", str(board_path), "--plan", str(plan_path), "--out", str(dot_path)]
    )
    assert code == 0
    dot = dot_path.read_text()
    assert 'label="root"' in dot
    assert "firebrick" in dot and "steelblue" in dot and "darkgreen" in dot


def test_export_dot_showcase_clause_rope_count(tmp_path):
    formula_path = tmp_path / "showcase.dnf"
    formula_path.write_text("x1 x2 x3\nx2 x3\nx3 x4\n")
    board_path = tmp_path / "lava.txt"
    plan_path = tmp_path / "plan.json"
    dot_path = tmp_path / "board.dot"
    run(
        [
            "reduce",
            "gamesat-to-lava",
            "--formula",
            str(formula_path),
            "--N",
            "2",
            "--first",
            "trudy",
            "--out",
            str(board_path),
            "--plan",
            str(plan_path),
        ]
    )
    code = run(
        ["export-dot", "--in", str(board_path), "--plan", str(plan_path), "--out", str(dot_path)]
    )
    assert code == 0
    dot = dot_path.read_text()
    # 8 clause gadgets (3 real, 4 singleton, 1 empty) of 2^5 strings each.
    assert dot.count("darkgreen") == 8 * 32
    # Trudy moving first on this formula needs the parity pad.
    assert dot.count("gray") == 1


def test_a_reused_parser_leaks_no_flag_between_runs(formula, tmp_path, capsys):
    board, plan = tmp_path / "lava.txt", tmp_path / "plan.json"
    argv = ["reduce", "gamesat-to-lava", "--formula", formula, "--N", "2", "--first", "fallon"]
    assert run(argv + ["--out", str(board), "--plan", str(plan)]) == 0
    assert plan.exists()
    plan.unlink()
    assert run(argv + ["--out", str(board)]) == 0
    assert not plan.exists()
    assert build_parser() is build_parser()


def test_a_failed_run_does_not_poison_the_next(board, tmp_path, capsys):
    with pytest.raises(SystemExit):
        run(["solve", "--game", "checkers", "--in", board])
    assert "invalid choice" in capsys.readouterr().err
    assert run(["solve", "--game", "sac", "--in", str(tmp_path / "nope.txt")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert run(["solve", "--game", "nimstring", "--in", board]) == 0
    assert capsys.readouterr().out.startswith("winner=P1 ")


@pytest.fixture(scope="module")
def played(tmp_path_factory):
    """A compiled Lava board and the transcript of one random game on it."""
    root = tmp_path_factory.mktemp("played")
    formula, board, plan, transcript = (root / n for n in ("f.dnf", "lava.txt", "plan.json", "game.log"))
    formula.write_text(CONJUNCTION)
    argv = ["reduce", "gamesat-to-lava", "--formula", str(formula), "--N", "2", "--first", "trudy"]
    assert run(argv + ["--out", str(board), "--plan", str(plan)]) == 0
    argv = ["play", "--in", str(board), "--plan", str(plan), "--policy-a", "random", "--policy-b", "greedy"]
    assert run(argv + ["--seed", "5", "--out", str(transcript)]) == 0
    return board.read_text(), transcript.read_text()


def _replay_by_gamestate(board_text: str, kind: GameKind, first: str, sids: list[int]) -> tuple[int, str]:
    """What ``replay`` must report, folded over the immutable GameState rules."""
    state = initial_state(parse_text(board_text), Player(first))
    for ply, sid in enumerate(sids, start=1):
        try:
            state = apply_move(state, kind, sid)
        except IllegalMove:
            return 1, f"illegal cut {sid} at ply {ply}"
    outcome = is_terminal(state, kind)
    if outcome is None:
        return 0, f"status=in-progress mover={state.mover.value} plies={len(sids)}"
    a, b = outcome.scores
    return 0, f"winner={outcome.winner_text} score={a}-{b} plies={len(sids)}"


@pytest.mark.parametrize("game", ["lava", "nimstring", "sac"])
@pytest.mark.parametrize("first", ["P1", "P2"])
@pytest.mark.parametrize("variant", ["played", "prefix", "completed", "commented"])
def test_replay_matches_the_gamestate_rules(played, game, first, variant, tmp_path, capsys):
    """The played game, its first seven plies, the played game followed
    by a cut of every remaining string in id order (a Lava game ends
    there with an illegal cut, Nimstring and Strings-and-Coins ones with
    a winner), and the played game with a blank and a comment line after
    every ply, which replay skips."""
    board_text, transcript_text = played
    lines = transcript_text.splitlines()
    sids = [int(line.split()[4]) for line in lines]
    if variant == "prefix":
        lines, sids = lines[:7], sids[:7]
    elif variant == "commented":
        lines = [x for line in lines for x in (line, "", " # a note")]
    elif variant == "completed":
        rest = sorted(set(range(parse_text(board_text).string_count)) - set(sids))
        lines += [f"cut {sid}" for sid in rest]
        sids += rest
    board, transcript = tmp_path / "board.txt", tmp_path / "game.log"
    board.write_text(board_text)
    transcript.write_text("\n".join(lines) + "\n")
    code = run(["replay", "--in", str(board), "--game", game, "--transcript", str(transcript), "--first", first])
    expected_code, expected_line = _replay_by_gamestate(board_text, GameKind(game), first, sids)
    captured = capsys.readouterr()
    assert code == expected_code
    assert (captured.err if code else captured.out) == expected_line + "\n"


_TOKENS = ("", "0", "1", "-1", "7", "264", "265", "999", "abc", "1.5", "+3", "cut", "ply", "coins", "string", "ground", "#")
_EDITS = st.tuples(
    st.sampled_from(("board", "transcript")),
    st.sampled_from(("drop", "repeat", "swap", "insert", "cut", "token")),
    st.integers(0, 1 << 16),
    st.integers(0, 1 << 16),
    st.sampled_from(_TOKENS),
)


def _edit(lines: list[str], op: str, i: int, j: int, token: str) -> None:
    if not lines:
        lines.append(token)
        return
    i, j = i % len(lines), j % len(lines)
    if op == "drop":
        del lines[i]
    elif op == "repeat":
        lines.insert(j, lines[i])
    elif op == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif op == "insert":
        lines.insert(i, token)
    elif op == "cut":
        lines.insert(i, f"cut {token}")
    else:
        words = lines[i].split(" ")
        words[j % len(words)] = token
        lines[i] = " ".join(words)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(
    edits=st.lists(_EDITS, max_size=4),
    game=st.sampled_from(["lava", "nimstring", "sac"]),
    first=st.sampled_from(["P1", "P2"]),
)
def test_replay_of_mutated_files_exits_cleanly(played, fuzz_dir, edits, game, first):
    texts = {"board": played[0].splitlines(), "transcript": played[1].splitlines()}
    for target, op, i, j, token in edits:
        _edit(texts[target], op, i, j, token)
    board, transcript = fuzz_dir / "board.txt", fuzz_dir / "game.log"
    board.write_text("\n".join(texts["board"]) + "\n")
    transcript.write_text("\n".join(texts["transcript"]) + "\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["replay", "--in", str(board), "--game", game, "--transcript", str(transcript), "--first", first])
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == "" and out.startswith(("winner=", "status=in-progress")) and out.count("\n") == 1
    elif code == 1:
        assert out == "" and err.startswith("illegal cut ") and err.count("\n") == 1
    else:
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


# Thirteen strings, four of them ropes of two: 2,592 quotient states,
# within a budget of 12.
FUZZ_BOARD = """coins 4
string 0 0 1
string 1 0 1
string 2 1 2
string 3 2 ground
string 4 2 ground
string 5 3 0
string 6 3 2
string 7 ground 1
string 8 3 ground
string 9 0 2
string 10 1 3
string 11 1 3
string 12 3 ground
"""


@settings(max_examples=150, deadline=None)
@given(edits=st.lists(_EDITS, max_size=4))
def test_solve_of_mutated_boards_exits_cleanly(fuzz_dir, edits):
    """Every edit lands on the board; the edits' targets are ignored."""
    lines = FUZZ_BOARD.splitlines()
    for _, op, i, j, token in edits:
        _edit(lines, op, i, j, token)
    board = fuzz_dir / "solve.txt"
    board.write_text("\n".join(lines) + "\n")
    for game in ("lava", "nimstring", "sac"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["solve", "--game", game, "--in", str(board), "--budget", "12"])
        out, err = out.getvalue(), err.getvalue()
        if code == 0:
            assert err == "" and out.startswith("winner=") and out.count("\n") == 1
        else:
            assert code == 2
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.fixture(scope="module")
def compiled_files(tmp_path_factory):
    """A compiled Lava board and its plan, as ``reduce`` writes them."""
    root = tmp_path_factory.mktemp("compiled")
    formula, board, plan = (root / n for n in ("f.dnf", "lava.txt", "plan.json"))
    formula.write_text(CONJUNCTION)
    argv = ["reduce", "gamesat-to-lava", "--formula", str(formula), "--N", "2", "--first", "trudy"]
    assert run(argv + ["--out", str(board), "--plan", str(plan)]) == 0
    return board.read_text(), plan.read_text()


# The plan is indented JSON: one field or bracket per line.  Some tokens
# keep it valid and change what the policies are told (the predicted
# winner, the seat, the first mover).
_PLAN_TOKENS = _TOKENS + (
    '"kind":', '"wire",', '"clause",', '"pad",', '"var:0",', '"root",', '"empty",',
    "null,", "true,", "-5,", "2,", "100000,", "[", "],", "{", "},",
    '"FallonWins",', '"TrudyWins",', '"P2",', '"fallon",',
)
_PLAY_EDITS = st.tuples(
    st.sampled_from(("board", "plan")),
    st.sampled_from(("drop", "repeat", "swap", "insert", "cut", "token")),
    st.integers(0, 1 << 16),
    st.integers(0, 1 << 16),
    st.sampled_from(_PLAN_TOKENS),
)
_POLICY_NAMES = st.sampled_from(("random", "greedy", "trudy-script", "fallon-script"))


@settings(max_examples=150, deadline=None)
@given(edits=st.lists(_PLAY_EDITS, max_size=4), a=_POLICY_NAMES, b=_POLICY_NAMES, seed=st.integers(0, 3))
# Line 71 of the plan is wire 3's ``"target": "real:0",``; repeating it
# after wire 5's target line retargets wire 5 (the later key wins).
@example(edits=[("plan", "repeat", 71, 106, "")], a="random", b="trudy-script", seed=0)
def test_play_of_mutated_files_exits_cleanly(compiled_files, fuzz_dir, edits, a, b, seed):
    texts = {"board": compiled_files[0].splitlines(), "plan": compiled_files[1].splitlines()}
    for target, op, i, j, token in edits:
        _edit(texts[target], op, i, j, token)
    board, plan = fuzz_dir / "play.txt", fuzz_dir / "play.json"
    board.write_text("\n".join(texts["board"]) + "\n")
    plan.write_text("\n".join(texts["plan"]) + "\n")
    argv = ["play", "--in", str(board), "--plan", str(plan), "--policy-a", a, "--policy-b", b]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv + ["--seed", str(seed), "--out", str(fuzz_dir / "play.log")])
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == "" and out.startswith("{'winner': ") and out.count("\n") == 1
    else:
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=100, deadline=None)
@given(edits=st.lists(_PLAY_EDITS, max_size=4), with_plan=st.booleans())
def test_export_dot_of_mutated_files_exits_cleanly(compiled_files, fuzz_dir, edits, with_plan):
    texts = {"board": compiled_files[0].splitlines(), "plan": compiled_files[1].splitlines()}
    for target, op, i, j, token in edits:
        _edit(texts[target], op, i, j, token)
    board, plan = fuzz_dir / "dot.txt", fuzz_dir / "dot.json"
    board.write_text("\n".join(texts["board"]) + "\n")
    plan.write_text("\n".join(texts["plan"]) + "\n")
    argv = ["export-dot", "--in", str(board), "--out", str(fuzz_dir / "board.dot")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv + (["--plan", str(plan)] if with_plan else []))
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert out == err == ""
    else:
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


FUZZ_FORMULA = "x1 x2\nx1 x3\nx2 x3\n"
_REDUCE_EDITS = st.tuples(
    st.sampled_from(("formula", "board")),
    st.sampled_from(("drop", "repeat", "swap", "insert", "cut", "token")),
    st.integers(0, 1 << 16),
    st.integers(0, 1 << 16),
    st.sampled_from(_TOKENS + ("x1", "x2", "x3", "x4")),
)


@settings(max_examples=100, deadline=None)
@given(edits=st.lists(_REDUCE_EDITS, max_size=4), first=st.sampled_from(["trudy", "fallon"]))
def test_reduce_of_mutated_inputs_exits_cleanly(fuzz_dir, edits, first):
    """Mutate a formula and a board, and run every ``reduce`` on them."""
    texts = {"formula": FUZZ_FORMULA.splitlines(), "board": FUZZ_BOARD.splitlines()}
    for target, op, i, j, token in edits:
        _edit(texts[target], op, i, j, token)
    formula, board = fuzz_dir / "reduce.dnf", fuzz_dir / "reduce.txt"
    formula.write_text("\n".join(texts["formula"]) + "\n")
    board.write_text("\n".join(texts["board"]) + "\n")
    out = [str(fuzz_dir / f"reduced{k}") for k in range(3)]
    compiled = ["--formula", str(formula), "--N", "2", "--first", first]
    runs = [
        (["gamesat-to-lava", *compiled, "--out", out[0], "--plan", out[1]], "predicted="),
        (["pipeline", *compiled, "--out-lava", out[0], "--out-nim", out[1], "--out-sac", out[2]], "predicted="),
        (["nim-to-sac", "--in", str(board), "--out", out[0]], "coins="),
        (["lava-to-nim", "--in", str(board), "--out", out[0]], "coins="),
    ]
    for argv, done in runs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(["reduce", *argv])
        stdout, stderr = stdout.getvalue(), stderr.getvalue()
        if code == 0:
            assert stderr == "" and stdout.startswith(done) and stdout.count("\n") == 1
        else:
            assert code == 2
            assert stdout == "" and stderr.startswith("error: ") and stderr.count("\n") == 1


@settings(max_examples=60, deadline=None)
@given(edits=st.lists(_REDUCE_EDITS, max_size=4), first=st.sampled_from(["trudy", "fallon"]))
def test_verify_of_mutated_formulas_exits_cleanly(fuzz_dir, edits, first):
    """Every edit lands on the formula; the edits' targets are ignored.
    A campaign may fail (exit 1), but only with its JSON report."""
    lines = FUZZ_FORMULA.splitlines()
    for _, op, i, j, token in edits:
        _edit(lines, op, i, j, token)
    formula = fuzz_dir / "verify.dnf"
    formula.write_text("\n".join(lines) + "\n")
    common = ["--formula", str(formula), "--first", first]
    for argv in (["structure", *common], ["strategies", *common, "--seeds", "1", "--N-max", "2"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["verify", *argv])
        out, err = out.getvalue(), err.getvalue()
        if code in (0, 1):
            assert err == "" and json.loads(out)["ok"] is (code == 0)
        else:
            assert code == 2
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
