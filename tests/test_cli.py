"""Command line round-trips: every subcommand, every exit code."""

import json
from pathlib import Path

import pytest

from coingames.cli import run
from coingames.multigraph import parse_text


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
    assert len(doc["audits"]) == 3


def test_verify_skip_dominance(capsys):
    assert run(["verify", "skip-dominance", "--max-n", "2", "--max-m", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True


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


@pytest.mark.parametrize("plan_of", ["malformed-json", "other-board", "foreign-variable"])
def test_play_rejects_a_plan_that_does_not_fit(plan_of, tmp_path, capsys):
    board, plan = _compile(tmp_path, CONJUNCTION, "conj")
    bad = tmp_path / "bad.json"
    if plan_of == "malformed-json":
        bad.write_text('{"N": 2,')
        plan = str(bad)
    elif plan_of == "other-board":
        _, plan = _compile(tmp_path, "x1 x2\nx2 x3\n", "chain")
    else:
        # A wire from a variable the two-variable formula lacks.
        doc = json.loads(Path(plan).read_text())
        next(g for g in doc["gadgets"] if g["kind"] == "wire")["source"] = "var:7"
        bad.write_text(json.dumps(doc))
        plan = str(bad)
    capsys.readouterr()
    code = run(["play", "--in", board, "--plan", plan, "--policy-a", "greedy", "--policy-b", "fallon-script"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


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
        "verify lemma1 --seed 1 --max-coins 0",
        "verify lemma3 --seed 1 --max-coins 0",
        "verify oracle --seed 1 --max-coins 0",
        "verify oracle --seed 1 --max-strings -1",
    ],
)
def test_out_of_range_size_flags_are_usage_errors(argv, capsys):
    assert run(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_gen_formula(capsys):
    assert run(["gen", "formula", "--seed", "2", "--max-n", "3", "--max-m", "2"]) == 0
    out = capsys.readouterr().out
    assert out.strip()
    from coingames.gamesat import parse_dnf

    parse_dnf(out)


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
