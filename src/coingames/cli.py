"""Command line interface.

Exit codes: 0 success, 1 a check or verification failed, 2 bad usage or
unreadable input.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from .engine import GameKind, LiveBoard, Player, initial_state
from .errors import CoinGameError, IllegalMove, ParseError, clip
from .gamesat import Mover, format_dnf, parse_dnf
from .multigraph import canonical_text, parse_text, to_dot
from .reduce import (
    DEFAULT_CHAIN_LEN,
    DEFAULT_STRING_CAP,
    artifact_from_json,
    artifact_to_json,
    compile_gamesat_to_lava,
    full_pipeline,
    reduce_lava_to_nimstring,
    reduce_nimstring_to_sac,
)
from .solver import DEFAULT_BUDGET, NAIVE_BUDGET, solve, winner_of
from .strategy import FallonScript, GreedyDisabler, TrudyScript, UniformRandom, playout
from .verify import (
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
    random_multigraph,
    sweep_structure,
)

_GAMES = sorted(kind.value for kind in GameKind)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_graph(path: str):
    return parse_text(_read(path))


def _load_formula(path: str):
    return parse_dnf(_read(path))


def _cmd_solve(args) -> int:
    kind = GameKind(args.game)
    state = initial_state(_load_graph(args.infile), Player(args.first))
    result = solve(state, kind, budget=args.budget)
    winner = winner_of(state, kind, result)
    # Only Strings-and-Coins has a net; the other games print score=0-0.
    net = result.net_for_mover or 0
    a, b = max(net, 0), max(-net, 0)
    if state.mover is Player.P2:
        a, b = b, a
    name = winner.value if winner else "Draw"
    print(f"winner={name} score={a}-{b} states={result.states_visited}")
    return 0


def _cmd_reduce(args) -> int:
    if args.reduction in ("nim-to-sac", "lava-to-nim"):
        g = _load_graph(args.infile)
        h = reduce_nimstring_to_sac(g) if args.reduction == "nim-to-sac" else reduce_lava_to_nimstring(g, args.chain_len)
        _write(args.out, canonical_text(h))
        print(f"coins={h.coin_count} strings={h.string_count}")
        return 0
    formula = _load_formula(args.formula)
    first = Mover(args.first)
    if args.reduction == "gamesat-to-lava":
        artifact = compile_gamesat_to_lava(formula, args.N, first, string_cap=args.string_cap)
        _write(args.out, canonical_text(artifact.graph))
        if args.plan:
            _write(args.plan, artifact_to_json(artifact))
        print(
            f"predicted={artifact.predicted['gamesat_value']} first={first.value}"
            f" N={args.N} coins={artifact.graph.coin_count} strings={artifact.graph.string_count}"
        )
        return 0
    # pipeline: formula -> lava -> nimstring -> strings-and-coins
    artifact, nim_graph, sac_graph = full_pipeline(
        formula, args.N, first, chain_len=args.chain_len
    )
    _write(args.out_lava, canonical_text(artifact.graph))
    _write(args.out_nim, canonical_text(nim_graph))
    _write(args.out_sac, canonical_text(sac_graph))
    if args.plan:
        _write(args.plan, artifact_to_json(artifact))
    print(
        f"predicted={artifact.predicted['gamesat_value']}"
        f" lava={artifact.graph.string_count}"
        f" nimstring={nim_graph.string_count}"
        f" sac={sac_graph.string_count}"
    )
    return 0


def _boards(args, **options) -> RandomMultigraphs:
    return RandomMultigraphs(args.max_coins, args.max_strings, args.ground_prob, args.seed, **options)


def _oracle(args):
    # ``naive_solve`` refuses more than NAIVE_BUDGET alive strings, so a
    # larger cap would end the sweep at whichever board first exceeds it.
    if args.max_strings > NAIVE_BUDGET:
        raise ParseError(f"--max-strings {clip(str(args.max_strings))} is above the oracle's budget {NAIVE_BUDGET}")
    return check_oracle(_boards(args, small_bias=True), args.count)


def _structure(args):
    # One formula takes --N and --first, the random sweep --count and
    # --seed; a flag of the other mode would change nothing, so it is refused.
    if args.formula:
        if args.count is not None or args.seed is not None:
            raise ParseError("--count and --seed apply to the random sweep, not to --formula")
        N = 2 if args.N is None else args.N
        return check_structure(_load_formula(args.formula), N, Mover(args.first or "trudy"))
    if args.N is not None or args.first is not None:
        raise ParseError("--N and --first apply only with --formula")
    return sweep_structure(50 if args.count is None else args.count, 0 if args.seed is None else args.seed)


def _strategies(args):
    if args.N_min > args.N_max:
        raise ParseError(f"--N-min {clip(str(args.N_min))} is above --N-max {clip(str(args.N_max))}")
    N_values = tuple(range(args.N_min, args.N_max + 1))
    return campaign_strategies(_load_formula(args.formula), Mover(args.first), N_values, args.seeds)


# Each ``verify`` campaign, as a function from the parsed flags to its report.
_CAMPAIGNS = {
    "oracle": _oracle,
    "lemma1": lambda args: check_lemma1(_boards(args), args.count),
    "lemma3": lambda args: check_lemma3(_boards(args, no_isolated=True), args.count),
    "loony": lambda args: check_loony(LoonyPlanter(args.seed), args.count),
    "structure": _structure,
    "strategies": _strategies,
    "parity": lambda args: parity_campaign(minimum=args.minimum),
    "skip-dominance": lambda args: check_skip_dominance(args.max_n, args.max_m),
}


def _cmd_verify(args) -> int:
    report = _CAMPAIGNS[args.check](args)
    text = report.to_json()
    if args.out:
        _write(args.out, text)
    sys.stdout.write(text)
    return 0 if report.ok else 1


# Each ``play`` policy, as a function from the compiled artifact to a policy.
_POLICIES = {
    "random": lambda artifact: UniformRandom(),
    "greedy": lambda artifact: GreedyDisabler(artifact, artifact.winner),
    "trudy-script": TrudyScript,
    "fallon-script": FallonScript,
}


def _cmd_play(args) -> int:
    graph = _load_graph(args.infile)
    artifact = artifact_from_json(_read(args.plan), graph)
    record = playout(
        artifact,
        _POLICIES[args.policy_a](artifact),
        _POLICIES[args.policy_b](artifact),
        seed=args.seed,
    )
    text = record.transcript_text()
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    print(record.summary())
    return 0


def _cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    if args.what == "multigraph":
        g = random_multigraph(rng, args.coins, args.strings, args.ground_prob)
        text = canonical_text(g)
    else:
        text = format_dnf(random_formula(rng, args.max_n, args.max_m))
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_export_dot(args) -> int:
    graph = _load_graph(args.infile)
    colors = None
    names = None
    if args.plan:
        artifact = artifact_from_json(_read(args.plan), graph)
        colors = {}
        palette = {"variable": "firebrick", "wire": "steelblue", "clause": "darkgreen", "pad": "gray"}
        for plan in artifact.plan:
            for sid in plan.owned_ids():
                colors[sid] = palette[plan.kind]
        names = {artifact.root_coin: "root"}
    _write(args.out, to_dot(graph, string_colors=colors, coin_names=names))
    return 0


def _parse_transcript_line(line: str) -> int | None:
    body = line.split("#", 1)[0].strip()
    if not body:
        return None
    tokens = body.split()
    if tokens[0] == "cut" and len(tokens) == 2:
        token = tokens[1]
    elif len(tokens) >= 5 and tokens[0] == "ply" and tokens[3] == "cut":
        token = tokens[4]
    else:
        raise ParseError(f"unrecognized transcript line: {clip(repr(line.strip()))}")
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"bad string id {clip(repr(token))} in transcript line: {clip(repr(line.strip()))}") from None


def _cmd_replay(args) -> int:
    graph = _load_graph(args.infile)
    live = LiveBoard(graph, GameKind(args.game), Player(args.first))
    plies = 0
    for line in _read(args.transcript).splitlines():
        sid = _parse_transcript_line(line)
        if sid is None:
            continue
        try:
            live.cut(sid)
        except IllegalMove:
            print(f"illegal cut {sid} at ply {plies + 1}", file=sys.stderr)
            return 1
        plies += 1
    outcome = live.outcome()
    if outcome is not None:
        a, b = outcome.scores
        print(f"winner={outcome.winner_text} score={a}-{b} plies={plies}")
    else:
        print(f"status=in-progress mover={live.mover.value} plies={plies}")
    return 0


# Campaign and generator sizes: below 1 a campaign checks nothing and
# still reports success.
_SIZE_FLAGS = ("count", "seeds", "minimum", "max_n", "max_m")


def _check_sizes(args) -> None:
    for name in _SIZE_FLAGS:
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ParseError(f"--{name.replace('_', '-')} must be at least 1, got {clip(str(value))}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later
    ``run`` in the process: ``parse_args`` returns a fresh Namespace each
    time and nothing changes the parser once built."""
    parser = argparse.ArgumentParser(prog="coingames", description="String-cutting games toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a board exactly")
    p.add_argument("--game", choices=_GAMES, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--first", choices=("P1", "P2"), default="P1")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="accept boards of at most 2^BUDGET rope-quotient states")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("reduce", help="winner-preserving reductions")
    rsub = p.add_subparsers(dest="reduction", required=True)

    r = rsub.add_parser("nim-to-sac")
    r.add_argument("--in", dest="infile", required=True)
    r.add_argument("--out", required=True)
    r.set_defaults(func=_cmd_reduce)

    r = rsub.add_parser("lava-to-nim")
    r.add_argument("--in", dest="infile", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--chain-len", type=int, default=DEFAULT_CHAIN_LEN)
    r.set_defaults(func=_cmd_reduce)

    r = rsub.add_parser("gamesat-to-lava")
    r.add_argument("--formula", required=True)
    r.add_argument("--N", type=int, required=True)
    r.add_argument("--first", choices=("trudy", "fallon"), required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--plan")
    r.add_argument("--string-cap", type=int, default=DEFAULT_STRING_CAP)
    r.set_defaults(func=_cmd_reduce)

    r = rsub.add_parser("pipeline")
    r.add_argument("--formula", required=True)
    r.add_argument("--N", type=int, required=True)
    r.add_argument("--first", choices=("trudy", "fallon"), required=True)
    r.add_argument("--out-lava", required=True)
    r.add_argument("--out-nim", required=True)
    r.add_argument("--out-sac", required=True)
    r.add_argument("--plan")
    r.add_argument("--chain-len", type=int, default=DEFAULT_CHAIN_LEN)
    r.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="verification campaigns (JSON report)")
    vsub = p.add_subparsers(dest="check", required=True)
    # What every campaign shares: its handler, and an optional file that
    # also receives the report.
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--out")
    report.set_defaults(func=_cmd_verify)

    # The campaigns over random boards share flags but not defaults, so each
    # adds its own: a default set on a shared parent changes every child's.
    for name, (count, max_coins, max_strings, ground_prob) in {
        "oracle": (200, 5, 10, 0.3),
        "lemma1": (100, 4, 7, 0.3),
        "lemma3": (100, 2, 4, 0.4),
    }.items():
        v = vsub.add_parser(name, parents=[report])
        v.add_argument("--count", type=int, default=count)
        v.add_argument("--seed", type=int, required=True)
        v.add_argument("--max-coins", type=int, default=max_coins)
        v.add_argument("--max-strings", type=int, default=max_strings)
        v.add_argument("--ground-prob", type=float, default=ground_prob)

    v = vsub.add_parser("loony", parents=[report])
    v.add_argument("--count", type=int, default=100)
    v.add_argument("--seed", type=int, required=True)

    v = vsub.add_parser("structure", parents=[report])
    v.add_argument("--formula", help="audit one formula instead of a random sweep")
    v.add_argument("--N", type=int, help="with --formula (default 2)")
    v.add_argument("--first", choices=("trudy", "fallon"), help="with --formula (default trudy)")
    v.add_argument("--count", type=int, help="without --formula (default 50)")
    v.add_argument("--seed", type=int, help="without --formula (default 0)")

    v = vsub.add_parser("strategies", parents=[report])
    v.add_argument("--formula", required=True)
    v.add_argument("--first", choices=("trudy", "fallon"), required=True)
    v.add_argument("--seeds", type=int, default=200)
    v.add_argument("--N-min", dest="N_min", type=int, default=2)
    v.add_argument("--N-max", dest="N_max", type=int, default=4)

    v = vsub.add_parser("parity", parents=[report])
    v.add_argument("--minimum", type=int, default=50)

    v = vsub.add_parser("skip-dominance", parents=[report])
    v.add_argument("--max-n", type=int, default=3)
    v.add_argument("--max-m", type=int, default=3)

    p = sub.add_parser("play", help="run scripted or random policies on a compiled board")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--policy-a", choices=_POLICIES, required=True)
    p.add_argument("--policy-b", choices=_POLICIES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_play)

    p = sub.add_parser("gen", help="generate fixtures")
    gsub = p.add_subparsers(dest="what", required=True)
    g = gsub.add_parser("multigraph")
    g.add_argument("--coins", type=int, required=True)
    g.add_argument("--strings", type=int, required=True)
    g.add_argument("--ground-prob", type=float, default=0.3)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out")
    g.set_defaults(func=_cmd_gen)
    g = gsub.add_parser("formula")
    g.add_argument("--max-n", type=int, default=4)
    g.add_argument("--max-m", type=int, default=3)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out")
    g.set_defaults(func=_cmd_gen)

    p = sub.add_parser("export-dot", help="Graphviz rendering, colored by gadget when a plan is given")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--plan")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_dot)

    p = sub.add_parser("replay", help="validate a transcript against the rules")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--game", choices=_GAMES, required=True)
    p.add_argument("--transcript", required=True)
    p.add_argument("--first", choices=("P1", "P2"), default="P1")
    p.set_defaults(func=_cmd_replay)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_sizes(args)
        return args.func(args)
    except CoinGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
