"""Verification harness: oracle equivalence sweeps, reduction
winner-preservation checks, loony batches, structural audits of the
compiler, skip-dominance enumeration, and scripted-strategy campaigns.

End-to-end brute force of the Game SAT compiler is infeasible (the
smallest legal instance at N=2 already has hundreds of strings), so the
evidence is layered: the two small reductions are checked exactly
against the solver, the compiler is audited structurally against its
closed forms by an independent graph recount, the parity rule is
audited on script-vs-script playouts, and the scripts must win whole
campaigns.  Reports carry replayable counterexamples and are
byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import itertools
import json
import random
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

from .engine import GameKind, Player, apply_move, initial_state
from .errors import BudgetExceeded, ParseError, StrategyError, clip
from .gamesat import (
    DEFAULT_VAR_BUDGET,
    DnfFormula,
    GameSatValue,
    Mover,
    format_dnf,
    solve_gamesat,
    winning_set_move,
)
from .multigraph import GROUND, MAX_COINS, MAX_STRINGS, GraphBuilder, Multigraph, canonical_text, ropes
from .reduce import (
    DEFAULT_CHAIN_LEN,
    ReductionArtifact,
    closed_form_counts,
    compile_gamesat_to_lava,
    reduce_lava_to_nimstring,
    reduce_nimstring_to_sac,
    total_strings,
)
from .solver import NAIVE_BUDGET, find_loony_witnesses, loony_first_move, naive_solve, solve, winner_of
from .strategy import (
    GreedyDisabler,
    TrudyScript,
    UniformRandom,
    is_fallon_terminal,
    is_trudy_terminal,
    playout,
    script_for,
)


@dataclass
class CampaignReport:
    name: str
    seed: int | None = None
    count: int = 0
    passes: int = 0
    fails: int = 0
    skipped: int = 0
    details: dict = field(default_factory=dict)
    counterexamples: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """At least one pass and no fail or skip: a campaign that checked nothing shows nothing."""
        return self.passes > 0 and self.fails == 0 and self.skipped == 0

    def tally(self, ok: bool, counterexample: Callable[[], dict]) -> None:
        """Count a pass, or a fail with the dict that ``counterexample()``
        builds: called only on a fail, since building one (a board's
        canonical text) can cost as much as the check."""
        if ok:
            self.passes += 1
        else:
            self.fails += 1
            self.counterexamples.append(counterexample())

    def to_json(self) -> str:
        doc = {**asdict(self), "ok": self.ok}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _at_least(name: str, value: int, low: int) -> None:
    """Refuse a size below ``low`` (a generator argument, usually a CLI
    flag) with ParseError."""
    if value < low:
        raise ParseError(f"{name} must be at least {low}, got {clip(str(value))}")


def _at_most(name: str, value: int, high: int) -> None:
    """Refuse a size above ``high`` with ParseError."""
    if value > high:
        raise ParseError(f"{name} must be at most {high}, got {clip(str(value))}")


def _probability(name: str, value: float) -> None:
    """Refuse a probability outside [0, 1] (NaN included) with ParseError."""
    if not 0 <= value <= 1:
        raise ParseError(f"{name} must be in [0, 1], got {value}")


def random_multigraph(
    rng: random.Random, coin_count: int, string_count: int, ground_prob: float
) -> Multigraph:
    """Random board without self-loops.  Each endpoint is ground with
    probability ``ground_prob``, otherwise a uniform coin."""
    _at_least("coin count", coin_count, 0)
    # A board allocates per-coin tables: refuse what a board file may not declare.
    _at_most("coin count", coin_count, MAX_COINS)
    _at_least("string count", string_count, 0)
    _at_most("string count", string_count, MAX_STRINGS)
    _probability("ground probability", ground_prob)
    b = GraphBuilder()
    b.add_coins(coin_count)
    for _ in range(string_count):
        while True:
            a = GROUND if coin_count == 0 or rng.random() < ground_prob else rng.randrange(coin_count)
            c = GROUND if coin_count == 0 or rng.random() < ground_prob else rng.randrange(coin_count)
            if a == c and a != GROUND:
                if coin_count == 1:
                    c = GROUND
                else:
                    continue
            break
        b.add_string(a, c)
    return b.build()


@dataclass
class RandomMultigraphs:
    """Seeded instance stream; self-loop free.  With ``no_isolated``,
    every coin of every instance touches at least one string: the
    Lava-to-Nimstring reduction is only claimed on that domain, because
    an isolated coin's first chain cut frees it and hands the cutter a
    free move into the loony position."""

    max_coins: int
    max_strings: int
    ground_prob: float
    seed: int
    no_isolated: bool = False
    small_bias: bool = False

    def __post_init__(self):
        _at_least("max coins", self.max_coins, 1)
        _at_most("max coins", self.max_coins, MAX_COINS)
        _at_least("max strings", self.max_strings, 0)
        _at_most("max strings", self.max_strings, MAX_STRINGS)
        _probability("ground probability", self.ground_prob)

    def _size(self, rng: random.Random, lo: int, hi: int) -> int:
        if self.small_bias:
            # Min of two draws: the oracle expands every child and is
            # exponential in string count, so most instances must be
            # small while the occasional one still reaches the cap.
            return min(rng.randint(lo, hi), rng.randint(lo, hi))
        return rng.randint(lo, hi)

    def instances(self, count: int):
        rng = random.Random(self.seed)
        for _ in range(count):
            while True:
                coins = self._size(rng, 1, self.max_coins)
                strings = self._size(rng, 0, self.max_strings)
                g = random_multigraph(rng, coins, strings, self.ground_prob)
                if not self.no_isolated:
                    break
                if all(g.incidence):
                    break
            yield g


def random_formula(rng: random.Random, max_n: int = 4, max_m: int = 3) -> DnfFormula:
    """Random positive DNF meeting the compiler preconditions: every
    clause has at least 2 variables and every variable occurs."""
    _at_least("max variables", max_n, 2)
    _at_least("max clauses", max_m, 1)
    # No command solves a formula past the Game SAT budget, and one within
    # it has at most 2^budget distinct clauses.
    _at_most("max variables", max_n, DEFAULT_VAR_BUDGET)
    _at_most("max clauses", max_m, 2**DEFAULT_VAR_BUDGET)
    n = rng.randint(2, max_n)
    m = rng.randint(1, max_m)
    clauses: list[frozenset[int]] = []
    for _ in range(m):
        size = rng.randint(2, n)
        clauses.append(frozenset(rng.sample(range(n), size)))
    used = set().union(*clauses)
    for v in range(n):
        if v not in used:
            i = rng.randrange(len(clauses))
            clauses[i] = clauses[i] | {v}
    # Drop repeated clauses, keeping the first of each.
    return DnfFormula(n, tuple(dict.fromkeys(clauses)))


def enumerate_small_formulas(max_n: int, max_m: int):
    """All positive DNFs with n <= max_n variables and up to max_m
    distinct nonempty clauses (unused variables allowed)."""
    for n in range(1, max_n + 1):
        subsets = []
        for size in range(1, n + 1):
            for combo in itertools.combinations(range(n), size):
                subsets.append(frozenset(combo))
        for m in range(1, min(max_m, len(subsets)) + 1):
            for clause_combo in itertools.combinations(subsets, m):
                yield DnfFormula(n, tuple(clause_combo))


def check_oracle(gen: RandomMultigraphs, count: int) -> CampaignReport:
    """Memoized solver against the engine-backed oracle on every game
    kind: winners must agree, and for Strings-and-Coins the net score
    for the mover must agree exactly."""
    report = CampaignReport("oracle", seed=gen.seed, details={"comparisons": 0})
    for g in gen.instances(count):
        report.count += 1
        state = initial_state(g)
        mismatches = {}
        for kind in GameKind:
            fast = solve(state, kind)
            slow = naive_solve(state, kind)
            report.details["comparisons"] += 1
            if kind is GameKind.STRINGS_AND_COINS:
                agree = fast.net_for_mover == slow.net_for_mover
                got = {"fast": fast.net_for_mover, "naive": slow.net_for_mover}
            else:
                agree = fast.winner_for_mover == slow.winner_for_mover
                got = {"fast": fast.winner_for_mover, "naive": slow.winner_for_mover}
            if not agree:
                mismatches[kind.value] = got
        report.tally(not mismatches, lambda: {"instance": canonical_text(g), "mismatches": mismatches})
    return report


def _check_reduction(report: CampaignReport, instances, reduce, g_side, h_side) -> CampaignReport:
    """The loop shared by the lemma campaigns.  Each side is a pair
    (report key, game kind): every G is reduced to H, both are solved,
    and the winners must be equal; a draw, possible only on a
    Strings-and-Coins H, is a mismatch and counted in ``draws``.  Every
    tenth instance is re-solved with the naive oracle on each side
    within ``NAIVE_BUDGET`` strings."""
    for i, g in enumerate(instances):
        report.count += 1
        solved = []
        try:
            for board, (key, kind) in ((g, g_side), (reduce(g), h_side)):
                state = initial_state(board)
                solved.append((key, kind, state, winner_of(state, kind, solve(state, kind))))
        except BudgetExceeded:
            report.skipped += 1
            continue
        (g_key, _, _, g_winner), (h_key, _, _, h_winner) = solved
        ok = h_winner is not None and g_winner == h_winner
        if h_winner is None:
            report.details["draws"] += 1
        if i % 10 == 0:
            rechecked = [s for s in solved if s[2].board.string_count <= NAIVE_BUDGET]
            for _, kind, state, winner in rechecked:
                if winner_of(state, kind, naive_solve(state, kind)) != winner:
                    ok = False
            if rechecked:
                report.details["crosschecked"] += 1
        report.tally(
            ok,
            lambda: {
                "instance": canonical_text(g),
                g_key: g_winner.value,
                h_key: h_winner.value if h_winner else "Draw",
            },
        )
    return report


def check_lemma1(gen: RandomMultigraphs, count: int) -> CampaignReport:
    """Winner of Nimstring on G equals the winner of Strings-and-Coins
    on G plus a fresh cycle; draws on the point side count as
    mismatches."""
    report = CampaignReport("lemma1", seed=gen.seed, details={"crosschecked": 0, "draws": 0})
    return _check_reduction(
        report,
        gen.instances(count),
        reduce_nimstring_to_sac,
        ("nim_winner", GameKind.NIMSTRING),
        ("sac_winner", GameKind.STRINGS_AND_COINS),
    )


def check_lemma3(gen: RandomMultigraphs, count: int, chain_len: int = DEFAULT_CHAIN_LEN) -> CampaignReport:
    """Winner of Coins-are-Lava on G equals the winner of Nimstring on
    G with every coin anchored to ground by a chain.

    Only claimed when every coin of G touches a string; feed a
    ``no_isolated`` generator.  On an isolated coin the first chain cut
    frees it, and the freshly earned move lands on a loony position, so
    the Nimstring side gains a winning escape that Lava lacks."""
    report = CampaignReport("lemma3", seed=gen.seed, details={"crosschecked": 0})
    return _check_reduction(
        report,
        gen.instances(count),
        lambda g: reduce_lava_to_nimstring(g, chain_len),
        ("lava_winner", GameKind.COINS_ARE_LAVA),
        ("nim_winner", GameKind.NIMSTRING),
    )


@dataclass
class LoonyPlanter:
    """Generates boards guaranteed to contain the loony pattern: a random
    base board of at most 3 coins and 8 strings, fresh coins A (degree 1)
    and B (degree 2), string a joining them, string b from B to ground or
    to a base coin of degree at least 2."""

    seed: int

    def instances(self, count: int):
        rng = random.Random(self.seed)
        for _ in range(count):
            coins = rng.randint(0, 3)
            strings = rng.randint(0, 8)
            base = random_multigraph(rng, coins, strings, 0.3)
            b = GraphBuilder()
            b.add_board(base)
            coin_b = b.add_coin()
            coin_a = b.add_coin()
            a_sid = b.add_string(coin_a, coin_b)
            anchors = [c for c, ids in enumerate(base.incidence) if len(ids) >= 2]
            if anchors and rng.random() < 0.5:
                target = rng.choice(anchors)
            else:
                target = GROUND
            b_sid = b.add_string(coin_b, target)
            yield b.build(), a_sid, b_sid


def check_loony(gen: LoonyPlanter, count: int) -> CampaignReport:
    """Every planted loony instance is a first-player Nimstring win, and
    the scripted opening (cut a then b when the remainder favors the
    mover, else cut b alone) is verified winning by search."""
    report = CampaignReport("loony", seed=gen.seed, details={"two_cut_lines": 0, "one_cut_lines": 0})
    for g, a_sid, b_sid in gen.instances(count):
        report.count += 1
        state = initial_state(g)
        try:
            res = solve(state, GameKind.NIMSTRING)
            witnesses = find_loony_witnesses(state)
            planted = [w for w in witnesses if w.a == a_sid and w.b == b_sid]
            ok = bool(res.winner_for_mover) and bool(planted)
            if planted:
                line = loony_first_move(state, planted[0])
                if len(line) == 2:
                    report.details["two_cut_lines"] += 1
                else:
                    report.details["one_cut_lines"] += 1
                cur = state
                for sid in line:
                    cur = apply_move(cur, GameKind.NIMSTRING, sid)
                after = solve(cur, GameKind.NIMSTRING)
                ok = ok and winner_of(cur, GameKind.NIMSTRING, after) == state.mover
        except BudgetExceeded:
            report.skipped += 1
            continue
        report.tally(ok, lambda: {"instance": canonical_text(g), "a": a_sid, "b": b_sid})
    return report


def recount_structure(graph: Multigraph, N: int) -> dict:
    """Plan-free structural recount: group strings into ropes by their
    endpoint pair, bucket ropes by width, and re-derive the construction
    counts.  Raises nothing; returns the observed numbers."""
    groups = ropes(graph)
    pad = 0
    width_buckets: dict[int, list[tuple[int, int]]] = {}
    for pair, ids in groups.items():
        if pair == (GROUND, GROUND):
            pad = len(ids)
            continue
        width_buckets.setdefault(len(ids), []).append(pair)

    def bucket(width: int) -> list[tuple[int, int]]:
        return width_buckets.get(width, [])

    singles = bucket(1)
    inc = graph.incidence
    # Variable gadgets: width-1 ground rope and width-1 coin rope
    # sharing a degree-2 middle coin.
    mids = set()
    outs = []
    ground_singles = [p for p in singles if p[0] == GROUND]
    coin_singles = [p for p in singles if p[0] != GROUND]
    for gp in ground_singles:
        mids.add(gp[1])
    variables = 0
    for cp in coin_singles:
        x, y = cp
        if x in mids and len(inc[x]) == 2:
            variables += 1
            outs.append(y)
        elif y in mids and len(inc[y]) == 2:
            variables += 1
            outs.append(x)
    clause_ropes = [p for p in bucket(N**5) if GROUND in p]
    w1_bottom = len(bucket(N))
    w1_top = len(bucket(N * N))
    w2_bottom = len(bucket(N**3))
    w2_top = len(bucket(N**4))
    # The root coin carries every level-2 bottom rope.
    root_candidates = set()
    for pair in bucket(N**3):
        root_candidates = root_candidates & set(pair) if root_candidates else set(pair)
    root_degree = len(inc[next(iter(root_candidates))]) if len(root_candidates) == 1 else None
    out_wire_counts = sorted(
        sum(1 for pair in bucket(N) if c in pair) for c in outs
    )
    counted = (
        len(singles)
        + w1_bottom * N
        + w1_top * N * N
        + w2_bottom * N**3
        + w2_top * N**4
        + len(bucket(N**5)) * N**5
        + pad
    )
    return {
        "variables": variables,
        "W1_bottom": w1_bottom,
        "W1_top": w1_top,
        "W2_bottom": w2_bottom,
        "W2_top": w2_top,
        "clause_gadgets": len(clause_ropes),
        "root_unique": len(root_candidates) == 1,
        "root_degree": root_degree,
        "out_wire_counts": out_wire_counts,
        "pad": pad,
        "total_strings": graph.string_count,
        "all_strings_counted": counted == graph.string_count,
    }


def check_structure(f: DnfFormula, N: int, first: Mover) -> CampaignReport:
    """Compile and audit one formula: the independent recount must match
    the closed forms exactly, including the parity pad."""
    report = CampaignReport("structure", details={"formula": format_dnf(f), "N": N})
    artifact = compile_gamesat_to_lava(f, N, first)
    observed = recount_structure(artifact.graph, N)
    cf = closed_form_counts(f)
    k = f.occurrences()
    expected_pad = artifact.predicted["pad"]
    expected = {
        "variables": f.variable_count,
        "W1_bottom": cf["W1"],
        "W1_top": cf["W1"],
        "W2_bottom": cf["W2"],
        "W2_top": cf["W2"],
        "clause_gadgets": cf["clause_gadgets"],
        "root_unique": True,
        "root_degree": cf["W2"] * N**3,
        "out_wire_counts": sorted(2 * kv - 1 for kv in k),
        "pad": 1 if expected_pad else 0,
        "total_strings": total_strings(f, N) + (1 if expected_pad else 0),
        "all_strings_counted": True,
    }
    mismatches = {
        key: {"expected": expected[key], "observed": observed[key]}
        for key in expected
        if expected[key] != observed[key]
    }
    report.count = len(expected)
    report.passes = len(expected) - len(mismatches)
    report.fails = len(mismatches)
    if mismatches:
        report.counterexamples.append(
            {"formula": format_dnf(f), "N": N, "first": first.value, "mismatches": mismatches}
        )
    return report


def sweep_structure(count: int, seed: int) -> CampaignReport:
    """``check_structure`` on ``count`` random formulas, each at a random
    N in {2, 3} and a random first mover.  ``details["audits"]`` lists
    every formula audited; a failing audit's mismatches go to the
    counterexamples."""
    rng = random.Random(seed)
    report = CampaignReport("structure-sweep", seed=seed, count=count, details={"audits": []})
    for _ in range(count):
        f = random_formula(rng, max_n=4, max_m=3)
        n_value = rng.choice((2, 3))
        audit = check_structure(f, n_value, rng.choice((Mover.TRUDY, Mover.FALLON)))
        report.details["audits"].append({"formula": format_dnf(f), "N": n_value, "ok": audit.ok})
        report.tally(audit.ok, lambda: audit.counterexamples[0])
    return report


# Work that ``check_skip_dominance`` accepts, in the units of
# ``_skip_dominance_work``: about a second of loop on a 2-vCPU host,
# where a unit takes 3.5-5 us.  Loop times over three runs, without the
# cap: (4, 3) 103,144 units, 0.40-0.54 s; (6, 1) 110,988, 0.51-0.53 s,
# both accepted; (5, 2) 268,632, 1.15-1.51 s; (4, 4) 340,164,
# 1.31-1.38 s; (7, 1) 667,756, 3.4-5.2 s; (4, 5) 858,024, 3.3-3.5 s,
# all refused.
SKIP_DOMINANCE_WORK_CAP = 200_000


def _skip_dominance_work(max_n: int, max_m: int) -> int:
    """Closed form of the sum of 10 + 2 * 3^n over the formulas that
    ``enumerate_small_formulas(max_n, max_m)`` yields: each formula on n
    variables costs a fixed 10 units (its table's set-up and the
    campaign's own steps) plus one per state of its explicit game, 3^n
    assignments for each of two movers, and there are C(2^n - 1, m)
    formulas of m clauses."""
    work = 0
    for n in range(1, max_n + 1):
        subsets = 2**n - 1
        formulas = 1
        for m in range(1, min(max_m, subsets) + 1):
            formulas = formulas * (subsets - m + 1) // m
            work += formulas * (10 + 2 * 3**n)
    return work


def _set_or_skip_values(f: DnfFormula) -> dict[tuple, tuple[GameSatValue | None, GameSatValue | None]]:
    """The value of the set-or-skip game at every assignment, with Trudy
    and with Fallon to move, by a retrograde attractor solve of the
    explicit graph: set moves, and one skip to the other mover per
    unfinished state.  None where neither player can force a win.
    It shares no code with the ``gamesat`` table, which it checks."""
    positions = list(itertools.product((None, True, False), repeat=f.variable_count))
    index = {a: i for i, a in enumerate(positions)}
    # State 2i + m is positions[i] with Trudy (m = 0) or Fallon (m = 1)
    # to move; winners are 0 (Trudy) and 1 (Fallon).  ``unrefuted``
    # counts, per unfinished state, the moves not yet known to reach a
    # win for the player not to move.
    states = 2 * len(positions)
    parents: list[list[int]] = [[] for _ in range(states)]
    unrefuted = [0] * states
    winner: list[int | None] = [None] * states
    queue = []
    for i, a in enumerate(positions):
        if None not in a:
            winner[2 * i] = winner[2 * i + 1] = 0 if any(all(a[v] for v in c) for c in f.clauses) else 1
            queue += (2 * i, 2 * i + 1)
            continue
        moves = [index[a[:v] + (b,) + a[v + 1 :]] for v, cur in enumerate(a) if cur is None for b in (True, False)]
        moves.append(i)
        for m in (0, 1):
            unrefuted[2 * i + m] = len(moves)
            for k in moves:
                parents[2 * k + 1 - m].append(2 * i + m)
    for state in queue:
        w = winner[state]
        for parent in parents[state]:
            if winner[parent] is not None:
                continue
            if parent & 1 != w:
                unrefuted[parent] -= 1
                if unrefuted[parent]:
                    continue
            winner[parent] = w
            queue.append(parent)
    values = (GameSatValue.TRUDY_WINS, GameSatValue.FALLON_WINS, None)
    return {a: (values[winner[2 * i]], values[winner[2 * i + 1]]) for i, a in enumerate(positions)}


def _skip_dominance_disagreement(f: DnfFormula, solved: dict, mover: Mover) -> dict | None:
    """The first assignment, in ``itertools.product`` order, where with
    ``mover`` to move ``solve_gamesat`` differs from the explicit solve
    ``solved``, or where ``winning_set_move`` from a won unfinished
    state does not reach a state that ``solved`` scores as won; None if
    there is none."""
    side = 0 if mover is Mover.TRUDY else 1
    won = (GameSatValue.TRUDY_WINS, GameSatValue.FALLON_WINS)[side]
    for a, pair in solved.items():
        explicit = pair[side]
        value = solve_gamesat(f, mover, a)
        agree = value is explicit
        move = None
        if agree and value is won and None in a:
            move = winning_set_move(f, a, mover)
            agree = move is not None and solved[a[: move[0]] + (move[1],) + a[move[0] + 1 :]][1 - side] is won
        if not agree:
            return {
                "assignment": list(a),
                "table": value.value,
                "explicit": explicit and explicit.value,
                "move": move and list(move),
            }
    return None


def check_skip_dominance(max_n: int = 3, max_m: int = 3) -> CampaignReport:
    """Exhaustive check of the ``gamesat`` theorem: for every small
    positive DNF and both movers, the table's value at every assignment
    equals the forced winner of the set-or-skip game from an explicit
    solve (``_set_or_skip_values``), and ``winning_set_move`` from
    every won unfinished state reaches a state that the explicit solve
    scores as won.  A counterexample names the formula, the mover and
    the first assignment where the two disagree.  ``max_n`` above the
    Game SAT budget, or a campaign whose work is above
    ``SKIP_DOMINANCE_WORK_CAP``, is refused with ParseError before any
    formula is solved."""
    _at_most("max variables", max_n, DEFAULT_VAR_BUDGET)
    _at_most("skip-dominance work", _skip_dominance_work(max_n, max_m), SKIP_DOMINANCE_WORK_CAP)
    report = CampaignReport("skip-dominance", details={"formulas": 0})
    for f in enumerate_small_formulas(max_n, max_m):
        report.details["formulas"] += 1
        solved = _set_or_skip_values(f)
        for mover in Mover:
            report.count += 1
            bad = _skip_dominance_disagreement(f, solved, mover)
            report.tally(bad is None, lambda: {"formula": format_dnf(f), "mover": mover.value, **bad})
    return report


def _script_playout(artifact: ReductionArtifact, side: Mover, opponent, seed: int):
    """Play ``side``'s script against ``opponent``, the script in the seat
    that ``side`` maps to.  None if either policy cuts an illegal string,
    else the record, whether the script's seat won, and whether play
    reached ``side``'s canonical terminal."""
    seat = artifact.player_for(side)
    script = script_for(side, artifact)
    p1, p2 = (script, opponent) if seat is Player.P1 else (opponent, script)
    try:
        record = playout(artifact, p1, p2, seed=seed)
    except StrategyError:
        return None
    terminal = is_trudy_terminal if side is Mover.TRUDY else is_fallon_terminal
    return record, record.winner is seat, terminal(record.census)


def campaign_strategies(
    f: DnfFormula,
    first: Mover,
    N_values: tuple[int, ...] = (2, 3, 4),
    seeds: int = 200,
) -> CampaignReport:
    """Run the predicted winner's script against UniformRandom,
    GreedyDisabler, and the opposing script at each N until one N yields
    a perfect campaign (every opponent played at least one playout and
    lost all of them); record that minimal N."""
    # The compiler refuses a bad formula or size before it solves the game.
    artifact = compile_gamesat_to_lava(f, N_values[0], first)
    side = artifact.winner
    report = CampaignReport(
        "strategies",
        details={
            "formula": format_dnf(f),
            "first": first.value,
            "predicted": artifact.predicted["gamesat_value"],
            "per_N": {},
            "minimal_N": None,
        },
    )
    for N in N_values:
        if N != artifact.N:
            artifact = compile_gamesat_to_lava(f, N, first)
        opponents = {
            "random": lambda: UniformRandom(),
            "greedy": lambda: GreedyDisabler(artifact, side),
            "opposing-script": lambda: script_for(side.other, artifact),
        }
        stats = {}
        all_ok = True
        for name, make in opponents.items():
            wins = 0
            losses = 0
            violations = 0
            census_ok = True
            for seed in range(seeds):
                played = _script_playout(artifact, side, make(), seed)
                if played is None:
                    violations += 1
                    losses += 1
                    continue
                _, won, canonical = played
                if won:
                    wins += 1
                else:
                    losses += 1
                census_ok = census_ok and canonical
            stats[name] = {
                "wins": wins,
                "losses": losses,
                "violations": violations,
                "census_ok": census_ok,
            }
            all_ok = all_ok and 0 < wins == seeds and census_ok
        report.details["per_N"][str(N)] = stats
        report.count += 1
        report.tally(all_ok, lambda: {"N": N, "stats": stats})
        if all_ok:
            report.details["minimal_N"] = N
            break
    return report


def fallon_win_combos(max_n: int = 3, max_m: int = 3):
    """Compiler-legal small formulas (clauses >= 2 vars, no unused
    variable) whose Game SAT value is a Fallon win, paired with the
    first mover that yields it."""
    for f in enumerate_small_formulas(max_n, max_m):
        if any(len(c) < 2 for c in f.clauses) or 0 in f.occurrences():
            continue
        for first in (Mover.TRUDY, Mover.FALLON):
            if solve_gamesat(f, first) is GameSatValue.FALLON_WINS:
                yield f, first


def parity_campaign(
    N_values: tuple[int, ...] = (2, 3),
    max_n: int = 4,
    max_m: int = 3,
    minimum: int = 50,
) -> CampaignReport:
    """Script-vs-script playouts on small Fallon-win formulas: every
    playout must reach the canonical Fallon terminal, and the stuck
    mover there must be the Trudy-mapped player.  An illegal cut by
    either script fails its playout.  The campaign stops after
    ``minimum`` playouts, failed or not."""
    report = CampaignReport(
        "parity",
        details={"canonical_terminals": 0, "playouts": 0, "non_canonical": 0, "minimum": minimum},
    )
    jobs = [(f, first, N) for f, first in fallon_win_combos(max_n, max_m) for N in N_values]
    for f, first, N in jobs:
        if report.details["playouts"] >= minimum:
            break
        artifact = compile_gamesat_to_lava(f, N, first)
        played = _script_playout(artifact, Mover.FALLON, TrudyScript(artifact), 0)
        report.details["playouts"] += 1
        report.count += 1
        problem = None
        if played is None:
            census = None
            problem = {"problem": "illegal cut in script-vs-script play"}
        else:
            record, won, canonical = played
            census = record.census
            if canonical:
                report.details["canonical_terminals"] += 1
                if not won:
                    problem = {"stuck": record.stuck.value}
            else:
                report.details["non_canonical"] += 1
                problem = {"problem": "non-canonical terminal in script-vs-script play"}
        report.tally(
            problem is None,
            lambda: {"formula": format_dnf(f), "first": first.value, "N": N, "census": census, **problem},
        )
    seen = report.details["canonical_terminals"]
    if seen < minimum:
        report.tally(False, lambda: {"problem": "too few canonical terminals", "seen": seen})
    return report
