"""The four seeded workloads.

Each workload generates one round of items from the seed with its own
generators (never the package's) and checks every item's output.  A
round holds the same mix of item kinds and sizes for every seed, and
items of different kinds take clearly different times, so each latency
percentile lands in the same kind of item whatever the seed.

Calls into the package go through module attributes looked up at call
time (``cg.verify.check_oracle``), so the traced run's wrappers see them.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import os
import random
import shutil
import tempfile
from types import SimpleNamespace


def import_package():
    """Import every module the workloads call into."""
    import coingames.cli
    import coingames.engine
    import coingames.gamesat
    import coingames.multigraph
    import coingames.reduce
    import coingames.solver
    import coingames.strategy
    import coingames.verify

    c = coingames
    return SimpleNamespace(
        cli=c.cli, engine=c.engine, gamesat=c.gamesat, multigraph=c.multigraph,
        reduce=c.reduce, solver=c.solver, strategy=c.strategy, verify=c.verify,
        errors=c.errors,
    )


# -- input generators ------------------------------------------------------

def random_board(cg, rng: random.Random, coins: int, strings: int, ground_prob: float,
                 no_isolated: bool = False):
    """Board with exactly ``strings`` strings and no self-loops; each
    endpoint is ground with probability ``ground_prob``.  With
    ``no_isolated``, every coin touches a string."""
    ground = cg.multigraph.GROUND
    while True:
        b = cg.multigraph.GraphBuilder()
        b.add_coins(coins)
        touched = set()
        for _ in range(strings):
            while True:
                a = ground if rng.random() < ground_prob else rng.randrange(coins)
                e = ground if rng.random() < ground_prob else rng.randrange(coins)
                if a != e or a == ground:
                    break
            b.add_string(a, e)
            touched.update(x for x in (a, e) if x != ground)
        if not no_isolated or len(touched) == coins:
            return b.build()


# -- input properties ------------------------------------------------------

def rope_share(cg, g) -> float:
    """Share of strings that sit in ropes of width >= 2."""
    if not g.string_count:
        return 0.0
    wide = sum(len(ids) for ids in cg.multigraph.ropes(g).values() if len(ids) >= 2)
    return wide / g.string_count


def components(g) -> int:
    """Coin-connected components of the strings: two strings are in one
    component when they share a coin (the ground couples nothing)."""
    parent = list(range(g.coin_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    grounded = 0
    for s in g.strings:
        if s.a >= 0 and s.b >= 0:
            parent[find(s.a)] = find(s.b)
        elif s.a < 0 and s.b < 0:
            grounded += 1
    used = {find(c) for s in g.strings for c in (s.a, s.b) if c >= 0}
    return len(used) + grounded


def histogram(values) -> dict:
    out: dict = {}
    for v in values:
        out[str(v)] = out.get(str(v), 0) + 1
    return dict(sorted(out.items(), key=lambda kv: (len(kv[0]), kv[0])))


def board_profile(cg, boards) -> dict:
    boards = list(boards)
    total = sum(g.string_count for g in boards)
    wide = sum(rope_share(cg, g) * g.string_count for g in boards)
    return {
        "boards": len(boards),
        "string_counts": histogram(g.string_count for g in boards),
        "rope_share": wide / total if total else 0.0,
        "components": histogram(components(g) for g in boards),
    }


# -- workloads -------------------------------------------------------------

class Workload:
    """One workload: ``setup`` makes the round's items from the seed and
    warms up; ``run_item`` runs and checks one item and returns
    (ok, outcome)."""

    name = ""
    why = ""

    def setup(self, cg, seed: int, work_root: str) -> None:
        raise NotImplementedError

    def run_item(self, item) -> tuple[bool, list]:
        raise NotImplementedError

    def digest_extra(self) -> list:
        """Outcomes that the timed items do not return."""
        return []

    def inputs(self) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        pass


class _OneBoard:
    """The generator interface ``verify.check_oracle`` reads: a seed and
    an instance stream, here a single fixed board."""

    def __init__(self, board, seed: int):
        self.board = board
        self.seed = seed

    def instances(self, count):
        return iter([self.board][:count])


class OracleSweep(Workload):
    name = "oracle-sweep"
    why = "criterion 1's work, where naive_solve is >99% of the time; fixed sizes of 6-9 strings keep the cost steady across seeds"
    # Boards per string count.  Nimstring and Strings-and-Coins oracle
    # trees have e*E! nodes whatever the board's shape, so the groups
    # do not overlap in latency: the median (ranks 20-21 of 40) and the
    # p75 tail (rank 30) fall in the 8-string group, ranks 19-38.  Two
    # 9-string boards take half the round's time.
    ROUND = [6] * 8 + [7] * 10 + [8] * 20 + [9] * 2

    def setup(self, cg, seed: int, work_root: str) -> None:
        self.cg = cg
        rng = random.Random(f"oracle-sweep/{seed}")
        self.items = [random_board(cg, rng, rng.randint(2, 5), e, 0.3) for e in self.ROUND]
        cg.verify.check_oracle(_OneBoard(random_board(cg, rng, 3, 5, 0.3), seed), 1)

    def run_item(self, g):
        report = self.cg.verify.check_oracle(_OneBoard(g, 0), 1)
        ok = report.ok and report.count == 1 and report.details["comparisons"] == 3
        return ok, [g.string_count, report.passes, report.fails]

    def digest_extra(self):
        """Winners and nets of every board, solved after the timed loop."""
        cg = self.cg
        out = []
        for g in self.items:
            state = cg.engine.initial_state(g)
            for kind in cg.engine.GameKind:
                res = cg.solver.solve(state, kind)
                w = cg.solver.winner_of(state, kind, res)
                out.append([kind.value, w.value if w else "Draw", res.net_for_mover])
        return out

    def inputs(self) -> dict:
        return board_profile(self.cg, self.items)


class SolveScale(Workload):
    name = "solve-scale"
    why = "exact solves above the gate, with no oracle: Lemma-1 and Lemma-3 pairs and Lava boards; where rope quotient, component sums and SAC pruning show"
    # L1 = Lemma-1 pair: G and H = G plus a cycle, H solved as
    # Strings-and-Coins, which visits exactly 2^E - 1 states whatever
    # the board's shape.  L3 = Lemma-3 pair: G with 3 coins, H = G plus
    # ground chains, 22 strings, solved as Nimstring.  LAVA = one
    # Coins-are-Lava solve of a 4-coin board at 17 strings.  L3 and LAVA
    # costs vary tenfold between boards, so they are kept below the
    # 15-string L1 pairs, which hold the median (ranks 10-11 of 20), and
    # the one 16-string L1 pair's memo (65,535 entries) sets the peak
    # memory.  The sizes keep a round near 5 s, so that a 25-s run
    # repeats it four or five times; at 18-24 strings a single L3 or
    # LAVA board can visit 50k-370k states and would swing the round's
    # time with the seed.
    ROUND = ["L1"] * 10 + ["L1-16"] + ["L3"] * 5 + ["LAVA"] * 4
    L1_STRINGS = {"L1": 15, "L1-16": 16}
    L3_STRINGS, L3_COINS = 22, 3
    LAVA_STRINGS, LAVA_COINS = 17, 4

    def setup(self, cg, seed: int, work_root: str) -> None:
        self.cg = cg
        rng = random.Random(f"solve-scale/{seed}")
        self.items = [self._make(rng, kind) for kind in self.ROUND]
        warm = random_board(cg, rng, 3, 8, 0.3, no_isolated=True)
        for kind in cg.engine.GameKind:
            cg.solver.solve(cg.engine.initial_state(warm), kind)

    def _make(self, rng, kind):
        cg = self.cg
        if kind in self.L1_STRINGS:
            coins = rng.randint(2, 4)
            g = random_board(cg, rng, coins, self.L1_STRINGS[kind] - (coins + 1), 0.3)
            return kind, g, cg.reduce.reduce_nimstring_to_sac(g)
        if kind == "L3":
            coins = self.L3_COINS
            g = random_board(cg, rng, coins, self.L3_STRINGS - 5 * coins, 0.3, no_isolated=True)
            return kind, g, cg.reduce.reduce_lava_to_nimstring(g)
        return kind, random_board(cg, rng, self.LAVA_COINS, self.LAVA_STRINGS, 0.3), None

    def run_item(self, item):
        cg = self.cg
        kind, g, h = item
        GK = cg.engine.GameKind
        solve, winner_of, initial = cg.solver.solve, cg.solver.winner_of, cg.engine.initial_state
        if kind == "LAVA":
            state = initial(g)
            res = solve(state, GK.COINS_ARE_LAVA)
            legal = cg.engine.legal_moves(state, GK.COINS_ARE_LAVA)
            ok = isinstance(res.winner_for_mover, bool) and (
                res.principal_move in legal if res.winner_for_mover else res.principal_move is None
            )
            return ok, [kind, g.string_count, res.winner_for_mover, res.states_visited]
        g_kind, h_kind = (GK.COINS_ARE_LAVA, GK.NIMSTRING) if kind == "L3" else (GK.NIMSTRING, GK.STRINGS_AND_COINS)
        gs, hs = initial(g), initial(h)
        gr, hr = solve(gs, g_kind), solve(hs, h_kind)
        gw, hw = winner_of(gs, g_kind, gr), winner_of(hs, h_kind, hr)
        ok = hw is not None and gw == hw
        return ok, [kind, h.string_count, gw.value, hw.value if hw else "Draw", hr.net_for_mover,
                    gr.states_visited, hr.states_visited]

    def inputs(self) -> dict:
        out = {}
        for kind in self.L1_STRINGS.keys() | {"L3", "LAVA"}:
            mine = [(g, h) for k, g, h in self.items if k == kind]
            out[kind] = {"G": board_profile(self.cg, [g for g, _ in mine])}
            if kind != "LAVA":
                out[kind]["H"] = board_profile(self.cg, [h for _, h in mine])
        return dict(sorted(out.items()))


FIXTURES = {"majority": "x1 x2\nx1 x3\nx2 x3\n", "x1x2": "x1 x2\n"}
# Clause sizes of the wide formulas by variable count: fixed, so that
# every seed compiles boards of the same size (only which variables sit
# in which clause changes).
WIDE_CLAUSE_SIZES = {6: (3, 3, 2), 7: (3, 3, 3), 8: (3, 3, 3)}
OPPONENTS = ("random", "greedy", "opposing-script")


def random_wide_formula(cg, rng: random.Random, sizes: tuple[int, ...], n: int):
    """Positive DNF on ``n`` variables with the given clause sizes; every
    variable is used (the compiler's precondition)."""
    order = rng.sample(range(n), n)
    clauses = []
    for size in sizes:
        clause = set(order[:size])
        del order[:size]
        while len(clause) < size:
            clause.add(rng.randrange(n))
        clauses.append(frozenset(clause))
    return cg.gamesat.DnfFormula(n, tuple(clauses))


class CompilePlay(Workload):
    name = "compile-play"
    why = "the only workload on the mutable LiveBoard, the policies, the compiler and winning_set_move (3^n per call on wide formulas)"
    SEEDS_PER_MATCHUP = 2

    def setup(self, cg, seed: int, work_root: str) -> None:
        self.cg = cg
        rng = random.Random(f"compile-play/{seed}")
        specs = []
        for name, text in FIXTURES.items():
            f = cg.gamesat.parse_dnf(text)
            specs += [(name, f, N) for N in (2, 3, 4)]
        for n, sizes in WIDE_CLAUSE_SIZES.items():
            specs.append((f"wide-n{n}", random_wide_formula(cg, rng, sizes, n), 2))
        first = cg.gamesat.Mover.TRUDY
        self.boards = []
        for name, f, N in specs:
            artifact = cg.reduce.compile_gamesat_to_lava(f, N, first)
            lava, nim, sac = cg.reduce.full_pipeline(f, N, first)
            back = cg.multigraph.parse_text(cg.multigraph.canonical_text(artifact.graph))
            if back.strings != artifact.graph.strings or lava.graph.strings != artifact.graph.strings:
                raise RuntimeError(f"{name} N={N}: board does not round-trip")
            self.boards.append(SimpleNamespace(name=name, formula=f, N=N, artifact=artifact,
                                               nim=nim, sac=sac))
        self.items = [(b, opp, rng.randrange(1 << 30)) for b in self.boards for opp in OPPONENTS
                      for _ in range(self.SEEDS_PER_MATCHUP)]
        self.run_item((self.boards[0], "random", 0))

    def run_item(self, item):
        cg = self.cg
        board, opponent, seed = item
        art = board.artifact
        Mover = cg.gamesat.Mover
        side = Mover.TRUDY if art.predicted["gamesat_value"] == "TrudyWins" else Mover.FALLON
        seat = art.player_for(side)
        st = cg.strategy
        script = st.TrudyScript(art) if side is Mover.TRUDY else st.FallonScript(art)
        if opponent == "random":
            opp = st.UniformRandom()
        elif opponent == "greedy":
            opp = st.GreedyDisabler(art, side)
        else:
            opp = st.FallonScript(art) if side is Mover.TRUDY else st.TrudyScript(art)
        p1, p2 = (script, opp) if seat is cg.engine.Player.P1 else (opp, script)
        try:
            rec = st.playout(art, p1, p2, seed=seed)
        except cg.errors.StrategyError as exc:
            return False, [board.name, board.N, opponent, "StrategyError", str(exc)]
        terminal = st.is_trudy_terminal if side is Mover.TRUDY else st.is_fallon_terminal
        ok = rec.winner is seat and terminal(rec.census)
        transcript = hashlib.sha256(rec.transcript_text().encode()).hexdigest()[:16]
        return ok, [board.name, board.N, opponent, rec.winner.value, rec.plies, transcript]

    def inputs(self) -> dict:
        cg = self.cg
        out = []
        for b in self.boards:
            g = b.artifact.graph
            out.append({
                "board": b.name, "clauses": format_clauses(b.formula),
                "n": b.formula.variable_count, "m": b.formula.clause_count, "N": b.N,
                "predicted": b.artifact.predicted["gamesat_value"],
                "strings": g.string_count, "nimstring_strings": b.nim.string_count,
                "sac_strings": b.sac.string_count, "rope_share": rope_share(cg, g),
                "components": components(g),
            })
        return {"first": "trudy", "opponents": list(OPPONENTS),
                "seeds_per_matchup": self.SEEDS_PER_MATCHUP, "boards": out}


def format_clauses(f) -> str:
    return " | ".join(" ".join(f.names[v] for v in sorted(c)) for c in f.clauses)


class CliChain(Workload):
    name = "cli-chain"
    why = "the only workload on the immutable GameState path (replay pays O(E^2) per ply) and on the CLI's file I/O"
    # The smallest board the compiler can emit (265 strings): one replay
    # of it already takes about a second.
    FORMULA = "x1 x2\n"
    N = 2
    MATCHUPS = (
        ("trudy", "fallon-script", "trudy-script"),
        ("fallon", "random", "greedy"),
        ("trudy", "greedy", "random"),
        ("fallon", "random", "random"),
    )
    SEEDS_PER_MATCHUP = 3

    def setup(self, cg, seed: int, work_root: str) -> None:
        self.cg = cg
        rng = random.Random(f"cli-chain/{seed}")
        os.makedirs(work_root, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="cli-chain-", dir=work_root)
        self.formula = self._p("f.dnf")
        with open(self.formula, "w", encoding="utf-8") as fh:
            fh.write(self.FORMULA)
        self.items = [(*m, rng.randrange(1 << 30)) for _ in range(self.SEEDS_PER_MATCHUP)
                      for m in self.MATCHUPS]
        # Warm every command; replay only a short prefix of the game.
        self._chain(*self.items[0][:3], 0, head=20)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _p(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def _cli(self, *argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cg.cli.run(list(argv))
        return code, out.getvalue().splitlines()

    def _chain(self, first, a, b, seed, head=None):
        """reduce -> play -> replay; ``head`` cuts the transcript to its
        first plies before the replay."""
        board, plan, tr = self._p("board.coins"), self._p("board.plan"), self._p("game.transcript")
        c1, _ = self._cli("reduce", "gamesat-to-lava", "--formula", self.formula, "--N", str(self.N),
                          "--first", first, "--out", board, "--plan", plan)
        c2, play_out = self._cli("play", "--in", board, "--plan", plan, "--policy-a", a,
                                 "--policy-b", b, "--seed", str(seed), "--out", tr)
        if head is not None:
            with open(tr, encoding="utf-8") as fh:
                lines = fh.read().splitlines()[:head]
            with open(tr, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        c3, replay_out = self._cli("replay", "--in", board, "--game", "lava", "--transcript", tr)
        return (c1, c2, c3), play_out, replay_out

    def run_item(self, item):
        codes, play_out, replay_out = self._chain(*item)
        if codes != (0, 0, 0) or not play_out or not replay_out:
            return False, [*item[:3], *codes]
        summary = ast.literal_eval(play_out[-1])
        fields = dict(kv.split("=", 1) for kv in replay_out[-1].split())
        ok = fields.get("winner") == summary["winner"] and int(fields.get("plies", -1)) == summary["plies"]
        with open(self._p("game.transcript"), "rb") as fh:
            transcript = hashlib.sha256(fh.read()).hexdigest()[:16]
        return ok, [*item[:3], summary["winner"], summary["plies"], transcript]

    def inputs(self) -> dict:
        cg = self.cg
        f = cg.gamesat.parse_dnf(self.FORMULA)
        boards = []
        for first in ("trudy", "fallon"):
            g = cg.reduce.compile_gamesat_to_lava(f, self.N, cg.gamesat.Mover(first)).graph
            boards.append({"first": first, "strings": g.string_count,
                           "rope_share": rope_share(cg, g), "components": components(g)})
        return {"formula": format_clauses(f), "n": f.variable_count, "m": f.clause_count,
                "N": self.N, "matchups": [list(t) for t in self.MATCHUPS],
                "seeds_per_matchup": self.SEEDS_PER_MATCHUP, "boards": boards}


WORKLOADS = {w.name: w for w in (OracleSweep, SolveScale, CompilePlay, CliChain)}
