"""Reduction compilers between the three games and Game SAT.

Three constructions:

* Nimstring to Strings-and-Coins: adjoin a fresh cycle on one more coin
  than the input has.  The cycle's coins outnumber the rest, so whoever
  wins the cut-for-cut fight takes the cycle's points and the match,
  making the point winner coincide with the Nimstring winner.

* Coins-are-Lava to Nimstring: anchor every coin to the ground through
  a chain of at least 5 fresh strings.  Chains are long enough that
  opening one concedes Nimstring, so optimal play never frees a coin
  and the Nimstring winner equals the Lava winner.

* Game SAT to Coins-are-Lava: gadget compiler.  Variable gadgets (two
  strings: ground, middle coin, output coin), wire gadgets (bottom rope
  width N^(2l-1) into a middle coin, top rope width N^(2l) out of it),
  and clause gadgets (one rope of width N^5 from a shared input coin to
  ground).  The formula is augmented to F': the real clauses, one
  singleton clause per variable, and one empty clause.  Level-1 wires
  run from each variable's output coin to the real clauses containing
  it (k_i of them) and k_i - 1 wires to its own singleton clause;
  level-2 wires run from a root coin to every real and singleton clause
  and n + m - 1 of them to the empty clause.  A final parity pad (one
  ground-to-ground string, added or not) pins which player is stuck
  when the canonical terminal is reached.  ``gadget_layout`` lists F''s
  gadgets in board order, and the compiler builds each board from that
  list in one pass.  The compiler is deterministic, so the plan loader
  checks a plan by compiling its formula again and comparing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from itertools import zip_longest

from .engine import Player
from .errors import BudgetExceeded, FormulaError, ParseError, ReductionError, clip
from .gamesat import DnfFormula, GameSatValue, Mover, format_dnf, parse_dnf, solve_gamesat
from .multigraph import GROUND, MAX_STRINGS, GraphBuilder, Multigraph

DEFAULT_CHAIN_LEN = 5
DEFAULT_STRING_CAP = 200_000


def reduce_nimstring_to_sac(g: Multigraph) -> Multigraph:
    """Adjoin a cycle on max(2, coin_count + 1) coins (a 1-cycle would be
    a self-loop, which engines reject)."""
    b = GraphBuilder()
    b.add_board(g)
    cycle = b.add_coins(max(2, g.coin_count + 1))
    for x, y in zip(cycle, cycle[1:] + cycle[:1]):
        b.add_string(x, y, "winner-cycle")
    return b.build()


def reduce_lava_to_nimstring(g: Multigraph, chain_len: int = DEFAULT_CHAIN_LEN) -> Multigraph:
    """Anchor every coin (even isolated ones) to ground via a chain of
    ``chain_len`` strings through chain_len - 1 fresh coins.  Original
    string ids are preserved and come first."""
    if chain_len < 5:
        raise ReductionError(f"chain length {chain_len} is below the safe minimum of 5")
    size = g.string_count + g.coin_count * chain_len
    if size > MAX_STRINGS:
        raise ReductionError(f"anchored board needs {size} strings, above {MAX_STRINGS}")
    b = GraphBuilder()
    b.add_board(g)
    for c in range(g.coin_count):
        chain = [c, *b.add_coins(chain_len - 1), GROUND]
        for x, y in zip(chain, chain[1:]):
            b.add_string(x, y, f"anchor-chain:{c}")
    return b.build()


def check_formula(f: DnfFormula) -> None:
    """Refuse a formula outside the compiler's domain with FormulaError:
    no clauses, a clause of fewer than 2 variables, or a variable that
    occurs in no clause."""
    if f.clause_count == 0:
        raise FormulaError("formula has no clauses")
    for i, clause in enumerate(f.clauses):
        if len(clause) < 2:
            raise FormulaError(f"clause {i} has {len(clause)} variable(s); need at least 2")
    for v, kv in enumerate(f.occurrences()):
        if kv == 0:
            raise FormulaError(f"variable {f.names[v]} occurs in no clause")


def closed_form_counts(f: DnfFormula) -> dict[str, int]:
    """W1, W2 and clause gadget count implied by the construction."""
    n = f.variable_count
    m = f.clause_count
    k = f.occurrences()
    return {
        "W1": 2 * sum(k) - n,
        "W2": 2 * (n + m) - 1,
        "clause_gadgets": m + n + 1,
    }


def total_strings(f: DnfFormula, N: int) -> int:
    """Closed-form string total before the parity pad."""
    n = f.variable_count
    m = f.clause_count
    c = closed_form_counts(f)
    return (
        2 * n
        + c["W1"] * (N + N * N)
        + c["W2"] * (N**3 + N**4)
        + (m + n + 1) * N**5
    )


@dataclass(frozen=True)
class GadgetPlan:
    """Ownership record mapping one gadget to its string-id ranges.

    kind 'variable': bottom/top are single-string ranges, mid/output coins set.
    kind 'wire': level 1 or 2, source ('var:<i>' or 'root'), target clause key.
    kind 'clause': level 3, rope range, input coin, role via the clause key.
    kind 'pad': rope range holds the one ground-to-ground string.
    Ranges are half-open (start, stop) over contiguous ids.
    """

    kind: str
    level: int | None = None
    var: int | None = None
    source: str | None = None
    target: str | None = None
    clause: str | None = None
    bottom: tuple[int, int] | None = None
    top: tuple[int, int] | None = None
    rope: tuple[int, int] | None = None
    input_coin: int | None = None
    mid_coin: int | None = None
    output_coin: int | None = None

    def owned_ids(self) -> list[int]:
        return [sid for rng in (self.bottom, self.top, self.rope) if rng is not None for sid in range(*rng)]


# Field order is the key order of each gadget in a written plan.
_PLAN_FIELDS = tuple(f.name for f in fields(GadgetPlan))


def _written(p: GadgetPlan) -> dict:
    """The gadget's fields as a plan writes them and ``json`` reads them
    back: in order, ``None`` omitted, ranges as lists."""
    return {k: list(v) if type(v) is tuple else v for k in _PLAN_FIELDS if (v := getattr(p, k)) is not None}


def gadget_layout(f: DnfFormula) -> list[GadgetPlan]:
    """The gadgets of the augmented formula F' in board order, without
    their placement (no id ranges, no coins): one variable gadget per
    variable; each variable's level-1 wires, to the real clauses that
    contain it and then k_i - 1 to its singleton clause; the level-2
    wires from the root, one to every real and singleton clause and then
    n + m - 1 to the empty clause; and one clause gadget per clause key.
    The compiler places exactly these gadgets."""
    n = f.variable_count
    keys = [f"real:{i}" for i in range(f.clause_count)] + [f"singleton:{v}" for v in range(n)]
    layout = [GadgetPlan("variable", level=0, var=v) for v in range(n)]
    for v, k in enumerate(f.occurrences()):
        targets = [f"real:{i}" for i, clause in enumerate(f.clauses) if v in clause]
        targets += [f"singleton:{v}"] * (k - 1)
        layout += [GadgetPlan("wire", level=1, source=f"var:{v}", target=t) for t in targets]
    targets = keys + ["empty"] * (len(keys) - 1)
    layout += [GadgetPlan("wire", level=2, source="root", target=t) for t in targets]
    layout += [GadgetPlan("clause", level=3, clause=key) for key in keys + ["empty"]]
    return layout


@dataclass
class ReductionArtifact:
    """A compiled Lava instance with provenance.

    ``first`` is the Game SAT mover who makes the first cut; that side
    is mapped to P1.  ``predicted`` records the Game SAT value, the
    closed-form counts, and the parity-pad decision.
    """

    graph: Multigraph
    plan: tuple[GadgetPlan, ...]
    N: int
    first: Mover
    formula: DnfFormula
    root_coin: int
    predicted: dict = field(default_factory=dict)

    @property
    def winner(self) -> Mover:
        """The side that wins the compiled Game SAT instance."""
        return Mover.TRUDY if self.predicted["gamesat_value"] == GameSatValue.TRUDY_WINS.value else Mover.FALLON

    def player_for(self, side: Mover) -> Player:
        return Player.P1 if side is self.first else Player.P2


def _span(ids: list[int]) -> tuple[int, int]:
    """The half-open range of a run of consecutive string ids."""
    return (ids[0], ids[-1] + 1)


def compile_gamesat_to_lava(
    f: DnfFormula,
    N: int,
    first: Mover,
    string_cap: int = DEFAULT_STRING_CAP,
) -> ReductionArtifact:
    """Compile a positive DNF into a Coins-are-Lava instance.

    Requires N >= 2.  The asymptotic sufficiency bound N >> m^2 n^2 is
    recorded as an advisory flag, not enforced: small N is exactly what
    desk-scale experiments explore.

    The board is built in one pass over ``gadget_layout(f)``, with the
    parity pad decided up front from the closed forms.  In the canonical
    losing-for-Trudy terminal, exactly one string survives per variable
    gadget and per wire and the clause ropes are empty, so the game
    lasts T - (n + W1 + W2) cuts.  The player due to move at that point
    is stuck and loses; we require that player to be the Trudy-mapped
    one, adding one ground-to-ground string iff the parity comes out
    wrong.  The Trudy-win terminal keeps one extra clause string,
    shifting the count by one and stranding the Fallon-mapped player
    instead, so one pad decision serves both.
    """
    if N < 2:
        raise ReductionError("N must be at least 2")
    check_formula(f)
    t0 = total_strings(f, N)
    cap = min(string_cap, MAX_STRINGS)
    if t0 + 1 > cap:
        raise ReductionError(f"instance needs {t0} strings, above cap {cap}")
    # Last, as it takes time exponential in the variable count.
    value = solve_gamesat(f, first)
    n = f.variable_count
    m = f.clause_count
    counts = closed_form_counts(f)
    r_fallon = n + counts["W1"] + counts["W2"]
    # After an even number of cuts, P1 is the player to move.
    pad = ((t0 - r_fallon) % 2 == 0) != (first is Mover.TRUDY)

    layout = gadget_layout(f)
    b = GraphBuilder()
    var_coins = [b.add_coins(2) for _ in range(n)]  # middle and output coin
    root = b.add_coin()
    clause_coin = {p.clause: b.add_coin() for p in layout if p.kind == "clause"}
    source_coin = {f"var:{v}": out for v, (_, out) in enumerate(var_coins)} | {"root": root}
    plan: list[GadgetPlan] = []
    for p in layout:
        if p.kind == "variable":
            mid, out = var_coins[p.var]
            name = f.names[p.var]
            bottom = b.add_rope(mid, GROUND, 1, f"variable:{name}:bottom")
            top = b.add_rope(mid, out, 1, f"variable:{name}:top")
            plan.append(replace(p, bottom=_span(bottom), top=_span(top), mid_coin=mid, output_coin=out))
        elif p.kind == "wire":
            src = source_coin[p.source]
            mid = b.add_coin()
            tgt = clause_coin[p.target]
            # The variables come first, so wire i is gadget n + i.
            tag = f"wire{len(plan) - n}[L{p.level} {p.source}->{p.target}]"
            bottom = b.add_rope(src, mid, N ** (2 * p.level - 1), f"{tag}:bottom")
            top = b.add_rope(mid, tgt, N ** (2 * p.level), f"{tag}:top")
            plan.append(
                replace(p, bottom=_span(bottom), top=_span(top), input_coin=src, mid_coin=mid, output_coin=tgt)
            )
        else:
            coin = clause_coin[p.clause]
            rope = b.add_rope(coin, GROUND, N**5, f"clause:{p.clause}")
            plan.append(replace(p, rope=_span(rope), input_coin=coin))
    if pad:
        plan.append(GadgetPlan("pad", rope=_span(b.add_rope(GROUND, GROUND, 1, "parity-pad"))))
    graph = b.build()
    assert graph.string_count == t0 + pad, "construction disagrees with the closed form"
    predicted = {
        "gamesat_value": value.value,
        "first": first.value,
        "trudy_player": (Player.P1 if first is Mover.TRUDY else Player.P2).value,
        "N": N,
        "N_advisory_ok": N >= (m * m * n * n),
        "T0": t0,
        "R_fallon": r_fallon,
        "fallon_terminal_cuts": t0 - r_fallon + pad,
        "pad": pad,
        "W1": counts["W1"],
        "W2": counts["W2"],
        "total_strings": graph.string_count,
    }
    return ReductionArtifact(graph, tuple(plan), N, first, f, root, predicted)


def full_pipeline(
    f: DnfFormula,
    N: int,
    first: Mover,
    chain_len: int = DEFAULT_CHAIN_LEN,
) -> tuple[ReductionArtifact, Multigraph, Multigraph]:
    """Game SAT -> Lava -> Nimstring -> Strings-and-Coins."""
    lava = compile_gamesat_to_lava(f, N, first)
    nim = reduce_lava_to_nimstring(lava.graph, chain_len)
    sac = reduce_nimstring_to_sac(nim)
    return lava, nim, sac


def _document(a: ReductionArtifact) -> dict:
    return {
        "N": a.N,
        "first": a.first.value,
        "formula": format_dnf(a.formula),
        "root_coin": a.root_coin,
        "predicted": a.predicted,
        "gadgets": [_written(p) for p in a.plan],
    }


def artifact_to_json(a: ReductionArtifact) -> str:
    return json.dumps(_document(a), indent=2) + "\n"


# Stands for a key or gadget that one of two plan documents lacks.
_ABSENT = object()


def artifact_from_json(text: str, graph: Multigraph) -> ReductionArtifact:
    """Load a plan written by ``artifact_to_json`` for ``graph``: compile
    the plan's formula, N and first mover again, capped at the board's
    size, and raise ParseError unless that gives ``graph`` and the
    document.  The result has ``graph`` as its board, so a transcript
    shows the caller's labels (none, for a board read from text)."""
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict) or not isinstance(doc.get("gadgets"), list) or type(doc["N"]) is not int:
            raise TypeError("a plan is an object with an integer N and a list of gadgets")
        f, N, first = parse_dnf(doc["formula"]), doc["N"], Mover(doc["first"])
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
        raise ParseError(f"malformed plan: {clip(repr(exc))}") from None
    try:
        compiled = compile_gamesat_to_lava(f, N, first, string_cap=graph.string_count + 1)
    except (ReductionError, FormulaError, BudgetExceeded) as exc:
        raise ParseError(f"plan does not compile to this board: {exc}") from None
    if compiled.graph != graph:
        raise ParseError(f"plan: its formula compiles to another board ({compiled.graph.string_count} strings)")
    want = _document(compiled)
    if doc != want:
        # Name the first top-level key, or else the first gadget, that differs.
        pairs = [(k, doc.get(k, _ABSENT), want.get(k, _ABSENT)) for k in {**want, **doc} if k != "gadgets"]
        gadgets = zip_longest(doc["gadgets"], want["gadgets"], fillvalue=_ABSENT)
        pairs += [(f"gadget {i}", *pair) for i, pair in enumerate(gadgets)]
        what, *shown = next(p for p in pairs if p[1] != p[2])
        got, exp = ("nothing" if v is _ABSENT else clip(json.dumps(v)) for v in shown)
        raise ParseError(f"plan: {what} is {got}, but the compiled plan has {exp}")
    return replace(compiled, graph=graph)
