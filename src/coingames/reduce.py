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
  when the canonical terminal is reached.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .engine import Player
from .errors import FormulaError, ParseError, ReductionError
from .gamesat import DnfFormula, GameSatValue, Mover, format_dnf, parse_dnf, solve_gamesat
from .multigraph import GROUND, GraphBuilder, Multigraph, StringEdge, cycle_graph, disjoint_union

DEFAULT_CHAIN_LEN = 5
DEFAULT_STRING_CAP = 200_000


def reduce_nimstring_to_sac(g: Multigraph) -> Multigraph:
    """Adjoin a cycle on max(2, coin_count + 1) coins (a 1-cycle would be
    a self-loop, which engines reject)."""
    n = max(2, g.coin_count + 1)
    h = disjoint_union(g, cycle_graph(n))
    labels = dict(h.labels)
    for sid in range(g.string_count, h.string_count):
        labels[sid] = "winner-cycle"
    return Multigraph(h.coin_count, h.strings, labels)


def reduce_lava_to_nimstring(g: Multigraph, chain_len: int = DEFAULT_CHAIN_LEN) -> Multigraph:
    """Anchor every coin (even isolated ones) to ground via a chain of
    ``chain_len`` strings through chain_len - 1 fresh coins.  Original
    string ids are preserved and come first."""
    if chain_len < 5:
        raise ReductionError(f"chain length {chain_len} is below the safe minimum of 5")
    b = GraphBuilder()
    b.add_coins(g.coin_count)
    for s in g.strings:
        b.add_string(s.a, s.b, g.labels.get(s.id))
    for c in range(g.coin_count):
        prev = c
        for _ in range(chain_len - 1):
            fresh = b.add_coin()
            b.add_string(prev, fresh, f"anchor-chain:{c}")
            prev = fresh
        b.add_string(prev, GROUND, f"anchor-chain:{c}")
    return b.build()


@dataclass(frozen=True)
class AugmentedFormula:
    """F': real clauses, one singleton clause per variable, one empty
    clause.  Clause keys: 'real:<i>', 'singleton:<v>', 'empty'."""

    real: tuple[frozenset[int], ...]
    variable_count: int

    def clause_keys(self) -> list[str]:
        keys = [f"real:{i}" for i in range(len(self.real))]
        keys += [f"singleton:{v}" for v in range(self.variable_count)]
        keys.append("empty")
        return keys


def augment_formula(f: DnfFormula) -> AugmentedFormula:
    if f.clause_count == 0:
        raise FormulaError("formula has no clauses")
    for i, clause in enumerate(f.clauses):
        if len(clause) < 2:
            raise FormulaError(f"clause {i} has {len(clause)} variable(s); need at least 2")
    k = f.occurrences()
    for v, kv in enumerate(k):
        if kv == 0:
            raise FormulaError(f"variable {f.names[v]} occurs in no clause")
    return AugmentedFormula(f.clauses, f.variable_count)


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
        ids: list[int] = []
        for rng in (self.bottom, self.top, self.rope):
            if rng is not None:
                ids.extend(range(rng[0], rng[1]))
        return ids


# Field order is the key order of each gadget in a written plan.
_PLAN_FIELDS = tuple(f.name for f in fields(GadgetPlan))


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
    def trudy_player(self) -> Player:
        return Player.P1 if self.first is Mover.TRUDY else Player.P2

    @property
    def fallon_player(self) -> Player:
        return self.trudy_player.other

    def player_for(self, side: Mover) -> Player:
        return self.trudy_player if side is Mover.TRUDY else self.fallon_player

    def variable_plans(self) -> list[GadgetPlan]:
        return [p for p in self.plan if p.kind == "variable"]

    def wire_plans(self) -> list[GadgetPlan]:
        return [p for p in self.plan if p.kind == "wire"]

    def pad_id(self) -> int | None:
        for p in self.plan:
            if p.kind == "pad":
                return p.rope[0]
        return None


def _build_unpadded(f: DnfFormula, N: int, string_cap: int) -> tuple[Multigraph, list[GadgetPlan], int]:
    aug = augment_formula(f)
    n = f.variable_count
    m = f.clause_count
    t0 = total_strings(f, N)
    if t0 + 1 > string_cap:
        raise ReductionError(f"instance needs {t0} strings, above cap {string_cap}")

    b = GraphBuilder()
    plan: list[GadgetPlan] = []
    mid = [0] * n
    out = [0] * n
    for i in range(n):
        mid[i] = b.add_coin()
        out[i] = b.add_coin()
    root = b.add_coin()
    clause_coin: dict[str, int] = {}
    for key in aug.clause_keys():
        clause_coin[key] = b.add_coin()

    for i in range(n):
        name = f.names[i]
        bottom = b.add_string(mid[i], GROUND, f"variable:{name}:bottom")
        top = b.add_string(mid[i], out[i], f"variable:{name}:top")
        plan.append(
            GadgetPlan(
                kind="variable",
                level=0,
                var=i,
                bottom=(bottom, bottom + 1),
                top=(top, top + 1),
                mid_coin=mid[i],
                output_coin=out[i],
            )
        )

    wire_count = 0

    def add_wire(level: int, source: str, src_coin: int, target: str) -> None:
        nonlocal wire_count
        midc = b.add_coin()
        tgt_coin = clause_coin[target]
        tag = f"wire{wire_count}[L{level} {source}->{target}]"
        bot = b.add_rope(src_coin, midc, N ** (2 * level - 1), f"{tag}:bottom")
        topr = b.add_rope(midc, tgt_coin, N ** (2 * level), f"{tag}:top")
        plan.append(
            GadgetPlan(
                kind="wire",
                level=level,
                source=source,
                target=target,
                bottom=(bot[0], bot[-1] + 1),
                top=(topr[0], topr[-1] + 1),
                input_coin=src_coin,
                mid_coin=midc,
                output_coin=tgt_coin,
            )
        )
        wire_count += 1

    k = f.occurrences()
    for i in range(n):
        for ci, clause in enumerate(f.clauses):
            if i in clause:
                add_wire(1, f"var:{i}", out[i], f"real:{ci}")
        for _ in range(k[i] - 1):
            add_wire(1, f"var:{i}", out[i], f"singleton:{i}")
    for ci in range(m):
        add_wire(2, "root", root, f"real:{ci}")
    for i in range(n):
        add_wire(2, "root", root, f"singleton:{i}")
    for _ in range(n + m - 1):
        add_wire(2, "root", root, "empty")

    for key in aug.clause_keys():
        rope = b.add_rope(clause_coin[key], GROUND, N**5, f"clause:{key}")
        plan.append(
            GadgetPlan(
                kind="clause",
                level=3,
                clause=key,
                rope=(rope[0], rope[-1] + 1),
                input_coin=clause_coin[key],
            )
        )

    graph = b.build()
    assert graph.string_count == t0, "construction disagrees with the closed form"
    return graph, plan, root


def fix_parity(artifact: ReductionArtifact, first: Mover) -> ReductionArtifact:
    """Decide the parity pad.

    In the canonical losing-for-Trudy terminal, exactly one string
    survives per variable gadget and per wire and the clause ropes are
    empty, so the game lasts T - (n + W1 + W2) cuts.  The player due to
    move at that point is stuck and loses; we require that player to be
    the Trudy-mapped one, adding one ground-to-ground string iff the
    parity comes out wrong.  The Trudy-win terminal keeps one extra
    clause string, shifting the count by one and stranding the
    Fallon-mapped player instead, so one pad decision serves both.
    """
    if artifact.pad_id() is not None:
        raise ReductionError("parity pad already decided")
    n = len(artifact.variable_plans())
    wires = artifact.wire_plans()
    w1 = sum(1 for w in wires if w.level == 1)
    w2 = sum(1 for w in wires if w.level == 2)
    r_fallon = n + w1 + w2
    t0 = artifact.graph.string_count
    cuts = t0 - r_fallon
    trudy_is_p1 = first is Mover.TRUDY
    # After an even number of cuts, P1 is the player to move.
    pad = (cuts % 2 == 0) != trudy_is_p1
    graph = artifact.graph
    plan = list(artifact.plan)
    if pad:
        sid = graph.string_count
        labels = dict(graph.labels)
        labels[sid] = "parity-pad"
        graph = Multigraph(
            graph.coin_count, graph.strings + (StringEdge(sid, GROUND, GROUND),), labels
        )
        plan.append(GadgetPlan(kind="pad", rope=(sid, sid + 1)))
        cuts += 1
    predicted = dict(artifact.predicted)
    predicted.update(
        {
            "T0": t0,
            "R_fallon": r_fallon,
            "fallon_terminal_cuts": cuts,
            "pad": pad,
            "W1": w1,
            "W2": w2,
            "total_strings": graph.string_count,
        }
    )
    return ReductionArtifact(
        graph, tuple(plan), artifact.N, first, artifact.formula, artifact.root_coin, predicted
    )


def compile_gamesat_to_lava(
    f: DnfFormula,
    N: int,
    first: Mover,
    string_cap: int = DEFAULT_STRING_CAP,
) -> ReductionArtifact:
    """Compile a positive DNF into a Coins-are-Lava instance.

    Requires N >= 2.  The asymptotic sufficiency bound N >> m^2 n^2 is
    recorded as an advisory flag, not enforced: small N is exactly what
    desk-scale experiments explore.  Refuses formulas whose Game SAT
    value is Unresolved, since no winner prediction would be meaningful.
    """
    if N < 2:
        raise ReductionError("N must be at least 2")
    value = solve_gamesat(f, first, allow_skip=True)
    if value is GameSatValue.UNRESOLVED:
        raise ReductionError("Game SAT value is Unresolved; refusing to compile")
    graph, plan, root = _build_unpadded(f, N, string_cap)
    n = f.variable_count
    m = f.clause_count
    predicted = {
        "gamesat_value": value.value,
        "first": first.value,
        "trudy_player": (Player.P1 if first is Mover.TRUDY else Player.P2).value,
        "N": N,
        "N_advisory_ok": N >= (m * m * n * n),
    }
    return fix_parity(ReductionArtifact(graph, tuple(plan), N, first, f, root, predicted), first)


def full_pipeline(
    f: DnfFormula,
    N: int,
    first: Mover,
    chain_len: int = DEFAULT_CHAIN_LEN,
    string_cap: int = DEFAULT_STRING_CAP,
) -> tuple[ReductionArtifact, Multigraph, Multigraph]:
    """Game SAT -> Lava -> Nimstring -> Strings-and-Coins."""
    lava = compile_gamesat_to_lava(f, N, first, string_cap)
    nim = reduce_lava_to_nimstring(lava.graph, chain_len)
    sac = reduce_nimstring_to_sac(nim)
    return lava, nim, sac


def artifact_to_json(a: ReductionArtifact) -> str:
    doc = {
        "N": a.N,
        "first": a.first.value,
        "formula": format_dnf(a.formula),
        "root_coin": a.root_coin,
        "predicted": a.predicted,
        "gadgets": [
            {k: v for k in _PLAN_FIELDS if (v := getattr(p, k)) is not None} for p in a.plan
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# The fields each gadget kind must carry: string-id ranges, then coins.
_GADGET_FIELDS = {
    "variable": (("bottom", "top"), ("mid_coin", "output_coin")),
    "wire": (("bottom", "top"), ("input_coin", "mid_coin", "output_coin")),
    "clause": (("rope",), ("input_coin",)),
    "pad": (("rope",), ()),
}


def artifact_from_json(text: str, graph: Multigraph) -> ReductionArtifact:
    """Load a plan written by ``artifact_to_json`` for ``graph``.  Raises
    ParseError unless the document has the written shape, every gadget
    kind is known, every id range lies inside the board without overlap
    and holds one rope (strands sharing their endpoints), every coin is
    on the board, the gadgets fit the plan's formula (one variable
    gadget per variable in order, one clause gadget per clause key, and
    every wire from a variable (level 1) or the root (level 2) into a
    clause key), and every string of the board belongs to a gadget, as
    the playout's tracker needs."""
    try:
        doc = json.loads(text)
        plans = tuple(
            GadgetPlan(**{k: tuple(v) if k in ("bottom", "top", "rope") else v for k, v in g.items()})
            for g in doc["gadgets"]
        )
        artifact = ReductionArtifact(
            graph=graph,
            plan=plans,
            N=doc["N"],
            first=Mover(doc["first"]),
            formula=parse_dnf(doc["formula"]),
            root_coin=doc["root_coin"],
            predicted=doc["predicted"],
        )
        GameSatValue(artifact.predicted["gamesat_value"])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"malformed plan: {exc!r}") from None
    used: set[int] = set()
    coins = [artifact.root_coin]
    for p in plans:
        if not isinstance(p.kind, str) or p.kind not in _GADGET_FIELDS:
            raise ParseError(f"plan: unknown gadget kind {p.kind!r}")
        ranges, coin_fields = _GADGET_FIELDS[p.kind]
        coins += [getattr(p, name) for name in coin_fields]
        for name in ranges:
            rng = getattr(p, name)
            if rng is None or len(rng) != 2 or not all(type(x) is int for x in rng):
                raise ParseError(f"plan: {p.kind} gadget needs an id range {name}")
            if not 0 <= rng[0] < rng[1] <= graph.string_count:
                raise ParseError(f"plan: range {list(rng)} outside [0, {graph.string_count})")
            ids = range(*rng)
            if not used.isdisjoint(ids):
                raise ParseError(f"plan: range {list(rng)} overlaps another gadget")
            used.update(ids)
            if len({graph.strings[sid].pair() for sid in ids}) != 1:
                raise ParseError(f"plan: strands of rope {list(rng)} do not share endpoints")
    for coin in coins:
        if type(coin) is not int or not 0 <= coin < graph.coin_count:
            raise ParseError(f"plan: coin {coin!r} out of range (coins: {graph.coin_count})")
    f = artifact.formula
    if [p.var for p in plans if p.kind == "variable"] != list(range(f.variable_count)):
        raise ParseError(f"plan: variable gadgets do not match the formula's {f.variable_count} variables")
    keys = AugmentedFormula(f.clauses, f.variable_count).clause_keys()
    planned = [p.clause for p in plans if p.kind == "clause"]
    if len(planned) != len(keys) or any(key not in planned for key in keys):
        raise ParseError("plan: clause gadgets do not match the formula's clause keys")
    var_sources = [f"var:{i}" for i in range(f.variable_count)]
    for p in plans:
        if p.kind == "wire" and not (
            (p.level == 1 and p.source in var_sources or p.level == 2 and p.source == "root")
            and p.target in keys
        ):
            raise ParseError(f"plan: level-{p.level!r} wire {p.source!r} -> {p.target!r} does not fit the formula")
    if len(used) < graph.string_count:
        orphan = min(set(range(graph.string_count)) - used)
        raise ParseError(f"plan: string {orphan} belongs to no gadget")
    return artifact
