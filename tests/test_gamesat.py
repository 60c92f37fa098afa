"""Set-or-skip satisfiability game: parsing, evaluation, and solved values."""

import gc
import itertools
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from coingames.errors import FormulaError, ParseError
from coingames.gamesat import (
    DEFAULT_VAR_BUDGET,
    DnfFormula,
    GameSatValue,
    Mover,
    format_dnf,
    parse_dnf,
    solve_gamesat,
    winning_set_move,
)
from coingames.verify import check_skip_dominance, enumerate_small_formulas, random_formula


MAJORITY = "x1 x2\nx1 x3\nx2 x3"


def test_parse_dnf_basic():
    f = parse_dnf("x1 x2\nx2 x3\n# comment\n")
    assert f.variable_count == 3
    assert f.clause_count == 2
    assert f.names == ("x1", "x2", "x3")
    assert frozenset({0, 1}) in f.clauses


def test_parse_dnf_indexes_by_first_appearance():
    f = parse_dnf("b a\na c\n")
    assert f.names == ("b", "a", "c")
    assert f.clauses[0] == frozenset({0, 1})
    assert f.clauses[1] == frozenset({1, 2})


@pytest.mark.parametrize("text", ["", "\n\n", "# only comments\n", " \t\n\n  # a\n#b\n \f\n"])
def test_parse_dnf_rejects_empty(text):
    with pytest.raises(ParseError, match="^formula has no clauses$"):
        parse_dnf(text)


def test_format_parse_round_trip():
    f = parse_dnf(MAJORITY)
    assert parse_dnf(format_dnf(f)) == f


def test_mover_other():
    assert Mover.TRUDY.other is Mover.FALLON
    assert Mover.FALLON.other is Mover.TRUDY


# Values frozen from the solver, for both first movers.
@pytest.mark.parametrize(
    "text,first,value",
    [
        ("x1", Mover.TRUDY, GameSatValue.TRUDY_WINS),
        ("x1", Mover.FALLON, GameSatValue.FALLON_WINS),
        ("x1 x2", Mover.TRUDY, GameSatValue.FALLON_WINS),
        ("x1 x2", Mover.FALLON, GameSatValue.FALLON_WINS),
        (MAJORITY, Mover.TRUDY, GameSatValue.TRUDY_WINS),
        (MAJORITY, Mover.FALLON, GameSatValue.FALLON_WINS),
        ("x1\nx2", Mover.TRUDY, GameSatValue.TRUDY_WINS),
        ("x1\nx2", Mover.FALLON, GameSatValue.TRUDY_WINS),
        ("x1 x2 x3\nx2 x3\nx3 x4", Mover.TRUDY, GameSatValue.TRUDY_WINS),
        ("x1 x2 x3\nx2 x3\nx3 x4", Mover.FALLON, GameSatValue.FALLON_WINS),
    ],
)
def test_solved_values(text, first, value):
    assert solve_gamesat(parse_dnf(text), first) is value


def test_skip_dominance_check_accepts_small_formulas():
    """The module's theorem against an explicit solve of the set-or-skip
    game, at every state of every formula of up to 4 variables and 3
    clauses."""
    report = check_skip_dominance(4, 3)
    assert report.ok, report.counterexamples[:1]
    assert report.details["formulas"] == 646
    assert report.count == report.passes == 1292


def test_winning_set_move_preserves_the_win():
    f = parse_dnf(MAJORITY)
    move = winning_set_move(f, f.unset_assignment(), Mover.TRUDY)
    assert move is not None
    var, val = move
    nxt = list(f.unset_assignment())
    nxt[var] = val
    assert (
        solve_gamesat(f, Mover.FALLON, assignment=tuple(nxt))
        is GameSatValue.TRUDY_WINS
    )


def test_winning_set_move_returns_none_for_the_loser():
    f = parse_dnf("x1 x2")
    assert winning_set_move(f, f.unset_assignment(), Mover.TRUDY) is None


def test_a_cached_table_answers_as_a_fresh_one():
    # The table lives on the formula; a solve for one mover must not
    # leave it answering differently from a fresh formula's table.
    for f in enumerate_small_formulas(3, 2):
        for first in Mover:
            solve_gamesat(f, first)
        for a in itertools.product((None, True, False), repeat=f.variable_count):
            for first in Mover:
                fresh = DnfFormula(f.variable_count, f.clauses)
                assert fresh == f
                assert solve_gamesat(f, first, assignment=a) is solve_gamesat(fresh, first, assignment=a)


def test_formula_validation():
    with pytest.raises(FormulaError):
        DnfFormula(1, (frozenset({3}),))
    with pytest.raises(FormulaError):
        DnfFormula(-1, ())
    with pytest.raises(FormulaError):
        DnfFormula(2, (frozenset({0}),), names=("only",))


def test_occurrences_counts_per_variable():
    f = parse_dnf(MAJORITY)
    assert f.occurrences() == [2, 2, 2]


@given(seed=st.integers(min_value=0, max_value=4000))
def test_random_formulas_meet_compiler_preconditions(seed: int):
    """Property: generated formulas are positive DNF with clauses of at
    least two variables and no variable left unused."""
    f = random_formula(random.Random(seed))
    assert all(len(c) >= 2 for c in f.clauses)
    used = set().union(*f.clauses)
    assert used == set(range(f.variable_count))
    assert len(set(f.clauses)) == f.clause_count


@given(seed=st.integers(min_value=0, max_value=4000))
def test_dnf_text_round_trip(seed: int):
    """Property: format_dnf output parses back to the same formula up to
    variable re-indexing (parsing indexes by first appearance)."""
    f = random_formula(random.Random(seed))
    g = parse_dnf(format_dnf(f))
    assert g.variable_count == f.variable_count

    def by_name(h):
        return {frozenset(h.names[v] for v in clause) for clause in h.clauses}

    assert by_name(g) == by_name(f)


@given(seed=st.integers(min_value=0, max_value=4000))
@settings(max_examples=50, deadline=None)
def test_adding_a_clause_never_hurts_trudy(seed: int):
    """Property: a positive DNF with an extra clause is at least as good
    for the satisfier."""
    rng = random.Random(seed)
    f = random_formula(rng, max_n=3, max_m=2)
    size = rng.randint(2, f.variable_count)
    extra = frozenset(rng.sample(range(f.variable_count), size))
    if extra in f.clauses:
        g = f
    else:
        g = DnfFormula(f.variable_count, f.clauses + (extra,))
    rank = {GameSatValue.FALLON_WINS: 0, GameSatValue.TRUDY_WINS: 1}
    for first in Mover:
        assert rank[solve_gamesat(g, first)] >= rank[solve_gamesat(f, first)]


def test_solved_formula_is_freed_without_the_cycle_collector():
    """A formula's cached table keeps no reference to the formula, so
    dropping a solved formula frees it and its table at once."""
    f = parse_dnf(MAJORITY)
    gone = weakref.ref(f)
    gc.disable()
    try:
        assert solve_gamesat(f, Mover.TRUDY) is GameSatValue.TRUDY_WINS
        assert winning_set_move(f, f.unset_assignment(), Mover.TRUDY) is not None
        del f
        assert gone() is None
    finally:
        gc.enable()


def test_solve_refuses_an_assignment_of_the_wrong_length():
    with pytest.raises(FormulaError):
        solve_gamesat(parse_dnf(MAJORITY), Mover.TRUDY, assignment=(True, False))


# Neither player can force a win: a third value that the recursion with
# skips may give and the table has no way to say.
UNRESOLVED = "Unresolved"


def _reference_pairs(f: DnfFormula, allow_skip: bool):
    """The forced-win equations, with or without skips, as a memoized
    recursion over assignment tuples: (value with Trudy to move, value
    with Fallon to move)."""
    TW, FW, UN = GameSatValue.TRUDY_WINS, GameSatValue.FALLON_WINS, UNRESOLVED
    memo = {}

    def pair(a):
        if a not in memo:
            if None not in a:
                v = TW if any(all(a[x] for x in clause) for clause in f.clauses) else FW
                memo[a] = (v, v)
            else:
                kids = [pair(a[:v] + (b,) + a[v + 1 :]) for v in range(len(a)) if a[v] is None for b in (True, False)]
                # After Trudy sets, Fallon moves (index 1), and vice versa.
                ct, cf = [p[1] for p in kids], [p[0] for p in kids]
                if allow_skip:
                    t_tw, f_fw = TW in ct, FW in cf
                    f_tw = t_tw and all(c is TW for c in cf)
                    t_fw = f_fw and all(c is FW for c in ct)
                    memo[a] = (TW if t_tw else FW if t_fw else UN, FW if f_fw else TW if f_tw else UN)
                else:
                    memo[a] = (TW if TW in ct else FW, FW if FW in cf else TW)
        return memo[a]

    return pair


def test_table_matches_the_recursion_at_every_position():
    """Every assignment of every formula of up to 4 variables and 3
    clauses, for both movers: the one table against the recursion with
    skips and against the one without, which checks the module's theorem
    at 96,684 states; and ``winning_set_move`` against the first winning
    set move in its documented order.  A won position has one exactly
    when some variable is unset."""
    movers = (
        (0, Mover.TRUDY, GameSatValue.TRUDY_WINS, (True, False)),
        (1, Mover.FALLON, GameSatValue.FALLON_WINS, (False, True)),
    )
    won_full = 0
    for f in enumerate_small_formulas(4, 3):
        with_skip, without = _reference_pairs(f, True), _reference_pairs(f, False)
        for a in itertools.product((None, True, False), repeat=f.variable_count):
            here = with_skip(a)
            for side, mover, target, values in movers:
                got = solve_gamesat(f, mover, a)
                assert got is here[side] is without(a)[side], (f, a, mover)
                winning = [
                    (v, b)
                    for v in range(len(a))
                    if a[v] is None
                    for b in values
                    if with_skip(a[:v] + (b,) + a[v + 1 :])[1 - side] is target
                ]
                won = here[side] is target
                if None in a:
                    assert won is bool(winning), (f, a, mover)
                elif won:
                    won_full += 1
                assert winning_set_move(f, a, mover) == (winning[0] if winning else None), (f, a, mover)
    assert won_full > 0


def test_skips_never_change_small_values():
    """At the start of every formula of up to 3 variables and 2 clauses,
    the recursion with skips and the one without agree with the table."""
    start = {Mover.TRUDY: 0, Mover.FALLON: 1}
    for f in enumerate_small_formulas(3, 2):
        a = f.unset_assignment()
        with_skip, without = _reference_pairs(f, True)(a), _reference_pairs(f, False)(a)
        for first in Mover:
            assert with_skip[start[first]] is without[start[first]] is solve_gamesat(f, first), (f, first)


@given(seed=st.integers(min_value=0, max_value=4000))
@settings(max_examples=50, deadline=None)
def test_someone_wins_without_skips(seed: int):
    """Property: with skips disallowed the game is finite and decided,
    and the table gives the same winner."""
    f = random_formula(random.Random(seed), max_n=3, max_m=3)
    without = _reference_pairs(f, False)(f.unset_assignment())
    for side, first in enumerate((Mover.TRUDY, Mover.FALLON)):
        assert without[side] in (GameSatValue.TRUDY_WINS, GameSatValue.FALLON_WINS)
        assert solve_gamesat(f, first) is without[side]


def test_a_table_at_the_budget_is_small():
    """At ``DEFAULT_VAR_BUDGET`` variables each bitset is 3^12 bits (66
    KB); 8 MB leaves room for the sweeps' temporaries, not for a table
    with an entry per assignment."""
    f = DnfFormula(DEFAULT_VAR_BUDGET, tuple(frozenset(range(i, DEFAULT_VAR_BUDGET, 4)) for i in range(4)))
    tracemalloc.start()
    try:
        value = solve_gamesat(f, Mover.TRUDY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value is GameSatValue.FALLON_WINS
    assert peak < 8 * 2**20
