"""coingames benchmark: one seeded workload per process.

    python3 perfbench/run.py --workload oracle-sweep --seed 1 --seconds 25 --trace 0

Each workload is a batch job run as a closed loop with one client: the
next item starts only when the previous one has finished.  The seed
makes one round of distinct items (see ``workloads.py``); the run
repeats the round as long as the next repeat still ends within
``--seconds``, and runs it at least once.  Each workload's round is sized
so that the number of repeats fits ``--seconds``: three or more, except
cli-chain's one round of twelve second-long chains.  Every item's output
is checked on every repeat, and a repeat must give the same outcome as
the first; a failed check counts in ``failed`` and does not stop the run.

An item's latency is the mean of its repeats, and set-ups are spread
over the run in the same way (see ``setup_s``).  On a 2-vCPU virtual
machine whose host cores are shared, the same code runs up to twice as
slow in some phases as in others, and the share of slow phases drifts
over minutes, so whole runs can differ by that much in wall-clock time.
The untraced run therefore times a fixed slice of pure-Python work every
40 ms on a timer signal (``reference.py``), takes the slices' time back
out of every item and set-up, and reports every time at reference speed:
an item's wall-clock latency divided by the speed factor of the slices
that fell inside it (mean slice time over the slice's time in the host's
fast phases), or by the whole run's factor for items too short to hold
``ITEM_SLICES_MIN`` slices over their repeats; set-ups by the run's.  A
change to the package moves the items and not the slices, so it moves
these figures as it would move wall-clock time on a quiet host.  The
wall-clock figures are printed beside them and kept in the report line.
Each item runs once per repeat, so a cache kept across calls would see
every repeat after the first as a hit: a change that adds one must say
so.

With ``--trace 0`` the last line reports the end-to-end metrics, each
time at reference speed:

* ``items_per_s``: items per second, the round's item count over the
  sum of their latencies;
* ``item_p50_ms``: median item latency;
* ``item_tail_ms``: latency at the highest of p50/p75/p90/p95/p99/p99.9
  with at least ten items beyond it (below 20 items, the item at rank
  n-10); the percentile and item count are printed next to it;
* ``setup_s``: the median of seven set-ups, each importing the package
  afresh, generating the inputs from the seed and warming up.  The first
  builds the workload the run uses; the other six are thrown away and
  are spread evenly over the ``--seconds`` of the run, between items, so
  that they do not all fall into one phase of the host;
* ``peak_rss_mb``: peak resident memory of this process.

``failed_ratio`` is printed with the others but carried in the last
line as ``failed``/``attempted``, since it is 0 on a correct program.

With ``--trace 1`` the run first times rounds untraced for half of
``--seconds`` (at least one), then wraps the package's functions (``tracer.py``) and
repeats a set-up and the same number of rounds traced.  The last line
reports the per-layer metrics: ``calls`` and ``self_s`` per wrapped
function, the counters named in ``LAYERS``, ``bench.self_s``,
``trace.wall_s`` and ``trace.overhead_ratio`` (traced over untraced wall
time of the same rounds).  ``bench.self_s`` is the traced time that no
wrapped function covers: the benchmark's own code plus package code that
is not wrapped (policy constructors, ``winner_of``, ...).  Whatever no
wrapper covers is charged to it, so the per-layer self times and
``bench.self_s`` add up to ``trace.wall_s`` by construction.
Spans are written to ``.bench_work/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from reference import NOMINAL_SLICE_S, Speedometer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 7
# Slices an item must contain, over its repeats, to be scaled by its own
# speed factor rather than the run's.
ITEM_SLICES_MIN = 20
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

END_TO_END = (
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metric prefixes, one per function ``install_tracer`` wraps,
# with the counters reported besides ``calls`` and ``self_s``.
LAYERS = (
    ("multigraph.parse_text", ("strings_per_s",)),
    ("multigraph.canonical_text", ("strings_per_s",)),
    ("engine.initial_state", ()),
    ("engine.legal_moves", ()),
    ("engine.apply_move", ()),
    ("engine.is_terminal", ()),
    ("engine.LiveBoard.cut", ()),
    ("solver.naive_solve", ("states", "states_per_s")),
    ("solver.solve", ("states", "states_per_s")),
    ("gamesat.solve_gamesat", ()),
    ("gamesat.winning_set_move", ()),
    ("reduce.compile_gamesat_to_lava", ("strings_out",)),
    ("reduce.full_pipeline", ()),
    ("reduce.reduce_lava_to_nimstring", ()),
    ("reduce.reduce_nimstring_to_sac", ()),
    ("reduce.artifact_from_json", ()),
    ("strategy.playout", ("plies", "plies_per_s")),
    ("strategy.choose.TrudyScript", ()),
    ("strategy.choose.FallonScript", ()),
    ("strategy.choose.UniformRandom", ()),
    ("strategy.choose.GreedyDisabler", ()),
    ("strategy.observe", ()),
    ("verify.check_oracle", ()),
    ("cli.run.reduce", ()),
    ("cli.run.play", ()),
    ("cli.run.replay", ()),
)
TRACE_EXTRA = (
    ("bench.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)
STAT_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "states": ("count", "lower"),
    "states_per_s": ("1/s", "higher"),
    "strings_per_s": ("1/s", "higher"),
    "strings_out": ("count", "lower"),
    "plies": ("count", "lower"),
    "plies_per_s": ("1/s", "higher"),
}
# Rates divide a counter by the function's inclusive time.
RATE_OF = {"states_per_s": "states", "strings_per_s": "strings", "plies_per_s": "plies"}


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []
    for prefix, extras in LAYERS:
        for stat in ("calls", "self_s", *extras):
            unit, better = STAT_UNITS[stat]
            out.append((f"{prefix}.{stat}", unit, better))
    return out + list(TRACE_EXTRA)


def install_tracer(tracer, cg) -> None:
    def states(args, res):
        return {"states": res.states_visited}

    functions = (
        (cg.multigraph.parse_text, "multigraph.parse_text", True, lambda a, r: {"strings": r.string_count}),
        (cg.multigraph.canonical_text, "multigraph.canonical_text", True, lambda a, r: {"strings": a[0].string_count}),
        (cg.engine.initial_state, "engine.initial_state", True, None),
        (cg.engine.legal_moves, "engine.legal_moves", False, None),
        (cg.engine.apply_move, "engine.apply_move", False, None),
        (cg.engine.is_terminal, "engine.is_terminal", False, None),
        (cg.solver.naive_solve, "solver.naive_solve", True, states),
        (cg.solver.solve, "solver.solve", True, states),
        (cg.gamesat.solve_gamesat, "gamesat.solve_gamesat", True, None),
        (cg.gamesat.winning_set_move, "gamesat.winning_set_move", True, None),
        (cg.reduce.compile_gamesat_to_lava, "reduce.compile_gamesat_to_lava", True,
         lambda a, r: {"strings_out": r.graph.string_count}),
        (cg.reduce.full_pipeline, "reduce.full_pipeline", True, None),
        (cg.reduce.reduce_lava_to_nimstring, "reduce.reduce_lava_to_nimstring", True, None),
        (cg.reduce.reduce_nimstring_to_sac, "reduce.reduce_nimstring_to_sac", True, None),
        (cg.reduce.artifact_from_json, "reduce.artifact_from_json", True, None),
        (cg.strategy.playout, "strategy.playout", True, lambda a, r: {"plies": r.plies}),
        (cg.verify.check_oracle, "verify.check_oracle", True, None),
    )
    for fn, name, as_span, count in functions:
        tracer.patch_function(fn, name, as_span=as_span, count=count)
    tracer.patch_function(cg.cli.run, "cli.run", name_of=lambda args: f"cli.run.{args[0][0]}")
    tracer.patch_method(cg.engine.LiveBoard, "cut", "engine.LiveBoard.cut", as_span=False)
    st = cg.strategy
    for cls in (st.TrudyScript, st.FallonScript, st.UniformRandom, st.GreedyDisabler):
        tracer.patch_method(cls, "choose", f"strategy.choose.{cls.__name__}", as_span=False)
        tracer.patch_method(cls, "observe", "strategy.observe", as_span=False)


def run_rounds(wl, seconds: float, rounds: int | None = None, tracer=None, setup=None, speed=None) -> dict:
    """Closed loop over repeats of the workload's round of items: stop
    before a round that would end after ``seconds``, or after exactly
    ``rounds`` rounds; at least one round runs.  An item's latency is the
    mean of its repeats; a repeat whose outcome differs from the first
    counts as failed.  ``setup()``, if given, is timed ``SETUP_REPEATS - 1``
    times at even steps of ``seconds``, between items, and once more for
    each step the run did not reach.  With a running ``speed``
    (``reference.Speedometer``), the time its slices took is taken out
    of every item and set-up."""
    n = len(wl.items)
    total = [0.0] * n
    setups_due = [k * seconds / SETUP_REPEATS for k in range(1, SETUP_REPEATS)] if setup else []
    setup_s: list[float] = []
    outcomes: list = [None] * n
    errors: list[str] = []
    failed = 0
    round_s: list[float] = []
    slice_s = [0.0] * n
    slices = [0] * n
    clock = time.perf_counter
    spent = speed.spent if speed is not None else (lambda: (0.0, 0))

    def timed_setup() -> float:
        s0, t0 = spent()[0], clock()
        setup()
        return clock() - t0 - (spent()[0] - s0)

    start = clock()
    r = 0
    while True:
        t_round = clock()
        for i, item in enumerate(wl.items):
            while setups_due and clock() - start >= setups_due[0]:
                setups_due.pop(0)
                setup_s.append(timed_setup())
            if tracer is not None:
                tracer.item = f"{r}/{i}"
                frame = tracer.enter("bench.item", True)
            (s0, c0), t0 = spent(), clock()
            try:
                ok, outcome = wl.run_item(item)
            except Exception:  # a failed item is counted, never fatal
                ok, outcome = False, ["exception"]
                errors.append(traceback.format_exc())
            t1 = clock()
            s1, c1 = spent()
            total[i] += t1 - t0 - (s1 - s0)
            slice_s[i] += s1 - s0
            slices[i] += c1 - c0
            if tracer is not None:
                tracer.exit(frame)
            if r == 0:
                outcomes[i] = outcome
            failed += not ok or outcome != outcomes[i]
        r += 1
        round_s.append(clock() - t_round)
        elapsed = clock() - start
        if rounds is not None:
            if r >= rounds:
                break
        elif elapsed * (r + 1) / r > seconds:
            break
    wall = clock() - start
    setup_s += [timed_setup() for _ in setups_due]
    return {"latency": [t / r for t in total], "slice_s": slice_s, "slices": slices,
            "failed": failed, "attempted": n * r, "round_s": round_s, "wall": wall, "setup_s": setup_s, "outcomes": outcomes, "errors": errors}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, latency) at the highest grid percentile with at least
    ten items beyond it; below 20 items, the item at rank n-10."""
    n = len(latencies)
    ordered = sorted(latencies)
    fits = [q for q in TAIL_GRID if n * (1 - q / 100) >= 10]
    if fits:
        q = fits[-1]
        rank = math.ceil(q / 100 * n)
    else:
        rank = n - 10
        q = 100 * rank / n
    return q, ordered[rank - 1]


def latency_metrics(latency: list[float], setup_s: float) -> tuple[dict, float]:
    """The timed end-to-end metrics of per-item latencies, and the tail's
    percentile."""
    q, tail_s = tail(latency)
    return {
        "items_per_s": len(latency) / sum(latency),
        "item_p50_ms": statistics.median(latency) * 1000,
        "item_tail_ms": tail_s * 1000,
        "setup_s": setup_s,
    }, q


def at_reference_speed(res: dict, speed) -> list[float]:
    """Per-item latencies divided by the speed factor of the slices that
    fell inside the item, or by the run's when fewer than
    ``ITEM_SLICES_MIN`` did."""
    out = []
    for wall, slice_s, slices in zip(res["latency"], res["slice_s"], res["slices"]):
        factor = slice_s / slices / NOMINAL_SLICE_S if slices >= ITEM_SLICES_MIN else speed.factor
        out.append(wall / factor)
    return out


def digest(wl, res: dict) -> str:
    doc = {"outcomes": res["outcomes"], "extra": wl.digest_extra()}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def package_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "coingames" or n.startswith("coingames.")}


def fresh_import():
    """Import the package from scratch, dropping any earlier import."""
    from workloads import import_package

    for name in package_modules():
        del sys.modules[name]
    return import_package()


def setup_workload(cls, cg, seed: int, previous=None):
    if previous is not None:
        previous.close()
    wl = cls()
    wl.setup(cg, seed, str(WORK))
    return wl


def timed_setup(cls, seed: int) -> float:
    """Seconds for one throw-away set-up with a fresh import.  The modules
    of the running workload are put back afterwards, so that an import the
    package makes at call time still finds them."""
    running = package_modules()
    t0 = time.perf_counter()
    setup_workload(cls, fresh_import(), seed).close()
    elapsed = time.perf_counter() - t0
    for name in package_modules():
        del sys.modules[name]
    sys.modules.update(running)
    return elapsed


def per_layer_metrics(tracer, traced_wall: float, untraced_loop: float, traced_loop: float) -> dict:
    totals = tracer.totals
    out = {}
    for prefix, extras in LAYERS:
        tot = totals.get(prefix, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out[f"{prefix}.calls"] = tot["calls"]
        out[f"{prefix}.self_s"] = tot["self_s"]
        for stat in extras:
            if stat in RATE_OF:
                count = tot.get(RATE_OF[stat], 0)
                out[f"{prefix}.{stat}"] = count / tot["total_s"] if tot["total_s"] else 0.0
            else:
                out[f"{prefix}.{stat}"] = tot.get(stat, 0)
    bench = sum(totals[k]["self_s"] for k in ("bench.item", "bench.setup") if k in totals)
    out["bench.self_s"] = bench
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_ratio"] = traced_loop / untraced_loop
    return out


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coingames" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cls = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    cg = fresh_import()
    wl = setup_workload(cls, cg, args.seed)
    reps = [time.perf_counter() - t0]
    if not Path(cg.engine.__file__).resolve().is_relative_to(SRC):
        print(f"error: coingames imported from {cg.engine.__file__}, not {SRC}", file=sys.stderr)
        return 2

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "why": cls.why}
    try:
        if args.trace:
            metrics, res, attempted, failed, wl = traced_run(cls, cg, wl, args)
        else:
            with Speedometer() as speed:
                res = run_rounds(wl, args.seconds, setup=lambda: timed_setup(cls, args.seed), speed=speed)
            reps += res["setup_s"]
            attempted, failed = res["attempted"], res["failed"]
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            measured, q = latency_metrics(res["latency"], statistics.median(reps))
            values, _ = latency_metrics(at_reference_speed(res, speed), statistics.median(reps) / speed.factor)
            values["peak_rss_mb"] = peak_rss_mb
            n = len(res["latency"])
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            report.update({"speed_factor": speed.factor, "reference_slices": speed.slices,
                           "wall_clock": measured, "setup_reps_s": reps,
                           "item_tail": {"percentile": q, "items": n}})
            print(f"{args.workload} speed_factor = {speed.factor:.4g} ({speed.slices} reference slices)")
            for name, unit in END_TO_END:
                extra = f" (p{q:g} of {n} items)" if name == "item_tail_ms" else ""
                if name in measured:
                    extra += f" (wall clock {measured[name]:.6g})"
                print(f"{args.workload} {name} = {values[name]:.6g} {unit}{extra}")
            print(f"{args.workload} failed_ratio = {failed / attempted:g} ({failed}/{attempted})")
        report.update({
            "round_s": res["round_s"], "items": attempted, "failed": failed,
            "failed_ratio": failed / attempted, "digest": digest(wl, res),
            "errors": res["errors"][:3], "inputs": wl.inputs(),
        })
    finally:
        wl.close()
    print(f"{args.workload} digest {report['digest']} of {len(wl.items)} item outcomes")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def traced_run(cls, cg, wl, args):
    from tracer import Tracer

    plain = run_rounds(wl, args.seconds / 2)
    tracer = Tracer()
    install_tracer(tracer, cg)
    try:
        t0 = time.perf_counter()
        frame = tracer.enter("bench.setup", True)
        wl = setup_workload(cls, cg, args.seed, wl)
        tracer.exit(frame)
        res = run_rounds(wl, 0, rounds=len(plain["round_s"]), tracer=tracer)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    values = per_layer_metrics(tracer, traced_wall, plain["wall"], res["wall"])
    WORK.mkdir(exist_ok=True)
    tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.json")
    units = {name: unit for name, unit, _ in per_layer_spec()}
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    attempted = plain["attempted"] + res["attempted"]
    failed = plain["failed"] + res["failed"]
    res["errors"] = plain["errors"] + res["errors"]
    return metrics, res, attempted, failed, wl


if __name__ == "__main__":
    sys.exit(main())
