"""The benchmark's traced run wraps package functions by name: a refactor
that deletes, renames or stops binding one of them must fail here, not
in the benchmark.  Nothing under ``perfbench/`` is changed by this test."""

import importlib
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_function_is_hooked_and_then_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    tracer_module = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")

    tracer = tracer_module.Tracer()
    functions, methods = [], []
    patch_function, patch_method = tracer.patch_function, tracer.patch_method

    def record_function(fn, name, **kw):
        functions.append((fn, name))
        patch_function(fn, name, **kw)

    def record_method(cls, attr, name, **kw):
        methods.append(name)
        patch_method(cls, attr, name, **kw)

    monkeypatch.setattr(tracer, "patch_function", record_function)
    monkeypatch.setattr(tracer, "patch_method", record_method)
    try:
        run.install_tracer(tracer, workloads.import_package())
        patches = list(tracer._patches)
        for target, attr, _ in patches:
            assert getattr(vars(target)[attr], "__wrapped_by_tracer__", False), (target, attr)
        replaced = {id(original) for _, _, original in patches}
        missing = [name for fn, name in functions if id(fn) not in replaced]
        assert not missing, f"hooked functions bound in no coingames module: {missing}"
        hooked = {name for _, name in functions} | set(methods)
        unhooked = [p for p, _ in run.LAYERS if p not in hooked and not p.startswith("cli.run.")]
        assert not unhooked, f"per-layer metrics with no hook: {unhooked}"
    finally:
        tracer.uninstall()
    for target, attr, original in patches:
        if original is None:
            assert attr not in vars(target), (target, attr)
        else:
            assert vars(target)[attr] is original, (target, attr)


def test_every_workload_sets_up_and_runs_its_first_item(monkeypatch, tmp_path):
    """Each benchmark workload, at one seed, builds its round, runs its
    first item to an ``ok`` outcome and reports its inputs and extra
    outcomes as the benchmark's report does: a refactor that drops a name
    the workloads call, or an attribute they read off a board (a
    string's ``a`` and ``b``), fails here too."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    cg = workloads.import_package()
    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        try:
            workload.setup(cg, 1, str(tmp_path / name))
            ok, outcome = workload.run_item(workload.items[0])
            assert ok, (name, outcome)
            json.dumps([workload.inputs(), workload.digest_extra()])
        finally:
            workload.close()
