"""The benchmark's span recorder (perfbench/spans.py) on the real modules:
every entry point it wraps must exist, so a refactor that drops or renames
one fails here, not only in a traced benchmark run."""

import importlib.util
import json
from pathlib import Path

from otssplan import milp, model, solve, validate, xtalk
from otssplan.harness import fig2_fixture

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
MODULES = (model, solve, xtalk, validate, milp)


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes():
    return {(m.__name__, name): value for m in MODULES for name, value in vars(m).items()}


def test_tracer_installs_and_uninstalls_on_the_program():
    spans = _spans_module()
    before = _attributes()
    tracer = spans.Tracer()
    tracer.install(*MODULES)
    try:
        changed = {key: value for key, value in _attributes().items() if value is not before[key]}
        text = json.dumps(model.serialize_instance(fig2_fixture()))
        instance = model.load_instance(text)
        schedule = solve.solve_exact(instance, solve.SolveLimits(node_budget=200))
        solve.solve_greedy(instance)
        solve.solve_baseline_conventional(instance)
        validate.check_schedule(instance, schedule)
        milp.build_model(instance)
    finally:
        tracer.uninstall()
    assert _attributes() == before
    assert changed and all(value.__wrapped__ is before[key] for key, value in changed.items())
    # the program's own calls resolve through the wrapped module attributes
    names = {span[0] for span in tracer.spans}
    assert {"model.load_instance", "solve.k_shortest_paths", "solve.exact", "solve.greedy",
            "solve.baseline", "xtalk.accumulate_for_request", "validate.check_schedule",
            "milp.build_model"} <= names
    metrics = tracer.layer_metrics(1, 200)
    assert {name for name, _, _ in spans.LAYER_METRICS} - set(metrics) == {"trace.overhead_frac"}
