"""The engine names the traced benchmark wraps must stay where it looks them up.

``bench/spans.py`` swaps timing wrappers in for module attributes of
``realize`` by name, and its tags read the values those names return.  A
rename or a new return shape on the engine side would otherwise surface only
as a failed traced run.  The module is loaded by path and left unedited.
"""

import importlib.util
from pathlib import Path

import pytest

from realize import Regime, builtin, compare, run

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_defined_on_its_owner(spans):
    for owner, attr, name, _ in spans._targets():
        assert attr in owner.__dict__, (owner.__name__, attr, name)


def test_traced_runs_tag_realize_with_each_regime(spans):
    tracer = spans.Tracer()
    with tracer.installed():
        for regime in Regime:
            run(builtin("strategy3"), regime)
    tags = {tag[0] for name, *_, tag in tracer.spans if name == "realization.realize"}
    assert tags == {regime.value for regime in Regime}


def test_a_traced_compare_tags_every_ledger_and_realize_span(spans):
    # The tags read ``apply_event``'s ledger and ``realize``'s event list from their return values.
    tracer = spans.Tracer()
    with tracer.installed():
        compare(builtin("strategy3"))
    for stage in ("ledger.apply_event", "realization.realize"):
        tags = [tag for name, *_, tag in tracer.spans if name == stage]
        assert tags and None not in tags, stage
    # Both regimes apply all four events, but only the current one is a ``run()``: the proposed pass
    # shares its cash and inventory, so ``scenario.run.proposed_over_current`` reads 0 on compare.
    names = [name for name, *_ in tracer.spans]
    assert names.count("ledger.apply_event") == 8
    assert {tag[0] for name, *_, tag in tracer.spans if name == "realization.realize"} == {r.value for r in Regime}
    assert names.count("scenario.run") == 1


def test_traced_tax_timelines_tag_each_report_with_its_tax_line_count(spans):
    # ``taxation.tax_timeline.busy_s`` and ``taxation.lines`` read these spans and tags.
    def tax_tags(tracer):
        return [tag for name, *_, tag in tracer.spans if name == "taxation.tax_timeline"]

    for regime in Regime:
        tracer = spans.Tracer()
        with tracer.installed():
            report = run(builtin("strategy3"), regime)
        assert tax_tags(tracer) == [len(report.tax_lines)], regime
    tracer = spans.Tracer()
    with tracer.installed():
        report = compare(builtin("strategy3"))
    assert tax_tags(tracer) == [len(report.current.tax_lines), len(report.proposed.tax_lines)]
    assert tax_tags(tracer) == [1, 2]
