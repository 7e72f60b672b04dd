"""Self-checks of the benchmark harness.

    python3 -m pytest -q bench

The span test runs one traced pass of every workload (about a minute and
a half on a 2-core VM); the others take seconds.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(autouse=True)
def _no_cache(monkeypatch):
    monkeypatch.setenv("WILDPRIM_CACHE_DIR", "")


@pytest.fixture(scope="module")
def reference():
    return wl.load_reference()


def wrapped_sites() -> list[str]:
    """Every attribute of a loaded wildprim module or class that is a wrapper."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("wildprim"):
            continue
        for name, value in vars(mod).items():
            if tracing.is_wrapped(value):
                found.append(f"{mod_name}.{name}")
            elif isinstance(value, type):
                found.extend(f"{mod_name}.{name}.{k}" for k, v in vars(value).items()
                             if tracing.is_wrapped(v))
    return found


def test_wrappers_sit_where_callers_look_names_up():
    import wildprim
    from wildprim import classmod, enumerator, finitefield, localring, modrep, verify

    with tracing.Tracer():
        # names bound by `from x import f` in the calling module
        for fn in (enumerator.galois_matrices, enumerator.kummer_basis,
                   enumerator.artinschreier_basis, enumerator.build_tower,
                   enumerator.filtration_index, verify.enumerate_primitive,
                   verify.reduce_class, classmod.abs_trace, wildprim.enumerate_primitive,
                   wildprim.structure_checks, wildprim.cross_checks):
            assert tracing.is_wrapped(fn), fn
        # names looked up on their own module at call time
        for fn in (modrep.rref, modrep.chop, modrep.enumerate_simple_submodules,
                   enumerator.simple_classes, enumerator.closure_descriptor,
                   classmod.reduce_class, classmod.filtration_index,
                   verify.brute_oracle_check, verify.precision_stability_check):
            assert tracing.is_wrapped(fn), fn
        # methods, including an alias
        assert tracing.is_wrapped(localring.RingElt.__mul__)
        assert tracing.is_wrapped(finitefield.FFElt.__mul__)
        assert tracing.is_wrapped(finitefield.FFElt.__rmul__)
    assert wrapped_sites() == []


def test_untraced_run_installs_no_wrappers(reference):
    seen = []
    look = wl.Operation("look", lambda seed, out: seen.append(wrapped_sites()))
    tiny = wl.Workload("tiny", "", [look, wl._enumeration_op(wl.SETUP_CATALOG, reference)])
    passes = run.run_passes(tiny, 0, random.Random(0), budget_s=0.0)
    assert seen == [[]]
    assert all(o.failure is None for o in passes[0]["outcomes"])
    assert "trace" not in passes[0]


def test_catalog_digests_do_not_depend_on_the_seed(reference):
    cat = wl.Catalog(2, 1, 0, 2)
    digests = {wl.catalog_digest(wl.build_catalog(cat, seed)[0], seed)
               for seed in (0, 5, 123456)}
    assert len(digests) == 1
    tiny = wl.SETUP_CATALOG
    for seed in (0, 9):
        data, count = wl.build_catalog(tiny, seed)
        assert wl.catalog_digest(data, seed) == reference[tiny.label]["sha256"]
        assert count == reference[tiny.label]["records"]


def test_seed_neutral_bytes_requires_the_recorded_seed():
    data, _ = wl.build_catalog(wl.SETUP_CATALOG, 4)
    with pytest.raises(ValueError):
        wl.seed_neutral_bytes(data, 5)


def test_a_wrong_catalog_is_a_failed_operation(reference):
    bad = dict(reference)
    bad[wl.SETUP_CATALOG.label] = {"sha256": "0" * 64, "records": 7}
    op = wl._enumeration_op(wl.SETUP_CATALOG, bad)
    out = wl.run_operation(op, 0, wl.Outcome(op.label))
    assert out.failure == "mismatch"


def test_an_operation_past_its_deadline_fails():
    def spin(seed, out):
        while True:
            pass
    out = wl.run_operation(wl.Operation("spin", spin), 0, wl.Outcome("spin"), deadline_s=0.2)
    assert out.failure == "deadline"
    assert 0.15 < out.seconds < 5


@pytest.mark.parametrize("name", ["kummer", "charp-oracles"])
def test_each_probe_fires_on_its_predicted_workload(name, reference):
    workload = wl.make_workloads(reference)[name]
    tracer = tracing.Tracer()
    passes = run.run_passes(workload, 0, random.Random(0), 0.0, tracer)
    assert all(o.failure is None for o in passes[0]["outcomes"])
    spans, counts, times = passes[0]["trace"]
    predicted = {probe for probe, _metric, target in
                 (spec[1:] for spec in tracing.LAYER_METRICS.values())
                 if target == name}
    assert predicted
    silent = sorted(probe for probe in predicted if not counts.get(probe))
    assert silent == []
    metrics = tracing.layer_metrics(spans, counts, times)
    assert set(metrics) == set(tracing.LAYER_METRICS) - {"trace.overhead_s"}
    assert all(s[4] >= s[3] for s in spans)
    assert {s[2] for s in spans} <= {op.label for op in workload.operations}


def test_benchmark_json_matches_the_harness(reference):
    import json
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(wl.make_workloads(reference))
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "pass_s.p50", "records_per_s", "checks_per_s", "peak_rss_mb", "setup_s"}


def test_a_failed_report_check_is_a_failed_operation():
    from wildprim.verify import VerificationReport
    report = VerificationReport()
    report.add("one-is-two", 1, 2)
    op = wl._report_op("failing", lambda seed: [report])
    out = wl.run_operation(op, 0, wl.Outcome(op.label))
    assert (out.failure, out.checks) == ("mismatch", 1)


def test_passes_fill_the_budget_after_one_complete_pass():
    import time
    def nap(seed, out):
        start = time.perf_counter()
        time.sleep(0.02)
        out.seconds = time.perf_counter() - start
    ops = [wl.Operation(f"nap{i}", nap) for i in range(3)]
    passes = run.run_passes(wl.Workload("naps", "", ops), 0, random.Random(0), budget_s=0.3)
    assert passes[0]["complete"] and len(passes) > 2
    middle = run.median_pass(passes)
    assert set(middle["samples"]) == {op.label for op in ops}
    assert 0.05 < middle["seconds"] < 0.2
