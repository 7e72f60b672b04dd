"""Spans and counters recorded from outside the wildprim package.

`Tracer.install()` replaces chosen functions and methods of wildprim with
thin wrappers.  A name is replaced everywhere a caller looks it up: as a
module attribute (including the copies `from x import f` makes in other
modules) and as a class attribute together with its aliases (such as
`__rmul__ = __mul__`).  `Tracer.uninstall()` puts the originals back.
Nothing is wrapped unless `install()` is called, so untraced runs execute
the library exactly as shipped.

Three kinds of probe:

- SPAN records one span per call (name, start, end, parent span, instance
  id) plus a call count.  Used for pipeline stages, which run a few times
  per catalog.
- TIMED adds a call count and the inclusive time, without a span.  Used for
  hot functions (ring multiplication, rref), where a span per call would
  cost more memory than it tells.
- COUNT adds a call count only.

Every counted call is also counted against the innermost open span, so a
ratio can be taken over the calls made inside one stage.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

SPAN, TIMED, COUNT = "span", "timed", "count"


def _classes_used(counts, args, kwargs, result) -> None:
    n = args[0].n
    counts["enumerator.classes_all"] += len(result)
    counts["enumerator.classes_used"] += sum(1 for c in result if c.dim == n)


def _json_bytes(counts, args, kwargs, result) -> None:
    counts["serialize.json_bytes"] += len(result)


@dataclass(frozen=True)
class Probe:
    name: str                 # metric prefix, "<module>.<what>"
    module: str               # defining module
    attr: str                 # "function" or "Class.method"
    kind: str
    on_return: Callable | None = None


PROBES = [
    Probe("tower.build", "wildprim.tower", "build_tower", SPAN),
    Probe("localring.mul", "wildprim.localring", "RingElt.__mul__", TIMED),
    Probe("localring.inv", "wildprim.localring", "RingElt.inv", COUNT),
    Probe("localring.pth_power", "wildprim.localring", "RingElt.pth_power", COUNT),
    Probe("finitefield.mul", "wildprim.finitefield", "FFElt.__mul__", COUNT),
    Probe("finitefield.abs_trace", "wildprim.finitefield", "abs_trace", COUNT),
    Probe("classmod.kummer_basis", "wildprim.classmod", "kummer_basis", SPAN),
    Probe("classmod.artinschreier_basis", "wildprim.classmod",
          "artinschreier_basis", SPAN),
    Probe("classmod.galois", "wildprim.classmod", "galois_matrices", SPAN),
    Probe("classmod.reduce", "wildprim.classmod", "reduce_class", TIMED),
    Probe("classmod.filtration", "wildprim.classmod", "filtration_index", SPAN),
    Probe("modrep.chop", "wildprim.modrep", "chop", SPAN),
    Probe("modrep.submodules", "wildprim.modrep", "enumerate_simple_submodules", SPAN),
    Probe("modrep.restrict", "wildprim.modrep", "restrict_action", COUNT),
    Probe("modrep.rref", "wildprim.modrep", "rref", TIMED),
    Probe("modrep.in_row_space", "wildprim.modrep", "in_row_space", COUNT),
    Probe("modrep.spin", "wildprim.modrep", "spin", COUNT),
    Probe("modrep.hom_space", "wildprim.modrep", "hom_space", TIMED),
    Probe("enumerator.classes", "wildprim.enumerator", "simple_classes", SPAN,
          _classes_used),
    Probe("enumerator.closure", "wildprim.enumerator", "closure_descriptor", SPAN),
    Probe("enumerator.enumerate", "wildprim.enumerator", "enumerate_primitive", SPAN),
    Probe("serialize.json", "wildprim.serialize", "to_json_bytes", SPAN, _json_bytes),
    Probe("verify.structure", "wildprim.verify", "structure_checks", SPAN),
    Probe("verify.cross", "wildprim.verify", "cross_checks", SPAN),
    Probe("verify.brute", "wildprim.verify", "brute_oracle_check", SPAN),
    Probe("verify.precision", "wildprim.verify", "precision_stability_check", SPAN),
    Probe("verify.mass", "wildprim.verify", "mass_check", SPAN),
]

# The instances each metric is predicted on: Q_2 n=3 and Q_3 n=2 (KG) and
# Q_8 n=2 and Q_49 n=1 (KS) are in the `kummer` workload; the Laurent-field
# catalogs (AS) and the oracles (VO) are in `charp-oracles`.
KG = KS = "kummer"
AS = VO = "charp-oracles"

# Per-layer metrics, derived per traced pass by layer_metrics() below:
# name -> (unit, the probe it is measured at, the end-to-end metric it
# should move, the workload it should move it on).
LAYER_METRICS = {
    "tower.build_s": ("s", "tower.build", "pass_s.p50", KS),
    "localring.mul_calls": ("count", "localring.mul", "pass_s.p50", KG),
    "localring.mul_s": ("s", "localring.mul", "pass_s.p50", KG),
    "localring.inv_calls": ("count", "localring.inv", "pass_s.p50", KG),
    "localring.pth_power_calls": ("count", "localring.pth_power", "pass_s.p50", KG),
    "finitefield.mul_calls": ("count", "finitefield.mul", "pass_s.p50", KS),
    "classmod.basis_s": ("s", "classmod.kummer_basis", "pass_s.p50", KS),
    "classmod.scan_useful_ratio": ("ratio", "modrep.in_row_space", "pass_s.p50", KS),
    "classmod.galois_s": ("s", "classmod.galois", "pass_s.p50", KG),
    "classmod.reduce_calls": ("count", "classmod.reduce", "pass_s.p50", KG),
    "classmod.reduce_s": ("s", "classmod.reduce", "pass_s.p50", KG),
    "classmod.filtration_calls": ("count", "classmod.filtration", "records_per_s", AS),
    "modrep.chop_s": ("s", "modrep.chop", "pass_s.p50", KG),
    "modrep.submodules_s": ("s", "modrep.submodules", "records_per_s", AS),
    "modrep.restrict_calls": ("count", "modrep.restrict", "records_per_s", AS),
    "modrep.rref_calls": ("count", "modrep.rref", "records_per_s", AS),
    "modrep.rref_s": ("s", "modrep.rref", "records_per_s", AS),
    "modrep.in_row_space_calls": ("count", "modrep.in_row_space", "pass_s.p50", KS),
    "modrep.spin_calls": ("count", "modrep.spin", "pass_s.p50", VO),
    "modrep.hom_space_calls": ("count", "modrep.hom_space", "pass_s.p50", VO),
    "modrep.hom_space_s": ("s", "modrep.hom_space", "pass_s.p50", VO),
    "enumerator.classes_s": ("s", "enumerator.classes", "pass_s.p50", KG),
    "enumerator.classes_used_ratio": ("ratio", "enumerator.classes", "pass_s.p50", KG),
    "enumerator.closure_s": ("s", "enumerator.closure", "records_per_s", AS),
    "enumerator.self_s": ("s", "enumerator.enumerate", "records_per_s", AS),
    "serialize.json_s": ("s", "serialize.json", "records_per_s", AS),
    "serialize.json_bytes": ("bytes", "serialize.json", "records_per_s", AS),
    "verify.structure_s": ("s", "verify.structure", "pass_s.p50", VO),
    "verify.cross_s": ("s", "verify.cross", "pass_s.p50", VO),
    "verify.brute_s": ("s", "verify.brute", "pass_s.p50", VO),
    "verify.precision_s": ("s", "verify.precision", "pass_s.p50", VO),
    "verify.mass_s": ("s", "verify.mass", "pass_s.p50", VO),
    # traced minus untraced pass_s.p50, on every workload
    "trace.overhead_s": ("s", None, "pass_s.p50", None),
}


def _original(probe: Probe):
    """The probed function as its defining module or class holds it."""
    owner = importlib.import_module(probe.module)
    *path, attr = probe.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[attr]


def _lookup_sites(original) -> list[tuple[object, str]]:
    """Every (owner, name) in the loaded wildprim modules bound to original:
    module globals, and attributes of classes those modules define."""
    sites = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "wildprim" or mod_name.startswith("wildprim.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                sites.append((mod, name))
            elif isinstance(value, type) and value.__module__ == mod_name:
                sites.extend((value, k) for k, v in vars(value).items() if v is original)
    return sites


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []    # [name, parent index, instance, start, end]
        self.counts: Counter = Counter()
        self.times: defaultdict = defaultdict(float)
        self.instance: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for probe in PROBES:
            original = _original(probe)
            wrapper = self._wrap(probe, original)
            for site_owner, site_name in _lookup_sites(original):
                self._patched.append((site_owner, site_name, original))
                setattr(site_owner, site_name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers -----------------------------------------------------
    def _wrap(self, probe: Probe, fn):
        tracer = self
        name, hook = probe.name, probe.on_return
        spans, stack, counts, times = self.spans, self._stack, self.counts, self.times
        clock = time.perf_counter

        def count_call():
            counts[name] += 1
            if stack:
                counts[(name, spans[stack[-1]][0])] += 1

        if probe.kind == SPAN:
            def wrapper(*args, **kwargs):
                count_call()
                record = [name, stack[-1] if stack else None, tracer.instance, 0.0, 0.0]
                stack.append(len(spans))
                spans.append(record)
                record[3] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[4] = clock()
                    stack.pop()
                if hook is not None:
                    hook(counts, args, kwargs, result)
                return result
        elif probe.kind == TIMED:
            def wrapper(*args, **kwargs):
                count_call()
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    times[name] += clock() - start
        else:
            def wrapper(*args, **kwargs):
                count_call()
                return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        wrapper.bench_probe = probe
        return wrapper

    # -- results ------------------------------------------------------
    def take(self) -> tuple[list[list], dict, dict]:
        """Spans, counts and times recorded since the last take; resets them."""
        if self._stack:
            raise RuntimeError("take() while a span is open")
        spans = [list(s) for s in self.spans]
        counts, times = dict(self.counts), dict(self.times)
        self.spans.clear()
        self.counts.clear()
        self.times.clear()
        return spans, counts, times


def is_wrapped(obj) -> bool:
    return hasattr(obj, "bench_probe")


def span_totals(spans: list[list]) -> tuple[dict, dict]:
    """(inclusive seconds by name, self seconds by name).  Self time is a
    span's duration minus the durations of its direct children; spans of
    one thread nest, so the children never overlap."""
    inclusive: defaultdict = defaultdict(float)
    self_time: defaultdict = defaultdict(float)
    for name, parent, _instance, start, end in spans:
        duration = end - start
        inclusive[name] += duration
        self_time[name] += duration
        if parent is not None:
            self_time[spans[parent][0]] -= duration
    return inclusive, self_time


def layer_metrics(spans: list[list], counts: dict, times: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.overhead_s excluded)."""
    inclusive, self_time = span_totals(spans)
    c = Counter(counts)
    basis_builds = c["classmod.kummer_basis"] + c["classmod.artinschreier_basis"]
    # candidate tests made by the two "first element with a property" scans
    scan_tests = (c[("modrep.in_row_space", "classmod.kummer_basis")]
                  + c[("finitefield.abs_trace", "classmod.artinschreier_basis")])
    chopped = c["enumerator.classes_all"]
    return {
        "tower.build_s": inclusive["tower.build"],
        "localring.mul_calls": c["localring.mul"],
        "localring.mul_s": times.get("localring.mul", 0.0),
        "localring.inv_calls": c["localring.inv"],
        "localring.pth_power_calls": c["localring.pth_power"],
        "finitefield.mul_calls": c["finitefield.mul"],
        "classmod.basis_s": (inclusive["classmod.kummer_basis"]
                             + inclusive["classmod.artinschreier_basis"]),
        "classmod.scan_useful_ratio": basis_builds / scan_tests if scan_tests else 1.0,
        "classmod.galois_s": inclusive["classmod.galois"],
        "classmod.reduce_calls": c["classmod.reduce"],
        "classmod.reduce_s": times.get("classmod.reduce", 0.0),
        "classmod.filtration_calls": c["classmod.filtration"],
        "modrep.chop_s": inclusive["modrep.chop"],
        "modrep.submodules_s": inclusive["modrep.submodules"],
        "modrep.restrict_calls": c["modrep.restrict"],
        "modrep.rref_calls": c["modrep.rref"],
        "modrep.rref_s": times.get("modrep.rref", 0.0),
        "modrep.in_row_space_calls": c["modrep.in_row_space"],
        "modrep.spin_calls": c["modrep.spin"],
        "modrep.hom_space_calls": c["modrep.hom_space"],
        "modrep.hom_space_s": times.get("modrep.hom_space", 0.0),
        "enumerator.classes_s": inclusive["enumerator.classes"],
        "enumerator.classes_used_ratio": c["enumerator.classes_used"] / chopped if chopped else 1.0,
        "enumerator.closure_s": inclusive["enumerator.closure"],
        "enumerator.self_s": self_time["enumerator.enumerate"],
        "serialize.json_s": inclusive["serialize.json"],
        "serialize.json_bytes": c["serialize.json_bytes"],
        "verify.structure_s": inclusive["verify.structure"],
        "verify.cross_s": inclusive["verify.cross"],
        "verify.brute_s": inclusive["verify.brute"],
        "verify.precision_s": inclusive["verify.precision"],
        "verify.mass_s": inclusive["verify.mass"],
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
