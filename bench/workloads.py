"""The benchmark's workloads: fixed catalogs and oracle checks, each run
through wildprim's public API, timed, and checked for correctness.

A workload is a list of operations.  An enumeration operation builds one
catalog (`enumerate_primitive(..., use_cache=False)` followed by
`serialize.to_json_bytes`) and compares it with the reference digest and
record count recorded at the parent commit.  A verification operation runs
one public oracle from `wildprim.verify` and requires its report to pass.
Only the library call is timed; the comparison runs after the clock stops.

The workload seed shuffles the order of the operations in each pass, and
each pass passes its own seed, derived from the workload seed, as `seed=` to
the library.  Catalogs do not depend on it apart from the `seed` field of
the catalog metadata, which the digest check undoes byte for byte before
hashing.
"""

from __future__ import annotations

import hashlib
import json
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Wall-clock limit for one operation.  The longest (the Q_9 brute-force
# cross check) takes about 16 s on a 2-core VM; one that runs past the
# limit is a failure.
OP_DEADLINE_S = 60.0

# The known-defect probe: precision_stability_check on Q_7 with n=1
# re-enumerates at precision 27, which does not finish (see NOTES.md).  At
# precision 21 to 24 the enumeration takes about 1 s.
PROBE_DEADLINE_S = 5.0


class DeadlineExceeded(Exception):
    pass


@dataclass(frozen=True)
class Catalog:
    p: int
    f: int
    char: int            # 0 or p
    n: int
    level_bound: int | None = None

    @property
    def label(self) -> str:
        if self.char == 0:
            return f"Q_{self.p ** self.f},n={self.n}"
        return f"F_{self.p ** self.f}((t)),n={self.n},B={self.level_bound}"

    def base(self):
        import wildprim
        return wildprim.BaseField(self.p, self.f, self.char)


@dataclass
class Outcome:
    """One operation: its timed seconds, and what it produced."""
    label: str
    seconds: float = 0.0
    records: int = 0
    checks: int = 0
    failure: str | None = None     # "exception" | "mismatch" | "deadline"
    detail: str = ""


@dataclass(frozen=True)
class Operation:
    label: str
    run: Callable[[int, Outcome], None]   # (seed, outcome) -> fills outcome


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    operations: list[Operation]
    probe: Operation | None = None     # run once per run, outside the passes and counts


# -- reference digests ------------------------------------------------------

def seed_neutral_bytes(data: bytes, seed: int) -> bytes:
    """The catalog bytes as emitted with seed 0: the metadata `seed` line is
    the only place the seed enters a catalog."""
    if seed == 0:
        return data
    line, zero = b'\n    "seed": %d,\n' % seed, b'\n    "seed": 0,\n'
    if data.count(line) != 1:
        raise ValueError(f"catalog metadata does not record seed {seed}")
    return data.replace(line, zero, 1)


def catalog_digest(data: bytes, seed: int) -> str:
    return hashlib.sha256(seed_neutral_bytes(data, seed)).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def build_catalog(cat: Catalog, seed: int) -> tuple[bytes, int]:
    """The public-API catalog build that enumeration workloads time."""
    import wildprim
    from wildprim import serialize
    result = wildprim.enumerate_primitive(cat.base(), cat.n, level_bound=cat.level_bound,
                                          seed=seed, use_cache=False)
    return serialize.to_json_bytes(result), len(result.records)


def _enumeration_op(cat: Catalog, reference: dict) -> Operation:
    def run(seed: int, out: Outcome) -> None:
        start = time.perf_counter()
        data, count = build_catalog(cat, seed)
        out.seconds = time.perf_counter() - start
        out.records = count
        out.checks = 1
        ref = reference[cat.label]
        digest = catalog_digest(data, seed)
        if digest != ref["sha256"] or count != ref["records"]:
            out.failure = "mismatch"
            out.detail = f"sha256={digest} records={count}, reference {ref}"
    return Operation(cat.label, run)


# -- verification operations -------------------------------------------------

def _record_reports(out: Outcome, reports) -> None:
    """Count the checks of VerificationReports; any that did not pass fail
    the operation."""
    out.checks = sum(len(r.checks) for r in reports)
    failed = [c.line() for r in reports for c in r.checks if not c.passed]
    if failed:
        out.failure = "mismatch"
        out.detail = "; ".join(failed[:5])


def _report_op(label: str, call: Callable) -> Operation:
    """An oracle call returning VerificationReports, all of which must pass."""
    def run(seed: int, out: Outcome) -> None:
        start = time.perf_counter()
        reports = call(seed)
        out.seconds = time.perf_counter() - start
        _record_reports(out, reports)
    return Operation(label, run)


def _mass_op(p: int, f: int) -> Operation:
    label = f"mass[Q_{p ** f}]"

    def run(seed: int, out: Outcome) -> None:
        import wildprim
        start = time.perf_counter()
        mass = wildprim.verify.mass_check(wildprim.BaseField(p, f, 0), seed=seed,
                                          use_cache=False)
        out.seconds = time.perf_counter() - start
        out.checks = 1
        if mass != p:
            out.failure = "mismatch"
            out.detail = f"mass {mass} != {p}"
    return Operation(label, run)


def _tower_op(cat: Catalog, precision: bool = True) -> Operation:
    """Enumerate a tower, then run the structure and cross checks on it."""
    def run(seed: int, out: Outcome) -> None:
        import wildprim
        start = time.perf_counter()
        result = wildprim.enumerate_primitive(cat.base(), cat.n, level_bound=cat.level_bound,
                                              seed=seed, use_cache=False)
        reports = [wildprim.verify.structure_checks(result),
                   wildprim.verify.cross_checks(result, precision=precision)]
        out.seconds = time.perf_counter() - start
        out.records = len(result.records)
        _record_reports(out, reports)
    return Operation(f"towers[{cat.label}]", run)


# -- running -----------------------------------------------------------------

def _raise_deadline(signum, frame):
    raise DeadlineExceeded()


def run_operation(op: Operation, seed: int, out: Outcome,
                  deadline_s: float = OP_DEADLINE_S) -> Outcome:
    """Run one operation under a wall-clock deadline; never raises."""
    previous = signal.signal(signal.SIGALRM, _raise_deadline)
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    start = time.perf_counter()
    try:
        op.run(seed, out)
    except DeadlineExceeded:
        out.failure, out.detail = "deadline", f"ran past {deadline_s} s"
    except Exception as exc:  # an exception is a failed operation, not a crash
        out.failure, out.detail = "exception", f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if out.failure and not out.seconds:
        out.seconds = time.perf_counter() - start
    return out


def run_pass(order: list[Operation], seed: int, tracer=None,
             fits: Callable[[Operation], bool] = lambda op: True) -> list[Outcome]:
    """Run the operations in order, skipping those for which `fits` is false."""
    outcomes = []
    for op in order:
        if not fits(op):
            continue
        if tracer is not None:
            tracer.instance = op.label
        outcomes.append(run_operation(op, seed, Outcome(op.label)))
    return outcomes


# -- the workloads -----------------------------------------------------------

KUMMER_GALOIS = [Catalog(2, 1, 0, 3), Catalog(3, 1, 0, 2)]
KUMMER_SCAN = [Catalog(2, 3, 0, 2), Catalog(7, 2, 0, 1)]
ARTINSCHREIER = [Catalog(5, 1, 5, 1, 20), Catalog(2, 2, 2, 2, 13),
                 Catalog(2, 1, 2, 3, 15)]
# cli.FULL_TOWERS without Q_2 n=3 and Q_3 n=2 (already in KUMMER_GALOIS),
# plus Q_7 and Q_9 at n=1.  Q_7's precision check is the probe, run apart.
VERIFY_TOWERS = [Catalog(2, 1, 0, 1), Catalog(2, 1, 0, 2), Catalog(2, 1, 2, 1, 5),
                 Catalog(2, 2, 0, 2), Catalog(2, 1, 2, 2, 5), Catalog(3, 1, 3, 1, 4),
                 Catalog(2, 2, 2, 1, 3), Catalog(3, 2, 0, 1)]
PROBE_TOWER = Catalog(7, 1, 0, 1)
MASS_BASES = [(2, 1), (2, 2), (3, 1), (5, 1), (7, 1)]
SETUP_CATALOG = Catalog(2, 1, 0, 1)


def make_workloads(reference: dict) -> dict[str, Workload]:
    def enum(cats):
        return [_enumeration_op(c, reference) for c in cats]

    def quadratic(seed):
        import wildprim
        return [wildprim.verify.quadratic_catalog_check(seed)]

    def precision_probe(seed):
        import wildprim
        result = wildprim.enumerate_primitive(PROBE_TOWER.base(), PROBE_TOWER.n, seed=seed,
                                              use_cache=False)
        return [wildprim.verify.precision_stability_check(result)]

    oracles = ([_report_op("quadratic-catalog", quadratic)]
               + [_mass_op(p, f) for p, f in MASS_BASES]
               + [_tower_op(c) for c in VERIFY_TOWERS]
               + [_tower_op(PROBE_TOWER, precision=False)])
    workloads = [
        Workload("kummer",
                 "Q_2 n=3, Q_3 n=2, Q_8 n=2, Q_49 n=1: ring multiplication in the Galois "
                 "matrices, the chop and the kummer_basis scan do most of the work",
                 enum(KUMMER_GALOIS + KUMMER_SCAN)),
        Workload("charp-oracles",
                 "Laurent-field catalogs (submodules, records, JSON; no ring arithmetic or "
                 "scan) and the public oracles (brute-force spins, hom_space, mass sums)",
                 enum(ARTINSCHREIER) + oracles,
                 _report_op(f"precision-probe[{PROBE_TOWER.label}]", precision_probe)),
    ]
    return {w.name: w for w in workloads}
