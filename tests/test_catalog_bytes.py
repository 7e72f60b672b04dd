"""Catalog bytes pinned against the benchmark's reference digests.

bench/reference.json holds the sha256 and record count of each benchmark
catalog as emitted with seed 0.  Rebuilding every one of them here through
the public API lets the ordinary test suite catch any change of catalog
bytes.  The reference file is only read.

serialize.to_json_bytes writes from a template; the reference writer below
is the plain json.dumps(indent=2) of the whole catalog, which it must
reproduce byte for byte.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from wildprim import BaseField, enumerate_primitive, serialize

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"

# (reference label, base field, n, level bound)
CATALOGS = [
    ("Q_2,n=1", BaseField(2, 1, 0), 1, None),
    ("Q_2,n=3", BaseField(2, 1, 0), 3, None),
    ("Q_3,n=2", BaseField(3, 1, 0), 2, None),
    ("Q_8,n=2", BaseField(2, 3, 0), 2, None),
    ("Q_49,n=1", BaseField(7, 2, 0), 1, None),
    ("F_5((t)),n=1,B=20", BaseField(5, 1, 5), 1, 20),
    ("F_4((t)),n=2,B=13", BaseField(2, 2, 2), 2, 13),
    ("F_2((t)),n=3,B=15", BaseField(2, 1, 2), 3, 15),
]


# more records the reference writer is compared on: a null and an "S4"
# closure_label, and a catalog of a single record
WRITER_CASES = CATALOGS + [
    ("Q_2,n=2", BaseField(2, 1, 0), 2, None),
    ("F_2((t)),n=1,B=5", BaseField(2, 1, 2), 1, 5),
    ("F_2((t)),n=1,B=1", BaseField(2, 1, 2), 1, 1),
    ("F_2((t)),n=2,B=1", BaseField(2, 1, 2), 2, 1),
]

@pytest.fixture(scope="module")
def built():
    """enumerate_primitive(base, n, level_bound=bound), each catalog built once."""
    cache = {}

    def build(base, n, bound):
        if (base, n, bound) not in cache:
            cache[base, n, bound] = enumerate_primitive(base, n, level_bound=bound, seed=0)
        return cache[base, n, bound]
    return build


def catalog_dict(result) -> dict:
    return {
        "schema_version": serialize.SCHEMA_VERSION,
        "metadata": serialize.catalog_metadata(result),
        "records": [r.to_dict() for r in result.records],
    }


def reference_json_bytes(result) -> bytes:
    return (json.dumps(catalog_dict(result), indent=2) + "\n").encode()


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("label,base,n,bound", CATALOGS, ids=[c[0] for c in CATALOGS])
def test_catalog_bytes_match_reference(label, base, n, bound, reference, built):
    result = built(base, n, bound)
    data = serialize.to_json_bytes(result)
    assert len(result.records) == reference[label]["records"]
    assert hashlib.sha256(data).hexdigest() == reference[label]["sha256"]


@pytest.mark.parametrize("label,base,n,bound", WRITER_CASES, ids=[c[0] for c in WRITER_CASES])
def test_template_writer_equals_the_reference_writer(label, base, n, bound, built):
    result = built(base, n, bound)
    assert result.records
    assert serialize.to_json_bytes(result) == reference_json_bytes(result)
    empty = dataclasses.replace(result, records=[])
    assert serialize.to_json_bytes(empty) == reference_json_bytes(empty)


def test_writer_cases_cover_null_and_named_closure_labels(built):
    labels = {r.closure_label for case in WRITER_CASES[-2:] for r in built(*case[1:]).records}
    assert labels == {None, "S4"}
