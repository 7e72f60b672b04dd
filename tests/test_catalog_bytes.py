"""Catalog bytes pinned against the benchmark's reference digests.

bench/reference.json holds the sha256 and record count of each benchmark
catalog as emitted with seed 0.  Rebuilding every one of them here through
the public API lets the ordinary test suite catch any change of catalog
bytes.  The reference file is only read.
"""

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


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("label,base,n,bound", CATALOGS, ids=[c[0] for c in CATALOGS])
def test_catalog_bytes_match_reference(label, base, n, bound, reference):
    result = enumerate_primitive(base, n, level_bound=bound, seed=0)
    data = serialize.to_json_bytes(result)
    assert len(result.records) == reference[label]["records"]
    assert hashlib.sha256(data).hexdigest() == reference[label]["sha256"]
