"""Catalog file formats: self-describing JSON and flat CSV.

ExtensionRecord's fields, in declaration order, are the record schema
(schema_version 1): a JSON record is the record's to_dict, and a CSV row
flattens its base into the leading columns p, f, char.  Output bytes depend
only on the enumeration inputs recorded in the metadata block (base, n,
precision, level bound, modulus and zeta conventions), so identical flags
reproduce identical bytes.  The seed the metadata carries changes nothing.
"""

from __future__ import annotations

import csv
import io
import json

from .enumerator import RECORD_FIELDS, EnumerationResult

SCHEMA_VERSION = 1

CSV_FIELDS = [name for name in RECORD_FIELDS if name != "base"]
CSV_COLUMNS = ["p", "f", "char"] + CSV_FIELDS


def catalog_metadata(result: EnumerationResult) -> dict:
    from . import __version__
    return {
        "tool": "wildprim",
        "version": __version__,
        "base": result.base.describe(),
        "n": result.n,
        "seed": result.seed,
        "precision": result.tower.prec,
        "level_bound": result.basis.level_bound,
        "tower": result.tower.describe(),
    }


def catalog_dict(result: EnumerationResult) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "metadata": catalog_metadata(result),
        "records": [r.to_dict() for r in result.records],
    }


def to_json_bytes(result: EnumerationResult) -> bytes:
    return (json.dumps(catalog_dict(result), indent=2, sort_keys=False) + "\n").encode()


def _cell(value):
    """A CSV cell: flags as 0/1, null as empty, a basis as rows a,b|c,d."""
    if isinstance(value, bool):
        return int(value)
    if value is None:
        return ""
    if isinstance(value, list):
        return "|".join(",".join(str(x) for x in row) for row in value)
    return value


def to_csv_text(result: EnumerationResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    base = result.base.describe()
    for r in result.records:
        writer.writerow([base["p"], base["f"], base["char"]]
                        + [_cell(getattr(r, name)) for name in CSV_FIELDS])
    return buf.getvalue()
