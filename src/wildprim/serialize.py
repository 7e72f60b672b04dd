"""Catalog file formats: self-describing JSON and flat CSV.

ExtensionRecord's fields, in declaration order, are the record schema
(schema_version 1): a JSON record is the record's to_dict, and a CSV row
flattens its base into the leading columns p, f, char.  Output bytes depend
only on the enumeration inputs recorded in the metadata block (base, n,
precision, level bound, modulus and zeta conventions), so identical flags
reproduce identical bytes.  The seed the metadata carries changes nothing.

to_json_bytes returns exactly json.dumps(catalog, indent=2) + "\n", whose
pure-Python indented encoder it avoids: the metadata head is json.dumps'd,
and each record is one % fill of a template built from RECORD_FIELDS, its
values encoded a column at a time by the C encoder (see _column).
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


# A record's fields sit at depth 3 (6 spaces), d_basis's rows at depth 4.
_MATRIX = "[\n        [\n          %s\n        ]\n      ]"
_RECORD = "    {\n" + ",\n".join(f'      "{name}": ' + (_MATRIX if name == "d_basis" else "%s")
                                 for name in RECORD_FIELDS) + "\n    }"
_SCALARS = json.JSONEncoder(separators=("\n", ": "))
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def _column(name: str, values: list) -> list[str]:
    """Every record's value of field name, laid out for its % fill."""
    if name == "d_basis":
        # the inside of _MATRIX, from the column's compact encoding
        return (_COMPACT.encode(values)[3:-3].replace("]],[[", "|").replace(",", ",\n          ")
                .replace("],\n          [", "\n        ],\n        [\n          ").split("|"))
    if name == "base":
        # a dict, laid out once per distinct value
        keys = [_COMPACT.encode(v) for v in values]
        laid = {k: json.dumps(v, indent=2).replace("\n", "\n      ")
                for k, v in dict(zip(keys, values)).items()}
        return [laid[k] for k in keys]
    # one C call for the column; an encoded scalar holds no raw newline
    return _SCALARS.encode(values)[1:-1].split("\n")


def to_json_bytes(result: EnumerationResult) -> bytes:
    head = json.dumps({"schema_version": SCHEMA_VERSION,
                       "metadata": catalog_metadata(result), "records": []}, indent=2)
    if not result.records:
        return (head + "\n").encode()
    columns = [_column(name, [getattr(r, name) for r in result.records]) for name in RECORD_FIELDS]
    # head ends in the empty records list and the closing brace, "[]\n}"
    return (head[:-4] + "[\n" + ",\n".join(_RECORD % row for row in zip(*columns))
            + "\n  ]\n}\n").encode()


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
