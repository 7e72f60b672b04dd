"""Catalog file formats: self-describing JSON and flat CSV.

Field names are frozen (schema_version 1).  Output bytes depend only on
the enumeration inputs recorded in the metadata block (base, n, precision,
level bound, modulus and zeta conventions), so re-running with identical
flags reproduces identical bytes.  The metadata still carries the seed
field of schema 1; the seed changes no computation and appears nowhere else.
"""

from __future__ import annotations

import csv
import io
import json

from .enumerator import EnumerationResult

SCHEMA_VERSION = 1

CSV_COLUMNS = [
    "p", "f", "char", "n", "degree", "rep_id", "end_degree", "d_basis",
    "filtration_index", "level", "excess", "different_exponent",
    "discriminant_exponent", "ram_index", "closure_image_order",
    "closure_order", "closure_label", "unramified", "tres_ramifiee",
]


def catalog_metadata(result: EnumerationResult) -> dict:
    from . import __version__
    meta = {
        "tool": "wildprim",
        "version": __version__,
        "base": result.base.describe(),
        "n": result.n,
        "seed": result.options.get("seed", 0),
        "precision": result.options.get("precision"),
        "level_bound": result.options.get("level_bound"),
        "tower": result.tower.describe(),
    }
    return meta


def catalog_dict(result: EnumerationResult) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "metadata": catalog_metadata(result),
        "records": [r.to_dict() for r in result.records],
    }


def to_json_bytes(result: EnumerationResult) -> bytes:
    return (json.dumps(catalog_dict(result), indent=2, sort_keys=False) + "\n").encode()


def _basis_str(rows: list[list[int]]) -> str:
    return "|".join(",".join(str(x) for x in row) for row in rows)


def _basis_from_str(s: str) -> list[list[int]]:
    return [[int(x) for x in row.split(",")] for row in s.split("|")]


def to_csv_text(result: EnumerationResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    base = result.base.describe()
    for r in result.records:
        d = r.to_dict()
        writer.writerow([
            base["p"], base["f"], base["char"], d["n"], d["degree"],
            d["rep_id"], d["end_degree"], _basis_str(d["d_basis"]),
            d["filtration_index"], d["level"], d["excess"],
            d["different_exponent"], d["discriminant_exponent"], d["ram_index"],
            d["closure_image_order"], d["closure_order"],
            d["closure_label"] if d["closure_label"] is not None else "",
            int(d["unramified"]), int(d["tres_ramifiee"]),
        ])
    return buf.getvalue()


def records_from_json(data: bytes) -> list[dict]:
    return json.loads(data.decode())["records"]


def records_from_csv(text: str) -> list[dict]:
    """Records parsed back from CSV, normalized to the JSON record shape."""
    reader = csv.DictReader(io.StringIO(text))
    out = []
    for row in reader:
        out.append({
            "base": {"p": int(row["p"]), "f": int(row["f"]), "char": row["char"]},
            "n": int(row["n"]),
            "degree": int(row["degree"]),
            "rep_id": row["rep_id"],
            "end_degree": int(row["end_degree"]),
            "d_basis": _basis_from_str(row["d_basis"]),
            "filtration_index": int(row["filtration_index"]),
            "level": int(row["level"]),
            "excess": int(row["excess"]),
            "different_exponent": int(row["different_exponent"]),
            "discriminant_exponent": int(row["discriminant_exponent"]),
            "ram_index": int(row["ram_index"]),
            "closure_image_order": int(row["closure_image_order"]),
            "closure_order": int(row["closure_order"]),
            "closure_label": row["closure_label"] or None,
            "unramified": bool(int(row["unramified"])),
            "tres_ramifiee": bool(int(row["tres_ramifiee"])),
        })
    return out
