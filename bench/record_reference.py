"""Record the reference digests the benchmark checks catalogs against.

    python3 bench/record_reference.py

Builds every catalog of the enumeration workloads, and the setup catalog,
at seed 0 through the public API and writes the sha256 of each catalog's
JSON bytes and its record count to bench/reference.json.  Run it only on a
commit whose catalogs are known good: afterwards every benchmark run
counts a catalog that differs from these bytes as a failed operation.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    os.environ["WILDPRIM_CACHE_DIR"] = ""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    catalogs = ([wl.SETUP_CATALOG] + wl.KUMMER_GALOIS + wl.KUMMER_SCAN
                + wl.ARTINSCHREIER)
    reference = {}
    for cat in catalogs:
        data, count = wl.build_catalog(cat, seed=0)
        reference[cat.label] = {"sha256": wl.catalog_digest(data, 0), "records": count}
        print(cat.label, reference[cat.label], flush=True)
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
