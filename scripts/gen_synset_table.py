#!/usr/bin/env python
"""Regenerate the pre-stemmed synonym table from the vendored synsets.

Usage:
    python scripts/gen_synset_table.py

Writes search_engine_ray/data/synsets.stems.arrow from
search_engine_ray/data/synsets.txt. Run it after editing synsets.txt or
the stemmer; tests/test_synset_table.py fails until the checked-in table
matches what this script writes.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from search_engine_ray.query import compile as qc  # noqa: E402


def main() -> None:
    data = qc.build_synset_table(qc.DEFAULT_SYNSETS_PATH)
    with open(qc.DEFAULT_SYNSET_TABLE_PATH, "wb") as f:
        f.write(data)
    print(f"wrote {qc.DEFAULT_SYNSET_TABLE_PATH} ({len(data):,} bytes)")


if __name__ == "__main__":
    main()
