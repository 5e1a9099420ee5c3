#!/usr/bin/env python
"""Where an index's bytes go: compressed bytes per document by directory
and column.

Usage:
    python scripts/index_bytes.py INDEX_DIR

Covers the index's three serving directories (segments/, docmeta/,
terms/). Every parquet file contributes one row per column (the column
chunks' compressed size, page headers and dictionary pages included) and
one "parquet overhead" row (footer and magic bytes: the file size less its
column chunks). Every other file (``_vocab.bloom``, ``_SUCCESS``) counts
under its own name. The rows sum to the directories' on-disk size, so the
total is perfbench's ``index_bytes_per_doc`` for the same index.

Two lines before the total size the vocabulary: the ``vocabulary:``
line gives the terms table's rows (the one copy of the term strings),
the segments' rows and the bits per segment row of their ``term_id``
key; the ``vocab filters:`` line gives the filters' file count, keys
(the segments' row counts), bits per key and k values, from their
headers.
"""

from __future__ import annotations

import glob
import os
import sys
from collections import Counter

import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

DIRS = ("segments", "docmeta", "terms")
OVERHEAD = "parquet overhead"


def breakdown(index_dir: str) -> Counter:
    """Bytes per (directory, column or file name) of ``index_dir``."""
    out: Counter = Counter()
    for d in DIRS:
        for root, _, files in os.walk(os.path.join(index_dir, d)):
            for name in files:
                path = os.path.join(root, name)
                size = os.path.getsize(path)
                if not name.endswith(".parquet"):
                    out[d, name] += size
                    continue
                meta = pq.read_metadata(path)
                for g in range(meta.num_row_groups):
                    rg = meta.row_group(g)
                    for c in range(rg.num_columns):
                        col = rg.column(c)
                        out[d, col.path_in_schema] += col.total_compressed_size
                        size -= col.total_compressed_size
                out[d, OVERHEAD] += size
    return out


def filter_sizes(index_dir: str) -> tuple[int, int, int, Counter]:
    """(files, keys, bits, files per k) of the ``_vocab.bloom`` files:
    keys are the row counts of the segment beside each filter, bits and
    k come from the filter's header."""
    from search_engine_ray.state import bloom

    files = keys = bits = 0
    ks: Counter = Counter()
    for path in glob.glob(os.path.join(index_dir, "segments", "shard=*",
                                       "_vocab.bloom")):
        with open(path, "rb") as f:
            k, m_bits = bloom.header(f.read())
        files += 1
        bits += m_bits
        ks[k] += 1
        for seg_file in glob.glob(os.path.join(os.path.dirname(path),
                                               "*.parquet")):
            keys += pq.read_metadata(seg_file).num_rows
    return files, keys, bits, ks


def parquet_rows(index_dir: str, d: str) -> int:
    """Rows of every parquet file under ``index_dir/d``."""
    return sum(pq.read_metadata(f).num_rows for f in glob.glob(
        os.path.join(index_dir, d, "**", "*.parquet"), recursive=True))


def main(argv: list[str]) -> None:
    if len(argv) != 1:
        sys.exit(__doc__)
    from search_engine_ray.state import segments as seg

    index_dir = argv[0]
    n_docs = seg.read_manifest(index_dir)["stats"]["n_docs"]
    rows = breakdown(index_dir)
    print(f"{index_dir}: {n_docs} docs")
    print(f"{'dir':<10}{'column / file':<20}{'bytes':>12}{'B/doc':>12}")
    for (d, item), b in sorted(rows.items(),
                               key=lambda kv: (DIRS.index(kv[0][0]),
                                               -kv[1])):
        print(f"{d:<10}{item:<20}{b:>12}{b / n_docs:>12.1f}")
    seg_rows = parquet_rows(index_dir, "segments")
    print(f"vocabulary: {parquet_rows(index_dir, 'terms')} terms rows, "
          f"{seg_rows} segment rows, "
          f"{8 * rows['segments', 'term_id'] / max(seg_rows, 1):.2f} "
          "term_id bits/segment row")
    files, keys, bits, ks = filter_sizes(index_dir)
    k_list = ", ".join(f"k={k} x{n}" for k, n in sorted(ks.items()))
    print(f"vocab filters: {files} files, {keys} keys, "
          f"{bits / max(keys, 1):.2f} bits/key, {k_list}")
    total = sum(rows.values())
    print(f"{'total':<30}{total:>12}{total / n_docs:>12.4f}")


if __name__ == "__main__":
    main(sys.argv[1:])
