"""Vectorized postings emit: docs (terms string column) → per-(term, doc)
posting runs, entirely in Arrow/numpy kernels.

Replaces the per-doc Python dict loop: tokens come from Arrow's
split_pattern (C), within-doc positions from a vectorized arange, and the
(term, doc) runs from one lexsort + run-length detection. Position gap
streams are varint-encoded in one vectorized pass with per-run byte
offsets, so per-run blobs are memoryview slices.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..kernels import varint


def emit_postings_columnar(doc_ids: np.ndarray, dls: np.ndarray,
                           terms_col) -> dict:
    """Emit per-(term, doc) posting runs for a batch of docs.

    Returns dict with, per run: terms (object array), run_doc (int64),
    run_tf (int64), run_dl (int64), and pos_blob(i) byte slices via
    (pos_stream bytes, run_byte_offsets) — positions are within-doc gaps
    (first absolute), ready for order-preserving concatenation.
    """
    if not isinstance(terms_col, (pa.Array, pa.ChunkedArray)):
        terms_col = pa.array(terms_col, pa.string())
    if isinstance(terms_col, pa.ChunkedArray):
        terms_col = terms_col.combine_chunks()
    tok_lists = pc.split_pattern(terms_col, " ")
    flat = tok_lists.flatten()
    offsets = tok_lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    counts = np.diff(offsets)
    n_tok = int(counts.sum())
    if n_tok == 0:
        return {"terms": np.empty(0, object),
                "run_doc": np.empty(0, np.int64),
                "run_tf": np.empty(0, np.int64),
                "run_dl": np.empty(0, np.int64),
                "pos_stream": b"", "run_byte_offsets": np.zeros(1, np.int64)}

    doc_idx = np.repeat(np.arange(len(doc_ids), dtype=np.int32),
                        counts)
    # within-doc positions: global arange minus each doc's start
    g = np.arange(n_tok, dtype=np.int32)
    pos = g - offsets[:-1].astype(np.int32)[doc_idx]
    # empty terms string splits to [""] — drop those tokens
    tok_codes = flat.dictionary_encode()
    codes = tok_codes.indices.to_numpy(zero_copy_only=False)
    vocab = np.asarray(tok_codes.dictionary.to_pylist(), dtype=object)
    nonempty = np.asarray([len(t) > 0 for t in vocab], dtype=bool)
    if not nonempty.all():
        keep = nonempty[codes]
        codes, doc_idx, pos = codes[keep], doc_idx[keep], pos[keep]

    order = np.lexsort((pos, doc_idx, codes))
    codes, doc_idx, pos = codes[order], doc_idx[order], pos[order]

    # run boundaries at (term, doc) changes
    change = np.empty(len(codes), dtype=bool)
    if len(codes):
        change[0] = True
        change[1:] = (codes[1:] != codes[:-1]) | (doc_idx[1:] != doc_idx[:-1])
    starts = np.nonzero(change)[0]
    run_tf = np.diff(np.append(starts, len(codes)))

    # per-token position gaps: absolute at run starts, delta within runs
    deltas = np.empty(len(pos), dtype=pos.dtype)
    if len(pos):
        deltas[0] = pos[0]
        np.subtract(pos[1:], pos[:-1], out=deltas[1:])
        deltas[starts] = pos[starts]  # run starts carry absolute positions
    gaps = deltas.astype(np.uint64)
    pos_stream, tok_offsets = varint.encode_u64_offsets(gaps)
    run_byte_offsets = np.append(tok_offsets[starts], tok_offsets[-1])

    return {
        "terms": vocab[codes[starts]],
        "run_doc": doc_ids[doc_idx[starts]],
        "run_tf": run_tf.astype(np.int64),
        "run_dl": dls[doc_idx[starts]],
        "pos_stream": pos_stream,
        "run_byte_offsets": run_byte_offsets.astype(np.int64),
    }
