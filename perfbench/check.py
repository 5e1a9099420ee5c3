"""Correctness checks applied to every result the benchmark receives.

A result is a top-k table with ``doc_id`` and ``score`` columns. It is
reduced to a tuple of (doc_id, float64 score bits), so two results agree
only when they rank the same documents with bit-identical scores.
"""

from __future__ import annotations

import hashlib
import struct


def topk_key(table) -> tuple[tuple[int, int], ...]:
    """(doc_id, score bits) per row, in rank order."""
    ids = table.column("doc_id").to_pylist()
    scores = table.column("score").to_pylist()
    return tuple((int(d), struct.unpack("<q", struct.pack("<d", s))[0])
                 for d, s in zip(ids, scores))


def _score(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def malformed(key, known_ids) -> str | None:
    """Why a result is malformed, or None: scores must never increase
    down the list, doc_ids must be unique and present in docmeta."""
    scores = [_score(b) for _, b in key]
    if any(b > a for a, b in zip(scores, scores[1:])):
        return "scores increase down the list"
    ids = [d for d, _ in key]
    if len(set(ids)) != len(ids):
        return "duplicate doc_id"
    unknown = [d for d in ids if d not in known_ids]
    if unknown:
        return f"doc_id {unknown[0]} not in docmeta"
    return None


class Ledger:
    """Counts attempted/failed operations per phase and checks that every
    path returns the same top-k for the same query.

    The first well-formed result seen for a query becomes its reference;
    any later result for that query, from any path, must equal it.
    """

    def __init__(self, known_ids) -> None:
        self.known_ids = known_ids
        self.reference: dict[str, tuple] = {}
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.errors: list[str] = []

    def op(self, phase: str, ok: bool, why: str = "") -> bool:
        self.attempted[phase] = self.attempted.get(phase, 0) + 1
        if not ok:
            self.failed[phase] = self.failed.get(phase, 0) + 1
            if len(self.errors) < 20:
                self.errors.append(f"{phase}: {why}")
        return ok

    def result(self, phase: str, query: str, table) -> bool:
        """Record one query result; False (and a failure) on a malformed
        result or a mismatch with the query's reference."""
        key = topk_key(table)
        why = malformed(key, self.known_ids)
        if why is None:
            ref = self.reference.setdefault(query, key)
            if ref != key:
                why = f"top-k differs from the first result for {query!r}"
        return self.op(phase, why is None, why or "")

    def error(self, phase: str, exc: BaseException) -> None:
        self.op(phase, False, f"{type(exc).__name__}: {exc}")

    def reset_references(self, known_ids) -> None:
        """Start a new epoch (e.g. after an append changed the index)."""
        self.known_ids = known_ids
        self.reference = {}

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


def digest(queries, keys) -> str:
    """sha256 over (query, top-k key) pairs in the given order."""
    h = hashlib.sha256()
    for q, key in zip(queries, keys):
        h.update(q.encode())
        h.update(b"\0")
        for d, bits in key:
            h.update(struct.pack("<qq", d, bits))
        h.update(b"\1")
    return h.hexdigest()
