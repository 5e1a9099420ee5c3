"""The vocabulary Bloom filter module, kept only for the benchmark's
traced routing span: no false negatives, a sane false-positive rate,
older k = 2 filters read as before, and no package module imports it
(the engine routes exactly from term ids: tests/test_routing.py)."""

from __future__ import annotations

import ast
import pathlib
import struct

import numpy as np
import pytest

import search_engine_ray
from search_engine_ray.state import bloom

_MAGIC = 0x534E424C


def test_bloom_no_false_negatives_and_fp_rate():
    vocab = [f"term{i:05d}" for i in range(5000)]
    blob = bloom.build(vocab)
    assert bloom.contains(blob, vocab).all()  # zero false negatives
    probes = [f"absent{i:06d}" for i in range(20000)]
    fp = bloom.contains(blob, probes).mean()
    assert fp < 0.015, fp  # sized for FP_RATE = 1%
    # ⌈5000·ln 100 / ln²2⌉ = 47,926 bits → 5,991 bytes; round(m/n·ln 2)
    assert len(blob) - 16 == 5991
    assert struct.unpack_from("<IIQ", blob) == (_MAGIC, 7, 5991 * 8)


def _k2_filter(terms) -> bytes:
    """A filter in the layout written before FP_RATE sizing: k = 2 probes
    at h1 and h2, m a power of two of at least 16 bits per term."""
    m_bits = 64
    while m_bits < 16 * max(len(terms), 1):
        m_bits *= 2
    bits = np.zeros(m_bits // 8, dtype=np.uint8)
    pos = (bloom.hash_terms(terms) % np.uint64(m_bits)).reshape(-1)
    np.bitwise_or.at(bits, (pos >> np.uint64(3)).astype(np.int64),
                     (1 << (pos & np.uint64(7))).astype(np.uint8))
    return struct.pack("<IIQ", _MAGIC, 2, m_bits) + bits.tobytes()


def _k2_contains(blob: bytes, hashes: np.ndarray) -> np.ndarray:
    """The reader of that layout."""
    magic, k, m_bits = struct.unpack_from("<IIQ", blob, 0)
    assert (magic, k) == (_MAGIC, 2)
    bits = np.frombuffer(blob, dtype=np.uint8, offset=16)
    pos = hashes % np.uint64(m_bits)
    byte = (pos >> np.uint64(3)).astype(np.int64)
    mask = (1 << (pos & np.uint64(7))).astype(np.uint8)
    return ((bits[byte] & mask) == mask).all(axis=1)


def test_k2_filters_read_as_before():
    """A k = 2, power-of-two filter answers every probe, present or
    absent, as its own reader does."""
    vocab = [f"term{i:05d}" for i in range(3000)]
    probes = vocab + [f"absent{i:06d}" for i in range(20000)]
    h = bloom.hash_terms(probes)
    for terms in (vocab, vocab[:1], []):
        blob = _k2_filter(terms)
        want = _k2_contains(blob, h)
        assert np.array_equal(bloom.contains_hashed(blob, h), want)
        assert bloom.contains(blob, terms).all()
        if terms is vocab:  # both answers occur among the absent terms
            assert 0 < want[len(vocab):].sum() < len(probes) - len(vocab)


def test_bloom_rejects_a_bad_header():
    blob = bloom.build(["a", "b"])
    h = bloom.hash_terms(["a"])
    for magic, k in ((_MAGIC + 1, 7), (_MAGIC, 0), (_MAGIC, 17)):
        bad = struct.pack("<II", magic, k) + blob[8:]
        with pytest.raises(ValueError):
            bloom.contains_hashed(bad, h)


def test_bloom_empty_vocab():
    blob = bloom.build([])
    assert not bloom.contains_any(blob, ["anything"])
    assert not bloom.contains_any(blob, [])


def test_no_package_module_imports_the_filters():
    """An AST scan of every module under search_engine_ray/: none but
    state/bloom.py itself imports ``search_engine_ray.state.bloom``, by
    absolute or relative import."""
    target = "search_engine_ray.state.bloom"
    root = pathlib.Path(search_engine_ray.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        if ".".join(parts) == target:
            continue
        # the package a relative import in this file starts from
        package = parts[:-1]
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = list(package[:len(package) - node.level + 1]
                            if node.level else [])
                base += node.module.split(".") if node.module else []
                names = [".".join(base)] + [".".join(base + [a.name])
                                            for a in node.names]
            else:
                continue
            if any(n == target or n.startswith(target + ".")
                   for n in names):
                found.append(f"{path}:{node.lineno}")
    assert not found, found
