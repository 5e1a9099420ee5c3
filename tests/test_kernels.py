"""Unit tests for scalar kernels: custom_exp, TLD, url_decode, varint."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from search_engine_ray.kernels.textutils import (
    custom_exp, custom_exp_np, parse_tld, is_utility_page, url_decode,
    TLD_COM, TLD_GOV, TLD_UNKNOWN, TLD_IO, TLD_SCORES)
from search_engine_ray.kernels import varint


def test_custom_exp_clamps():
    # algorithm.h:118-119 literal clamp values
    assert custom_exp(20.0001) == 4.85e8
    assert custom_exp(-20.0001) == 2.06e-9
    assert custom_exp(0.0) == 1.0


def test_custom_exp_taylor_values():
    # 7-term Horner at x=1: 1+1+1/2+1/6+1/24+1/120+1/720
    expect = 1.0 + 1.0 * (1.0 + 1.0 * (0.5 + 1.0 * (
        1 / 6 + 1.0 * (1 / 24 + 1.0 * (1 / 120 + 1.0 * (1 / 720))))))
    assert custom_exp(1.0) == expect
    assert custom_exp(-1.0) == 1.0 / expect


@given(st.floats(min_value=-25, max_value=25, allow_nan=False))
@settings(max_examples=200)
def test_custom_exp_np_matches_scalar(x):
    assert custom_exp_np(np.array([x]))[0] == custom_exp(x)


def test_parse_tld():
    assert parse_tld("http://www.irs.gov/forms") == TLD_GOV
    assert parse_tld("https://a.b.example.com") == TLD_COM
    assert parse_tld("http://x.io/") == TLD_IO
    assert parse_tld("no-scheme.com") == TLD_UNKNOWN
    assert parse_tld("http://nodots/") == TLD_UNKNOWN
    assert parse_tld("http://weird.zz/") == TLD_UNKNOWN
    assert len(TLD_SCORES) == 13


def test_is_utility_page():
    assert is_utility_page("http://x.com/PRIVACY/page")
    assert is_utility_page("http://x.com/404")
    assert not is_utility_page("http://x.com/about")


def test_url_decode():
    assert url_decode("a+b%20c") == "a b c"
    assert url_decode("%41%42") == "AB"
    assert url_decode("caf%c3%a9") == "caf\xc3\xa9"
    # quirk: '%' with <2 chars after is dropped, remainder decodes normally
    assert url_decode("x%a") == "xa"
    assert url_decode("x%") == "x"


def test_varint_scalar_layout():
    # LEB128 layout pinned: 0x80 → [0x80, 0x01]
    out = bytearray()
    varint.encode_varint(0x80, out)
    assert bytes(out) == b"\x80\x01"
    out = bytearray()
    varint.encode_varint(300, out)
    assert bytes(out) == b"\xac\x02"
    assert varint.decode_varint(b"\xac\x02", 0) == (300, 2)


def test_word_postlist_roundtrip_and_layout():
    locs = [5, 6, 200, 201, 100000]
    flags = [0, 1, 3, 0, 2]
    buf = varint.encode_word_postlist(locs, flags)
    # first post: varint(5)=b"\x05", flag 0
    assert buf[:2] == b"\x05\x00"
    # second: delta 1 + flag 1
    assert buf[2:4] == b"\x01\x01"
    got_locs, got_flags = varint.decode_word_postlist(buf)
    assert got_locs.tolist() == locs
    assert got_flags.tolist() == flags


def test_doc_postlist_roundtrip():
    posts = [(1, 10, 0), (11, 25, 1), (26, 30, 2)]
    buf = varint.encode_doc_postlist(posts)
    assert varint.decode_doc_postlist(buf) == posts
    # layout: start-prev_end delta of first = 1, len 9, id 0
    assert buf[:3] == b"\x01\x09\x00"


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=200))
@settings(max_examples=100)
def test_u64_stream_roundtrip(vals):
    arr = np.array(vals, dtype=np.uint64)
    assert varint.decode_u64_stream(varint.encode_u64_stream(arr)).tolist() \
        == vals


@given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=200))
@settings(max_examples=50)
def test_gaps_roundtrip(vals):
    arr = np.sort(np.array(vals, dtype=np.uint64))
    got = varint.decode_gaps(varint.encode_gaps(arr))
    assert got.tolist() == arr.tolist()


def test_u64_stream_matches_scalar_layout():
    vals = np.array([0, 1, 127, 128, 300, 2**32, 2**56 + 5], dtype=np.uint64)
    stream = varint.encode_u64_stream(vals)
    expect = bytearray()
    for v in vals:
        varint.encode_varint(int(v), expect)
    assert stream == bytes(expect)


@pytest.mark.parametrize("seed", range(6))
def test_u64_offsets_match_scalar_encoder(seed):
    """Random uint64 arrays of 1- to 10-byte values, and arrays under
    2**14 (the 1-2 byte fast path): the stream is the concatenated
    scalar encode_varint output and the offsets are the running byte
    lengths."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(200, 400))
    if seed % 2:
        vals = rng.integers(0, 1 << 14, size=n, dtype=np.uint64)
    else:  # full-width values shifted right by random bit counts
        vals = rng.integers(0, np.iinfo(np.uint64).max, size=n,
                            dtype=np.uint64, endpoint=True)
        vals >>= rng.integers(0, 64, size=n).astype(np.uint64)
        vals[:2] = [1 << 63, np.iinfo(np.uint64).max]  # 10 bytes each
    stream, offs = varint.encode_u64_offsets(vals)
    expect, lens = bytearray(), [0]
    for v in vals:
        varint.encode_varint(int(v), expect)
        lens.append(len(expect))
    assert stream == bytes(expect)
    assert offs.tolist() == lens
    assert varint.encode_u64_stream(vals) == stream
    if seed % 2 == 0:
        assert {b - a for a, b in zip(lens, lens[1:])} == set(range(1, 11))
    else:
        assert max(vals) < 1 << 14


def test_u64_offsets_empty():
    stream, offs = varint.encode_u64_offsets(np.empty(0, np.uint64))
    assert stream == b"" and offs.tolist() == [0]
