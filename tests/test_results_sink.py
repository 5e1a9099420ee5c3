"""S7: the results-page HTML and the csolver wire format, pinned against
the compiled reference (RootPlugin.h BuildSearchHTML via
tests/tools/ref_html_harness.cpp). Where the harness can't be built,
the page is pinned to its frozen output in tests/golden/results_page*.html
(written by ``build_search_html`` while it matched the live harness)."""

from __future__ import annotations

import os
import shutil
import struct
import subprocess

import pyarrow as pa

TOOLS = os.path.join(os.path.dirname(__file__), "tools")
HARNESS = os.path.join(TOOLS, "ref_html_harness")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
REFERENCE = "/root/reference"

FIXTURE = [
    ("https://example.com", "Example Domain", 0.95),
    ("https://openai.com", "OpenAI", 0.90),
    ("https://github.com", "GitHub", 0.89),
    ("http://site.com/?q=a&b=<c>", "Tricky & <title>", -1.5),
]


def _ensure_harness() -> str | None:
    if os.path.exists(HARNESS):
        return HARNESS
    if shutil.which("g++") is None or not os.path.isdir(REFERENCE):
        return None
    subprocess.run(
        ["g++", "-O2", "-std=c++17", "-pthread",
         f"-I{REFERENCE}/engine/csolver", f"-I{REFERENCE}/engine",
         "-Dntohll(x)=__builtin_bswap64(x)",
         "-o", HARNESS, os.path.join(TOOLS, "ref_html_harness.cpp"),
         f"{REFERENCE}/query/query.cpp", f"{REFERENCE}/query/synsets.cpp",
         f"{REFERENCE}/engine/lib/stemmer/stemmer.cpp"],
        check=True)
    return HARNESS


def _reference_html(results, tmp_path) -> str:
    lines = [str(len(results))]
    for url, title, _ in results:
        lines.extend([url, title])
    for _, _, score in results:
        bits = struct.unpack("<Q", struct.pack("<d", score))[0]
        lines.append(f"{bits:016x}")
    out_file = str(tmp_path / "results.html")
    subprocess.run([HARNESS, out_file], check=True,
                   input="\n".join(lines) + "\n",
                   capture_output=True, text=True)
    with open(out_file) as f:
        return f.read()


def test_html_matches_reference(tmp_path):
    """Byte-equal to the live harness when it builds, else to the frozen
    goldens of the same two pages (the fixture and an empty list)."""
    from search_engine_ray.pipelines.results_sink import build_search_html

    live = _ensure_harness() is not None
    for results, golden in ((FIXTURE, "results_page.html"),
                            ([], "results_page_empty.html")):
        got = build_search_html(results)
        if live:
            assert got == _reference_html(results, tmp_path), golden
        else:
            with open(os.path.join(GOLDEN, golden), "rb") as f:
                assert got.encode() == f.read(), golden


def test_html_from_table():
    from search_engine_ray.pipelines.results_sink import build_search_html

    t = pa.table({
        "url": pa.array([u for u, _, _ in FIXTURE], pa.string()),
        "title": pa.array([t_ for _, t_, _ in FIXTURE], pa.string()),
        "score": pa.array([s for _, _, s in FIXTURE], pa.float64()),
    })
    assert build_search_html(t) == build_search_html(FIXTURE)


def test_wire_roundtrip():
    from search_engine_ray.pipelines.results_sink import (
        parse_results_wire, serialize_results_wire)

    data = serialize_results_wire(FIXTURE)
    # count prefix is network-order u32 (csolver.cpp:59)
    assert struct.unpack("!I", data[:4])[0] == len(FIXTURE)
    back = parse_results_wire(data)
    assert [(u, t) for u, t, _ in back] == [(u, t) for u, t, _ in FIXTURE]
    for (_, _, gs), (_, _, es) in zip(back, FIXTURE):
        assert struct.pack("<d", gs) == struct.pack("<d", es)


def test_http_serving_surface(ray_session, sf_dir):
    """RootPlugin routing over the Ray engine: /search?q= returns the
    byte-pinned results page; / returns the index form."""
    import http.client

    from search_engine_ray.pipelines.flagship import build_sf_index
    from search_engine_ray.pipelines.search import SearchEngine
    from search_engine_ray.pipelines.server import serve
    from search_engine_ray.pipelines.results_sink import build_search_html

    eng = SearchEngine(build_sf_index(sf_dir))
    srv, _thread = serve(eng)
    try:
        port = srv.server_address[1]

        def get(path):
            c = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            c.request("GET", path)
            r = c.getresponse()
            body = r.read()
            c.close()
            return r.status, body

        status, body = get("/")
        assert status == 200 and b"<form" in body

        status, body = get("/search?q=data")
        assert status == 200
        expect = build_search_html(eng.search("data", k=10)).encode()
        assert body == expect
        assert b"<li>" in body  # the corpus matches 'data'

        status, _ = get("/logo.svg")
        assert status == 404
    finally:
        srv.shutdown()
        eng.close()


def test_build_search_html_escape_mode():
    """serve() path escapes corpus-controlled fields; the default stays
    byte-pinned to the reference (unescaped)."""
    import pyarrow as pa

    from search_engine_ray.pipelines.results_sink import build_search_html

    t = pa.table({
        "url": ['http://x.com/?a="<b>&c'],
        "title": ["<script>alert(1)</script>"],
        "score": [1.0],
    })
    raw = build_search_html(t)
    assert "<script>alert(1)</script>" in raw
    esc = build_search_html(t, escape=True)
    assert "<script>" not in esc
    assert "&lt;script&gt;alert(1)&lt;/script&gt;" in esc
    assert "&quot;" in esc or "%22" in esc
