"""The pre-stemmed synonym table (query/compile.py SynsetTable): it is
fresh against the vendored synsets.txt, answers exactly like the
reference reader ``load_synsets``, compiles identical plans, and opens
without stemming anything."""

from __future__ import annotations

import os
import subprocess
import sys

import pyarrow as pa
import pytest

from search_engine_ray.query import compile as qc
from search_engine_ray.query.refqueries import REF_QUERIES
from search_engine_ray.state.sorted_strings import SortedStrings

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def ref_dict():
    return qc.load_synsets(qc.DEFAULT_SYNSETS_PATH)


def test_checked_in_table_is_fresh():
    with open(qc.DEFAULT_SYNSET_TABLE_PATH, "rb") as f:
        checked_in = f.read()
    assert qc.build_synset_table(qc.DEFAULT_SYNSETS_PATH) == checked_in, (
        "synsets.stems.arrow is stale: python scripts/gen_synset_table.py")


def test_table_answers_like_load_synsets(ref_dict):
    table = qc.get_default_synsets()
    assert len(table) == len(ref_dict)
    assert "" in ref_dict  # stopword synonyms stem to ""
    for k, v in ref_dict.items():
        assert table.get(k) == v, k
    for absent in ("zzqx", "\x00", "\U0010ffff", "a" * 200):
        assert absent not in ref_dict
        assert table.get(absent) is None


def test_small_table_edge_lines(tmp_path):
    # duplicate stems within a synset, blank lines, a missing trailing
    # ';', a stopword (stem ""), non-ASCII words, no final newline
    txt = tmp_path / "syn.txt"
    txt.write_bytes("run;running;runs;\n\nthe;a;\ncafé;bistro\n"
                    "fast;rapid;\n;\nrun;sprint".encode())
    arrow = tmp_path / "syn.arrow"
    arrow.write_bytes(qc.build_synset_table(str(txt)))
    assert qc.build_synset_table(str(txt)) == arrow.read_bytes()
    ref = qc.load_synsets(str(txt))
    table = qc.SynsetTable(str(arrow), str(txt))
    assert len(table) == len(ref)
    for k, v in ref.items():
        assert table.get(k) == v, k
    assert len(ref["run"]) == 4  # file order, duplicates kept
    assert table.get("sprinter") is None
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes(b"run;sprint;\r\n")
    with pytest.raises(ValueError, match="line endings"):
        qc.build_synset_table(str(crlf))


def test_stale_text_raises_with_regen_command(tmp_path):
    with open(qc.DEFAULT_SYNSETS_PATH, "rb") as f:
        text = f.read()
    edited = tmp_path / "synsets.txt"
    edited.write_bytes(text + b"fast;quick;\n")
    with pytest.raises(ValueError, match="scripts/gen_synset_table.py"):
        qc.SynsetTable(qc.DEFAULT_SYNSET_TABLE_PATH, str(edited))


EXTRA_QUERIES = [
    # words with synsets, without (synthetic / absent), and a stopword
    "run", "zzqx", "children", "the", "line",
    "run & zzqx", "fast & the", "line | order", "zzqx | spark",
    "-run", "fast -table", "-(line | zzqx)",
    '"fast car"', '"running dogs" & order', '"the line"',
]


@pytest.mark.parametrize("title_stem_fix", [True, False])
def test_plans_identical_under_dict_and_table(ref_dict, title_stem_fix):
    table = qc.get_default_synsets()
    n_syn = 0
    for q in REF_QUERIES + EXTRA_QUERIES:
        want = qc.compile_query(q, ref_dict, title_stem_fix)
        got = qc.compile_query(q, table, title_stem_fix)
        assert got == want, q
        if want is not None:
            assert qc.serialize(got) == qc.serialize(want), q
        n_syn += "SynOr" in repr(want)
    assert n_syn > 10  # the query set does exercise synonym expansion


def test_default_synsets_stem_nothing():
    code = (
        "from search_engine_ray.kernels.stemmer import stem\n"
        "from search_engine_ray.query import compile as qc\n"
        "before = stem.cache_info()\n"
        "table = qc.get_default_synsets()\n"
        "assert table.get('fast') and qc.get_default_synsets() is table\n"
        "assert stem.cache_info() == before, (before, stem.cache_info())\n"
        "print('ok')\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=REPO,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_sorted_strings_find_edges():
    words = sorted(["", "a", "ab", "b", "café", "cafe", "z", "été", "\x7f"],
                   key=str.encode)
    arr = pa.array(["skip"] + words, pa.string()).slice(1)  # offset != 0
    index = SortedStrings(arr)
    assert len(index) == len(words)
    for i, w in enumerate(words):
        assert index.find(w.encode()) == i
    for absent in ("0", "aa", "ca", "caf", "zz", "é", "\uffff"):
        assert index.find(absent.encode()) is None
    assert SortedStrings(pa.array([], pa.string())).find(b"a") is None
    assert SortedStrings(pa.array(["b"])).find(b"") is None
