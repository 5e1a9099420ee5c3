"""Query compiler: exact port of /root/reference/query/query.cpp.

Pipeline (Query_Compiler::send_query, query.cpp:775-822):
url_decode → tokenize (char modes DEFAULT/ESCAPED/PHRASE, query.cpp:503-587)
→ recursive-descent parse with implicit AND (query.cpp:590-653)
→ optimize(): per word leaf, synonym expansion into a right-nested OR_SYN
chain with 2:1 original:synonym advance ratios, and title decoration — each
leaf becomes OR(@leaf, leaf) (query.cpp:90-147).

Load-bearing quirks, reproduced verbatim:
- the WORD decoration stems the '@'-prefixed raw term — stem("@running")
  — while the index stores '@' + stem("running") (query.cpp:91 vs
  Indexer.hpp:355-357), so decorated word title-terms can miss the index
  (e.g. "@children" vs "@child"); the PHRASE decoration prefixes the
  already-computed stems and does match (query.cpp:211-226)
- stopword leaves (stem == "") optimize to None and propagate upward
  (query.cpp:131-135, 384-409); a fully-stopword query is invalid → empty
- empty stems inside a phrase vanish on the wire (space-collapse in
  Aggregate_Phrase, ast.cpp:217-224)
- NOT carries ONE child on the wire ('-' subexpr '>'); the reference
  csolver builds ISRContainer(included, excluded=nullptr) whose live
  assert aborts (csolver built without -DNDEBUG, engine/csolver/Makefile);
  with asserts off every method returns nullptr. Our compat semantics are
  the assert-off behavior (NOT subtree matches nothing); the scalable
  engine instead implements the documented intent AND(a, NOT(b)) = a∖b
  (see search.py).

``serialize()`` emits the reference wire format (protocol_query.h) so the
C++ conformance harness can decode our plans with Expr_AST unmodified.
"""

from __future__ import annotations

import functools
import hashlib
import mmap
import os.path
import struct
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from ..kernels import arrowbuf
from ..kernels.stemmer import stem
from ..kernels.textutils import url_decode
from ..state.sorted_strings import SortedStrings

SYM_PHRASE = "$"
STEP_TERM_ORIGINAL = 2  # protocol_query.h:30
STEP_TERM_SYNONYM = 1   # protocol_query.h:31


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass
class Word:
    term: str
    stem_: str = None  # type: ignore

    def __post_init__(self):
        if self.stem_ is None:
            self.stem_ = stem(self.term)


@dataclass
class Phrase:
    terms: list[str]
    stems: list[str] = None  # type: ignore

    def __post_init__(self):
        if self.stems is None:
            self.stems = [stem(t) for t in self.terms]


@dataclass
class And:
    left: object
    right: object


@dataclass
class Or:
    left: object
    right: object


@dataclass
class SynOr:
    left: object
    rest: object  # SynOr | None
    ratio_term: int
    ratio_rest: int
    size: int = field(default=1)


@dataclass
class Not:
    child: object


# ---------------------------------------------------------------------------
# tokenize (query.cpp:503-587)
# ---------------------------------------------------------------------------

def tokenize(query: str) -> list[str]:
    DEFAULT, ESCAPED, PHRASE = 0, 1, 2
    mode = DEFAULT
    tokens: list[str] = []
    curr: list[str] = []
    for c in query:
        if mode == PHRASE:
            if c == '"':
                tokens.append("".join(curr))
                mode = DEFAULT
                curr = []
            elif c in (">", "\\"):
                curr.append("\\")
                curr.append(c)
            else:
                curr.append(c)
        elif mode == ESCAPED:
            curr.append(c)
            mode = DEFAULT
        else:
            if c == '"':
                curr.append(SYM_PHRASE)
                mode = PHRASE
            elif c in "()&|-":
                if curr:
                    tokens.append("".join(curr))
                    curr = []
                tokens.append(c)
            elif c == " ":
                if curr:
                    tokens.append("".join(curr))
                    curr = []
            elif c == "\\":
                mode = ESCAPED
            elif c in (">", SYM_PHRASE):
                curr.append("\\")
                curr.append(c)
            else:
                curr.append(c)
    if curr:
        tokens.append("".join(curr))
    return tokens


# ---------------------------------------------------------------------------
# parse (query.cpp:590-653)
# ---------------------------------------------------------------------------

def _generate_leaf(token: str):
    if token and token[0] == SYM_PHRASE:
        terms = [t for t in token[1:].split(" ") if t]
        return Phrase(terms)
    return Word(token)


def _parse_term(tokens: list[str], idx: list[int]):
    if idx[0] >= len(tokens):
        return None
    token = tokens[idx[0]]
    if token == "-":
        idx[0] += 1
        if idx[0] >= len(tokens):
            return None
        right = _parse_term(tokens, idx)
        if right is None:
            return None
        return Not(right)
    if token == "(":
        idx[0] += 1
        expr = _parse_expression(tokens, idx)
        if idx[0] >= len(tokens) or tokens[idx[0]] != ")":
            return None
        idx[0] += 1
        return expr
    idx[0] += 1
    return _generate_leaf(token)


def _parse_expression(tokens: list[str], idx: list[int]):
    left = _parse_term(tokens, idx)
    while idx[0] < len(tokens):
        token = tokens[idx[0]]
        sym = token[0]
        if sym == "&":
            idx[0] += 1
            right = _parse_term(tokens, idx)
            left = And(left, right)
        elif sym == "|":
            idx[0] += 1
            right = _parse_term(tokens, idx)
            left = Or(left, right)
        elif token != ")":
            right = _parse_term(tokens, idx)  # implicit AND
            left = And(left, right)
        else:
            break
    return left


# ---------------------------------------------------------------------------
# optimize: decoration + synonyms (query.cpp:90-147,197-243,384-499)
# ---------------------------------------------------------------------------

def _decorated_word(w: Word, title_stem_fix: bool = False) -> Or:
    if title_stem_fix:
        # engine mode: title key is '@' + stem(term), matching the index
        # vocabulary (Indexer.hpp:355-357)
        return Or(Word("@" + w.term, "@" + w.stem_), w)
    # compat mode quirk: the new leaf stems '@'+raw term (query.cpp:91),
    # which usually differs from the index's '@'+stem key
    return Or(Word("@" + w.term), w)


def _generate_synonyms(w: Word, synsets,
                       title_stem_fix: bool = False) -> SynOr | None:
    syn_lists = synsets.get(w.stem_) if synsets else None
    if not syn_lists:
        return None
    stack: list[Word] = []
    for synset in syn_lists:
        for syn in synset:
            s = stem(syn)
            if s != w.stem_:
                stack.append(Word(syn, s))
    # helper_generate_synonyms (query.cpp:95-105) recurses after popping, so
    # the stack TOP becomes the OUTERMOST chain node: build innermost-first
    # by iterating in push order.
    rest = None
    for term in stack:
        node = SynOr(_decorated_word(term, title_stem_fix), rest,
                     1, rest.size if rest else 0)
        node.size = 1 + (rest.size if rest else 0)
        rest = node
    outer = SynOr(_decorated_word(w, title_stem_fix), rest,
                  STEP_TERM_ORIGINAL, STEP_TERM_SYNONYM)
    outer.size = 1 + (rest.size if rest else 0)
    return outer


def _decorated_phrase(p: Phrase) -> Or | None:
    terms_dec = ["@" + t for t in p.terms if t]
    stems_dec = ["@" + s for s in p.stems if s]
    if not stems_dec:
        return None
    return Or(Phrase(terms_dec, stems_dec), p)


def optimize(node, synsets, title_stem_fix: bool = False):
    if node is None:
        return None
    if isinstance(node, Word):
        if not node.stem_:
            return None
        replaced = _generate_synonyms(node, synsets, title_stem_fix)
        if replaced is not None:
            return replaced
        return _decorated_word(node, title_stem_fix)
    if isinstance(node, Phrase):
        if not node.terms:
            return None
        return _decorated_phrase(node)
    if isinstance(node, SynOr):
        return node  # pre-built, not re-optimized (query.cpp:455-458)
    if isinstance(node, Not):
        child = optimize(node.child, synsets, title_stem_fix)
        if child is None:
            return None
        node.child = child
        return node
    if isinstance(node, (And, Or)):
        left = optimize(node.left, synsets, title_stem_fix)
        right = optimize(node.right, synsets, title_stem_fix)
        if left is not None and right is not None:
            node.left, node.right = left, right
            return node
        return left if left is not None else right
    raise TypeError(type(node))


def compile_query(query: str, synsets=None, title_stem_fix: bool = False):
    """build_expr + optimize (query.cpp:655-664,775-779). Returns the
    optimized tree or None for an invalid/empty query. ``title_stem_fix``
    selects engine-mode title decoration (see _decorated_word)."""
    decoded = url_decode(query)
    tokens = tokenize(decoded)
    idx = [0]
    tree = _parse_expression(tokens, idx)
    return optimize(tree, synsets, title_stem_fix)


# ---------------------------------------------------------------------------
# wire serialization (query.cpp:149-176,245-280,338-382,460-482)
# ---------------------------------------------------------------------------

def serialize(node, out: bytearray | None = None, final: bool = True) -> bytes:
    """Reference wire format; decodable by the C++ Expr_AST unmodified."""
    if out is None:
        out = bytearray()
    _ser(node, out)
    if final:
        out += b"#"  # QUERY_END
    return bytes(out)


def _ser_escaped(s: str, out: bytearray) -> None:
    for ch in s.encode("utf-8"):
        out.append(ch)


def _ser(node, out: bytearray) -> None:
    if node is None:
        out += b">"  # null child → PHRASE_END marker (query.cpp:362-368)
        return
    if isinstance(node, Word):
        out += b"{"
        _ser_escaped(node.stem_, out)
        out += b">"
    elif isinstance(node, Phrase):
        out += b"<"
        _ser_escaped(" ".join(node.stems), out)
        out += b">"
    elif isinstance(node, And):
        out += b"&"
        _ser(node.left, out)
        _ser(node.right, out)
    elif isinstance(node, Or):
        out += b"|"
        _ser(node.left, out)
        _ser(node.right, out)
    elif isinstance(node, SynOr):
        out += b"/"
        _ser(node.left, out)
        _ser(node.rest, out)
        out += struct.pack("!I", node.ratio_term) + b";"
        out += struct.pack("!I", node.ratio_rest) + b";"
    elif isinstance(node, Not):
        out += b"-"
        _ser(node.child, out)
        out += b">"  # null right child
    else:
        raise TypeError(type(node))


# ---------------------------------------------------------------------------
# synsets (query/synsets.cpp:3-37)
# ---------------------------------------------------------------------------

def _parse_synset_line(line: str) -> list[str]:
    """One synsets.txt line → its words (empty for a blank line)."""
    synset = line.rstrip("\n").split(";")
    # C++ getline(iss, word, ';') drops the trailing empty field
    if synset and synset[-1] == "":
        synset.pop()
    return synset


def _read_synsets(path: str):
    """(line number, synset) for every non-empty line, in file order."""
    with open(path, encoding="utf-8") as f:
        for n, line in enumerate(f):
            synset = _parse_synset_line(line)
            if synset:
                yield n, synset


def load_synsets(path: str) -> dict[str, list[list[str]]]:
    """stem → [synset, ...] in file order, stemming every word of the
    file: the reference reader (synsets.cpp:3-37) that the pre-stemmed
    SynsetTable is generated from and tested against. The synsets file
    is WordNet-derived public data (reference recipe:
    query/dump_synsets.py); a copy is vendored in search_engine_ray/data/
    so the engine has no runtime dependency on the reference tree."""
    out: dict[str, list[list[str]]] = {}
    for _, synset in _read_synsets(path):
        for w in synset:
            out.setdefault(stem(w), []).append(synset)
    return out


_DATA_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")
DEFAULT_SYNSETS_PATH = os.path.join(_DATA_DIR, "synsets.txt")
DEFAULT_SYNSET_TABLE_PATH = os.path.join(_DATA_DIR, "synsets.stems.arrow")
_SHA_KEY = b"synsets_sha256"


def build_synset_table(txt_path: str) -> bytes:
    """The pre-stemmed form of ``load_synsets(txt_path)`` as an
    uncompressed Arrow IPC file: one row per stem, sorted in UTF-8 byte
    order, holding the line numbers of its synsets in file order
    (duplicates kept), with the text's sha256 in the schema metadata.
    Deterministic: the same text always yields the same bytes."""
    with open(txt_path, "rb") as f:
        raw = f.read()
    if b"\r" in raw:
        # SynsetTable finds line n by its '\n' byte offsets
        raise ValueError(f"{txt_path}: line endings must be '\\n' only")
    lines: dict[str, list[int]] = {}
    for n, synset in _read_synsets(txt_path):
        for w in synset:
            lines.setdefault(stem(w), []).append(n)
    stems = sorted(lines, key=str.encode)
    schema = pa.schema(
        [("stem", pa.string()), ("lines", pa.list_(pa.int32()))],
        metadata={_SHA_KEY: hashlib.sha256(raw).hexdigest().encode()})
    batch = pa.record_batch(
        [pa.array(stems, pa.string()),
         pa.array([lines[s] for s in stems], pa.list_(pa.int32()))],
        schema=schema)
    sink = pa.BufferOutputStream()
    with pa.ipc.new_file(sink, schema) as w:
        w.write_batch(batch)
    return sink.getvalue().to_pybytes()


class SynsetTable:
    """stem → [synset, ...] over the memory-mapped ``build_synset_table``
    file and synsets text: ``.get`` returns exactly what
    ``load_synsets(txt_path).get`` does (None for an absent stem), but
    opening it stems nothing and reads no rows. Raises when the text no
    longer matches the table it was generated from."""

    def __init__(self, table_path: str, txt_path: str):
        with open(txt_path, "rb") as f:
            self._text = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        reader = pa.ipc.open_file(pa.memory_map(table_path))
        want = reader.schema.metadata[_SHA_KEY].decode()
        if hashlib.sha256(self._text).hexdigest() != want:
            raise ValueError(
                f"{txt_path} does not match the synset table "
                f"{table_path} generated from it; regenerate the table "
                "with `python scripts/gen_synset_table.py`")
        batch = reader.get_batch(0)
        self._stems = SortedStrings(batch.column(0))
        lines = batch.column(1)
        # memoryviews: their items index as Python ints
        self._line_offs = memoryview(arrowbuf.view(lines.offsets, np.int32))
        self._line_nos = memoryview(arrowbuf.view(lines.values, np.int32))
        # line n is text[starts[n]:starts[n + 1]]
        nl = np.flatnonzero(np.frombuffer(self._text, dtype=np.uint8)
                            == ord("\n"))
        self._line_starts = memoryview(np.r_[0, nl + 1, len(self._text)])

    def __len__(self) -> int:
        return len(self._stems)

    def get(self, stem_: str) -> list[list[str]] | None:
        i = self._stems.find(stem_.encode())
        if i is None:
            return None
        starts, text = self._line_starts, self._text
        return [_parse_synset_line(text[starts[n]:starts[n + 1]].decode())
                for n in self._line_nos[self._line_offs[i]:
                                        self._line_offs[i + 1]]]


@functools.cache
def get_default_synsets() -> SynsetTable:
    """The vendored WordNet synonyms, opened once per process."""
    return SynsetTable(DEFAULT_SYNSET_TABLE_PATH, DEFAULT_SYNSETS_PATH)
