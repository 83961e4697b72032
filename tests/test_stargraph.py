import random
import re
import zlib
from pathlib import Path

import pytest

import starweight
from expansions import expansions_upto
from starweight.scenario import parse_scenario
from starweight.stargraph import (
    GraphError,
    Traversal,
    build_star_graph,
    canonical_atom_cycle,
    export_dot,
    path_atoms,
    path_label,
    vertex_name,
)
from starweight.weights import (
    DegenerateZeroCycleError,
    EntangledZeroSubgraphError,
    WeightFunction,
    canonical_atom_edge_cycle,
    enumerate_light_cycles,
)
from oracle_words import least_rotation
from starweight.words import Word, decode, encode, word_from_tokens

CORPUS = Path(starweight.__file__).parent / "corpus"


def graph_of(text):
    return build_star_graph(parse_scenario(text).presentation)


SEC3_1111 = """\
factor A noncyclic nontrivial
gens A: a1 a2 a3 a4
indet: t
relator: a1 t a2 t a3 t a4 t
"""

SEC3_2111 = """\
factor A noncyclic nontrivial
gens A: a1 a2 a3 a4
indet: t
relator: a1 t^2 a2 t a3 t a4 t
"""

PX = """\
factor A noncyclic nontrivial
factor B noncyclic nontrivial
gens A: a1 a2 a3 a4
gens B: b1 b2 b3 b4
indet: X
relator: a1 X b1 X^-1 a2 X b2 X^-1 a3 X b3 X^-1 a4 X b4 X^-1
"""


def test_sec3_graph_shape():
    g = graph_of(SEC3_1111)
    assert [vertex_name(v) for v in g.vertices] == ["t", "t^-1"]
    assert len(g.edges) == 4
    assert sorted(e.label_str() for e in g.edges) == ["a1", "a2", "a3", "a4"]
    for e in g.edges:
        assert {vertex_name(e.src), vertex_name(e.dst)} == {"t", "t^-1"}


def test_sec3_identity_edge():
    g = graph_of(SEC3_2111)
    assert len(g.edges) == 5
    labels = sorted(e.label_str() for e in g.edges)
    assert labels == ["1", "a1", "a2", "a3", "a4"]
    identity = [e for e in g.edges if not e.label][0]
    assert identity.factor == "A"


def test_px_two_bouquets():
    g = graph_of(PX)
    assert len(g.edges) == 8
    assert all(e.is_loop for e in g.edges)
    at_x = sorted(e.label_str() for e in g.edges if vertex_name(e.src) == "X")
    at_xinv = sorted(e.label_str() for e in g.edges if vertex_name(e.src) == "X^-1")
    assert at_x == ["b1", "b2", "b3", "b4"]
    assert at_xinv == ["a1", "a2", "a3", "a4"]


def test_edge_count_equals_indeterminate_letters():
    g = graph_of(SEC3_2111)
    rel = parse_scenario(SEC3_2111).presentation.relators[0]
    indet_letters = sum(abs(e) for n, e in rel.letters if n == "t")
    assert len(g.edges) == indet_letters


def test_endpoint_count():
    g = graph_of(PX)
    total = sum(len(g.incident(v)) for v in g.vertices)
    assert total == 2 * len(g.edges)


def test_rotation_invariance():
    base = graph_of(SEC3_2111)
    rotated = graph_of(SEC3_2111.replace("relator: a1 t^2 a2 t a3 t a4 t",
                                         "relator: a3 t a4 t a1 t^2 a2 t"))

    def edge_multiset(g):
        return sorted(
            (vertex_name(e.src), vertex_name(e.dst), e.label_str(), e.factor) for e in g.edges
        )

    assert edge_multiset(base) == edge_multiset(rotated)


def test_no_corners_error():
    with pytest.raises(GraphError):
        graph_of("factor A\ngens A: a1 a2\nindet: t\nrelator: a1 a2\n")


def test_resolve_alias():
    g = graph_of(SEC3_2111)
    e = g.resolve("label:a3")
    assert e.label == word_from_tokens(["a3"])
    assert g.resolve(e.edge_id) is e
    assert g.resolve("label:1#0").label == Word()


def test_resolve_rejects_an_alias_whose_edges_carry_different_labels():
    # edges 0.0 (ab) and 0.2 (a b) both compact to "ab": no index picks one
    g = graph_of(
        "factor A noncyclic nontrivial\ngens A: a b ab c\nindet: t\nrelator: a b t ab t c t\n"
    )
    for key in ("label:ab", "label:ab#0", "label:ab#1", "ab#0"):
        with pytest.raises(GraphError, match=r"ambiguous edge alias .*\['0\.0', '0\.2'\]"):
            g.resolve(key)
    assert g.resolve("label:c").edge_id == "0.1"
    assert g.resolve("0.2").label == Word([("a", 1), ("b", 1)])
    # over equal labels an index still picks one edge, and a bare alias none
    g = graph_of("factor A noncyclic nontrivial\ngens A: a c\nindet: t\nrelator: a t a t c t\n")
    assert [g.resolve(f"label:a#{k}").edge_id for k in (0, 1)] == ["0.0", "0.2"]
    with pytest.raises(GraphError, match=r"candidates \['0\.0', '0\.2'\]"):
        g.resolve("label:a")


# a1 labels edges 0.0 and 0.2, so int() read "#-1" as 0.2 and "#-2" as 0.0
REPEATED_A1 = "factor A noncyclic nontrivial\ngens A: a1 a2\nindet: t\nrelator: a1 t a1 t a2 t\n"


@pytest.mark.parametrize("k", ["-1", "-2", "+1", "1_0", " 1", "", "2"])
def test_resolve_rejects_an_alias_index_that_is_not_a_digit_string_in_range(k):
    g = graph_of(REPEATED_A1)
    assert [g.resolve(f"label:a1#{i}").edge_id for i in (0, 1)] == ["0.0", "0.2"]
    with pytest.raises(GraphError, match=f"^no edge 'label:a1#{re.escape(k)}'$"):
        g.resolve(f"label:a1#{k}")


def test_dot_export_stable():
    g = graph_of(SEC3_1111)
    dot = export_dot(g)
    assert dot == export_dot(g)
    assert dot.startswith("digraph stargraph {")
    assert '"t^-1"' in dot and 'label="a1"' in dot


def test_gamma8_shape():
    text = """\
factor A noncyclic nontrivial
factor B noncyclic nontrivial
gens A: a1 a3
gens B: b1 b2 b3
indet: X Y
relator: Y^-1 X a1^-1 X^-1 b2 X a3 X^-1
relator: b1 Y b3 Y^-1
"""
    g = graph_of(text)
    assert len(g.edges) == 7
    loops = sorted(e.label_str() for e in g.edges if e.is_loop)
    assert loops == ["a1^-1", "a3", "b1", "b2", "b3"]
    nonloops = [e for e in g.edges if not e.is_loop]
    assert sorted(e.label_str() for e in nonloops) == ["1", "1"]


def _corpus_graphs():
    for path in sorted(CORPUS.glob("*.scn")):
        s = parse_scenario(path.read_text(), name=path.stem)
        yield s, build_star_graph(s.presentation)


def _reference_incident(g, v):
    out = []
    for e in g.edges:
        if e.src == v:
            out.append(Traversal(e, +1))
        if e.dst == v:
            out.append(Traversal(e, -1))
    return out


def test_incident_is_the_edge_scan_as_a_tuple():
    for s, g in _corpus_graphs():
        for v in g.vertices + [("nowhere", 1)]:
            got = g.incident(v)
            assert isinstance(got, tuple) and list(got) == _reference_incident(g, v), s.name
            assert g.incident(v) is got  # built once


def _reference_path_label(traversals):
    """The left fold of full-merge products that path_label replaced."""
    w = Word()
    for t in traversals:
        letters = t.edge.label.letters
        if t.direction < 0:
            letters = tuple((n, -e) for n, e in reversed(letters))
        w = Word(w.letters + letters)
    return w


def test_path_label_matches_left_fold_on_corpus_family_expansions():
    checked = 0
    for s, g in _corpus_graphs():
        if not s.weights:
            continue
        try:
            fams = enumerate_light_cycles(g, WeightFunction.from_scenario(s, g))
        except (EntangledZeroSubgraphError, DegenerateZeroCycleError):
            continue
        for f in fams:
            for path in expansions_upto(f, 3):
                want = _reference_path_label(path)
                assert decode(path_label(path), s.presentation.symbol_order) == want, (s.name, path)
                assert path_label(path) == encode(want, s.presentation.code), (s.name, path)
                checked += 1
    assert checked > 1000


def _reference_canonical_atom_cycle(traversals):
    """``canonical_atom_cycle`` before it searched the cached atoms, verbatim."""
    return least_rotation(path_atoms(traversals), lambda a: (a[0], a[1] < 0), inverse=True)


def _reference_canonical_atom_edge_cycle(path):
    """``canonical_atom_edge_cycle`` before it searched the cached pairs, verbatim."""
    return least_rotation([(t.edge.edge_id, t.direction) for t in path], inverse=True)


COLLIDING = """\
factor A noncyclic nontrivial
gens A: a b ab c
indet: t
relator: a b t ab t c t a t a t
"""


def test_canonical_cycles_match_the_keyed_rotation_they_replace():
    # random paths over each graph's traversals, a third of them powers, so
    # that equal labels on different edges and periodic sequences tie
    rng = random.Random(zlib.crc32(b"canonical cycles"))
    graphs = [g for _, g in _corpus_graphs()] + [graph_of(COLLIDING)]
    checked = ties = 0
    for g in graphs:
        steps = [t for v in g.vertices for t in g.incident(v)]
        for _ in range(60):
            path = tuple(rng.choice(steps) for _ in range(rng.randint(1, 6)))
            if rng.random() < 0.3:
                path *= rng.randint(2, 3)
            want = _reference_canonical_atom_cycle(path)
            assert canonical_atom_cycle(path) == want, path
            assert canonical_atom_cycle(iter(path)) == want
            assert canonical_atom_edge_cycle(path) == _reference_canonical_atom_edge_cycle(path)
            ties += len(set(want)) < len(want)
            checked += 1
    assert canonical_atom_cycle(()) == () == canonical_atom_edge_cycle(())
    assert checked > 3000 and ties > 1000
