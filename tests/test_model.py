import pytest

import solk.model
from solk.model import (
    Dart,
    EdgePath,
    Graph,
    ParseError,
    Presentation,
    abelianization,
    parse_presentation,
    serialize_presentation,
    substitution_power,
    validate,
)

from helpers import (
    AABAB_TEXT,
    FIBONACCI_TEXT,
    aabab,
    count_calls,
    fibonacci,
    n_solenoid,
    n_solenoid_text,
    random_valid_presentations,
)


def test_parse_aabab():
    p = aabab()
    assert p.graph.vertices == ("p",)
    assert p.graph.edge_names() == ("a", "b")
    assert [d.edge for d in p.edge_map["a"].darts] == ["a", "a", "b"]
    assert [d.edge for d in p.edge_map["b"].darts] == ["a", "b"]
    assert all(d.forward for d in p.edge_map["a"].darts)
    assert p.vertex_map == {"p": "p"}


def test_parse_n_solenoid():
    p = n_solenoid(2)
    assert [d.edge for d in p.edge_map["a"].darts] == ["a", "a"]


def test_parse_comments_blank_lines_and_vmap():
    text = """# a comment
solenoid v1

vertex p   # trailing comment
edge a p p
map a -> a a
vmap p -> p
"""
    p = parse_presentation(text)
    assert p.vertex_map == {"p": "p"}


def test_parse_errors():
    with pytest.raises(ParseError, match="unknown edge 'c'"):
        parse_presentation("solenoid v1\nvertex p\nedge a p p\nmap a -> a c\n")
    with pytest.raises(ParseError, match="header"):
        parse_presentation("vertex p\n")
    with pytest.raises(ParseError, match="duplicate vertex"):
        parse_presentation("solenoid v1\nvertex p\nvertex p\n")
    with pytest.raises(ParseError, match="duplicate edge"):
        parse_presentation("solenoid v1\nvertex p\nedge a p p\nedge a p p\n")
    with pytest.raises(ParseError, match="unknown vertex"):
        parse_presentation("solenoid v1\nvertex p\nedge a p q\n")
    with pytest.raises(ParseError, match="duplicate map"):
        parse_presentation("solenoid v1\nvertex p\nedge a p p\nmap a -> a\nmap a -> a a\n")
    with pytest.raises(ParseError, match="no image path"):
        parse_presentation("solenoid v1\nvertex p\nedge a p p\n")
    with pytest.raises(ParseError, match="isolated vertex"):
        parse_presentation("solenoid v1\nvertex p\nvertex q\nedge a p p\nmap a -> a a\n")
    with pytest.raises(ParseError, match="malformed|expected"):
        parse_presentation("solenoid v1\nvertex\n")


@pytest.mark.parametrize(
    "declaration, reason",
    [
        ("edge b|c p p", "edge name 'b|c' contains '|'"),
        ("edge ~b p p", "edge name '~b' contains '|' or starts with '~'"),
        ("vertex q@r", "vertex name 'q@r' contains '@'"),
    ],
)
def test_names_that_make_class_labels_ambiguous_are_rejected(declaration, reason):
    # A class is labelled in|out@vertex and ~ marks a reversed dart.
    text = f"solenoid v1\nvertex p\nedge a p p\n{declaration}\nmap a -> a a\n"
    with pytest.raises(ParseError, match=reason) as exc:
        parse_presentation(text)
    assert exc.value.line_no == 4


def test_names_with_label_characters_elsewhere_parse():
    text = "solenoid v1\nvertex p~|\nedge a@~ p~| p~|\nedge b~ p~| p~|\nmap a@~ -> a@~ b~\nmap b~ -> a@~ b~\n"
    p = parse_presentation(text)
    assert p.graph.edge_names() == ("a@~", "b~")


def test_parse_discontinuous_path():
    text = """solenoid v1
vertex u
vertex v
edge a u v
edge b u v
map a -> a b
map b -> a b
"""
    with pytest.raises(ParseError, match="discontinuous"):
        parse_presentation(text)


def test_parse_error_carries_line_number():
    try:
        parse_presentation("solenoid v1\nvertex p\nedge a p p\nmap a -> a c\n")
    except ParseError as exc:
        assert exc.line_no == 4
    else:
        raise AssertionError("expected ParseError")


def test_reversed_dart_parses_but_fails_validation():
    p = parse_presentation("solenoid v1\nvertex p\nedge a p p\nmap a -> a ~a\n")
    assert not p.edge_map["a"].darts[1].forward
    report = validate(p)
    assert not report.ok
    assert any(f.code == "orientation" for f in report.errors())


def test_validate_aabab_clean():
    report = validate(aabab())
    assert report.ok
    assert report.findings == ()


def test_validate_identity_substitution_is_homeomorphism():
    p = parse_presentation("solenoid v1\nvertex p\nedge a p p\nmap a -> a\n")
    report = validate(p)
    assert any(f.code == "homeomorphism" for f in report.errors())


def test_validate_edge_swap_is_homeomorphism():
    p = parse_presentation(
        "solenoid v1\nvertex p\nedge a p p\nedge b p p\nmap a -> b\nmap b -> a\n"
    )
    report = validate(p)
    assert any(f.code == "homeomorphism" for f in report.errors())


def test_validate_fibonacci_clean():
    report = validate(fibonacci())
    assert report.ok and not report.warnings()
    m = abelianization(fibonacci())
    sq = m @ m
    cube = sq @ m
    assert all(x > 0 for row in cube.to_rows() for x in row)


def test_validate_non_primitive_warns():
    p = parse_presentation(
        "solenoid v1\nvertex p\nedge a p p\nedge b p p\nmap a -> a a\nmap b -> b b\n"
    )
    report = validate(p)
    assert report.ok
    assert any(f.code == "not-primitive" for f in report.warnings())


def test_validate_never_expanding_edge():
    # b maps to itself forever while a expands.
    p = parse_presentation(
        "solenoid v1\nvertex p\nedge a p p\nedge b p p\nmap a -> a b a\nmap b -> b\n"
    )
    report = validate(p)
    assert any(f.code == "not-expanding" for f in report.errors())


def test_validate_endpoint_mismatch():
    # Hand-built: vertex map disagrees with the image-path endpoints.
    g = parse_presentation(
        "solenoid v1\nvertex u\nvertex v\nedge a u u\nedge b u v\nmap a -> a a\nmap b -> a b\n"
    )
    bad = Presentation(graph=g.graph, edge_map=g.edge_map, vertex_map={"u": "v", "v": "v"})
    report = validate(bad)
    assert any(f.code == "endpoints" for f in report.errors())


def test_explicit_vmap_conflicting_with_images_fails_validation():
    text = """solenoid v1
vertex u
vertex v
edge a u u
edge b u v
edge c v u
map a -> a a
map b -> a b
map c -> c a
vmap u -> u
vmap v -> u
"""
    p = parse_presentation(text)
    report = validate(p)
    assert any(f.code == "endpoints" for f in report.errors())


def test_abelianization_examples():
    assert abelianization(aabab()).to_rows() == [[2, 1], [1, 1]]
    assert abelianization(n_solenoid(3)).to_rows() == [[3]]
    assert abelianization(fibonacci()).to_rows() == [[1, 1], [1, 0]]


def test_serialize_round_trip():
    for text in (AABAB_TEXT, FIBONACCI_TEXT, n_solenoid_text(4)):
        p = parse_presentation(text)
        assert parse_presentation(serialize_presentation(p)) == p


def test_serialize_round_trip_random():
    for p in random_valid_presentations(seed=77, count=15):
        assert parse_presentation(serialize_presentation(p)) == p


def test_substitution_power_abelianization():
    ps = [aabab(), fibonacci()] + random_valid_presentations(seed=11, count=10)
    for p in ps:
        m = abelianization(p)
        for k in (1, 2, 3):
            assert abelianization(substitution_power(p, k)) == m.power(k)


def test_substitution_power_endpoints_stay_valid():
    for p in [aabab(), fibonacci()]:
        q = substitution_power(p, 3)
        assert validate(q).ok


def test_inferred_vertex_map_is_endpoint_compatible():
    for p in random_valid_presentations(seed=40, count=20):
        graph = p.graph
        for e in graph.edges:
            path = p.edge_map[e.name]
            assert path.start(graph) == p.vertex_map[e.source]
            assert path.end(graph) == p.vertex_map[e.target]


def test_graph_rejects_bad_structure():
    with pytest.raises(ValueError):
        Graph(("p", "p"), ())
    with pytest.raises(ValueError):
        EdgePath(())
    d = Dart("a")
    assert str(d.reversed()) == "~a"


def test_parser_fuzz_only_raises_parse_error():
    import random

    rng = random.Random(8686)
    tokens = ["solenoid", "v1", "vertex", "edge", "map", "vmap", "->", "p", "q",
              "a", "b", "~a", "#x", ""]
    for _ in range(400):
        lines = ["solenoid v1"] if rng.random() < 0.7 else []
        for _ in range(rng.randint(0, 8)):
            lines.append(" ".join(rng.choice(tokens) for _ in range(rng.randint(0, 6))))
        try:
            parse_presentation("\n".join(lines))
        except ParseError:
            pass  # the only acceptable failure mode


def test_graph_name_index_is_not_part_of_equality_or_repr():
    from solk.model import Edge

    edges = (Edge("a", "p", "p"), Edge("b", "p", "q"))
    g, h = Graph(("p", "q"), edges), Graph(("p", "q"), edges)
    assert g == h and hash(g) == hash(h)
    assert repr(g) == "Graph(vertices=('p', 'q'), edges=" + repr(edges) + ")"
    assert g.edge("b") is edges[1]
    with pytest.raises(KeyError):
        g.edge("c")


def test_graph_index_numbers_the_edges_in_declaration_order():
    names = ["z", "a", "m", "b"]
    text = "solenoid v1\nvertex p\n" + "".join(f"edge {e} p p\n" for e in names)
    text += "".join(f"map {e} -> {e} {e}\n" for e in names)
    graph = parse_presentation(text).graph
    assert list(graph.index.items()) == [("z", 0), ("a", 1), ("m", 2), ("b", 3)]
    assert [graph.edge(e) for e in names] == list(graph.edges)
    with pytest.raises(TypeError):
        graph.index["c"] = 4


def test_presentation_maps_are_read_only():
    edge_map = dict(aabab().edge_map)
    p = Presentation(graph=aabab().graph, edge_map=edge_map, vertex_map={"p": "p"})
    edge_map["a"] = edge_map["b"]  # the caller's dict is copied, not shared
    assert p == aabab()
    with pytest.raises(TypeError):
        p.edge_map["a"] = p.edge_map["b"]
    with pytest.raises(TypeError):
        p.vertex_map["p"] = "q"


def test_parse_builds_the_graph_once(monkeypatch):
    import solk.model

    built = []

    class CountingGraph(Graph):
        def __new__(cls, vertices, edges):
            built.append(len(edges))
            return super().__new__(cls, vertices, edges)

    monkeypatch.setattr(solk.model, "Graph", CountingGraph)
    names = [f"e{i}" for i in range(12)]
    text = "solenoid v1\nvertex p\n" + "".join(f"edge {e} p p\n" for e in names)
    text += "".join(f"map {e} -> {e} {e}\n" for e in names)
    p = parse_presentation(text)
    assert built == [12]
    assert p.graph.edge_names() == tuple(names)


def test_parse_interleaved_edges_and_maps():
    text = """solenoid v1
vertex p
edge a p p
map a -> a a
edge b p p
map b -> b a
"""
    p = parse_presentation(text)
    assert p.graph.edge_names() == ("a", "b")
    assert str(p.edge_map["a"]) == "a a" and str(p.edge_map["b"]) == "b a"
    bad = text.replace("map b -> b a", "vertex q\nedge c q q\nmap b -> b c")
    with pytest.raises(ParseError, match="discontinuous"):
        parse_presentation(bad)


def test_validate_builds_no_occurrence_matrix(monkeypatch):
    calls = count_calls(monkeypatch, solk.model, "abelianization")
    imprimitive = "solenoid v1\nvertex p\nedge a p p\nedge b p p\nmap a -> b b\nmap b -> a a\n"
    stuck = "solenoid v1\nvertex p\nedge a p p\nedge b p p\nmap a -> a b\nmap b -> b\n"
    assert validate(aabab()).findings == ()
    assert [f.code for f in validate(parse_presentation(imprimitive)).findings] == [
        "not-primitive"
    ]
    assert "not-expanding" in [f.code for f in validate(parse_presentation(stuck)).findings]
    assert calls == {"abelianization": 0}
