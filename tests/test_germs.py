import os
import pathlib
import pickle
import subprocess
import sys
from collections import Counter

import pytest

import solk
import solk.germs
import solk.model
from solk.germs import (
    DegreeNotConstant,
    GermClass,
    QuotientModel,
    UnreachableVertex,
    interior_preimages,
    is_quotient_hausdorff,
    junction_germs,
    occurring_classes,
    quotient_summary,
)
from solk.ktheory import with_class_order
from solk.model import Dart, parse_presentation

from helpers import (
    DOUBLING_TEXT,
    THUE_MORSE_TEXT,
    TWO_VERTEX_TEXT,
    aabab,
    closure_stress_text,
    count_calls,
    fibonacci,
    n_solenoid,
    random_valid_presentations,
    wedge_text,
)
from oracles import gtilde_on_class


def pairs(classes):
    return {(c.in_edge, c.out_edge) for c in classes}


def germ(vertex, i, o):
    return GermClass(vertex=vertex, in_edge=i, out_edge=o)


def test_junction_germs_aabab():
    assert pairs(junction_germs(aabab())) == {("a", "a"), ("a", "b")}


def test_junction_germs_n_solenoid():
    assert pairs(junction_germs(n_solenoid(2))) == {("a", "a")}


def test_junction_germs_fibonacci():
    assert pairs(junction_germs(fibonacci())) == {("a", "b")}


def test_gtilde_aabab_all_to_ba():
    p = aabab()
    for i, o in [("b", "a"), ("a", "a"), ("a", "b")]:
        img = gtilde_on_class(p, germ("p", i, o))
        assert (img.in_edge, img.out_edge) == ("b", "a")


def test_gtilde_fibonacci():
    img = gtilde_on_class(fibonacci(), germ("p", "a", "b"))
    assert (img.in_edge, img.out_edge) == ("b", "a")


def test_occurring_classes_aabab():
    model = occurring_classes(aabab())
    assert pairs(model.classes) == {("b", "a"), ("a", "b"), ("a", "a")}
    assert ("b", "b") not in pairs(model.classes)


def test_occurring_classes_n_solenoid():
    model = occurring_classes(n_solenoid(3))
    assert pairs(model.classes) == {("a", "a")}


def test_occurring_classes_fibonacci():
    # Closure: ab -> ba -> aa -> ba, with {ba, aa} the cycle.
    model = occurring_classes(fibonacci())
    assert pairs(model.classes) == {("a", "b"), ("b", "a"), ("a", "a")}


def test_occurring_classes_thue_morse_all_two_blocks():
    model = occurring_classes(parse_presentation(THUE_MORSE_TEXT))
    assert pairs(model.classes) == {("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}


def test_interior_preimages_aabab():
    p = aabab()
    assert interior_preimages(p, germ("p", "a", "a")) == (("a", 1),)
    assert interior_preimages(p, germ("p", "a", "b")) == (("a", 2), ("b", 1))
    assert interior_preimages(p, germ("p", "b", "a")) == ()
    with pytest.raises(ValueError, match=r"class b\|b@p does not occur"):
        interior_preimages(p, germ("p", "b", "b"))


def test_hausdorff_aabab_with_witness():
    ok, witness = is_quotient_hausdorff(aabab())
    assert not ok
    a, b = witness
    assert a != b
    assert a.in_edge == b.in_edge or a.out_edge == b.out_edge


def test_hausdorff_n_solenoid():
    ok, witness = is_quotient_hausdorff(n_solenoid(2))
    assert ok and witness is None


def test_hausdorff_doubling_presentation():
    # g(a) = ab, g(b) = ab: classes {ab, ba}, disjoint dart roles.
    p = parse_presentation(DOUBLING_TEXT)
    model = occurring_classes(p)
    assert pairs(model.classes) == {("a", "b"), ("b", "a")}
    ok, _ = is_quotient_hausdorff(p)
    assert ok


def test_hausdorff_thue_morse_false():
    ok, _ = is_quotient_hausdorff(parse_presentation(THUE_MORSE_TEXT))
    assert not ok


def test_summary_n_solenoids():
    for n in (2, 3):
        s = quotient_summary(n_solenoid(n))
        assert s.hausdorff and s.connected
        assert s.degree == n
        assert s.nuclear_dimension_bound == 1


def test_summary_aabab():
    s = quotient_summary(aabab())
    assert not s.hausdorff
    assert s.connected
    assert s.degree is None
    assert Counter(c.vertex for c in s.model.classes) == {"p": 3}


def test_summary_two_vertex_cover():
    s = quotient_summary(parse_presentation(TWO_VERTEX_TEXT))
    assert s.hausdorff and s.connected and s.degree == 3
    assert Counter(c.vertex for c in s.model.classes) == {"u": 1, "v": 1}


def test_unreachable_vertex():
    text = """solenoid v1
vertex p
vertex q
edge a p p
map a -> a a
vmap p -> p
vmap q -> q
"""
    p = parse_presentation(text)
    with pytest.raises(UnreachableVertex, match="'q'"):
        occurring_classes(p)


def corpus():
    return [
        aabab(),
        fibonacci(),
        n_solenoid(2),
        n_solenoid(5),
        parse_presentation(DOUBLING_TEXT),
        parse_presentation(THUE_MORSE_TEXT),
        parse_presentation(TWO_VERTEX_TEXT),
    ] + random_valid_presentations(seed=2024, count=30)


def test_model_tables_are_read_only():
    m = occurring_classes(aabab())
    names = ("gtilde", "interior_preimage_table", "preimage_counts", "arcs", "edge_components")
    for model in (m, with_class_order(m, "paper")):
        for name in names:
            table = getattr(model, name)
            assert isinstance(table, tuple)
            with pytest.raises(TypeError):
                table[0] = table[0]
    # Reordering permutes the per-class tables and shares the per-edge one.
    paper = with_class_order(m, "paper")
    assert paper.preimage_counts == m.preimage_counts[::-1] and paper.arcs == m.arcs[::-1]
    assert with_class_order(m, "paper").edge_components is m.edge_components
    # The model keeps its own copy of the tables it is given.
    gtilde, table = list(m.gtilde), list(m.interior_preimage_table)
    own = QuotientModel(m.classes, m.edge_points, gtilde, table)
    gtilde.clear()
    table[0] = (("x", 9),)
    assert own == m
    assert own.preimage_counts == m.preimage_counts
    assert own.arcs == m.arcs
    assert own.edge_components == m.edge_components


def test_germ_class_and_dart_hash_contract():
    a = GermClass("p", "a", "b")
    b = GermClass(vertex="p", in_edge="a", out_edge="b")
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1 and len({a, b}) == 1
    assert a != GermClass("p", "b", "a")
    assert Dart("a") == Dart("a", True) and hash(Dart("a")) == hash(Dart("a", True))
    assert {Dart("a"): 1}[Dart("a")] == 1 and Dart("a") != Dart("a", False)
    assert repr(a) == "GermClass(vertex='p', in_edge='a', out_edge='b')"
    assert a.label() == "a|b@p"
    assert GermClass._fields == ("vertex", "in_edge", "out_edge")
    for obj, name in ((a, "vertex"), (a, "in_edge"), (a, "out_edge"), (Dart("a"), "edge")):
        with pytest.raises(AttributeError):
            setattr(obj, name, "x")
    # The field order is the class order: vertex, then in edge, then out edge.
    assert GermClass("p", "b", "a") < GermClass("q", "a", "a")
    assert GermClass("p", "a", "b") < GermClass("p", "b", "a") < GermClass("p", "b", "b")
    assert not a < b and a <= b


def test_germ_class_pickled_under_another_hash_seed_is_the_same_key():
    # A class written by a process with another string-hash seed must hash
    # like its equal here, or it would miss it in every dict.
    code = (
        "import pickle, sys; from solk.germs import GermClass; "
        "sys.stdout.buffer.write(pickle.dumps(GermClass('p', 'a', 'b')))"
    )
    src = str(pathlib.Path(solk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": "1", "PYTHONPATH": src}
    blob = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
    g = pickle.loads(blob.stdout)
    assert {GermClass("p", "a", "b"): 1}[g] == 1


@pytest.mark.parametrize(
    "text", [closure_stress_text(15), wedge_text(18)], ids=["closure_stress_15", "wedge_18"]
)
def test_closure_builds_one_germ_class_per_occurring_class(monkeypatch, text):
    p = parse_presentation(text)
    calls = count_calls(monkeypatch, solk.germs, "GermClass")
    model = occurring_classes(p)
    assert calls == {"GermClass": len(model.classes)}


@pytest.mark.parametrize(
    "images, edge, dart",
    [(("a b ~b ~b", "a b"), "a", "~b"), (("a a b", "~a ~b"), "b", "~a")],
)
def test_orientation_reversing_image_is_named(images, edge, dart):
    text = "solenoid v1\nvertex p\nedge a p p\nedge b p p\n"
    text += f"map a -> {images[0]}\nmap b -> {images[1]}\n"
    p = parse_presentation(text)
    message = f"reversed dart {dart} in the image of '{edge}'"
    for f in (occurring_classes, quotient_summary):
        with pytest.raises(ValueError, match=message):
            f(p)
    with pytest.raises(ValueError, match=f"reversed dart {dart}"):
        junction_germs(p)


def test_closure_is_fixed_point():
    for p in corpus():
        model = occurring_classes(p)
        class_set = set(model.classes)
        for c, j in zip(model.classes, model.gtilde):
            assert 0 <= j < len(model.classes) and model.classes[j] == gtilde_on_class(p, c)
        for g in junction_germs(p):
            assert g in class_set


def test_closure_idempotent():
    for p in corpus():
        assert occurring_classes(p).classes == occurring_classes(p).classes


def test_gtilde_surjective_on_classes():
    for p in corpus():
        model = occurring_classes(p)
        assert len(model.preimage_counts) == len(model.classes)
        for n in model.preimage_counts:
            assert n >= 1


def test_junction_count_identity():
    for p in corpus():
        model = occurring_classes(p)
        total = sum(len(v) for v in model.interior_preimage_table)
        assert total == sum(len(p.edge_map[e]) - 1 for e in p.graph.edge_names())


def test_class_count_bounded_by_dart_degrees():
    for p in corpus():
        model = occurring_classes(p)
        for v in p.graph.vertices:
            indeg = sum(1 for e in p.graph.edges if e.target == v)
            outdeg = sum(1 for e in p.graph.edges if e.source == v)
            count = sum(1 for c in model.classes if c.vertex == v)
            assert count <= indeg * outdeg


def test_hausdorff_connected_implies_constant_degree():
    for p in corpus():
        s = quotient_summary(p)  # raises DegreeNotConstant on violation
        if s.hausdorff and s.connected:
            assert s.degree is not None and s.degree >= 2


def test_degree_not_constant_lists_every_count_and_labels_only_then(monkeypatch):
    # Two vertices, the identity map: each class and each edge has one preimage.
    text = "solenoid v1\nvertex p\nvertex q\nedge b q p\nedge a p q\nmap b -> b\nmap a -> a\n"
    message = (
        "expected one constant preimage count n >= 2, got [('class a|b@q', 1), "
        "('class b|a@p', 1), ('edge a', 1), ('edge b', 1)]"
    )
    with pytest.raises(DegreeNotConstant) as info:
        quotient_summary(parse_presentation(text))
    assert str(info.value) == message
    # A constant degree is read off the counts without labelling a class.
    monkeypatch.setattr(GermClass, "label", lambda c: pytest.fail("labelled a class"))
    assert quotient_summary(n_solenoid(3)).degree == 3


def test_occurring_classes_invariant_under_substitution_powers():
    # The occurring two-sided germs describe the expanded line itself, so
    # presenting the same line by an iterate of the substitution must not
    # change them.
    from solk.model import substitution_power

    for p in corpus():
        base = occurring_classes(p).classes
        for k in (2, 3):
            assert occurring_classes(substitution_power(p, k)).classes == base


def test_stress_presentation_at_scale():
    # Every one of the n^2 germs occurs.  All offsets of the family are odd,
    # so every cycle of the occurrence matrix has even length when n is
    # even: n = 50 is imprimitive (period 2) and n = 51 is primitive.
    from solk.model import validate

    from helpers import closure_stress_text

    for n, findings in ((50, ["not-primitive"]), (51, [])):
        p = parse_presentation(closure_stress_text(n))
        report = validate(p)
        assert report.ok
        assert [f.code for f in report.findings] == findings
        s = quotient_summary(p)
        assert len(s.model.classes) == n * n
        assert Counter(c.vertex for c in s.model.classes) == {"p": n * n}


def test_summary_degree_check_builds_no_occurrence_matrix(monkeypatch):
    calls = count_calls(monkeypatch, solk.model, "abelianization")
    assert quotient_summary(n_solenoid(3)).degree == 3
    assert quotient_summary(parse_presentation(TWO_VERTEX_TEXT)).degree == 3
    assert calls == {"abelianization": 0}
