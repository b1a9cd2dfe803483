"""The record contract: every solk record is a ``typing.NamedTuple``.

A record keeps its field order, its repr text, equality and hash by value,
and survives pickling and copying; its fields and derived tables cannot be
written.  The four records that check or derive something at construction
run that constructor on every route to a new value, ``_replace`` included.
"""

import copy
import pathlib
import pickle
import subprocess
import sys
from types import MappingProxyType

import pytest

import solk
from solk import (
    Classification,
    CokernelStructure,
    Edge,
    Finding,
    GermClass,
    Graph,
    IntMatrix,
    KTheoryReport,
    LimitElement,
    Presentation,
    QuotientModel,
    QuotientSummary,
    SftDimensionGroup,
    SftPresentation,
    SmithDecomposition,
    StationaryLimitGroup,
    ValidationReport,
    ktheory_report,
    make_limit,
    occurring_classes,
    quotient_summary,
    sft_dimension_group,
    smith_normal_form,
)

from helpers import endpoint_failures, n_solenoid

P = n_solenoid(2)  # one vertex p, one edge a -> a a
GROUP = make_limit(IntMatrix.from_rows([[2]]))
SFT = SftPresentation.from_matrix([[2]])

GRAPH = "Graph(vertices=('p',), edges=(Edge(name='a', source='p', target='p'),))"
MODEL = (
    "QuotientModel(classes=(GermClass(vertex='p', in_edge='a', out_edge='a'),), "
    "edge_points=('a',), gtilde=(0,), interior_preimage_table=((('a', 1),),))"
)
SUMMARY = (
    f"QuotientSummary(model={MODEL}, hausdorff=True, hausdorff_witness=None, "
    "connected=True, degree=2, nuclear_dimension_bound=1)"
)
Z_ONE_OVER_2 = "StationaryLimitGroup(ambient_rank=1, eventual_rank=1, classify=ZOneOver(2))"

# Record type -> (a value, its repr, the fields in order, the derived tables).
RECORDS = {
    Edge: (
        Edge("a", "p", "p"),
        "Edge(name='a', source='p', target='p')",
        ("name", "source", "target"),
        (),
    ),
    Finding: (
        Finding("warning", "reducible", "not strongly connected"),
        "Finding(severity='warning', code='reducible', message='not strongly connected')",
        ("severity", "code", "message"),
        (),
    ),
    ValidationReport: (ValidationReport(), "ValidationReport(findings=())", ("findings",), ()),
    SmithDecomposition: (
        smith_normal_form(IntMatrix.from_rows([[2, 0]])),
        "SmithDecomposition(A=IntMatrix([[2, 0]]), U=IntMatrix([[1]]), "
        "D=IntMatrix([[2, 0]]), V=IntMatrix([[1, 0], [0, 1]]))",
        ("A", "U", "D", "V"),
        (),
    ),
    CokernelStructure: (
        CokernelStructure(free_rank=1, torsion=(2,)),
        "CokernelStructure(free_rank=1, torsion=(2,))",
        ("free_rank", "torsion"),
        (),
    ),
    GermClass: (
        GermClass("p", "a", "b"),
        "GermClass(vertex='p', in_edge='a', out_edge='b')",
        ("vertex", "in_edge", "out_edge"),
        (),
    ),
    QuotientSummary: (
        quotient_summary(P),
        SUMMARY,
        ("model", "hausdorff", "hausdorff_witness", "connected", "degree",
         "nuclear_dimension_bound"),
        (),
    ),
    KTheoryReport: (
        ktheory_report(P),
        f"KTheoryReport(order='lex', model={MODEL}, summary={SUMMARY}, "
        "delta0=IntMatrix([[0]]), k0_basis=IntMatrix([[1]]), psi0=IntMatrix([[2]]), "
        f"psi1=IntMatrix([[1]]), k0_limit={Z_ONE_OVER_2}, k1_limit=StationaryLimitGroup("
        "ambient_rank=1, eventual_rank=1, classify=FreeAbelian(1)), zn_target='Z[1/2]', "
        "validation=ValidationReport(findings=()))",
        ("order", "model", "summary", "delta0", "k0_basis", "psi0", "psi1", "k0_limit",
         "k1_limit", "zn_target", "validation"),
        (),
    ),
    Classification: (
        Classification("free_abelian", 0),
        "Classification(kind='free_abelian', rank=0, n=None, presentation=None)",
        ("kind", "rank", "n", "presentation"),
        (),
    ),
    LimitElement: (
        LimitElement(GROUP, 1, (3,)),
        f"LimitElement(group={Z_ONE_OVER_2}, stage=1, vector=(3,))",
        ("group", "stage", "vector"),
        (),
    ),
    SftDimensionGroup: (
        sft_dimension_group(SFT),
        f"SftDimensionGroup(k0={Z_ONE_OVER_2}, k0_classification=Classification("
        "kind='z_one_over', rank=1, n=2, presentation=None), k1='trivial')",
        ("k0", "k0_classification", "k1"),
        (),
    ),
    Graph: (P.graph, GRAPH, ("vertices", "edges"), ("index",)),
    Presentation: (
        P,
        f"Presentation(graph={GRAPH}, edge_map=mappingproxy({{'a': ('a', 'a')}}), "
        "vertex_map=mappingproxy({'p': 'p'}))",
        ("graph", "edge_map", "vertex_map"),
        (),
    ),
    QuotientModel: (
        occurring_classes(P),
        MODEL,
        ("classes", "edge_points", "gtilde", "interior_preimage_table"),
        ("preimage_counts", "arcs", "edge_components"),
    ),
    SftPresentation: (
        SFT,
        "SftPresentation(states=('0',), adjacency=IntMatrix([[2]]))",
        ("states", "adjacency"),
        (),
    ),
}


def test_every_public_record_is_covered():
    records = {
        obj for obj in vars(solk).values()
        if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
    }
    assert records == set(RECORDS) and len(records) == 15


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    record, text, fields, derived = RECORDS[cls]
    assert type(record) is cls and isinstance(record, tuple)
    assert cls._fields == fields
    assert repr(record) == text
    # A record unpacks and indexes like the tuple of its fields, and equals it.
    assert tuple(record) == tuple(getattr(record, name) for name in fields)
    assert record == tuple(record) and record[-1] is getattr(record, fields[-1])
    twin = cls(*record)
    assert twin is not record and twin == record and twin._replace() == record
    if cls is Presentation:  # its maps are mappings, which do not hash
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record) and {record: 1}[twin] == 1
    assert copy.copy(record) == record
    holds_group = any(isinstance(x, StationaryLimitGroup) for x in record)
    for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(copied) is cls and repr(copied) == text
        for name in derived:
            assert getattr(copied, name) == getattr(record, name)
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        # A group equals only itself, and these copies hold copies of it.
        assert (copied == record) != holds_group
    for obj in (twin, record):  # the twin has not read its derived tables, the record has
        for name in fields + derived:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
    assert record == twin and repr(record) == text


def test_every_route_to_a_checked_record_runs_its_constructor():
    graph, model = P.graph, occurring_classes(P)
    with pytest.raises(ValueError, match="duplicate vertex"):
        graph._replace(vertices=("p", "p"))
    with pytest.raises(ValueError, match="duplicate edge"):
        Graph._make((("p",), graph.edges * 2))
    # Presentations that make no graph map, built around the constructor: every
    # entry of the table of refusals, the empty and the ``str`` image path among them.
    for message, fields in endpoint_failures().items():
        bad = tuple.__new__(Presentation, fields)
        for route in (
            lambda: Presentation(*bad),
            lambda: P._replace(**bad._asdict()),
            lambda: pickle.loads(pickle.dumps(bad)),
        ):
            with pytest.raises(ValueError) as exc:
                route()
            assert str(exc.value) == message
    with pytest.raises(ValueError, match="square"):
        SFT._replace(states=("0", "1"))
    assert type(P._replace(vertex_map={"p": "p"}).vertex_map) is MappingProxyType
    assert type(model._replace(gtilde=[0]).gtilde) is tuple
    assert Presentation._make(P) == P and QuotientModel._make(model) == model
    for copied in (pickle.loads(pickle.dumps(P)), copy.copy(P), copy.deepcopy(P)):
        assert copied == P
        assert type(copied.edge_map) is type(copied.vertex_map) is MappingProxyType
        assert copied.graph.index == {"a": 0}


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # A fresh interpreter, without site-packages, prints its modules before
    # and after the import.
    src = str(pathlib.Path(solk.__file__).resolve().parents[1])
    code = (
        "import sys; before = sorted(sys.modules); sys.path.insert(0, sys.argv[1]); "
        "import solk.cli; print(' '.join(before)); print(' '.join(sorted(sys.modules)))"
    )
    out = subprocess.run(  # -B: -I ignores PYTHONDONTWRITEBYTECODE
        [sys.executable, "-B", "-I", "-S", "-c", code, src],
        capture_output=True, text=True, check=True,
    )
    before, after = (set(line.split()) for line in out.stdout.splitlines())
    added = after - before
    assert "solk.cli" in added and "solk.model" in added
    assert not {"dataclasses", "inspect"} & added
