import collections
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import solk
import solk.germs
import solk.intlin
import solk.ktheory
import solk.model
from solk.cli import _json_text, main
from solk.intlin import IntMatrix

import helpers
from helpers import AABAB_TEXT, count_calls, n_solenoid_text


@pytest.fixture
def aabab_file(tmp_path):
    f = tmp_path / "aabab.sol"
    f.write_text(AABAB_TEXT, encoding="utf-8")
    return str(f)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def solk_process(argv, stdout=subprocess.PIPE):
    """``python -m solk.cli`` with argv in a fresh interpreter, on this tree's ``solk``."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(solk.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "solk.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60,
    )


def test_validate_ok(capsys, aabab_file):
    code, out, _ = run(capsys, ["validate", aabab_file])
    assert code == 0
    assert "ok" in out


def test_validate_failure_exit_1(capsys, tmp_path):
    f = tmp_path / "bad.sol"
    f.write_text("solenoid v1\nvertex p\nedge a p p\nmap a -> a\n", encoding="utf-8")
    code, out, _ = run(capsys, ["validate", str(f)])
    assert code == 1
    assert "homeomorphism" in out


def test_parse_error_exit_2(capsys, tmp_path):
    f = tmp_path / "broken.sol"
    f.write_text("solenoid v1\nvertex p\nedge a p p\nmap a -> a c\n", encoding="utf-8")
    code, _, err = run(capsys, ["ktheory", str(f)])
    assert code == 2
    assert "line 4" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, ["ktheory", "/nonexistent/file.sol"])
    assert code == 2


def test_directory_path_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, ["ktheory", str(tmp_path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(tmp_path) in err
    assert "Traceback" not in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_ktheory_paper_order_report(capsys, aabab_file):
    code, out, _ = run(capsys, ["ktheory", aabab_file, "--order", "paper"])
    assert code == 0
    assert "b|a@p, a|b@p, a|a@p" in out
    assert "[ -1   1   0 ]" in out
    assert "FreeAbelian(2)" in out
    assert "[ 2  1 ]" in out and "[ 1  1 ]" in out


def test_ktheory_json_round_trip_and_determinism(capsys, aabab_file):
    code, out1, _ = run(capsys, ["ktheory", aabab_file, "--order", "paper", "--json"])
    assert code == 0
    code, out2, _ = run(capsys, ["ktheory", aabab_file, "--order", "paper", "--json"])
    assert out1 == out2
    payload = out1[:-1]  # strip the trailing newline from print
    obj = json.loads(payload)
    assert json.dumps(obj, indent=2) == payload
    assert list(obj.keys()) == [
        "classes",
        "delta0",
        "k0_basis",
        "psi0",
        "k1",
        "psi1",
        "k0_limit",
        "k1_limit",
        "diagnostics",
    ]
    assert obj["delta0"]["entries"] == [[-1, 1, 0], [1, -1, 0]]
    assert obj["psi0"] == [[2, 1], [1, 1]]
    assert obj["k1"] == {"free_rank": 1, "torsion": []}
    assert obj["k0_limit"]["classification"] == "FreeAbelian(2)"
    assert obj["k1_limit"]["free"]["classification"] == "FreeAbelian(1)"
    assert obj["diagnostics"]["hausdorff"] is False
    assert obj["diagnostics"]["nuclear_dimension_bound"] == 1


def test_classes_command(capsys, aabab_file):
    code, out, _ = run(capsys, ["classes", aabab_file, "--order", "paper"])
    assert code == 0
    assert "b|a@p -> b|a@p" in out
    assert "a|a@p <- (a,1)" in out
    assert "a|b@p <- (a,2), (b,1)" in out


def test_classes_json(capsys, aabab_file):
    code, out, _ = run(capsys, ["classes", aabab_file, "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["interior_preimages"]["a|b@p"] == [["a", 2], ["b", 1]]


def test_sft_command(capsys):
    code, out, _ = run(capsys, ["sft", "--matrix", "1,1;1,1"])
    assert code == 0
    assert "K0: ZOneOver(2)" in out
    assert "K1: trivial" in out


def test_sft_command_errors(capsys):
    code, out, _ = run(capsys, ["sft", "--matrix", "1,1;0,0"])
    assert code == 1
    assert "dead-state" in out
    code, _, err = run(capsys, ["sft", "--matrix", "1,1"])
    assert code == 2
    assert err == "error: adjacency must be square over the states\n"
    code, _, err = run(capsys, ["sft", "--matrix", "1,x;1,1"])
    assert code == 2
    # The shape is checked by the constructors, each with its own message.
    for command, matrix, message in [
        ("sft", "1,2;3", "bad --matrix value: ragged rows"),
        ("limit", "1,2;3", "bad --matrix value: ragged rows"),
        ("sft", "1,2", "adjacency must be square over the states"),
        ("limit", "1,2", "endomorphism must be square"),
    ]:
        assert run(capsys, [command, "--matrix", matrix]) == (2, "", f"error: {message}\n")


def test_limit_command(capsys):
    code, out, _ = run(capsys, ["limit", "--matrix", "3"])
    assert code == 0
    assert "ZOneOver(3)" in out
    # The zero map on Z: an empty eventual basis and reduced endomorphism.
    code, out, _ = run(capsys, ["limit", "--matrix", "0"])
    assert code == 0
    assert "eventual basis (columns):\n  (empty 1x0 matrix)\n" in out
    assert out.endswith("reduced endomorphism:\n  (empty 0x0 matrix)\n")


def test_matrix_with_a_leading_minus_joined_by_equals(capsys):
    with pytest.raises(SystemExit) as exc:  # argparse reads "-1,0;0,2" as an option
        main(["limit", "--matrix", "-1,0;0,2"])
    assert exc.value.code == 2
    assert "argument --matrix: expected one argument" in capsys.readouterr().err
    code, out, _ = run(capsys, ["limit", "--matrix=-1,0;0,2"])
    assert code == 0
    assert out.startswith("classification: Generic(rank=2, matrix=[[-1, 0], [0, 2]])\n")
    code, out, _ = run(capsys, ["sft", "--matrix=-1,1;1,1"])
    assert code == 1
    assert "error: [negative-entry] entry (0,0) is negative\n" in out


def test_limit_command_json(capsys):
    code, out, _ = run(capsys, ["limit", "--matrix", "1,1;1,1", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["eventual_rank"] == 1
    assert obj["reduced_endomorphism"] == [[2]]
    assert obj["classification"] == "ZOneOver(2)"


def test_closed_stdout_exits_141_quietly():
    # The read end is closed before the child starts, so its first write fails:
    # no race with a reader that exits early, as `solk limit ... | head -1` has.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = solk_process(["limit", "--matrix", "3,1;0,2"], stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.parametrize(
    "argv, text, code, stream, line",
    [
        (["ktheory", "FILE", "--json"], AABAB_TEXT, 0, None, None),
        (["validate", "FILE"], n_solenoid_text(1), 1,
         "out", "error: [not-expanding] edge 'a' never expands under iteration"),
        (["validate", "FILE"],
         "solenoid v1\nvertex u\nvertex v\nedge a u u\nedge b u v\nmap a -> a a\nmap b -> b a\n",
         2, "err", "parse error: line 7: image path of 'b' is discontinuous"),
        (["ktheory", "FILE"], None, 2, None, None),  # FILE is never written
        (["limit", "--matrix", "-1,0;0,2"], None, 2,
         "err", "solk limit: error: argument --matrix: expected one argument"),
    ],
    ids=["ok", "invalid", "parse-error", "missing-path", "usage"],
)
def test_exit_code_as_a_process(capsys, tmp_path, argv, text, code, stream, line):
    # One command per exit path, run as a process and through main(): the code
    # passes through sys.exit (or argparse's SystemExit) and the bytes through the pipes.
    f = tmp_path / "input.sol"
    if text is not None:
        f.write_text(text, encoding="utf-8")
    argv = [str(f) if arg == "FILE" else arg for arg in argv]
    proc = solk_process(argv)
    try:
        returned = main(argv)
    except SystemExit as exc:
        returned = exc.code
    captured = capsys.readouterr()
    assert proc.returncode == returned == code
    assert (proc.stdout.decode(), proc.stderr.decode()) == (captured.out, captured.err)
    if line is not None:
        assert line in getattr(captured, stream).splitlines()


def test_n_solenoid_end_to_end(capsys, tmp_path):
    f = tmp_path / "n3.sol"
    f.write_text(n_solenoid_text(3), encoding="utf-8")
    code, out, _ = run(capsys, ["ktheory", str(f), "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["psi0"] == [[3]]
    assert obj["k0_limit"]["classification"] == "ZOneOver(3)"
    assert obj["diagnostics"]["degree"] == 3
    assert obj["diagnostics"]["zn_target"] == "Z[1/3]"


def test_unreached_vertex_exit_1(capsys, tmp_path):
    f = tmp_path / "unreached.sol"
    f.write_text(
        "solenoid v1\nvertex p\nvertex q\nedge a p p\nmap a -> a a\n"
        "vmap p -> p\nvmap q -> q\n",
        encoding="utf-8",
    )
    code, _, err = run(capsys, ["classes", str(f)])
    assert code == 1
    assert "no occurring germ class" in err


def test_report_byte_identical_across_runs(capsys, aabab_file):
    _, out1, _ = run(capsys, ["ktheory", aabab_file])
    _, out2, _ = run(capsys, ["ktheory", aabab_file])
    assert out1 == out2


@pytest.mark.parametrize("command", ["classes", "ktheory"])
def test_command_runs_closure_and_validation_once(capsys, monkeypatch, aabab_file, command):
    closure = count_calls(monkeypatch, solk.germs, "occurring_classes")
    validation = count_calls(monkeypatch, solk.model, "validate")
    code, _, _ = run(capsys, [command, aabab_file, "--json"])
    assert code == 0
    assert closure == {"occurring_classes": 1}
    assert validation == {"validate": 1}


def test_command_classifies_each_limit_once(capsys, monkeypatch, aabab_file):
    # The report classifies its two limits and the sft invariant its one; the
    # JSON printer asks each group again and gets the stored classification.
    determinants = count_calls(monkeypatch, solk.intlin, "determinant")
    assert run(capsys, ["ktheory", aabab_file, "--json"])[0] == 0
    assert determinants == {"determinant": 2}
    assert run(capsys, ["sft", "--matrix", "1,1;1,1", "--json"])[0] == 0
    assert determinants == {"determinant": 3}


def test_exactness_failure_exit_3(capsys, monkeypatch, aabab_file):
    monkeypatch.setattr("solk.ktheory.rank", lambda A: -1)
    code, out, err = run(capsys, ["ktheory", aabab_file])
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: rank(delta0)")


def test_not_well_defined_exit_3(capsys, monkeypatch, aabab_file):
    # Doubling a and dropping b does not carry the boundary image (a - b) into itself.
    first_edge = IntMatrix.from_rows([[1, 0], [0, 0]])
    monkeypatch.setattr("solk.ktheory.first_edge_matrix", lambda p: first_edge)
    code, _, err = run(capsys, ["ktheory", aabab_file])
    assert code == 3
    assert err.startswith("internal error: first-edge rule")


def test_torsion_limit_failure_exit_3(capsys, monkeypatch, aabab_file):
    # K1 is read off the class graph, not the boundary matrix; a boundary
    # column e_in without its -e_out no longer matches the graph, and the
    # report rejects it as an internal error.
    boundary = solk.ktheory.boundary_matrix

    def broken_boundary(p, m):
        rows = boundary(p, m).to_rows()
        assert rows == [[0, 1, -1], [0, -1, 1]]
        rows[1][1] = 0  # the lex class a|b: e_a - e_b becomes e_a
        return IntMatrix.from_rows(rows, cols=3)

    monkeypatch.setattr("solk.ktheory.boundary_matrix", broken_boundary)
    for argv in (["ktheory", aabab_file, "--json"], ["ktheory", aabab_file]):
        code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: ")


def test_internal_invariance_failure_exit_3(capsys, monkeypatch, aabab_file):
    # NotInvariant is a ValueError, yet a failed internal check is no bad input.
    pullback = solk.ktheory._pullback_rows

    def broken_pullback(p, model, rows):
        X = pullback(p, model, rows)
        X[1][0] = X[1].get(0, 0) + 1  # the lex class a|b: an arc from a to b
        return X

    monkeypatch.setattr("solk.ktheory._pullback_rows", broken_pullback)
    for argv in (["ktheory", aabab_file, "--json"], ["ktheory", aabab_file]):
        code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: the trace pullback")
        assert "Traceback" not in err


def _mutated(rng, text):
    """The text with one or two mutations below its header line.

    A mutation drops, duplicates or swaps lines, or replaces, inserts or
    deletes one edge of an image path, where the new edge is mostly one the
    text declares; so many inputs parse and reach validation and the closure.
    """
    header, *lines = text.splitlines()
    edges = [line.split()[1] for line in lines if line.startswith("edge ")]
    for _ in range(rng.randint(1, 2)):
        maps = [i for i, line in enumerate(lines) if line.startswith("map ")]
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        kind = rng.randrange(6) if maps else rng.randrange(3)
        if kind == 0 and len(lines) > 1:
            del lines[i]
        elif kind == 1:
            lines.insert(j, lines[i])
        elif kind == 2:
            lines[i], lines[j] = lines[j], lines[i]
        elif kind >= 3:
            i = rng.choice(maps)
            words = lines[i].split()  # map <edge> -> <image ...>
            k = rng.randrange(3, len(words))
            edge = rng.choice(edges)
            token = rng.choice([edge, edge, edge, "~" + edge, "x"])
            if kind == 3:
                words[k] = token
            elif kind == 4:
                words.insert(k, token)
            elif len(words) > 4:
                del words[k]
            lines[i] = " ".join(words)
    return "\n".join([header, *lines]) + "\n"


def test_mutated_fixtures_exit_with_a_documented_code_and_no_traceback(capsys, tmp_path):
    fixtures = [
        AABAB_TEXT, helpers.FIBONACCI_TEXT, helpers.DOUBLING_TEXT, helpers.THUE_MORSE_TEXT,
        helpers.TWO_VERTEX_TEXT, helpers.THREE_COMPONENTS_TEXT, n_solenoid_text(3),
    ]
    rng = random.Random(2018)
    f = tmp_path / "mutated.sol"
    codes = set()
    for _ in range(300):
        f.write_text(_mutated(rng, rng.choice(fixtures)), encoding="utf-8")
        for argv in (["validate"], ["classes"], ["ktheory"], ["ktheory", "--json"]):
            code, out, err = run(capsys, [argv[0], str(f), *argv[1:]])
            assert code in (0, 1, 2), (f.read_text(), argv, err)
            assert "Traceback" not in out + err
            assert not err or err.startswith(("error:", "parse error:", "internal error:"))
            codes.add(code)
    assert codes == {0, 1, 2}


# Characters the JSON escaper treats differently: quotes, backslashes, control
# characters, non-ASCII (escaped under ensure_ascii) and astral ones (escaped
# as surrogate pairs), plus the label separators.
_CHARS = ['a', 'Z', '"', '\\', '\n', '\t', '\x00', '\x1f', '\x7f', '\u00e9', '\u00df',
          '\u4e2d', '\u2028', '\U0001f600', '\U0001d538', '/', '|', '@', '~']


def _random_text(rng):
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))


def _random_scalar(rng):
    kind = rng.randrange(9)
    if kind == 0:
        return rng.randrange(-10, 10)
    if kind == 1:
        return rng.choice([-1, 1]) * rng.getrandbits(rng.randrange(1, 300))
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice(
            [0.0, -0.0, 1.5, -2.25e-300, 1e300, float("inf"), float("-inf"), float("nan"),
             rng.random()]
        )
    return _random_text(rng)


def _random_json_value(rng, depth=0):
    kind = rng.randrange(7) if depth < 4 else 0
    if kind == 0:
        return _random_scalar(rng)
    if kind == 1:  # mostly ints, sometimes with a bool among them
        return [rng.randrange(-5, 5) if rng.random() < 0.9 else rng.choice([True, False])
                for _ in range(rng.randrange(5))]
    if kind == 2:
        return [_random_text(rng) for _ in range(rng.randrange(4))]
    if kind in (3, 4):
        items = [_random_json_value(rng, depth + 1) for _ in range(rng.randrange(4))]
        return items if rng.random() < 0.7 else tuple(items)
    return {_random_text(rng): _random_json_value(rng, depth + 1) for _ in range(rng.randrange(4))}


def test_json_writer_matches_indented_json_dumps():
    rng = random.Random(1414)
    for _ in range(10_000):
        value = _random_json_value(rng)
        assert _json_text(value) == json.dumps(value, indent=2), value
    for value in ([], {}, [[]], [{}], {"a": []}, {"a": {}}, ((),), [[], [[]]], [True, 1],
                  -(2**200), "\U0001f600"):
        assert _json_text(value) == json.dumps(value, indent=2), value


def test_json_writer_writes_a_matrix_as_its_list_of_rows():
    big = 2**70 + 3
    matrices = [
        IntMatrix.zeros(0, 0), IntMatrix.zeros(0, 3), IntMatrix.zeros(3, 0),
        IntMatrix.from_rows([[-7]]), IntMatrix.from_rows([[1, -big, 0], [big, 2, -3]]),
    ]
    for m in matrices:
        rows = m.to_rows()
        # The matrix at depths 0 to 3, inside lists and dicts.
        for wrap in (
            lambda x: x, lambda x: [x], lambda x: {"m": x}, lambda x: [1, {"a": x, "b": "s"}],
            lambda x: {"k": [x, []], "n": None}, lambda x: [[[x]]], lambda x: {"a": {"b": {"c": x}}},
        ):
            assert _json_text(wrap(m)) == json.dumps(wrap(rows), indent=2), (m, wrap(rows))


def test_json_writer_int_and_literal_tables_match_json_dumps():
    table = solk.cli._INT_TEXT
    size = len(table)
    Pair = collections.namedtuple("Pair", "x y")  # a tuple subclass: written as a list
    lo, hi = min(table), max(table)
    edges = [lo - 2, lo - 1, lo, lo + 1, -1, 0, 1, hi - 1, hi, hi + 1, hi + 2, 2**70, -(2**200)]
    values = [
        *edges, edges, tuple(edges), True, False, None,
        [0, True, 1, False, -1, None, hi + 1],
        {"t": True, "f": False, "n": None, "i": 1, "z": 0},
        [{"ok": True, "k": [hi, hi + 1]}, {"ok": False, "k": [lo, lo - 1]}],
        Pair(hi + 1, True), [Pair(lo - 1, None)], {"p": Pair({"a": 2**70}, [False])},
    ]
    for value in values:
        assert _json_text(value) == json.dumps(value, indent=2), value
    crossing = [[lo - 1, lo, 0], [hi, hi + 1, 2**70], [-(2**200), 1, -1]]
    m = IntMatrix.from_rows(crossing)
    assert _json_text(m) == json.dumps(crossing, indent=2)
    assert _json_text({"m": m}) == json.dumps({"m": crossing}, indent=2)
    assert len(table) == size  # an int past the table is written, not stored


def test_json_writer_rejects_what_json_dumps_rejects():
    for value in ({(1, 2): 0}, {1}, [object()]):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            _json_text(value)
    # Every key solk writes is a str: json.dumps converts these keys, the writer does not.
    for value in ({1: "x"}, {-2.5: None}, {False: 0}, {None: [None]}):
        json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            _json_text(value)


NON_ASCII_TEXT = """solenoid v1
vertex \u00f8
edge \u03b1 \u00f8 \u00f8
edge \U0001d7b9 \u00f8 \u00f8
map \u03b1 -> \u03b1 \u03b1 \U0001d7b9
map \U0001d7b9 -> \u03b1 \U0001d7b9
"""


@pytest.mark.parametrize("command", ["classes", "ktheory"])
def test_json_of_non_ascii_names_reserialises_identically(capsys, tmp_path, command):
    f = tmp_path / "non_ascii.sol"
    f.write_text(NON_ASCII_TEXT, encoding="utf-8")
    for order in ("lex", "paper"):
        code, out, _ = run(capsys, [command, str(f), "--order", order, "--json"])
        assert code == 0
        assert json.dumps(json.loads(out), indent=2) + "\n" == out
        assert out.isascii() and "\\ud835\\udfb9" in out  # the astral name as a surrogate pair
        assert {c["vertex"] for c in json.loads(out)["classes"]} == {"\u00f8"}


def test_ktheory_json_makes_no_indented_json_dumps_call(capsys, monkeypatch, aabab_file):
    calls = []
    dumps = json.dumps

    def recording_dumps(obj, **kwargs):
        calls.append(kwargs)
        return dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", recording_dumps)
    code, out, _ = run(capsys, ["ktheory", aabab_file, "--json"])
    assert code == 0
    assert calls == []  # ints, true, false and null come from the writer's tables


def test_colliding_class_labels_exit_2(capsys, tmp_path):
    # Edges a|b and b|c would give two classes the label a|b|c@p.
    f = tmp_path / "collide.sol"
    f.write_text(
        "solenoid v1\nvertex p\nedge a p p\nedge b|c p p\nedge a|b p p\nedge c p p\n"
        "map a -> a b|c\nmap b|c -> a|b c\nmap a|b -> a b|c c\nmap c -> a|b c a\n",
        encoding="utf-8",
    )
    for command in ("classes", "ktheory"):
        code, out, err = run(capsys, [command, str(f), "--json"])
        assert code == 2
        assert out == ""
        assert err.startswith("parse error: line 4: edge name 'b|c'")
