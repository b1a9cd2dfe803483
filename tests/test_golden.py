"""Byte-for-byte golden reports of `solk classes`, `solk ktheory`, `solk sft`
and `solk limit`.

Each file under tests/golden/ is the exact stdout of one command on one
fixture, in text or --json form, under the lex or paper class order;
edge_shift_56.sft.json and edge_shift_56.limit.json hold `solk sft --json`
and `solk limit --json` with tests/helpers.py `dense_edge_shift()` as the
matrix, and pivots2.limit.json `solk limit --json` with PIVOTS2_MATRIX, whose
image span has echelon pivots 2 and drops rank once more.  The wedges with
24, 32, 40 and 48 loops are too large to keep whole: tests/golden/ktheory.sha256
holds the SHA-256 of their `solk ktheory --json` in both orders.
`solk classes --json` on the closure-stress family at n = 15 and the cyclic
family at n = 14 (tests/helpers.py ``closure_stress_text``, ``cyclic_text``),
the sizes the benchmark's closure workload reaches, is kept whole in both
orders; their `solk ktheory --json` (2.6 and 2.0 MB, with full-rank psi0 of
sizes 211 and 183) is kept in the same digest file, and so is that of the
closure-stress family at n = 21 and the cyclic family at n = 20 (full-rank
psi0 of sizes 421 and 381), and of stress 31 in lex order (a 931 x 931 psi0
and a 49 MB report).  The digest of the wedge with 64 loops, in lex order,
byte-checks a 602 x 273 saturation on 93 pivots above 1.  The wedge-24
digests and those of stress 15 and cyclic 14 are checked here; CI checks
all eighteen with

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests');
    from test_golden import check_wedge_digests; check_wedge_digests()"

To rewrite the goldens and the digests after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
import tempfile

import pytest

from solk.cli import main

from helpers import (
    AABAB_TEXT,
    DOUBLING_TEXT,
    FIBONACCI_TEXT,
    THUE_MORSE_TEXT,
    TWO_VERTEX_TEXT,
    closure_stress_text,
    cyclic_text,
    dense_edge_shift,
    matrix_flag,
    n_solenoid_text,
    wedge_text,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"
DIGESTS = GOLDEN / "ktheory.sha256"
MATRIX_COMMANDS = ("sft", "limit")
# im T has echelon pivots 2, 2, 1, and im T^2 has rank 2: stabilization index 2.
PIVOTS2_MATRIX = "2,0,0,0;0,2,0,0;1,1,0,0;0,0,1,0"
WEDGE_CASES = [
    f"wedge_{k}.ktheory.{order}.json" for k in (24, 32, 40, 48) for order in ("lex", "paper")
]
FULL_RANK_CASES = [
    f"{fixture}.ktheory.{order}.json"
    for fixture in ("closure_stress_15", "cyclic_14")
    for order in ("lex", "paper")
]
# Full-rank psi0 of sizes 421 and 381, a few seconds a report, and of size
# 931 (stress 31, lex order only; about 15 s): checked by check_wedge_digests only.
LARGE_FULL_RANK_CASES = [
    f"{fixture}.ktheory.{order}.json"
    for fixture in ("closure_stress_21", "cyclic_20")
    for order in ("lex", "paper")
] + ["closure_stress_31.ktheory.lex.json"]
# Wedge 64, lex order only (12 to 18 s): checked by check_wedge_digests only.
DIGEST_CASES = WEDGE_CASES + FULL_RANK_CASES + LARGE_FULL_RANK_CASES + ["wedge_64.ktheory.lex.json"]

# name -> (presentation text, expected exit code)
FIXTURES = {
    "aabab": (AABAB_TEXT, 0),
    "fibonacci": (FIBONACCI_TEXT, 0),
    "doubling": (DOUBLING_TEXT, 0),
    "thue_morse": (THUE_MORSE_TEXT, 0),
    "two_vertex": (TWO_VERTEX_TEXT, 0),
    "n_solenoid_2": (n_solenoid_text(2), 0),
    "n_solenoid_3": (n_solenoid_text(3), 0),
    "n_solenoid_6": (n_solenoid_text(6), 0),
    # Valid, with a non-primitivity warning.
    "imprimitive": ("solenoid v1\nvertex p\nedge a p p\nedge b p p\nmap a -> b b\nmap b -> a a\n", 0),
    # Fails validation: the substitution is a homeomorphism.
    "non_expanding": (n_solenoid_text(1), 1),
}
CASES = [
    (fixture, command, order, fmt)
    for fixture in FIXTURES
    for command in ("classes", "ktheory")
    for order in ("lex", "paper")
    for fmt in ("txt", "json")
]
# name -> presentation text; `solk classes --json` only.
CLOSURE_FIXTURES = {"closure_stress_15": closure_stress_text(15), "cyclic_14": cyclic_text(14)}
CLOSURE_CASES = [
    (fixture, "classes", order, "json") for fixture in CLOSURE_FIXTURES for order in ("lex", "paper")
]
# name -> presentation text of a closure-family `solk ktheory --json` digest.
DIGEST_FIXTURES = CLOSURE_FIXTURES | {
    "closure_stress_21": closure_stress_text(21),
    "cyclic_20": cyclic_text(20),
    "closure_stress_31": closure_stress_text(31),
}


def _case_id(fixture: str, command: str, order: str, fmt: str) -> str:
    return f"{fixture}.{command}.{order}.{fmt}"


def _main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _run(path: pathlib.Path, command: str, order: str, fmt: str) -> tuple[int, str]:
    return _main([command, str(path), "--order", order] + (["--json"] if fmt == "json" else []))


def _run_matrix(command: str) -> tuple[int, str]:
    return _main([command, "--matrix", matrix_flag(dense_edge_shift()), "--json"])


@pytest.mark.parametrize("fixture,command,order,fmt", CASES, ids=[_case_id(*c) for c in CASES])
def test_report_matches_golden(tmp_path, fixture, command, order, fmt):
    text, expected_code = FIXTURES[fixture]
    path = tmp_path / f"{fixture}.sol"
    path.write_text(text, encoding="utf-8")
    code, out = _run(path, command, order, fmt)
    assert code == expected_code
    golden = (GOLDEN / _case_id(fixture, command, order, fmt)).read_text(encoding="utf-8")
    assert out == golden


@pytest.mark.parametrize(
    "fixture,command,order,fmt", CLOSURE_CASES, ids=[_case_id(*c) for c in CLOSURE_CASES]
)
def test_closure_report_matches_golden(tmp_path, fixture, command, order, fmt):
    path = tmp_path / f"{fixture}.sol"
    path.write_text(CLOSURE_FIXTURES[fixture], encoding="utf-8")
    code, out = _run(path, command, order, fmt)
    assert code == 0
    assert out == (GOLDEN / _case_id(fixture, command, order, fmt)).read_text(encoding="utf-8")


@pytest.mark.parametrize("command", MATRIX_COMMANDS)
def test_edge_shift_56_matches_golden(command):
    code, out = _run_matrix(command)
    assert code == 0
    assert out == (GOLDEN / f"edge_shift_56.{command}.json").read_text(encoding="utf-8")


def test_pivots2_limit_matches_golden():
    code, out = _main(["limit", "--matrix", PIVOTS2_MATRIX, "--json"])
    assert code == 0
    assert out == (GOLDEN / "pivots2.limit.json").read_text(encoding="utf-8")


def report_digest(tmp: pathlib.Path, case_id: str) -> str:
    """SHA-256 of the stdout of one wedge or closure-family case, named like a golden file."""
    fixture, command, order, fmt = case_id.split(".")
    path = tmp / f"{fixture}.sol"
    text = DIGEST_FIXTURES.get(fixture) or wedge_text(int(fixture.removeprefix("wedge_")))
    path.write_text(text, encoding="utf-8")
    code, out = _run(path, command, order, fmt)
    if code != 0:
        raise SystemExit(f"{case_id}: exit {code}")
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def recorded_digests() -> dict[str, str]:
    """Case id -> SHA-256, as recorded in DIGESTS (``sha256sum`` layout)."""
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    return {case_id: digest for digest, case_id in map(str.split, lines)}


def check_wedge_digests() -> None:
    """Recompute every wedge and full-rank digest; exit nonzero naming the cases that differ."""
    recorded = recorded_digests()
    with tempfile.TemporaryDirectory() as tmp:
        differ = [
            c for c in DIGEST_CASES if report_digest(pathlib.Path(tmp), c) != recorded.get(c)
        ]
    if differ:
        raise SystemExit(f"ktheory reports differ from {DIGESTS.name}: {', '.join(differ)}")


@pytest.mark.parametrize("order", ["lex", "paper"])
def test_wedge_24_report_matches_digest(tmp_path, order):
    case_id = f"wedge_24.ktheory.{order}.json"
    assert report_digest(tmp_path, case_id) == recorded_digests()[case_id]


@pytest.mark.parametrize("case_id", FULL_RANK_CASES)
def test_full_rank_report_matches_digest(tmp_path, case_id):
    assert report_digest(tmp_path, case_id) == recorded_digests()[case_id]


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for fixture, command, order, fmt in CASES:
            text, expected_code = FIXTURES[fixture]
            path = pathlib.Path(tmp) / f"{fixture}.sol"
            path.write_text(text, encoding="utf-8")
            code, out = _run(path, command, order, fmt)
            if code != expected_code:
                raise SystemExit(f"{_case_id(fixture, command, order, fmt)}: exit {code}")
            (GOLDEN / _case_id(fixture, command, order, fmt)).write_text(out, encoding="utf-8")
        for fixture, command, order, fmt in CLOSURE_CASES:
            path = pathlib.Path(tmp) / f"{fixture}.sol"
            path.write_text(CLOSURE_FIXTURES[fixture], encoding="utf-8")
            code, out = _run(path, command, order, fmt)
            if code != 0:
                raise SystemExit(f"{_case_id(fixture, command, order, fmt)}: exit {code}")
            (GOLDEN / _case_id(fixture, command, order, fmt)).write_text(out, encoding="utf-8")
        for command in MATRIX_COMMANDS:
            code, out = _run_matrix(command)
            if code != 0:
                raise SystemExit(f"edge_shift_56.{command}: exit {code}")
            (GOLDEN / f"edge_shift_56.{command}.json").write_text(out, encoding="utf-8")
        code, out = _main(["limit", "--matrix", PIVOTS2_MATRIX, "--json"])
        if code != 0:
            raise SystemExit(f"pivots2.limit: exit {code}")
        (GOLDEN / "pivots2.limit.json").write_text(out, encoding="utf-8")
        digests = [f"{report_digest(pathlib.Path(tmp), c)}  {c}\n" for c in DIGEST_CASES]
    DIGESTS.write_text("".join(digests), encoding="utf-8")


if __name__ == "__main__":
    record()
