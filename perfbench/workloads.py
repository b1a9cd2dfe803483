"""Running and checking one workload item at a time.

Each workload is a closed loop with one caller: the next item starts only
after the previous one has finished, in a single process and thread.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import signal
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from corpus import DEFAULT_SEED, Item

WORKLOADS = ("wedge-ktheory", "closure-classes", "sft-limits")
CLI_COMMAND = {"wedge-ktheory": "ktheory", "closure-classes": "classes"}
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


class ItemTimeout(Exception):
    """Raised by the interval timer when an item overruns its deadline."""


def _on_alarm(signum, frame):
    raise ItemTimeout()


@contextlib.contextmanager
def alarm_handler():
    """Route SIGALRM to ItemTimeout; the deadline needs no extra thread or process."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def import_solk(src: Path):
    """Import the package under test afresh from ``src`` (and only from there)."""
    for name in [m for m in sys.modules if m == "solk" or m.startswith("solk.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    module = importlib.import_module("solk")
    if not Path(module.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"solk was imported from {module.__file__}, not from {src}")
    importlib.import_module("solk.cli")
    return module


@dataclass(frozen=True)
class ItemResult:
    name: str
    seconds: float
    status: str  # "ok", "timeout", "error", "exit" or "check"
    detail: str = ""
    reference: float = 0.0  # wall time of the reference kernel right after the item


def execute(solk, workload: str, item: Item) -> tuple[int, str]:
    """Run one item; returns (exit code, standard output)."""
    if workload in CLI_COMMAND:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = solk.cli.main([CLI_COMMAND[workload], str(item.path), "--json"])
        return rc, out.getvalue()
    return 0, _sft_item(solk, item)


def _sft_item(solk, item: Item) -> str:
    s = solk.SftPresentation.from_matrix([list(row) for row in item.matrix])
    report = solk.validate_sft(s)
    k0 = solk.sft_dimension_group(s)
    recoded = solk.sft_dimension_group(solk.edge_shift(s))
    g = k0.k0
    add, negate, equal = solk.element_add, solk.element_negate, solk.element_equal
    els = [g.from_ambient(stage, vector) for stage, vector in item.elements]
    zero = g.zero()
    pairs = list(itertools.combinations(range(len(els)), 2))
    sums = {(i, j): add(els[i], els[j]) for i, j in pairs}
    m = len(els)
    triples = [(i, (i + 1) % m, (i + 2) % m) for i in range(m)]
    axioms = {
        "commutative": [equal(sums[i, j], add(els[j], els[i])) for i, j in pairs],
        "associative": [
            equal(add(add(els[i], els[j]), els[k]), add(els[i], add(els[j], els[k])))
            for i, j, k in triples
        ],
        "zero": [equal(add(x, zero), x) for x in els],
        "negation": [equal(add(x, negate(x)), zero) for x in els],
    }
    result = {
        "valid": report.ok,
        "k0": str(k0.k0_classification),
        "k0_edge_shift": str(recoded.k0_classification),
        "eventual_rank": g.eventual_rank,
        "elements": [[e.stage, list(e.vector)] for e in els],
        "sums": [[e.stage, list(e.vector)] for e in sums.values()],
        "axioms": axioms,
    }
    return json.dumps(result, sort_keys=True) + "\n"


def check(workload: str, rc: int, output: str) -> str:
    """Seed-independent oracles; returns "" when the output passes."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        obj = json.loads(output)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if workload in CLI_COMMAND:
        if json.dumps(obj, indent=2) + "\n" != output:
            return "JSON does not re-serialise identically"
        return ""
    if not obj["valid"]:
        return "validate_sft rejected the matrix"
    if obj["k0"] != obj["k0_edge_shift"]:
        return f"edge shift classifies as {obj['k0_edge_shift']}, not {obj['k0']}"
    broken = [axiom for axiom, holds in obj["axioms"].items() if not all(holds)]
    if broken:
        return "limit-group axioms fail: " + ", ".join(broken)
    return ""


def load_digests(workload: str, seed: int) -> dict[str, str] | None:
    """Recorded SHA-256 of each item's output, for the default seed only."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))[workload]


def digest(output: str) -> str:
    return hashlib.sha256(output.encode("utf-8")).hexdigest()


def check_digest(name: str, output: str, digests: dict[str, str] | None) -> str:
    if digests is None:
        return ""
    want = digests.get(name)
    if want is None:
        return "no recorded digest"
    if digest(output) != want:
        return "output differs from the recorded digest"
    return ""


def run_item(
    solk, workload: str, item: Item, digests: dict[str, str] | None, deadline_s: float
) -> ItemResult:
    """Run and check one item under a deadline (needs ``alarm_handler`` active)."""
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            rc, output = execute(solk, workload, item)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ItemTimeout:
        seconds = perf_counter() - start
        return ItemResult(item.name, seconds, "timeout", f"deadline {deadline_s:.1f} s")
    except Exception as exc:  # any raise is a failed item; the pass goes on
        seconds = perf_counter() - start
        return ItemResult(item.name, seconds, "error", f"{type(exc).__name__}: {exc}")
    seconds = perf_counter() - start
    problem = check(workload, rc, output) or check_digest(item.name, output, digests)
    if problem:
        return ItemResult(item.name, seconds, "exit" if rc else "check", problem)
    return ItemResult(item.name, seconds, "ok")
