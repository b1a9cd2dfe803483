"""Tests of the benchmark itself: inputs, span arithmetic, output checks and deadline.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def solk():
    return workloads.import_solk(run.SRC)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_files(tmp_path, workload):
    first = corpus.write_corpus(workload, 7, tmp_path / "first")
    again = corpus.write_corpus(workload, 7, tmp_path / "again")
    other = corpus.write_corpus(workload, 8, tmp_path / "other")
    assert [i.name for i in first] == [i.name for i in again] == [i.name for i in other]
    assert all(a.path.read_bytes() == b.path.read_bytes() for a, b in zip(first, again))
    assert any(a.path.read_bytes() != c.path.read_bytes() for a, c in zip(first, other))


def test_self_time_subtracts_the_time_children_cover():
    tree = [
        ["root", -1, "x", 0.0, 10.0],
        ["a", 0, "x", 1.0, 4.0],
        ["a.child", 1, "x", 2.0, 3.0],
        ["b", 0, "x", 3.0, 6.0],  # overlaps a: [1, 6] is covered once
        ["c", 0, "x", 8.0, 9.0],
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 1.0, 3.0, 1.0])


def test_layer_metrics_of_a_synthetic_tree():
    tree = [
        ["main", -1, "x", 0.0, 10.0],
        ["validate", 0, "x", 1.0, 3.0],
        ["IntMatrix.__matmul__", 1, "x", 1.5, 2.5],
        ["ktheory_report", 0, "x", 3.0, 9.0],
        ["psi_star_k1", 3, "x", 4.0, 6.0],
        ["smith_normal_form", 4, "x", 4.5, 5.5],
        ["element_add", 3, "x", 6.0, 8.0],
        ["StationaryLimitGroup.element", 6, "x", 6.5, 7.5],
        ["solve_columns", 7, "x", 6.6, 7.4],
        ["smith_normal_form", 8, "x", 6.7, 7.3],
    ]
    m = spans.layer_metrics(tree, {}, items=1)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["model.validate_incl_s"] == pytest.approx(2.0)
    assert m["model.self_s"] == pytest.approx(1.0)
    assert m["model.validate_useful_ratio"] == 1.0
    assert m["intlin.matmul_s"] == pytest.approx(1.0)
    assert m["ktheory.report_s"] == pytest.approx(3.0)
    assert m["ktheory.psi1_incl_s"] == pytest.approx(2.0)
    assert m["ktheory.psi1_snf_calls"] == 1
    assert m["intlin.snf_calls"] == 2
    assert m["intlin.snf_s"] == pytest.approx(1.6)
    assert m["intlin.solve_s"] == pytest.approx(0.2)
    assert m["limits.element_ops"] == 1
    assert m["limits.element_incl_s"] == pytest.approx(2.0)
    assert m["limits.element_snf_calls"] == 1
    assert m["germs.closure_calls"] == 0 and m["germs.closure_useful_ratio"] == 0.0


def test_digest_check_rejects_a_one_byte_change(solk, tmp_path):
    item = next(
        i for i in corpus.write_corpus("wedge-ktheory", corpus.DEFAULT_SEED, tmp_path)
        if i.name == "fixture-aabab"
    )
    digests = workloads.load_digests("wedge-ktheory", corpus.DEFAULT_SEED)
    rc, output = workloads.execute(solk, "wedge-ktheory", item)
    assert rc == 0
    assert workloads.check_digest(item.name, output, digests) == ""
    changed = output[:10] + chr(ord(output[10]) ^ 1) + output[11:]
    assert workloads.check_digest(item.name, changed, digests) != ""


def test_deadline_turns_a_slow_item_into_a_timeout_and_the_pass_goes_on(monkeypatch, tmp_path):
    def execute(solk, workload, item):
        if item.name == "slow":
            end = time.perf_counter() + 5.0
            while time.perf_counter() < end:
                pass
        return 0, "{}\n"

    monkeypatch.setattr(workloads, "execute", execute)
    monkeypatch.setattr(run, "ITEM_DEADLINE_S", 0.2)
    items = [corpus.Item("slow", tmp_path / "slow.sol"), corpus.Item("fast", tmp_path / "fast.sol")]
    start = time.perf_counter()
    with workloads.alarm_handler():
        results = run.run_pass(None, "wedge-ktheory", items, None, stop_at=start + 60.0)
    assert time.perf_counter() - start < 2.0
    assert [(r.name, r.status) for r in results] == [("slow", "timeout"), ("fast", "ok")]


def test_traced_classes_run_counts_closure_calls_and_no_normal_forms(solk, tmp_path):
    item = next(
        i for i in corpus.write_corpus("wedge-ktheory", corpus.DEFAULT_SEED, tmp_path)
        if i.name == "fixture-aabab"
    )
    tracer = spans.Tracer()
    original = solk.germs.occurring_classes
    uninstall = tracer.install(solk)
    try:
        tracer.item = item.name
        rc, _ = workloads.execute(solk, "closure-classes", item)
    finally:
        uninstall()
    assert rc == 0
    assert solk.germs.occurring_classes is original
    m = spans.layer_metrics(tracer.spans, tracer.observed, items=1)
    assert m["germs.closure_calls"] == 3
    assert m["germs.closure_useful_ratio"] == pytest.approx(1 / 3)
    assert m["germs.classes"] == 3
    assert m["germs.germs_total"] == 4
    assert m["intlin.snf_calls"] == m["intlin.hnf_calls"] == m["intlin.solve_calls"] == 0
    assert m["model.validate_calls"] == 1


def test_wedges_have_their_scheduled_class_counts_in_solk(solk):
    for name, text in corpus.generate("wedge-ktheory", 11):
        if name.startswith("wedge-"):
            want = corpus.WEDGES[int(name.split("-")[1][1:])][0]
            assert len(solk.occurring_classes(solk.parse_presentation(text)).classes) == want


def test_benchmark_json_declares_exactly_the_metrics_the_run_computes():
    units = run.declared_units()
    passes = [[workloads.ItemResult(f"i{i}", 0.001, "ok", reference=0.001) for i in range(12)]]
    end_to_end, _ = run.end_to_end(passes)
    assert set(units[0]) == set(end_to_end) | {"setup_s", "peak_rss_mb"}
    assert set(units[1]) == set(spans.layer_metrics([], {}, items=1)) | {"trace.overhead_frac"}


def test_item_time_is_its_median_wall_time_over_the_reference_kernels():
    def result(name, seconds, reference):
        return workloads.ItemResult(name, seconds, "ok", reference=reference)

    passes = [
        [result("a", 3.0, 2 * run.REFERENCE_S), result("b", 1.0, run.REFERENCE_S)],
        [result("a", 2.0, run.REFERENCE_S), result("b", 4.0, 2 * run.REFERENCE_S)],
        [result("a", 4.0, run.REFERENCE_S), result("b", 9.0, run.REFERENCE_S)],
    ]
    assert run.item_seconds(passes) == pytest.approx([2.0, 2.0])
    assert run.end_to_end(passes)[0]["corpus_s"] == pytest.approx(4.0)
