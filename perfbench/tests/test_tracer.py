"""Percentiles, self time, span nesting, and the wrappers' install and
removal."""
import statistics
from array import array

import pytest

import tracer
import worker
from qperiod import cli, cyclo, tau


def test_percentile_matches_inclusive_quantiles():
    xs = [4.0, 1.0, 3.0, 2.0, 10.0, 7.0, 6.0]
    deciles = statistics.quantiles(xs, n=10, method="inclusive")
    assert worker.percentile(xs, 0.5) == statistics.median(xs)
    assert worker.percentile(xs, 0.9) == pytest.approx(deciles[8])
    assert worker.percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert worker.percentile([1.0, 2.0, 3.0, 4.0], 0.9) == pytest.approx(3.7)
    assert worker.percentile([5.0], 0.9) == 5.0
    with pytest.raises(ValueError):
        worker.percentile([], 0.5)


def synthetic_table():
    # a.f [0,10] > a.g [1,4] > b.h [2,3];  a.f [0,10] > a.f [5,9] > b.h [6,7]
    names = ["a.f", "a.g", "b.h"]
    spans = [(0, -1, 0, 10, 0), (1, 0, 1, 4, 0), (2, 1, 2, 3, 8), (0, 0, 5, 9, 0), (2, 3, 6, 7, 4)]
    cols = list(zip(*spans))
    return tracer.SpanTable(names, array("i", cols[0]), array("i", cols[1]), array("d", cols[2]),
                            array("d", cols[3]), array("q", cols[4]),
                            {"F": {"a.f"}, "H": {"b.h"}, "FH": {"a.f", "b.h"}})


def test_self_time_subtracts_child_spans():
    t = synthetic_table()
    # a.f: (10 - 3 - 4) + (4 - 1); a.g: 3 - 1; b.h: 1 + 1
    assert t.self_time == [6.0, 2.0, 2.0]
    assert t.layer_self("a") == 8.0
    assert t.layer_self("b") == 2.0
    # self times partition the root span
    assert t.layer_self("a") + t.layer_self("b") == 10.0


def test_nested_calls_in_a_group_count_once():
    t = synthetic_table()
    assert t.inclusive("F") == 10.0   # the inner a.f lies inside the outer one
    assert t.inclusive("H") == 2.0    # neither b.h has a b.h above it
    assert t.inclusive("FH") == 10.0  # both b.h lie inside a.f
    assert t.calls({"a.f"}) == 2
    assert t.calls({"a.g", "b.h"}) == 3
    assert t.work_sum({"b.h"}) == 12


def test_layer_metrics_are_per_round():
    names = ["cli.main", "cyclo.CyclotomicInt.__mul__", "modular.is_prime"]
    # two rounds: main > mul > is_prime, then main > mul
    spans = [(0, -1, 0, 4, 0), (1, 0, 1, 3, 0), (2, 1, 1.5, 2, 0), (0, -1, 5, 8, 0), (1, 3, 6, 7, 0)]
    cols = list(zip(*spans))
    t = tracer.SpanTable(names, array("i", cols[0]), array("i", cols[1]), array("d", cols[2]),
                         array("d", cols[3]), array("q", cols[4]), tracer.GROUPS)
    m = tracer.layer_metrics(t, rounds=2)
    assert set(m) == {name for name, _, _ in tracer.LAYER_METRICS}
    assert m["cli.calls"] == (1.0, "count")
    assert m["cli.self_s"] == (2.0, "s")        # ((4 - 2) + (3 - 1)) / 2
    assert m["cyclo.mul_calls"] == (1.0, "count")
    assert m["cyclo.mul_s"] == (1.5, "s")        # (2 + 1) / 2
    assert m["cyclo.self_s"] == (1.25, "s")      # (2 - 0.5 + 1) / 2
    assert m["modular.is_prime_s"] == (0.25, "s")
    assert m["tau.levels"] == (0.0, "count")


def test_install_records_nested_spans_and_uninstall_restores():
    originals = (tau.tau_for, cli.tau_for, cyclo.CyclotomicInt.__mul__,
                 cyclo.CyclotomicInt.__dict__["power"], cli.main)
    rec = tracer.Recorder()
    rec.install()
    try:
        # a name imported with `from .tau import tau_for` is patched where bound
        assert cli.tau_for is tau.tau_for is not originals[0]
        tau.tau_for("poincare", 7)
    finally:
        rec.uninstall()
    assert (tau.tau_for, cli.tau_for, cyclo.CyclotomicInt.__mul__,
            cyclo.CyclotomicInt.__dict__["power"], cli.main) == originals
    n = len(rec)
    tau.tau_for("poincare", 7)
    assert len(rec) == n  # nothing recorded once removed

    names = [rec.names[f] for f in rec.fid]
    assert names[0] == "tau.tau_for" and rec.parent[0] == -1
    assert names[1] == "tau.tau_poincare" and rec.parent[1] == 0
    assert rec.work[1] == 7
    for name in ("cyclo.CyclotomicInt.__mul__", "cyclo.CyclotomicInt.__post_init__",
                 "cyclo.CyclotomicInt.power", "cyclo.make", "modular.is_prime"):
        assert name in names
    assert all(rec.start[i] <= rec.end[i] for i in range(n))
    assert all(rec.parent[i] < i for i in range(n))

    t = tracer.table_of(rec)
    total = rec.end[0] - rec.start[0]
    layers = sum(t.layer_self(layer) for layer in tracer.MODULES)
    assert layers == pytest.approx(total)
    assert t.inclusive("tau.value") == pytest.approx(total)
    assert 0 < t.inclusive("cyclo.mul") < total


def test_dataclass_generated_methods_are_not_wrapped():
    rec = tracer.Recorder()
    rec.install()
    try:
        wrapped = {name for name in rec.names}
    finally:
        rec.uninstall()
    assert "cyclo.CyclotomicInt.__post_init__" in wrapped
    assert "qpoly.HalfLaurent.from_dict" in wrapped
    assert not any(n.endswith(("__init__", "__eq__", "__hash__", "__repr__")) for n in wrapped)
    # module-level private helpers stay unwrapped; methods are wrapped whatever their name
    assert not any(n.count(".") == 1 and n.split(".")[1].startswith("_") for n in wrapped)
    assert "cyclo.CyclotomicInt._check_same_ring" in wrapped


def test_write_keeps_the_spans_after_first(tmp_path):
    rec = tracer.Recorder()
    rec.install()
    try:
        tau.tau_for("poincare", 5)
        first = len(rec)
        tau.tau_for("poincare", 7)
    finally:
        rec.uninstall()
    path = tmp_path / "spans.tsv"
    rec.write(str(path), first)
    lines = path.read_text().splitlines()
    assert lines[0].split("\t") == ["parent", "name", "start_s", "end_s", "work"]
    assert len(lines) == 1 + len(rec) - first
    rows = [line.split("\t") for line in lines[1:]]
    assert rows[0][:2] == ["-1", "tau.tau_for"] and float(rows[0][2]) == 0.0
    assert rows[1][:2] == ["0", "tau.tau_poincare"] and rows[1][4] == "7"
    assert all(-1 <= int(r[0]) < i for i, r in enumerate(rows))
