"""Self-tests of the benchmark's own machinery: span arithmetic, missing
wrap points, failure accounting and corpus determinism.

    python3 -m pytest bench -q
"""

import json
import time
import types
from collections import Counter
from pathlib import Path

import pytest

import corpus
import run
import tracing

PKG = run.load_package()
needs_package = pytest.mark.skipif(PKG is None, reason="no sft_tensor under src/")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["a", 0.0, 10.0, None],
        ["b", 1.0, 3.0, 0],
        ["b", 2.0, 5.0, 0],  # overlaps its sibling: covered once
        ["c", 9.0, 12.0, 0],  # runs past its parent: clipped
        ["d", 1.5, 2.5, 1],
    ]
    st = tracing.self_times(spans)
    assert st["a"] == pytest.approx(10 - (4 + 1))
    assert st["b"] == pytest.approx((2 - 1) + 3)
    assert st["c"] == pytest.approx(3)
    assert st["d"] == pytest.approx(1)


def test_wrapped_calls_nest_and_restore():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    mod = types.ModuleType("fake")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    originals = mod.inner, mod.outer
    installed = tracing.Installed(tracer, [("in", mod, "inner"), ("out", mod, "outer")])
    assert mod.outer(1) == 4
    installed.restore()
    assert (mod.inner, mod.outer) == originals
    assert [s[0] for s in tracer.spans] == ["out", "in"]
    assert tracer.spans[1][3] == 0
    assert tracer.self_times() == {"out": 2.0, "in": 1.0}
    assert tracer.calls() == {"out": 1, "in": 1}


def test_missing_wrap_point_is_reported_not_zero():
    mod = types.ModuleType("fake")
    mod.present = lambda: None
    installed = tracing.Installed(tracing.Tracer(), [("x", mod, "present"), ("y", mod, "gone")])
    installed.restore()
    assert installed.missing == {"y": ["fake.gone"]}
    layers = types.SimpleNamespace(
        self_times=Counter(), calls=Counter(), counts={},
        missing={"formula.evaluate": ["sft_tensor.sft.evaluate"]},
    )
    metrics = run.per_layer(layers, 1.0, 0.0)
    assert "formula.evaluate_s" not in metrics
    assert "formula.evaluate_calls" not in metrics
    assert metrics["formula.parse_s"] == 0.0


@needs_package
def test_corrupted_output_is_counted(tmp_path, monkeypatch):
    inst = corpus.generate("osl-small", 1)[0]
    (tmp_path / inst["name"]).write_text(inst["text"])
    op, check = run.OPS["osl-small"]

    outs, seconds, failure = run.run_op(PKG, "osl-small", inst, tmp_path)
    assert failure is None and seconds > 0

    def corrupted(pkg, inst, work):
        outs = op(pkg, inst, work)
        value = run.field(outs["sft"], "value")
        outs["sft"].out = outs["sft"].out.replace(f"value {value}", "value 1/3")
        return outs

    monkeypatch.setitem(run.OPS, "osl-small", (corrupted, check))
    p = run.Tally()
    p.record(inst["name"], *run.run_op(PKG, "osl-small", inst, tmp_path))
    assert p.attempted == 1 and len(p.failures) == 1
    assert p.failures[0][1].kind in ("wrong", "mismatch")
    assert p.samples == {}


def test_timeouts_and_exceptions_are_counted(monkeypatch):
    def slow(pkg, inst, work):
        time.sleep(1)

    def broken(pkg, inst, work):
        raise KeyError("boom")

    kinds = []
    for op in (slow, broken):
        monkeypatch.setitem(run.OPS, "osl-small", (op, run.check_osl_small))
        _, _, failure = run.run_op(None, "osl-small", {}, None, limit=0.05)
        kinds.append(failure.kind)
    assert kinds == ["timeout", "exception"]


def test_measure_runs_a_full_pass_and_probes_the_host(monkeypatch):
    def op(pkg, inst, work):
        time.sleep(0.002)
        return {v: run.Stage(0, "", "", 0.001) for v in ("sft", "simulate")}

    monkeypatch.setitem(run.OPS, "osl-small", (op, lambda inst, outs: None))
    insts = [{"name": f"i{n}"} for n in range(5)]
    speed = run.HostSpeed()
    untraced, traced = run.measure(None, "osl-small", insts, None, 0.0, speed)
    assert untraced.attempted == 5 and traced.attempted == 0 and len(speed.seconds) >= 2
    speed = run.HostSpeed()
    untraced, _ = run.measure(None, "osl-small", insts, None, 0.2, speed)
    assert untraced.attempted >= 50
    assert all(len(rows) >= 10 for rows in untraced.samples.values())
    assert len(speed.seconds) >= 2 and min(speed.seconds) > 0


def test_host_speed_factor_uses_the_probes_nearby():
    speed = run.HostSpeed()
    speed.at = [0.0, 0.5, 1.0, 10.0]
    speed.seconds = [0.010, 0.010, 0.010, 0.005]
    ref = run.PROBE_REF_S
    assert speed.factor(0.5) == pytest.approx(ref / 0.010)
    assert speed.factor(10.2) == pytest.approx(ref / 0.005)
    assert speed.factor(6.0) == pytest.approx(ref / 0.005)  # none within the window: nearest
    assert speed.factor() == pytest.approx(ref / 0.010)  # the run's median
    tally = run.Tally()
    tally.samples = {"a": [{"op_s": 2.0, "at": 0.5}, {"op_s": 1.0, "at": 10.0}]}
    assert tally.per_instance("op_s") == [1.5]
    assert tally.per_instance("op_s", speed) == [pytest.approx((2.0 * ref / 0.010 + 1.0 * ref / 0.005) / 2)]


def test_corpus_is_a_function_of_the_seed():
    for workload in corpus.GENERATORS:
        first = corpus.digest(corpus.generate(workload, 7))
        assert corpus.digest(corpus.generate(workload, 7)) == first
        assert corpus.digest(corpus.generate(workload, 8)) != first


def test_permutation_ground_truth():
    levels = [[("not", (1,)), ("cnot", (2, 3))], [("toffoli", (1, 3, 2)), ("fredkin", (2, 1, 3))]]
    # 010 -> not 1: 110 -> cnot 2,3: 111 -> toffoli 1,3 -> flip 2: 101
    # -> fredkin control 2 is 0: 101
    assert corpus.permute_bits("010", levels) == "101"


def test_metric_names_match_benchmark_json():
    path = Path(run.ROOT, "BENCHMARK.json")
    if not path.is_file():
        pytest.skip("no BENCHMARK.json")
    spec = json.loads(path.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
