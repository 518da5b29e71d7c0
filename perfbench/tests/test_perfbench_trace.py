"""Tests of the benchmark's own tooling: self-time arithmetic, wrapper
restoration, import-time parsing, probe scaling and agreement with
BENCHMARK.json."""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
from layertrace import Tracer, import_seconds, parse_importtime  # noqa: E402
from probe import PROBE_REF_S, probe_seconds  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def toy_module(clock):
    """outer -> inner (twice) -> leaf, each advancing a fake clock."""
    mod = types.ModuleType("toy")

    def leaf():
        clock.advance(0.25)

    def inner():
        clock.advance(3.0)
        mod.leaf()

    def outer():
        clock.advance(1.0)
        mod.inner()
        clock.advance(2.0)
        mod.inner()
        clock.advance(0.5)
        return "done"

    mod.leaf, mod.inner, mod.outer = leaf, inner, outer
    return mod


def test_nested_self_time_on_toy_call_tree():
    clock = FakeClock()
    mod = toy_module(clock)
    tracer = Tracer(clock=clock)
    for name in ("outer", "inner", "leaf"):
        tracer.wrap(mod, name, f"toy.{name}")
    with tracer.installed():
        assert mod.outer() == "done"
    spans = tracer.spans
    assert (spans["toy.outer"].calls, spans["toy.inner"].calls,
            spans["toy.leaf"].calls) == (1, 2, 2)
    assert spans["toy.outer"].total == pytest.approx(10.0)
    assert spans["toy.outer"].self == pytest.approx(3.5)
    assert spans["toy.inner"].total == pytest.approx(6.5)
    assert spans["toy.inner"].self == pytest.approx(6.0)
    assert spans["toy.leaf"].self == pytest.approx(0.5)
    # self times under the root add up to the root's duration
    assert sum(s.self for s in spans.values()) == pytest.approx(
        spans["toy.outer"].total)


def test_unwrapped_calls_stay_in_the_parent():
    clock = FakeClock()
    mod = toy_module(clock)
    tracer = Tracer(clock=clock)
    tracer.wrap(mod, "outer", "toy.outer")
    tracer.wrap(mod, "leaf", "toy.leaf")
    with tracer.installed():
        mod.outer()
    assert tracer.spans["toy.outer"].self == pytest.approx(9.5)
    assert "toy.inner" not in tracer.spans


def test_counts_and_dynamic_names():
    clock = FakeClock()

    class Box:
        def __init__(self, kind):
            self.kind = kind

        def fill(self, n):
            clock.advance(n)
            return n

    seen = []

    def count(tracer, result, box, n):
        tracer.counts[f"fill.{box.kind}.items"] += result
        seen.append(tracer.inside("fill."))

    tracer = Tracer(clock=clock)
    tracer.wrap(Box, "fill", lambda box, n: f"fill.{box.kind}", count)
    with tracer.installed():
        Box("a").fill(2)
        Box("b").fill(3)
        Box("a").fill(4)
    assert tracer.spans["fill.a"].total == pytest.approx(6.0)
    assert tracer.spans["fill.b"].calls == 1
    assert dict(tracer.counts) == {"fill.a.items": 6, "fill.b.items": 3}
    assert seen == [False, False, False]   # hooks run after the span closes


def test_wrappers_restored_after_exit_and_error():
    clock = FakeClock()
    mod = toy_module(clock)

    class Thing:
        def method(self):
            raise RuntimeError("boom")

    originals = (mod.outer, vars(Thing)["method"])
    tracer = Tracer(clock=clock)
    tracer.wrap(mod, "outer", "toy.outer")
    tracer.wrap(Thing, "method", "thing.method")
    with tracer.installed():
        assert mod.outer is not originals[0]
    assert (mod.outer, vars(Thing)["method"]) == originals
    with pytest.raises(RuntimeError):
        with tracer.installed():
            Thing().method()
    assert (mod.outer, vars(Thing)["method"]) == originals
    assert tracer.spans["thing.method"].calls == 1


def test_relsens_wrappers_restored():
    tracer = layers.build_tracer()
    before = [vars(owner)[attr] for owner, attr, *_ in tracer._targets]
    with tracer.installed():
        during = [vars(owner)[attr] for owner, attr, *_ in tracer._targets]
    after = [vars(owner)[attr] for owner, attr, *_ in tracer._targets]
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, after))


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 | _io
import time:       300 |        300 |       numpy._core
import time:       200 |        500 |     numpy
import time:        50 |         50 |       numpy.linalg
import time:        40 |         40 |       textwrap
import time:       400 |        490 |     scipy.optimize
import time:        10 |        500 |   scipy
import time:        70 |         70 |   relsens.errors
import time:        30 |       1100 | relsens
"""


def test_parse_importtime_tree():
    roots = parse_importtime(IMPORTTIME)
    assert [r[0] for r in roots] == ["_io", "relsens"]
    relsens = roots[1]
    assert [c[0] for c in relsens[2]] == ["scipy", "relsens.errors"]
    scipy = relsens[2][0]
    assert [c[0] for c in scipy[2]] == ["numpy", "scipy.optimize"]


def test_import_seconds_charges_innermost_package():
    got = import_seconds(IMPORTTIME, ("numpy", "scipy", "relsens"))
    assert got["numpy"] == pytest.approx(550e-6)
    assert got["scipy"] == pytest.approx(450e-6)    # textwrap via scipy
    assert got["relsens"] == pytest.approx(100e-6)
    assert got["other"] == pytest.approx(100e-6)


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS


def test_timed_samples_are_scaled_by_the_probes_around_each():
    probes = iter([0.1] + [0.1, 0.3, 0.1] * len(run.TIMED))
    timed = run.TimedSamples(probe=lambda: next(probes) / 0.1 * PROBE_REF_S)
    for name in run.TIMED:
        for seconds in (1.0, 2.0, 2.0):     # probes around: .1/.1, .1/.3, .3/.1
            timed.add(name, seconds)
    stats = timed.stats()
    for name in run.TIMED:
        assert stats[name]["samples"] == pytest.approx([1.0, 1.0, 1.0])
        assert stats[f"{name}.raw"]["median"] == 2.0
    assert probe_seconds() > 0.0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_configs_override_only_method_size_and_seed(tmp_path, name):
    workload = WORKLOADS[name]
    shipped = json.loads((BENCH.parent / "configs" / workload.base).read_text())
    raw = make_config(workload, BENCH.parent, 17, tmp_path / "cfg.json")
    changed = {k for k in raw if raw[k] != shipped.get(k)}
    assert changed <= {"method", "n", "n_per_level", "seed"}
    assert raw["seed"] == 17
    assert json.loads((tmp_path / "cfg.json").read_text()) == raw


def test_traced_analysis_self_times_add_up():
    from relsens import config, pipeline

    cfg = config.load_config(BENCH.parent / "configs" / "example1_safety.json")
    plain = run.result_numbers(pipeline.run_analysis(cfg))
    tracer = layers.build_tracer()
    with tracer.installed():
        traced = run.result_numbers(pipeline.run_analysis(cfg))
    assert traced == plain
    total = tracer.spans["pipeline.run_analysis"].total
    assert sum(s.self for s in tracer.spans.values()) == pytest.approx(total)
    metrics = layers.layer_metrics(tracer)
    assert metrics["condest.curve_from_function.self_s"] > 0.0
    assert metrics["form.solve_form.calls"] == 0


def test_spawned_child_reports_its_own_peak_rss(tmp_path):
    import numpy as np

    from spawn import Spawner

    ballast = np.ones(20_000_000)          # 160 MB resident in this process
    with Spawner() as spawner:
        seconds, mb, code = spawner.run([sys.executable, "-c", "pass"], None,
                                        tmp_path / "child.log", 60)
        fail = spawner.run([sys.executable, "-c", "raise SystemExit(3)"], None,
                           tmp_path / "fail.log", 60)
    assert ballast.sum() == 20_000_000
    assert code == 0 and seconds > 0.0
    assert mb < 80.0
    assert fail[2] == 3
