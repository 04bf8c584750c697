"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py
"""

import importlib
import json
import os
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import compare  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for name, generate in inputs.GENERATORS.items():
        first, second = generate(7), generate(7)
        first.write(tmp_path / name / "a")
        second.write(tmp_path / name / "b")
        written = sorted(p.name for p in (tmp_path / name / "a").iterdir())
        assert written == sorted(list(first.files) + ["argv.json"])
        for file in written:
            assert (tmp_path / name / "a" / file).read_bytes() == \
                (tmp_path / name / "b" / file).read_bytes()
        other = generate(8)
        assert (other.files, other.argv_bytes()) != (first.files, first.argv_bytes())


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(list(range(100))) == (90, 89)
    assert stats.tail_percentile(list(range(99))) == (89, 88)
    assert stats.tail_percentile(list(range(20))) == (50, 9)
    assert stats.tail_percentile(list(range(19))) is None
    for n in range(20, 400):
        values = [float(v) for v in range(n)]
        p, value = stats.tail_percentile(values)
        assert sum(v > value for v in values) >= 10
        if p < 90:  # the next percentile up would leave fewer than ten beyond
            assert stats.tail_percentile(values, want=p + 1)[0] == p


def test_self_time_subtracts_only_the_covered_interval():
    parent = (0, "parent", 0, 100, None, 0, None)
    children = [
        (1, "a", 10, 30, 0, 0, None),
        (2, "b", 20, 40, 0, 0, None),    # overlaps a: [10, 40] counts once
        (3, "c", 90, 120, 0, 0, None),   # clipped to [90, 100]
        (4, "d", -5, 5, 0, 0, None),     # clipped to [0, 5]
        (5, "e", 150, 160, 0, 0, None),  # outside the parent entirely
    ]
    assert spans.self_time_ns(parent, children) == 100 - 30 - 10 - 5
    assert spans.self_time_ns(parent, []) == 100


def test_children_index_groups_direct_children():
    recorded = [(0, "main", 0, 10, None, 0, None), (1, "a", 1, 5, 0, 0, None),
                (2, "b", 2, 3, 1, 0, None)]
    index = spans.children_index(recorded)
    assert [s[0] for s in index[0]] == [1]
    assert [s[0] for s in index[1]] == [2]


def _wrapped_names():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in spans.WRAP_POINTS}


def test_traced_wrappers_are_restored(tmp_path):
    before = _wrapped_names()
    gen = inputs.compare_dense(3)
    gen.write(tmp_path / "inputs")
    ctx = workloads.Context(src=HERE.parent / "src", tmp=tmp_path, seed=3, seconds=1)
    run = layers.LayerRun(ctx, "compare-dense", gen, tmp_path / "inputs")
    argv = run.argv(gen.ops[0], tmp_path / "inputs", tmp_path)
    res = run.cli_op(argv, traced=True)
    assert res["rc"] == 0
    assert {s[1] for s in run.tracer.spans} >= {"cli.main", "trim.trim_at_speed",
                                               "propulsion.required_rpm"}
    assert _wrapped_names() == before
    # an argv the CLI rejects raises SystemExit inside the traced call
    assert run.cli_op(["trim"], traced=True)["rc"] == 2
    after = _wrapped_names()
    assert all(after[k] is before[k] for k in before)


def test_missing_layer_is_reported_not_raised():
    import liftwing.cli
    tracer = spans.Tracer()
    assert not tracer.wrap(liftwing.cli, "no_such_function", "x.gone")
    assert tracer.missing == {"liftwing.cli.no_such_function": "does not exist"}
    tracer.restore()
    assert not hasattr(liftwing.cli, "no_such_function")


def test_parse_importtime_takes_outermost_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:        20 |        170 |   scipy",
        "import time:        30 |        200 | scipy.optimize",
        "import time:        10 |         10 |   numpy.linalg",
        "import time:         5 |        215 | liftwing",
    ])
    # scipy.optimize is outermost for scipy; numpy.linalg sits under liftwing
    assert layers.parse_importtime(text) == {"total": 0.215, "scipy": 0.2, "numpy": 0.16}


def test_benchmark_json_names_what_the_harness_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    oc = workloads.Outcome("x", attempted=1)
    workloads._finish(oc, [(1.0, 1.0)], 1024, [1.0], 1.0)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {name: m["unit"] for name, m in oc.metrics.items()}


def test_compare_verdicts_follow_the_pair_rule():
    parent = [100.0 + k for k in range(10)]  # IQR 4.5
    faster = [p - 10.0 for p in parent]
    assert compare.verdict(parent, faster, list(zip(parent, faster)), "lower", 0.25)[0] == "improved"
    assert compare.verdict(parent, parent, list(zip(parent, parent)), "lower", 0.25)[0] == "unchanged"
    slower = [p * 1.3 for p in parent]
    assert compare.verdict(parent, slower, list(zip(parent, slower)), "lower", 0.25)[0] == "worse"
    # a consistent loss within the bound is not worse for an end-to-end metric,
    # but it is for a per-layer metric, which has no bound
    a_little = [p * 1.1 for p in parent]
    pairs = list(zip(parent, a_little))
    assert compare.verdict(parent, a_little, pairs, "lower", 0.25)[0] == "unchanged"
    assert compare.verdict(parent, a_little, pairs, "lower", None)[0] == "worse"
    # nine pairs cannot claim a gain, however large
    assert compare.verdict(parent[:9], faster[:9], list(zip(parent, faster))[:9],
                           "lower", 0.25)[0] == "unchanged"
    # a noisy parent leaves a small shift unresolved
    noisy = [50.0, 150.0] * 5
    shifted = [v + 1.0 for v in noisy]
    assert compare.verdict(noisy, shifted, list(zip(noisy, shifted)), "lower", 0.25)[0] == "unresolved"


def test_child_peak_rss_is_its_own(tmp_path):
    # this process holds liftwing, numpy and scipy; a bare interpreter is far smaller
    try:
        rc, _, rss_kb, _, _ = workloads.run_child([sys.executable, "-c", "pass"], tmp_path,
                                                  dict(os.environ))
    finally:
        workloads.close_spawner()
    assert rc == 0
    assert rss_kb < resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 2


def test_reference_brackets_each_operation():
    # operation 0 lies between loops of 1.0 and 3.0, operation 1 between 3.0 and 5.0
    assert reference.bracketed([[1.0], [3.0], [5.0]]) == 3.0
    assert reference.bracketed([[1.0, 1.0], [4.0]]) == 2.0
