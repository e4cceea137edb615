"""The benchmark's workloads still run on the program.

``perfbench/workloads.py`` reaches the program through module attributes
(``cli.build_setup``, ``cli.run_monitors``, ``oracle.enumerate_adversary``,
...).  Each test runs a small slice of one workload against the modules
imported here and requires that no run of it fails, so a renamed or
changed name the benchmark still uses shows up in the tests, not only when
the benchmark runs.  One more test requires every span of the traced
benchmark to find its binding.  The full workloads and their pinned
digests are checked by ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from dispersim import arbitrary, cli, engine, graph, oracle, rooted

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import spans  # noqa: E402
import workloads  # noqa: E402

DS = SimpleNamespace(graph=graph, engine=engine, rooted=rooted, arbitrary=arbitrary, oracle=oracle, cli=cli)


def test_arbitrary_sweep_slice(tmp_path):
    configs = workloads.setup_sweep(DS, 0, tmp_path)["configs"]
    fault_free, two_crashes = configs[0], configs[2]  # n=60, one cluster, f=0 and f=2
    assert not fault_free["faults"] and two_crashes["faults"]["random"]["f"] == 2
    result = workloads.run_sweep(DS, {"configs": [fault_free, two_crashes]})
    assert (result.runs, result.failed) == (2, 0), result.problems


def test_exhaustive_1crash_slice_keeps_its_pinned_worst_traces(tmp_path):
    inputs = workloads.setup_exhaustive(DS, 0, tmp_path)
    inputs["instances"] = inputs["instances"][:3]
    result = workloads.run_exhaustive(DS, inputs)
    assert result.runs > 0 and result.failed == 0, result.problems


def test_rooted_large_run(tmp_path):
    result = workloads.run_rooted(DS, workloads.setup_rooted(DS, 0, tmp_path))
    assert (result.runs, result.failed) == (1, 0), result.problems


def test_install_spans_binds_every_span_it_names():
    # SpanRecorder.wrap skips a binding the program lacks, so a renamed
    # function would silently read 0 in the per-layer metrics
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    asked = []  # (owner, attr, span name, binding before the wrap)

    class Recorder(spans.SpanRecorder):
        def wrap(self, owner, attr, name, on_result=None):
            asked.append((owner, attr, name, getattr(owner, attr, None)))
            super().wrap(owner, attr, name, on_result)

    rec = Recorder()
    try:
        bench.install_spans(rec, DS)
    finally:
        rec.restore()
    assert asked and [name for _, _, name, before in asked if before is None] == []
    assert all(getattr(owner, attr) is before for owner, attr, _, before in asked)
