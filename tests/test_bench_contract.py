"""The benchmark's workloads still run on the program.

``perfbench/workloads.py`` reaches the program through module attributes
(``cli.build_setup``, ``cli.run_monitors``, ``oracle.enumerate_adversary``,
...).  Each test runs a small slice of one workload against the modules
imported here and requires that no run of it fails, so a renamed or
changed name the benchmark still uses shows up in the tests, not only when
the benchmark runs.  The full workloads and their pinned digests are
checked by ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

from dispersim import arbitrary, cli, engine, graph, oracle, rooted

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
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
