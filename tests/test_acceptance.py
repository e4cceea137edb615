"""Acceptance gate: every criterion at its stated tolerance.

Each criterion is defined once, in ``oracle.CRITERIA`` (the same registry the
``dispersim verify`` suites run).  Each test prints one PASS/FAIL line
(visible with pytest -s).  Criterion 6 audits the memory envelope over every
run the other criteria executed, so this module shares one audit.
"""

from __future__ import annotations

import json

import pytest

from dispersim import cli, oracle

AUDIT = oracle.MemoryAudit()


def check(label: str, name: str) -> dict:
    passed, report = oracle.check_criterion(name, AUDIT)
    print(f"ACCEPTANCE {label} ({name}): {'PASS' if passed else 'FAIL'} {report}")
    assert passed, f"{label} failed: {report['failures'][:3]}"
    return report


def test_criterion_1_rooted_fault_free_correctness_and_bound():
    check("criterion-1 rooted fault-free", "rooted-faultfree")


def test_criterion_2_rooted_exhaustive_single_crash():
    check("criterion-2 rooted exhaustive f=1", "rooted-exhaustive")


def test_criterion_3_rooted_randomized_multi_crash():
    check("criterion-3 rooted multi-crash", "rooted-multicrash")


def test_criterion_4_arbitrary_correctness_and_bound():
    check("criterion-4 arbitrary correctness", "arbitrary-envelope")


def test_criterion_5_isolated_fault_free_phase_disperses_top_cluster():
    check("criterion-5 fault-free phase isolation", "phase-isolation")


@pytest.mark.parametrize("name", ["arbitrary-faultfree", "arbitrary-exhaustive"])
def test_arbitrary_verify_suite(name):
    check("arbitrary suite", name)


def test_criterion_8_unknown_parameters_fallback():
    check("criterion-8 k-only fallback", "k-only-fallback")


def test_criterion_6_memory_envelope_across_all_runs():
    ok = not AUDIT.over and AUDIT.runs > 10000
    detail = f"{AUDIT.runs} runs audited, worst {AUDIT.worst} bits; over: {AUDIT.over[:3]}"
    print(f"ACCEPTANCE criterion-6 memory envelope: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def test_criterion_7_determinism_and_replay(tmp_path):
    check("criterion-7 determinism", "determinism")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cli.determinism_configs()[1]))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    before = (out / "summary.json").read_bytes(), (out / "trace.jsonl").read_bytes()
    assert cli.main(["replay", "--config", str(cfg_path), "--out", str(out)]) == 0, "replay mismatch"
    after = (out / "summary.json").read_bytes(), (out / "trace.jsonl").read_bytes()
    assert before == after, "replay altered stored outputs"
