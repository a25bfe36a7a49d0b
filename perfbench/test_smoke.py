"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is printed with its unit on
every workload (battery too, which BENCHMARK.json does not list), traced
and untraced, and that the gate reports a failure
when an exact value is corrupted.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import msnlib  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_printed_with_its_unit(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert isinstance(result["metrics"][metric["name"]]["value"], (int, float))


def corrupt_matrix(fn):
    def corrupted(*args, **kwargs):
        value = fn(*args, **kwargs)
        rows = value.to_lists()
        rows[0][0] += Fraction(1, 10**6)
        return msnlib.RationalMatrix(rows)

    return corrupted


@pytest.mark.parametrize(
    "workload, attr, corrupt",
    [
        ("chains", "moment_k_convolved", corrupt_matrix),
        ("closed-forms", "moment_nb", lambda fn: lambda *a: fn(*a) + 1),
        ("closed-forms", "central_closed", lambda fn: lambda *a: fn(*a) - Fraction(1, 3)),
    ],
)
def test_gate_fails_on_corrupted_value(monkeypatch, workload, attr, corrupt):
    monkeypatch.setattr(msnlib, attr, corrupt(getattr(msnlib, attr)))
    _, result = run.run_workload(workload, 3, 0.1, trace=False, smoke=True)
    assert result["correct"] is False and result["failed"] > 0


def test_gate_fails_on_corrupted_case_count():
    checks = msnlib.identities.IDENTITY_CHECKS
    original = list(checks)
    label, fn = checks[0]
    assert label in workloads.SMOKE_IDENTITIES
    checks[0] = (label, lambda ctx: fn(ctx) - 1)
    try:
        _, result = run.run_workload("battery", 3, 0.1, trace=False, smoke=True)
    finally:
        checks[:] = original
    assert result["correct"] is False and result["failed"] > 0


def test_gate_fails_on_corrupted_cli_output(tmp_path):
    inp = workloads.build_cli(3, True, str(tmp_path))
    checked = 0
    for job in workloads.cli_jobs(inp):
        if job.name.split("#")[0] in ("msn", "msn1", "table", "markov-closed", "dist-raw", "dist-central"):
            out = job.call()
            assert job.check(out) is None
            last = out.out.rstrip()[-1]
            out.out = out.out.rstrip()[:-1] + ("1" if last != "1" else "2")
            gate = run.Gate()
            gate.record(job, out, None)
            gate.finish()
            assert gate.failed == 1
            checked += 1
    assert checked >= 3


def test_host_speed_scales_by_nearby_reference_times():
    host = run.HostSpeed(lambda: None, nominal_s=1.0)
    host.at, host.took = [0.0, 1.0, 10.0, 11.0], [2.0, 2.0, 4.0, 4.0]
    assert host.scale(0.2, 0.5) == 0.5
    assert host.scale(10.2, 10.5) == 0.25
