"""Tests of the benchmark itself: negative controls for every oracle, the
smoke mode of each workload, repeatable traced work counts, and the
refusal to run without the program's sources.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from poisson_forge.expr import LaurentPoly  # noqa: E402


def _round(cls, seed=5):
    """The workload, one smoke round's outputs and the labels of failed ops."""
    workload = cls(seed, smoke=True)
    ops = workload.ops()
    done = run.run_round(ops)
    failed = [op.label for op, out in zip(ops, done.outputs) if out is workloads.FAILED]
    return workload, done.outputs, failed


KNOWN_FAULTS = {"cli nf 1/0", f"cli nf nested {workloads.NESTED_DEPTH}"}


def _bump(poly: LaurentPoly) -> LaurentPoly:
    terms = dict(poly.terms)
    lead = next(iter(terms))
    terms[lead] += 1
    return LaurentPoly(poly.context, terms)


@pytest.fixture(scope="module")
def normal_form():
    return _round(workloads.NormalForm)


@pytest.fixture(scope="module")
def centre_search():
    return _round(workloads.CentreSearch)


@pytest.fixture(scope="module")
def verify_all():
    return _round(workloads.VerifyAll)


class TestNegativeControls:
    def test_normal_forms_pass_as_computed(self, normal_form):
        workload, outputs, failed = normal_form
        assert set(failed) <= KNOWN_FAULTS
        assert workload.check(outputs) == []

    @pytest.mark.parametrize("index", [0, 1, 2, 5])
    def test_bumped_coefficient_is_rejected(self, normal_form, index):
        workload, outputs, _ = normal_form
        broken = list(outputs)
        broken[index] = _bump(outputs[index])
        assert workload.check(broken)

    def test_unreduced_term_is_rejected(self):
        names = ["x1", "x2", "x3", "x4", "x5", "x6", "alpha", "beta"]
        square = {(0, 0, 2, 0, 0, 0, 0, 0): Fraction(1)}
        failures = oracles.check_normal_form([(square, 1)], square, names, [], "x3^2")
        assert failures and "unreduced" in failures[0]

    def test_centres_pass_as_computed(self, centre_search):
        workload, outputs, failed = centre_search
        assert failed == []
        assert workload.check(outputs) == []

    def test_dropped_centre_vector_is_rejected(self, centre_search):
        workload, outputs, _ = centre_search
        degree4 = workload.ambient_degrees.index(4)
        broken = list(outputs)
        broken[degree4] = outputs[degree4][:-1]
        assert workload.check(broken)

    def test_non_central_vector_is_rejected(self, centre_search):
        workload, outputs, _ = centre_search
        ctx = workload.algebra.context
        broken = list(outputs)
        broken[0] = [ctx.var("X1")]
        assert workload.check(broken)

    def test_shifted_inner_search_answer_is_rejected(self, centre_search):
        workload, outputs, _ = centre_search
        broken = list(outputs)
        broken[-1] = outputs[-1] + 1
        assert workload.check(broken)
        broken = list(outputs)
        broken[-1] = _bump(outputs[-1])
        assert workload.check(broken)

    def test_outer_derivation_with_preimage_is_rejected(self, centre_search):
        workload, outputs, _ = centre_search
        broken = list(outputs)
        beta0 = len(workload.ambient_degrees) + len(workload.quotient_degrees)
        broken[beta0] = workload.ring10.context.var("x1")
        assert workload.check(broken)

    def test_suites_pass_as_computed(self, verify_all):
        workload, outputs, failed = verify_all
        assert failed == []
        assert workload.check(outputs) == []

    def test_op_that_raises_is_rejected_unless_a_known_fault(self, centre_search):
        workload, outputs, _ = centre_search

        def boom():
            raise ValueError("boom")
        for known, expected in ((False, False), (True, True)):
            done = run.run_round([workloads.Op("boom", boom, known_fault=known)])
            assert done.failed == 1
            assert run._verdict(workload, outputs, True, [done]) is expected

    def test_failing_report_item_is_rejected(self, verify_all):
        workload, outputs, _ = verify_all
        code, text = outputs[0]
        broken = list(outputs)
        broken[0] = (code, text.replace("[ok  ]", "[FAIL]", 1))
        assert workload.check(broken)

    def test_sympy_disagreement_is_rejected(self, verify_all):
        workload, outputs, _ = verify_all
        text = outputs[workload.suites.index("jacobi")][1]
        verdicts = oracles.SympyAlgebra().jacobi_verdicts()
        assert oracles.check_agreement("jacobi", text, verdicts) == []
        verdicts[next(iter(verdicts))] = False
        assert oracles.check_agreement("jacobi", text, verdicts)


def _bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_is_correct_and_quick(name):
    start = time.perf_counter()
    done = _bench("--workload", name, "--seed", "11", "--seconds", "1", "--smoke")
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    ops = _round_ops(name)
    rounds = result["attempted"] // len(ops)
    # correct already rules out a failure that is not a known fault
    assert result["failed"] <= rounds * sum(op.known_fault for op in ops)
    assert elapsed < 30


def _round_ops(name):
    return workloads.WORKLOADS[name](11, smoke=True).ops()


def test_traced_runs_repeat_their_work_counts():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trace_file = BENCH / "out" / "trace-centre-search-seed4.json"
    counts, results = [], []
    for _ in range(2):
        done = _bench("--workload", "centre-search", "--seed", "4", "--seconds", "1",
                      "--smoke", "--trace", "1")
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        counts.append(json.loads(trace_file.read_text())["counts"])
    assert counts[0] == counts[1]
    assert all(r["correct"] for r in results)
    assert [m["name"] for m in spec["per_layer"]] == list(results[0]["metrics"])
    deterministic = [name for name, m in results[0]["metrics"].items()
                     if m["unit"] in ("count", "ratio") and name != "trace.overhead"]
    for name in deterministic:
        assert results[0]["metrics"][name] == results[1]["metrics"][name], name
    metrics = {name: m["value"] for name, m in results[0]["metrics"].items()}
    assert metrics["poisson.bracket.calls"] > 0
    assert metrics["linalg.add_row.calls"] > 0
    for d in (2, 3, 4):
        assert metrics[f"quotient.bounded_centre.d{d}.total_s"] > 0
    assert metrics["quotient.bounded_inner_search.total_s"] > 0


def test_traced_run_sees_every_normal_form_call():
    done = _bench("--workload", "normal-form", "--seed", "4", "--seconds", "1",
                  "--smoke", "--trace", "1")
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    cases = len(workloads.NormalForm(4, smoke=True).cases)
    assert metrics["quotient.normal_form.calls"]["value"] >= cases
    assert metrics["poisson.bracket.calls"]["value"] == 0


def test_layer_metrics_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = {name: unit for name, (_, unit)
                in tracing.layer_metrics(tracing.Tracer(), 1.0).items()}
    assert listed == produced


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "verify-all", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
