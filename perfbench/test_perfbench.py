"""Tests of the benchmark itself: oracles reject corrupted outputs, the
tracer attributes time correctly, and every workload runs clean.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import braidrep  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from braidrep import BraidWord  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run(workload: str, trace: int, seconds: float = 1.0, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


# -- oracles ------------------------------------------------------------------


def test_conway_oracle_accepts_real_and_rejects_plus_one():
    for w in (op.arg for op in workloads.conway_deck(5, total=14)):
        result = braidrep.alexander_conway(w)
        poly = oracles.parse_conway(str(result.poly))
        assert oracles.check_conway(w.n, w.letters, poly, result.components) is None
        corrupted = dict(poly)
        corrupted[0] = corrupted.get(0, 0) + 1
        assert oracles.check_conway(w.n, w.letters, corrupted, result.components) is not None


def test_pinned_conway_values():
    for name, ((n, letters), expected) in oracles.PINNED_CONWAY.items():
        result = braidrep.alexander_conway(BraidWord(n, letters))
        poly = oracles.parse_conway(str(result.poly))
        assert oracles.check_pinned(name, poly) is None
        assert oracles.check_conway(n, letters, poly, result.components) is None
    assert oracles.check_pinned("trefoil", {-2: 1, 0: 0, 2: 1}) is not None


def test_parse_conway_forms():
    assert oracles.parse_conway("s^-2 - 1 + s^2") == {-2: 1, 0: -1, 2: 1}
    assert oracles.parse_conway("-s^-2 + 3 - s^2") == {-2: -1, 0: 3, 2: -1}
    assert oracles.parse_conway("2*s^-1 - 2*s") == {-1: 2, 1: -2}
    assert oracles.parse_conway("0") == {}
    for bad in ("s^-2 -- 1", "+ s", "s^2 + s^2", "x"):
        with pytest.raises(ValueError):
            oracles.parse_conway(bad)


def test_permutation_operator_matches_flip_rep():
    flip = braidrep.yang_baxter.flip_r(2)
    w = BraidWord(4, ((1, 1), (2, 1), (3, -1), (1, 1)))
    rep = braidrep.yang_baxter.rep_from_r(flip, 4, w)
    assert oracles.check_ybe_at_q1(4, w.letters, oracles.specialize_q1(rep.entries)) is None


def test_ybe_oracle_rejects_swapped_rows():
    n, w = workloads.ybe_deck(2, total=1)[0].arg
    result = workloads.run_ybe((n, w))
    at_one = oracles.specialize_q1(result.entries)
    assert oracles.check_ybe_at_q1(n, w.letters, at_one) is None
    swapped = at_one.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert oracles.check_ybe_at_q1(n, w.letters, swapped) is not None


def test_kz_oracle_rejects_residual_above_bound():
    ops = workloads.kz_deck(4, total=2)
    left, right = (workloads.run_kz(op.arg).matrix for op in ops[:2])
    assert ops[0].pair == ops[1].pair
    assert oracles.check_kz_pair(left, right) is None
    bumped = right.copy()
    bumped[0, 0] += 2e-6
    assert oracles.check_kz_pair(left, bumped) is not None


def test_cli_oracle():
    argv, expected = workloads.README_COMMANDS[0]
    assert oracles.check_cli(argv, expected, 0, expected) is None
    assert oracles.check_cli(argv, expected, 0, expected.replace(" - 1", " + 1")) is not None
    assert oracles.check_cli(argv, expected, 1, expected) is not None
    alex = ("alexander", "--n", "2", "s1 s1")
    assert oracles.check_cli(alex, None, 0, '{"conway": "s^-1 - s", "components": 2}\n') is None
    assert oracles.check_cli(alex, None, 0, '{"conway": "s^-1 - s + 1", "components": 2}\n') is not None
    assert oracles.check_cli(alex, None, 0, "not json") is not None


# -- inputs -----------------------------------------------------------------------


def test_decks_are_seeded_and_match_the_stated_ranges():
    for name in workloads.WORKLOADS:
        a, b = workloads.make_deck(name, 9), workloads.make_deck(name, 9)
        assert workloads.deck_digest(a) == workloads.deck_digest(b)
        assert workloads.deck_digest(a) != workloads.deck_digest(workloads.make_deck(name, 10))
    conway = workloads.conway_deck(1, total=700)
    assert {w.n for w in (op.arg for op in conway)} == set(range(3, 10))
    assert {len(op.arg) for op in conway} == set(range(8, 33))
    inverse = sum(s < 0 for op in conway for _, s in op.arg.letters)
    assert abs(inverse / sum(len(op.arg) for op in conway) - 0.5) < 0.02
    for op in workloads.ybe_deck(1, total=60):
        n, w = op.arg
        assert 5 <= n <= 7 and 4 <= len(w) <= 8
        assert sum(s < 0 for _, s in w.letters) in (len(w) // 2, (len(w) + 1) // 2)
    kz = workloads.kz_deck(1, total=48)
    for first, second in zip(kz[::2], kz[1::2]):
        assert first.pair == second.pair and first.arg[0] is second.arg[0]
        spec = first.arg[0]
        assert 3 <= spec.n <= 6 and 1 <= spec.m <= 3 and abs(spec.h) <= 0.2
    assert sum(op.arg[0].restrict_to_nullspace for op in kz) == 24


def test_blocks_hold_the_same_mix_and_timed_phase_ends_on_one():
    def key(op):
        if op.kind == "conway":
            return op.arg.n
        if op.kind == "kz":
            spec = op.arg[0]
            return spec.n, spec.m, spec.restrict_to_nullspace
        if op.kind == "ybe":
            return op.arg[0]
        argv, expected = op.arg
        return argv[0] if argv[0] in ("alexander", "selftest") and expected is None else argv

    for name in workloads.WORKLOADS:
        block = workloads.BLOCK_OPS[name]
        deck = workloads.make_deck(name, 5)
        assert len(deck) % block == 0
        mixes = {tuple(sorted(map(str, map(key, deck[i:i + block])))) for i in range(0, len(deck), block)}
        assert len(mixes) == 1, name

    class Clock:
        def run(self, op, k):
            return 0.4

    # 1 s of 0.4 s ops takes 3 ops; then the block in progress is finished
    for block, ops in ((2, 4), (3, 3), (7, 7), (48, 48)):
        times, refs = run.timed_loop(Clock(), list(range(96)), 1.0, block)
        assert len(times) == len(refs) == ops


# -- tracer -----------------------------------------------------------------------


def _trace(ops):
    tracer = Tracer()
    runner = run.Runner(tracer)
    tracer.install()
    try:
        for k, op in enumerate(ops):
            runner.run(op, k)
    finally:
        tracer.uninstall()
    assert runner.failed == 0, runner.errors
    return tracer.summary()


def test_tracer_rebinds_by_name_imports_and_restores_them():
    alexander = sys.modules["braidrep.alexander"]
    originals = (alexander.exact_div, alexander.reduced_burau, braidrep.laurent.RingMatrix.__matmul__)
    tracer = Tracer()
    tracer.install()
    try:
        assert alexander.exact_div is not originals[0]
        assert alexander.exact_div.__wrapped__ is originals[0]
        assert alexander.reduced_burau.__wrapped__ is originals[1]
        assert sys.modules["braidrep.kz"].omega_matrix.__wrapped__ is braidrep.verma.omega_matrix.__wrapped__
    finally:
        tracer.uninstall()
    assert (alexander.exact_div, alexander.reduced_burau, braidrep.laurent.RingMatrix.__matmul__) == originals


def test_self_times_add_up_to_op_time():
    summary = _trace(workloads.conway_deck(2, total=7) + workloads.kz_deck(2, total=2))
    for op_id, (root, self_sum) in summary.op_self_sums().items():
        assert self_sum == pytest.approx(root, rel=1e-9, abs=1e-9), op_id


def test_inverse_letters_dominate_large_conway_ops():
    """On n >= 8 words with inverse letters, the adjugate inverse holds most
    of the op time (93% at n = 9 with 40 letters when first profiled)."""
    ops = [op for op in workloads.conway_deck(6, total=70)
           if op.arg.n >= 8 and sum(s < 0 for _, s in op.arg.letters) >= 4][:3]
    summary = _trace(ops)
    share = summary.total_s("laurent.inverse_unit_det") / summary.op_seconds()
    assert share > 0.5
    assert summary.calls("burau.generator_inv") == sum(
        s < 0 for op in ops for _, s in op.arg.letters
    )


# -- whole runs -------------------------------------------------------------------


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return record, result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_run_is_clean(workload):
    record, result = _result(_run(workload, 0))
    assert result["correct"] and result["failed"] == 0 and record["fail_frac"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for key in ("seed", "inputs_sha256", "git_commit", "python", "numpy", "blas",
                "blas_threads", "nproc", "cpu_model"):
        assert key in record


BYPASSED = {
    "conway-mixed": ("yang_baxter.place_on_legs.calls", "verma.omega_matrix.calls", "kz.connection.calls"),
    "ybe-rq": ("laurent.exact_div.calls", "burau.generator_inv.calls", "kz.system_build.calls"),
    "kz-monodromy": ("laurent.matmul.calls", "laurent.det.calls", "burau.generator_pos.calls"),
    "cli-small": (),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    _, result = _result(_run(workload, 1))
    assert result["correct"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    for name in BYPASSED[workload]:
        assert result["metrics"][name]["value"] == 0, name


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) - {"ybe-rq", "kz-monodromy"}


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("conway-mixed", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
