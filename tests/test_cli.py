"""CLI contract: documented invocations, exit codes, determinism."""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from braidrep.burau import reduced_burau
from braidrep.cli import main
from braidrep.laurent import LaurentPoly, RingMatrix
from braidrep.words import BraidWord
from braidrep.yang_baxter import RMatrixSpec, check_braid_ybe, check_qybe, r_matrix_from_json, rq_r
from verma_dense import omega_matrix
from ybe_reference import r_matrix_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_alexander_documented_invocation(capsys):
    code, out = run_cli(capsys, "alexander", "--n", "2", "s1 s1 s1")
    assert code == 0
    assert out == '{"conway": "s^-2 - 1 + s^2", "components": 1}\n'


def test_braid_documented_invocation(capsys):
    code, out = run_cli(capsys, "braid", "--n", "3", "s1 s2^-1")
    assert code == 0
    assert out == (
        '{"permutation": [3, 1, 2], "cycles": [[1, 3, 2]], "pure": false, '
        '"exponent_sum": 0, "components": 1}\n'
    )


def test_verma_dims_documented_invocation(capsys):
    code, out = run_cli(capsys, "verma", "dims", "--n", "3", "--m", "2", "--lambda", "7/3")
    assert code == 0
    assert out == '{"weight_dim": 6, "null_dim": 3}\n'


def test_negative_option_values_join_with_equals(capsys):
    # argparse reads a separate "-5/7" as an option; the README gives the = form
    code, out = run_cli(capsys, "verma", "dims", "--n", "3", "--m", "2", "--lambda=-5/7")
    assert code == 0
    assert out == '{"weight_dim": 6, "null_dim": 3}\n'
    code, out = run_cli(
        capsys, "kz", "monodromy", "--n", "2", "--m", "1", "--lambda=1/2", "--h=-0.1+0.05i", "--word", "s1"
    )
    assert code == 0
    assert len(json.loads(out)["matrix"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["verma", "dims", "--n", "3", "--m", "2", "--lambda", "-5/7"])
    assert exc.value.code == 2


def test_burau_output_roundtrips(capsys):
    code, out = run_cli(capsys, "burau", "--n", "3", "--reduced", "s1 s2^-1")
    assert code == 0
    payload = json.loads(out)
    assert payload["reduced"] is True
    data = payload["matrix"]
    grid = [[LaurentPoly.parse(entry, "t") for entry in row] for row in data["entries"]]
    assert data["rows"] == data["cols"] == 2
    assert RingMatrix(2, 2, grid) == reduced_burau(BraidWord.parse("s1 s2^-1", 3)).matrix


def test_ybe_builtin_and_file(tmp_path, capsys):
    code, out = run_cli(capsys, "ybe", "--builtin", "rq")
    assert code == 0
    assert out == '{"braid_ybe": 0.0, "qybe": 2.0, "invertible": true}\n'

    path = tmp_path / "r.json"
    path.write_text(json.dumps(r_matrix_json(rq_r())))
    code, out_file = run_cli(capsys, "ybe", "--file", str(path))
    assert code == 0
    assert out_file == out


def test_ybe_file_reports_a_non_ybe_matrix(tmp_path, capsys):
    # residuals are reported for any R; only rep_from_r needs the YBE to hold
    rng = random.Random(3)
    grid = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)] for _ in range(4)]
    grid[0][0] += 7  # keep it invertible
    spec = RMatrixSpec(2, "rational", RingMatrix.from_rows(grid))
    path = tmp_path / "r.json"
    path.write_text(json.dumps(r_matrix_json(spec)))
    code, out = run_cli(capsys, "ybe", "--file", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["braid_ybe"] != 0.0
    assert payload == {
        "braid_ybe": check_braid_ybe(spec).norm,
        "qybe": check_qybe(spec).norm,
        "invertible": True,
    }


_RQ_ENTRIES = [["q", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "1", "q - q^-1", "0"], ["0", "0", "0", "q"]]


def _ybe_file(tmp_path, capsys, ring, matrix):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"dim": 2, "ring": ring, "matrix": matrix}))
    code, out = run_cli(capsys, "ybe", "--file", str(path))
    return code, json.loads(out)


def test_ybe_file_rational_ring_rejects_q_entries(tmp_path, capsys):
    code, payload = _ybe_file(tmp_path, capsys, "rational", _RQ_ENTRIES)
    assert code == 1
    assert "error" in payload


def test_ybe_file_laurent_q_ring_rejects_other_variables(tmp_path, capsys):
    entries = [list(row) for row in _RQ_ENTRIES]
    entries[3][3] = "t"
    code, payload = _ybe_file(tmp_path, capsys, "laurent:q", entries)
    assert code == 1
    assert "error" in payload


def test_ybe_json_loader_roundtrip():
    spec = rq_r()
    again = r_matrix_from_json(json.loads(json.dumps(r_matrix_json(spec))))
    assert again.matrix == spec.matrix


def test_kz_monodromy_output(capsys):
    code, out = run_cli(
        capsys,
        "kz", "monodromy", "--n", "2", "--m", "0", "--lambda", "1/2",
        "--h", "0.1", "--word", "s1 s1", "--tol", "1e-9",
    )
    assert code == 0
    payload = json.loads(out)
    [[entry]] = payload["matrix"]
    import math
    expected = math.exp(0.1 * 0.25 / 8)
    assert abs(entry[0] - expected) < 1e-8 and abs(entry[1]) < 1e-8
    assert payload["est_error"] < 1e-9


def test_kz_check_output(capsys):
    code, out = run_cli(
        capsys,
        "kz", "check", "--n", "3", "--m", "1", "--lambda", "1/2", "--h", "0.1+0.05i",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["braid_residual"] < 1e-6
    assert payload["flatness_residual"] < 1e-10
    assert payload["homotopy_residual"] < 1e-8


def test_kz_nullspace_flag(capsys):
    code, out = run_cli(
        capsys,
        "kz", "monodromy", "--n", "3", "--m", "2", "--lambda", "7/3",
        "--h", "0.1", "--word", "s1", "--nullspace",
    )
    assert code == 0
    assert len(json.loads(out)["matrix"]) == 3  # n(n-1)/2


def test_kz_tau_convention(capsys):
    code, out = run_cli(
        capsys,
        "kz", "monodromy", "--n", "2", "--m", "0", "--lambda", "1/2",
        "--tau", "2.0", "--word", "s1 s1",
    )
    assert code == 0
    [[entry]] = json.loads(out)["matrix"]
    import cmath
    expected = cmath.exp(2j * cmath.pi / 2.0 * 0.25 / 8)
    assert abs(complex(entry[0], entry[1]) - expected) < 1e-8


def test_kz_requires_exactly_one_parameter(capsys):
    code, out = run_cli(
        capsys, "kz", "monodromy", "--n", "2", "--m", "0", "--lambda", "1/2", "--word", "s1"
    )
    assert code == 1 and "error" in json.loads(out)
    code, out = run_cli(
        capsys,
        "kz", "monodromy", "--n", "2", "--m", "0", "--lambda", "1/2",
        "--h", "1", "--tau", "2", "--word", "s1",
    )
    assert code == 1 and "error" in json.loads(out)


def test_kz_check_two_strands(capsys):
    code, out = run_cli(capsys, "kz", "check", "--n", "2", "--m", "1", "--lambda", "7/3", "--h", "0.1")
    assert code == 0
    payload = json.loads(out)
    assert payload["braid_residual"] < 1e-7  # inverse-consistency residual at n=2
    assert payload["homotopy_residual"] < 1e-8


def test_computation_error_exit_code(capsys):
    code, out = run_cli(capsys, "alexander", "--n", "3", "s7")
    assert code == 1
    assert "error" in json.loads(out)


def test_error_without_a_message_reports_its_type(capsys, monkeypatch):
    from braidrep import cli

    def exhausted(word):
        raise MemoryError()

    monkeypatch.setattr(cli, "burau_matrix", exhausted)
    code, out = run_cli(capsys, "burau", "--n", "3", "s1")
    assert code == 1
    assert json.loads(out) == {"error": "MemoryError"}


def test_verma_dims_at_a_degenerate_weight_on_two_strands(capsys):
    code, out = run_cli(capsys, "verma", "dims", "--n", "2", "--m", "300", "--lambda", "1")
    assert code == 0
    assert out == '{"weight_dim": 301, "null_dim": 1}\n'


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 2


def test_pretty_flag(capsys):
    code, out = run_cli(capsys, "--pretty", "braid", "--n", "2", "s1")
    assert code == 0 and out.startswith("{\n")


def test_selftest_deterministic_bytes():
    cmd = [sys.executable, "-m", "braidrep.cli", "selftest", "--seed", "11"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["all_passed"] is True
    assert {c["name"] for c in payload["checks"]} == {
        "braid_words",
        "burau_relations",
        "alexander_markov_skein",
        "yang_baxter_corpus",
        "verma_dimensions_relations",
        "kz_monodromy",
    }


@pytest.mark.parametrize("seed", [296319, 676621, 785915])
def test_selftest_redraws_a_singular_r_matrix(capsys, seed):
    # these seeds first draw a singular 4x4 "bad" R for the Yang-Baxter check
    code, out = run_cli(capsys, "selftest", "--seed", str(seed))
    assert code == 0
    assert json.loads(out)["all_passed"] is True


def test_verma_omega_export(capsys):
    code, out = run_cli(
        capsys, "verma", "omega", "--n", "2", "--m", "0", "--i", "1", "--j", "2", "--lambda", "7/3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"]["entries"] == [["49/72"]]


def test_verma_omega_documented_invocation(capsys):
    code, out = run_cli(capsys, "verma", "omega", "--n", "3", "--m", "2", "--i", "1", "--j", "2", "--lambda", "7/3")
    assert code == 0
    assert out == (
        '{"i": 1, "j": 2, "matrix": {"rows": 6, "cols": 6, "entries": ['
        '["49/72", "0", "0", "0", "0", "0"], ["0", "7/72", "0", "7/12", "0", "0"], '
        '["0", "0", "-35/72", "0", "7/12", "0"], ["0", "7/12", "0", "7/72", "0", "0"], '
        '["0", "0", "2/3", "0", "1/72", "2/3"], ["0", "0", "0", "0", "7/12", "-35/72"]]}}\n'
    )


@pytest.mark.parametrize(
    "n, m, i, j, lam",
    [(3, 2, 1, 2, "7/3"), (4, 3, 2, 4, "1/2"), (5, 3, 1, 5, "2"), (6, 4, 3, 5, "-5/7"), (2, 0, 1, 2, "1"),
     (12, 4, 1, 12, "1/3")],
)
def test_verma_omega_matches_the_dense_reference(capsys, n, m, i, j, lam):
    # "--lambda=" keeps a negative weight from reading as an option
    argv = ("verma", "omega", "--n", str(n), "--m", str(m), "--i", str(i), "--j", str(j), f"--lambda={lam}")
    code, out = run_cli(capsys, *argv)
    expected = [[str(x) for x in row] for row in omega_matrix(n, i, j, Fraction(lam), m)]
    assert code == 0
    assert json.loads(out) == {
        "i": i, "j": j, "matrix": {"rows": len(expected), "cols": len(expected), "entries": expected}
    }


@pytest.mark.parametrize("i, j", [(2, 1), (0, 2), (1, 4)])
def test_verma_omega_rejects_bad_leg_pairs(capsys, i, j):
    argv = ("verma", "omega", "--n", "3", "--m", "2", "--i", str(i), "--j", str(j), "--lambda", "7/3")
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {"error": f"bad leg pair ({i}, {j}) for n=3"}


@pytest.mark.parametrize(
    "argv",
    [
        ("verma", "dims", "--n", "2", "--m", "-1", "--lambda", "7/3"),
        ("verma", "omega", "--n", "2", "--m", "-2", "--i", "1", "--j", "2", "--lambda", "7/3"),
        ("kz", "monodromy", "--n", "3", "--m", "-1", "--lambda", "1/2", "--h", "0.1", "--word", "s1"),
    ],
    ids=["verma-dims", "verma-omega", "kz-monodromy"],
)
def test_negative_weight_level_is_an_error(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert "non-negative" in json.loads(out)["error"]


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
@pytest.mark.parametrize(
    "command",
    [("monodromy", "--word", "s1 s2"), ("check",), ("monodromy", "--word", "")],
    ids=["monodromy", "check", "monodromy-empty"],
)
def test_kz_rejects_bad_tolerance(capsys, command, tol):
    argv = ("kz", command[0], "--n", "3", "--m", "1", "--lambda", "1/2", "--h", "0.1", *command[1:])
    code, out = run_cli(capsys, *argv, f"--tol={tol}")
    assert code == 1
    assert "tolerance" in json.loads(out)["error"]


def test_ybe_reports_invertibility_without_an_adjugate(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("RingMatrix.adjugate called")

    monkeypatch.setattr(RingMatrix, "adjugate", refuse)
    code, out = run_cli(capsys, "ybe", "--builtin", "flip", "--dim", "6")
    assert code == 0
    assert json.loads(out) == {"braid_ybe": 0.0, "qybe": 0.0, "invertible": True}


def test_ybe_rejects_nonpositive_dimension(tmp_path, capsys):
    for builtin, dim in (("flip", "-1"), ("flip", "0"), ("identity", "0")):
        code, out = run_cli(capsys, "ybe", "--builtin", builtin, "--dim", dim)
        assert code == 1
        assert "r-matrix dimension" in json.loads(out)["error"]
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"dim": -1, "ring": "rational", "matrix": [["1"]]}))
    code, out = run_cli(capsys, "ybe", "--file", str(path))
    assert code == 1
    assert "r-matrix dimension" in json.loads(out)["error"]


_IMPORT_PROBE = """
import contextlib, io, json, sys
import braidrep, braidrep.cli
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["braid", "--n", "3", "s1 s2^-1"],
        ["burau", "--n", "3", "s1 s2^-1"],
        ["burau", "--n", "3", "--reduced", "s1 s2^-1"],
        ["alexander", "--n", "2", "s1 s1 s1"],
        ["verma", "dims", "--n", "3", "--m", "2", "--lambda", "7/3"],
        ["verma", "omega", "--n", "3", "--m", "2", "--i", "1", "--j", "2", "--lambda", "7/3"],
        ["ybe", "--builtin", "rq"],
    ):
        codes.append(braidrep.cli.main(argv))
exact_loads_numpy = "numpy" in sys.modules
resolved = all(getattr(braidrep, name, None) is not None for name in braidrep.__all__)
try:
    braidrep.no_such_name
    unknown_raises = False
except AttributeError:
    unknown_raises = True
print(json.dumps({
    "codes": codes,
    "exact_loads_numpy": exact_loads_numpy,
    "all_names_resolve": resolved,
    "kz_spec_is_kz_KzSpec": braidrep.KzSpec is braidrep.kz.KzSpec,
    "unknown_raises": unknown_raises,
}))
"""


def test_exact_subcommands_do_not_import_numpy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "codes": [0] * 7,
        "exact_loads_numpy": False,
        "all_names_resolve": True,
        "kz_spec_is_kz_KzSpec": True,
        "unknown_raises": True,
    }


def test_kz_check_builds_one_system(capsys, monkeypatch):
    from braidrep import kz

    builds = []
    build = kz.KzSystem.__init__

    def counting(self, spec):
        builds.append(spec)
        build(self, spec)

    monkeypatch.setattr(kz.KzSystem, "__init__", counting)
    kz._system.cache_clear()
    code, _ = run_cli(capsys, "kz", "check", "--n", "3", "--m", "1", "--lambda", "1/2", "--h", "0.1")
    assert code == 0
    assert len(builds) == 1


@pytest.mark.parametrize(
    "argv, limit",
    [
        (("verma", "dims", "--n", "2", "--m", "4000", "--lambda", "1/3"), "limit 4000"),
        (("verma", "dims", "--n", "30", "--m", "30", "--lambda", "1/3"), "limit 4000"),
        (("verma", "dims", "--n", "2", "--m", "1400", "--lambda", "1"), "limit 1400"),
        (("verma", "omega", "--n", "2", "--m", "1400", "--i", "1", "--j", "2", "--lambda", "1/3"),
         "limit 1400"),
        (("kz", "check", "--n", "2", "--m", "500", "--lambda", "1/3", "--h", "0.1"), "limit 500"),
        (("kz", "monodromy", "--n", "8", "--m", "8", "--lambda", "1/3", "--h", "0.1", "--word", "s1"),
         "limit 500"),
        (("kz", "monodromy", "--n", "7", "--m", "5", "--lambda", "1/3", "--tau", "2", "--word", "s1"),
         "4000000 entries"),
        (("kz", "monodromy", "--n", "3000", "--m", "0", "--lambda", "1/3", "--h", "0.1", "--word", ""),
         "4000000 entries"),
        (("verma", "dims", "--n", "3999", "--m", "1", "--lambda", "1/3"), "limit 2000000"),
        (("verma", "omega", "--n", "10000000", "--m", "0", "--i", "1", "--j", "2", "--lambda", "1/3"),
         "limit 2000000"),
        (("kz", "monodromy", "--n", "501", "--m", "0", "--lambda", "1/3", "--h", "0.1", "--word", "s1"),
         "limit 15000000"),
    ],
    ids=[
        "dims", "dims-huge", "dims-elimination", "omega", "kz-check", "kz-huge", "kz-stack", "kz-many-legs",
        "dims-basis", "omega-basis", "kz-build",
    ],
)
def test_oversized_weight_spaces_are_rejected_before_building(capsys, monkeypatch, argv, limit):
    from braidrep import kz, verma

    def refuse(*args, **kwargs):
        raise AssertionError("built a weight space")

    monkeypatch.setattr(verma, "weight_space_basis", refuse)
    monkeypatch.setattr(kz.KzSystem, "__init__", refuse)
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert limit in json.loads(out)["error"]


@pytest.mark.parametrize(
    "argv, limit",
    [(("braid", "s1"), "MAX_BRAID_N"), (("burau", "s1"), "MAX_BURAU_N"), (("burau", "--reduced", "s1"), "MAX_BURAU_N")],
    ids=["braid", "burau", "burau-reduced"],
)
def test_strand_limits_reject_before_building(capsys, monkeypatch, argv, limit):
    from braidrep import cli, words

    def refuse(*args, **kwargs):
        raise AssertionError("built a braid word")

    monkeypatch.setattr(words.BraidWord, "parse", staticmethod(refuse))
    for name in ("burau_matrix", "reduced_burau_matrix"):
        monkeypatch.setattr(cli, name, refuse)
    n = getattr(cli, limit)
    code, out = run_cli(capsys, argv[0], "--n", str(n), *argv[1:])
    assert (code, json.loads(out)) == (1, {"error": "built a braid word"})
    code, out = run_cli(capsys, argv[0], "--n", str(n + 1), *argv[1:])
    assert (code, json.loads(out)) == (1, {"error": f"strand count {n + 1} is over the limit {n}"})


@pytest.mark.parametrize("n", [2, 3, 8, 21, 342])
def test_alexander_word_limit_rejects_before_building(capsys, monkeypatch, n):
    from braidrep import alexander, cli, words

    def refuse(*args, **kwargs):
        raise AssertionError("built a braid word")

    monkeypatch.setattr(words.BraidWord, "parse", staticmethod(refuse))
    monkeypatch.setattr(alexander, "alexander_conway", refuse)
    letters = math.isqrt(cli.MAX_ALEXANDER_WORK // (n - 1) ** 3) - 1
    code, out = run_cli(capsys, "alexander", "--n", str(n), " ".join(["s1"] * letters))
    assert (code, json.loads(out)) == (1, {"error": "built a braid word"})
    code, out = run_cli(capsys, "alexander", "--n", str(n), " ".join(["s1"] * (letters + 1)))
    assert code == 1
    assert json.loads(out)["error"].startswith(f"{letters + 1} letters on {n} strands are over the limit")


def test_ybe_rejects_dimension_over_size_cap(tmp_path, capsys, monkeypatch):
    from braidrep import yang_baxter

    def refuse(*args, **kwargs):
        raise AssertionError("built an r-matrix")

    for name in ("flip_matrix", "r_matrix_from_json"):
        monkeypatch.setattr(yang_baxter, name, refuse)
    monkeypatch.setattr(RingMatrix, "identity", refuse)
    for builtin in ("flip", "identity"):
        code, out = run_cli(capsys, "ybe", "--builtin", builtin, "--dim", "17")
        assert code == 1
        assert "r-matrix dimension 17 is over the limit" in json.loads(out)["error"]
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"dim": 100, "ring": "rational", "matrix": [["1"]]}))
    code, out = run_cli(capsys, "ybe", "--file", str(path))
    assert code == 1
    assert "r-matrix dimension 100 is over the limit" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "param, value",
    [("h", "nan"), ("h", "1e400"), ("h", "1+1e400i"), ("tau", "nan"), ("tau", "-1e400"), ("tau", "0")],
)
def test_kz_rejects_non_finite_or_zero_parameters(capsys, param, value):
    argv = ("kz", "monodromy", "--n", "3", "--m", "1", "--lambda", "1/2", "--word", "s1")
    code, out = run_cli(capsys, *argv, f"--{param}={value}")
    assert code == 1
    assert json.loads(out)["error"].startswith(f"{param} must be")


@pytest.mark.parametrize("lam", ["nani", "1e400i"])
def test_kz_rejects_a_non_finite_weight(capsys, lam):
    argv = ("kz", "monodromy", "--n", "3", "--m", "1", "--lambda", lam, "--h", "0.1", "--word", "s1")
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"].startswith("lam must be finite")


def test_kz_accepts_zero_h(capsys):
    argv = ("kz", "monodromy", "--n", "2", "--m", "1", "--lambda", "1/2", "--h", "0", "--word", "s1")
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["matrix"] == [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]


def test_verma_dims_on_many_legs(capsys):
    # the weight basis is enumerated without one stack frame per leg
    code, out = run_cli(capsys, "verma", "dims", "--n", "501", "--m", "1", "--lambda", "1/3")
    assert (code, json.loads(out)) == (0, {"weight_dim": 501, "null_dim": 500})


def _dims(n, m, lam="1/3"):
    return ("verma", "dims", "--n", str(n), "--m", str(m), "--lambda", lam)


def _omega(n, m):
    return ("verma", "omega", "--n", str(n), "--m", str(m), "--i", "1", "--j", "2", "--lambda", "1/3")


def _kz(command, n, m):
    word = ("--word", "s1") if command == "monodromy" else ()
    return ("kz", command, "--n", str(n), "--m", str(m), "--lambda", "1/3", "--h", "0.1", *word)


# Every CLI limit, at its boundary and just past it, along n and along d.
# Limits whose real boundary is too slow for this suite are patched small.
_GUARD_CASES = {
    "braid-n": ({"cli.MAX_BRAID_N": 50}, ("braid", "--n", "50", "s1 s49^-1"), ("braid", "--n", "51", "s1")),
    "burau-n": ({"cli.MAX_BURAU_N": 20}, ("burau", "--n", "20", "s1 s19^-1"), ("burau", "--n", "21", "s1")),
    "burau-reduced-n": (
        {"cli.MAX_BURAU_N": 20},
        ("burau", "--reduced", "--n", "20", "s19"),
        ("burau", "--reduced", "--n", "21", "s19"),
    ),
    # 341^3 = 39651821 <= 4e7 < 342^3, at the real limit
    "alexander-n": ({}, ("alexander", "--n", "342", ""), ("alexander", "--n", "343", "")),
    "alexander-letters": (
        {"cli.MAX_ALEXANDER_WORK": 2**3 * 4**2},
        ("alexander", "--n", "3", "s1 s2 s1^-1"),
        ("alexander", "--n", "3", "s1 s2 s1^-1 s2"),
    ),
    "ybe-dim": ({"yang_baxter.SIZE_CAP": 27}, ("ybe", "--builtin", "flip", "--dim", "3"),
                ("ybe", "--builtin", "flip", "--dim", "4")),
    "dims-d": ({"cli.MAX_WEIGHT_DIM": 10}, _dims(2, 9), _dims(2, 10)),
    "dims-n": ({"cli.MAX_WEIGHT_DIM": 10}, _dims(10, 1), _dims(11, 1)),
    "dims-basis-n": ({"cli.MAX_BASIS_ENTRIES": 100}, _dims(100, 0), _dims(101, 0)),
    "dims-basis-m1": ({"cli.MAX_BASIS_ENTRIES": 100}, _dims(10, 1), _dims(11, 1)),
    "dims-elimination-d": ({"cli.MAX_DENSE_DIM": 10}, _dims(2, 9, "1"), _dims(2, 10, "1")),
    "dims-elimination-n": ({"cli.MAX_DENSE_DIM": 10}, _dims(4, 2, "1"), _dims(5, 2, "1")),
    # one leg has dimension 1 at any m, with no pool of m slots enumerated; two are over
    "dims-elimination-huge-m": ({}, _dims(1, 10**30, "1"), _dims(2, 10**30, "1")),
    "omega-d": ({"cli.MAX_DENSE_DIM": 10}, _omega(2, 9), _omega(2, 10)),
    "omega-n": ({"cli.MAX_DENSE_DIM": 10}, _omega(10, 1), _omega(11, 1)),
    "omega-basis-n": ({"cli.MAX_BASIS_ENTRIES": 100}, _omega(100, 0), _omega(101, 0)),
    "kz-d": ({"cli.MAX_KZ_DIM": 10}, _kz("monodromy", 2, 9), _kz("monodromy", 2, 10)),
    "kz-n": ({"cli.MAX_KZ_DIM": 10}, _kz("monodromy", 10, 1), _kz("monodromy", 11, 1)),
    # 3 pairs x 6^2 entries at (3, 2); 3 x 10^2 at (3, 3), 6 x 10^2 at (4, 2)
    "kz-stack-d": ({"cli.MAX_KZ_ENTRIES": 108}, _kz("monodromy", 3, 2), _kz("monodromy", 3, 3)),
    "kz-stack-n": ({"cli.MAX_KZ_ENTRIES": 108}, _kz("monodromy", 3, 2), _kz("monodromy", 4, 2)),
    # C(10, 2) pairs x 1 x 10 basis entries; C(11, 2) x 1 x 11
    "kz-build-n": ({"cli.MAX_KZ_BUILD": 450}, _kz("monodromy", 10, 0), _kz("monodromy", 11, 0)),
    "kz-check-n": ({"cli.MAX_KZ_CHECK_N": 4}, _kz("check", 4, 0), _kz("check", 5, 0)),
    "kz-check-d": ({"cli.MAX_KZ_DIM": 3}, _kz("check", 2, 2), _kz("check", 2, 3)),
}


@pytest.mark.parametrize("patches, at_limit, past_limit", _GUARD_CASES.values(), ids=_GUARD_CASES)
def test_every_limit_admits_its_boundary_and_rejects_past_it(capsys, monkeypatch, patches, at_limit, past_limit):
    for target, value in patches.items():
        monkeypatch.setattr(f"braidrep.{target}", value)
    for argv, expected_code in ((at_limit, 0), (past_limit, 1)):
        start = time.perf_counter()
        code, out = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 10
        payload = json.loads(out)
        assert code == expected_code, payload
        if expected_code:
            error = payload["error"]
            assert "limit" in error
            assert "recursion" not in error.lower() and error not in ("MemoryError", "RecursionError")
        else:
            assert "error" not in payload


def test_kz_transport_budget_admits_its_boundary(capsys, monkeypatch):
    from braidrep import kz

    argv = ("kz", "monodromy", "--n", "2", "--m", "3", "--lambda", "1/2", "--h", "1", "--word", "s1")
    calls = []
    connection = kz.KzSystem.connection
    monkeypatch.setattr(kz.KzSystem, "connection", lambda self, z, v: calls.append(1) or connection(self, z, v))
    code, _ = run_cli(capsys, *argv)
    attempts = len(calls) // 7  # seven stages per DP5 attempt, accepted or rejected
    assert code == 0 and attempts * 7 == len(calls)
    monkeypatch.setattr(kz, "MAX_TRANSPORT_WORK", attempts * 48**3)  # d = 4 counts as 48
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(kz, "MAX_TRANSPORT_WORK", attempts * 48**3 - 1)
    code, out = run_cli(capsys, *argv)
    assert code == 1 and "work budget" in json.loads(out)["error"]


def test_kz_transport_budget_counts_every_letter_of_a_word(capsys, monkeypatch):
    # one budget for the whole word, so each letter alone fits with room to spare
    from braidrep import kz

    argv = ("kz", "monodromy", "--n", "3", "--m", "2", "--lambda", "1/2", "--h", "1", "--word", "s1 s2^-1 s1")
    calls = []
    connection = kz.KzSystem.connection
    monkeypatch.setattr(kz.KzSystem, "connection", lambda self, z, v: calls.append(1) or connection(self, z, v))
    code, _ = run_cli(capsys, *argv)
    attempts = len(calls) // 7
    assert code == 0 and attempts * 7 == len(calls)
    monkeypatch.setattr(kz, "MAX_TRANSPORT_WORK", attempts * 48**3)  # d = 6 counts as 48
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(kz, "MAX_TRANSPORT_WORK", attempts * 48**3 - 1)
    code, out = run_cli(capsys, *argv)
    assert code == 1 and "work budget" in json.loads(out)["error"]
