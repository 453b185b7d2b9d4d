"""braidrep benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload conway-mixed --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run prints the end-to-end metrics (times
scaled to a reference host speed, see ``host_reference``), with
``--trace 1`` the per-layer metrics of a traced run over a fixed op set.
The last line of stdout is the result object; the line before it records
the seed, an input digest and the machine.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One BLAS thread: at the default of one thread per core, ops at dimension 56
# on a two-core machine took about 1 s instead of 0.11 s about once in 100.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_RUNS = 7  # fresh interpreters per run for setup_s; the median is reported
PROBE_RUNS = 5  # fresh interpreters per cli.* start-up probe
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

PER_LAYER = {
    "words.self_s": "s",
    "laurent.matmul.calls": "count",
    "laurent.matmul.self_s": "s",
    "laurent.det.calls": "count",
    "laurent.det.self_s": "s",
    "laurent.exact_div.calls": "count",
    "laurent.exact_div.self_s": "s",
    "laurent.adjugate.calls": "count",
    "laurent.adjugate.self_s": "s",
    "laurent.inverse_unit_det.calls": "count",
    "laurent.inverse_unit_det.total_s": "s",
    "laurent.substitute.self_s": "s",
    "laurent.max_terms": "count",
    "laurent.max_coeff_bits": "bits",
    "burau.reduced_burau.self_s": "s",
    "burau.generator_pos.calls": "count",
    "burau.generator_inv.calls": "count",
    "burau.generator_inv.total_s": "s",
    "alexander.markov_f.self_s": "s",
    "yang_baxter.rep_from_r.self_s": "s",
    "yang_baxter.place_on_legs.calls": "count",
    "yang_baxter.place_on_legs.self_s": "s",
    "yang_baxter.check_braid_ybe.calls": "count",
    "yang_baxter.check_braid_ybe.total_s": "s",
    "yang_baxter.inverse_matrix.total_s": "s",
    "yang_baxter.result_density": "frac",
    "verma.weight_space_basis.calls": "count",
    "verma.weight_space_basis.self_s": "s",
    "verma.basis_yield": "frac",
    "verma.omega_matrix.calls": "count",
    "verma.omega_matrix.self_s": "s",
    "verma.leg_permutation_matrix.self_s": "s",
    "verma.nullspace_basis.self_s": "s",
    "verma.tensor_generator_matrix.self_s": "s",
    "kz.system_build.calls": "count",
    "kz.system_build.self_s": "s",
    "kz.connection.calls": "count",
    "kz.connection.self_s": "s",
    "kz.path_eval.self_s": "s",
    "kz.monodromy.self_s": "s",
    "kz.steps.accepted": "count",
    "kz.step_accept_ratio": "frac",
    "kz.est_error.max": "1",
    "kz.braid_residual.max": "1",
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    "cli.main_s": "s",
    "trace.overhead_frac": "frac",
}

DP5_STAGES = 7

def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: str(BLAS_THREADS) for var in BLAS_ENV})
    return env


# -- ops and their oracles ------------------------------------------------------


class Runner:
    """Runs ops one at a time, checks each output, and keeps the counters
    read from results.  With a tracer, each op runs under a root span."""

    def __init__(self, tracer=None, cli_in_process: bool = False):
        import oracles
        import workloads

        self.oracles, self.workloads = oracles, workloads
        self.tracer = tracer
        self.cli_in_process = cli_in_process
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.pending: dict = {}  # kz pair id -> first matrix
        self.kz_steps = 0
        self.kz_est_max = 0.0
        self.kz_residual_max = 0.0
        self.nonzero = 0
        self.entries = 0
        self.env = child_env()

    def _call(self, kind: str):
        w = self.workloads
        if kind == "conway":
            return w.run_conway
        if kind == "ybe":
            return w.run_ybe
        if kind == "kz":
            return w.run_kz
        return self._cli_main if self.cli_in_process else self._cli_child

    def _cli_child(self, arg):
        argv, _ = arg
        proc = subprocess.run(
            [sys.executable, "-m", "braidrep.cli", *argv],
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            cwd=ROOT,
        )
        return proc.returncode, proc.stdout

    @staticmethod
    def _cli_main(arg):
        argv, _ = arg
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = sys.modules["braidrep.cli"].main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, buf.getvalue()

    def run(self, op, op_id: int) -> float:
        """Run one op; returns its wall time in seconds."""
        self.attempted += 1
        call = self._call(op.kind)
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                result = call(op.arg)
            else:
                result = self.tracer.run_op(op_id, call, op.arg)
        except Exception as exc:  # an op that raises counts as failed
            elapsed = time.perf_counter() - t0
            self.pending.pop(op.pair, None)
            self.fail(op, f"{type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - t0
        try:
            error = self.check(op, result)
        except Exception as exc:  # a malformed result fails its oracle
            error = f"oracle raised {type(exc).__name__}: {exc}"
        if error:
            self.fail(op, error)
        return elapsed

    def absorb(self, other: "Runner") -> None:
        """Add another runner's op and failure counts to this one's."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors)

    def fail(self, op, error: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{self.workloads.canonical(op)}: {error}")

    def check(self, op, result):
        o = self.oracles
        if op.kind == "conway":
            w = op.arg
            if self.tracer is not None:
                self.tracer.note_poly(result.poly)
            return o.check_conway(w.n, w.letters, o.parse_conway(str(result.poly)), result.components)
        if op.kind == "ybe":
            n, w = op.arg
            if self.tracer is not None:
                for row in result.entries:
                    for p in row:
                        self.tracer.note_poly(p)
                        self.nonzero += bool(p.terms)
                self.entries += result.rows * result.cols
            return o.check_ybe_at_q1(n, w.letters, o.specialize_q1(result.entries))
        if op.kind == "kz":
            self.kz_steps += result.steps
            self.kz_est_max = max(self.kz_est_max, result.est_error)
            first = self.pending.pop(op.pair, None)
            if first is None:
                self.pending[op.pair] = result.matrix
                return None
            self.kz_residual_max = max(self.kz_residual_max, o.kz_residual(first, result.matrix))
            return o.check_kz_pair(first, result.matrix)
        code, stdout = result
        argv, expected = op.arg
        return o.check_cli(argv, expected, code, stdout)

    def check_pinned(self) -> None:
        """The knot values pinned by acceptance criterion 03."""
        import braidrep

        o = self.oracles
        for name, ((n, letters), _) in o.PINNED_CONWAY.items():
            self.attempted += 1
            try:
                result = braidrep.alexander_conway(braidrep.BraidWord(n, letters))
                error = o.check_pinned(name, o.parse_conway(str(result.poly)))
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            if error:
                self.failed += 1
                self.errors.append(error)


WARMUP_OPS = 4  # even, so kz pairs stay whole


def warm_up(runner: Runner, workload: str, deck: list) -> None:
    """Untimed, checked ops before the timed phase: the last ops of the deck,
    which a timed phase does not reach."""
    if workload == "conway-mixed":
        runner.check_pinned()
    for k in range(len(deck) - WARMUP_OPS, len(deck)):
        runner.run(deck[k], -1)


# -- host speed -------------------------------------------------------------------
# The shared host's speed drifts by up to 1.5x within minutes, and a plain
# loop does not follow it (see README.md).  A fixed exact-polynomial product
# in the style of braidrep's Laurent arithmetic (dicts of big ints), sharing
# no code with it, runs untimed before every op.  Timings are reported at
# the host speed where it takes HOST_REF_S: host_factor = its median over
# the run / HOST_REF_S, and every time is divided by host_factor.

HOST_REF_S = 2.24e-3


def _ref_factors() -> list:
    rng = random.Random(5)
    return [{rng.randint(-3, 3): rng.randint(-9, 9) for _ in range(3)} for _ in range(36)]


REF_FACTORS = _ref_factors()


def host_reference() -> float:
    """Wall time of the fixed reference product, with the cyclic GC off so
    that objects the program keeps alive cannot slow it."""
    gc.disable()
    t0 = time.perf_counter()
    acc = {0: 1}
    for factor in REF_FACTORS:
        out: dict = {}
        for ea, ca in acc.items():
            for eb, cb in factor.items():
                out[ea + eb] = out.get(ea + eb, 0) + ca * cb
        acc = out if len(out) <= 60 else {e: c % (1 << 200) for e, c in list(out.items())[:60]}
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def timed_loop(runner: Runner, deck: list, seconds: float, block: int) -> tuple:
    """Closed loop over the deck from its first op until the ops have been
    busy for ``seconds`` and the current block is whole, so that every run
    measures the same mix of sizes (and kz pairs are complete).  Returns the
    op times and the host reference times taken before each op.  Oracle
    checks and references run between ops and are not part of op times."""
    times: list = []
    refs: list = []
    busy = 0.0
    k = 0
    while busy < seconds or k % block:
        refs.append(host_reference())
        elapsed = runner.run(deck[k % len(deck)], k)
        times.append(elapsed)
        busy += elapsed
        k += 1
    return times, refs


# -- fresh-interpreter probes -----------------------------------------------------


def wall_of(cmd: list) -> tuple:
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} failed: {proc.stderr.strip()[-500:]}")
    return elapsed, proc.stderr


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import braidrep and build
    the workload's inputs, then exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    return statistics.median(wall_of(cmd)[0] for _ in range(SETUP_RUNS))


def importtime_seconds(stderr: str) -> tuple:
    """(braidrep import, numpy import) cumulative seconds from -X importtime."""
    braidrep_us = numpy_us = 0
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative, name = int(parts[1]), parts[2]
        depth = len(name) - len(name.lstrip())
        if depth == 1 and name.strip().split(".")[0] == "braidrep":
            braidrep_us += cumulative
        if name.strip() == "numpy" and not numpy_us:
            numpy_us = cumulative
    return braidrep_us / 1e6, numpy_us / 1e6


def cli_probes() -> dict:
    interp = [wall_of([sys.executable, "-c", "pass"])[0] for _ in range(PROBE_RUNS)]
    imports = [
        importtime_seconds(
            wall_of([sys.executable, "-X", "importtime", "-c", "import braidrep.cli"])[1]
        )
        for _ in range(PROBE_RUNS)
    ]
    return {
        "cli.interp_s": statistics.median(interp),
        "cli.import_s": statistics.median(b for b, _ in imports),
        "cli.import_numpy_s": statistics.median(n for _, n in imports),
    }


# -- the two kinds of run ---------------------------------------------------------


def end_to_end_run(workload: str, deck: list, seed: int, seconds: float) -> tuple:
    import workloads

    runner = Runner()
    warm_up(runner, workload, deck)
    times, refs = timed_loop(runner, deck, seconds, workloads.BLOCK_OPS[workload])
    if workload == "cli-small":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall = {
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3,
        "ops_per_s": len(times) / sum(times),
        "setup_s": setup_seconds(workload, seed),
    }
    host = statistics.median(refs) / HOST_REF_S
    metrics = {
        "op_p50_ms": wall["op_p50_ms"] / host,
        "op_p90_ms": wall["op_p90_ms"] / host,
        "ops_per_s": wall["ops_per_s"] * host,
        "setup_s": wall["setup_s"] / host,
        "peak_rss_mb": peak_kb * 1024 / 1e6,
        "ok_frac": 1.0 - runner.failed / runner.attempted,
    }
    extra = {
        "wall": wall,
        "host_factor": host,
        "timed_ops": len(times),
        "ops_beyond_p90": sum(t * 1e3 > wall["op_p90_ms"] for t in times),
        "busy_s": sum(times),
        "fail_frac": runner.failed / runner.attempted,
    }
    return runner, metrics, extra


def traced_run(workload: str, deck: list) -> tuple:
    import workloads
    from tracer import Tracer

    ops = deck[: workloads.TRACE_OPS[workload]]
    cli = workload == "cli-small"
    plain = Runner(cli_in_process=cli)
    warm_up(plain, workload, deck)
    untraced = [plain.run(op, k) for k, op in enumerate(ops)]

    tracer = Tracer()
    runner = Runner(tracer, cli_in_process=cli)
    tracer.install()
    try:
        traced = [runner.run(op, k) for k, op in enumerate(ops)]
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{workload}.npz")
    s = tracer.summary()

    connection_calls = s.calls("kz.connection")
    metrics = {
        "words.self_s": s.prefix_self_s("words."),
        "laurent.max_terms": tracer.max_terms,
        "laurent.max_coeff_bits": tracer.max_coeff_bits,
        "burau.generator_inv.total_s": s.total_s("burau.generator_inv"),
        "laurent.inverse_unit_det.total_s": s.total_s("laurent.inverse_unit_det"),
        "yang_baxter.check_braid_ybe.total_s": s.total_s("yang_baxter.check_braid_ybe"),
        "yang_baxter.inverse_matrix.total_s": s.total_s("yang_baxter.inverse_matrix"),
        "yang_baxter.result_density": runner.nonzero / runner.entries if runner.entries else 0.0,
        "verma.basis_yield": (
            tracer.basis_kept / tracer.basis_enumerated if tracer.basis_enumerated else 0.0
        ),
        "kz.steps.accepted": runner.kz_steps,
        "kz.step_accept_ratio": (
            runner.kz_steps / (connection_calls / DP5_STAGES) if connection_calls else 0.0
        ),
        "kz.est_error.max": runner.kz_est_max,
        "kz.braid_residual.max": runner.kz_residual_max,
        "cli.main_s": statistics.median(untraced) if cli else 0.0,
        "trace.overhead_frac": (statistics.median(traced) - statistics.median(untraced))
        / statistics.median(untraced),
    }
    for name in PER_LAYER:
        if name in metrics or name.startswith("cli."):
            continue
        span, _, kind = name.rpartition(".")
        metrics[name] = s.calls(span) if kind == "calls" else s.self_s(span)
    metrics.update(cli_probes())

    plain.absorb(runner)
    extra = {
        "traced_ops": len(ops),
        "spans": len(s.duration),
        "fail_frac": plain.failed / plain.attempted,
    }
    if workload == "conway-mixed":
        heavy = {k for k, op in enumerate(ops) if op.arg.n >= 8 and any(sg < 0 for _, sg in op.arg.letters)}
        extra["inverse_unit_det_share_n8plus"] = s.total_s("laurent.inverse_unit_det", heavy) / s.op_seconds(heavy)
    return plain, metrics, extra


# -- the run record -------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def src_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "braidrep").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine() -> dict:
    import platform

    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
    }


# -- entry point ------------------------------------------------------------------


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "braidrep" / "__init__.py").is_file():
        print(f"perfbench: no braidrep sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import braidrep

    if Path(braidrep.__file__).resolve().parent != (SRC / "braidrep").resolve():
        print(f"perfbench: braidrep imported from {braidrep.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    args = parse_args(argv)
    deck = workloads.make_deck(args.workload, args.seed)
    if args.setup_probe:
        return 0
    if args.trace:
        runner, metrics, extra = traced_run(args.workload, deck)
        units = PER_LAYER
    else:
        runner, metrics, extra = end_to_end_run(args.workload, deck, args.seed, args.seconds)
        units = END_TO_END
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_sha256": workloads.deck_digest(deck),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        **machine(),
        **extra,
        "errors": runner.errors,
    }
    print(json.dumps(record))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
