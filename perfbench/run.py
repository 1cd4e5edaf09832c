"""Benchmark of the selfconj check report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`, so
there is nothing to build.  Workloads (closed loops, one caller, no extra
threads):

    cli-default  cold `selfconj run` subprocesses at the default 3x6 grid
    cli-wide     cold `selfconj run --grid 32x32 --format json` subprocesses
                 (run by hand; too few rounds per run to be steady yet)
    lib-sweep    one warm process running `run_checks` and a render on
                 configs drawn from the seed (see workloads.py)

With --trace 0 the end-to-end metrics are measured untraced, each timed
operation between two runs of the fixed reference work (reference.py) on
the same CPU, and its wall time scaled by the reference's nominal over mean
measured time, which takes the shared host's changing speed out.  With
--trace 1 a separate run wraps the package's public callables from outside
(spans.py) and reports per-layer metrics and the tracing overhead.  Every
output is verified (verify.py).  Detail lines come first; the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Children run with BLAS pinned to one thread.  Working files go
to `.perfbench-out/`.  Exits 3 without a result if the program cannot be
imported or the run overruns its deadline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys
import time

import reference
import spans
import verify
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.py")
OUT = ".perfbench-out"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 4  # cold imports before and again after the workload loop
DEADLINE_S = 170


class Abort(Exception):
    pass


class Children:
    """Starts one child at a time and reaps it; `kill()` ends a live one.

    Each child is pinned to one CPU, taken in turn.  Other tenants slow the
    CPUs of a shared host one at a time, so an operation and the reference
    runs that scale it share one CPU.
    """

    def __init__(self):
        src = os.path.abspath("src")
        self.env = {**os.environ, "PYTHONPATH": src, **BLAS_ENV}
        self.pid = None
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0

    def next_cpu(self) -> set:
        self.turn += 1
        return {self.cpus[self.turn % len(self.cpus)]}

    def run(self, argv: list[str], tag: str, cpus: set | None = None) -> dict:
        """Run this interpreter on ARGV, pinned to `cpus` (default: the next
        CPU in turn); return its wall time, exit code, output and peak RSS."""
        out, err = os.path.join(OUT, tag + ".out"), os.path.join(OUT, tag + ".err")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
        ]
        os.sched_setaffinity(0, cpus or self.next_cpu())
        start = time.perf_counter()
        self.pid = os.posix_spawn(
            sys.executable, [sys.executable, *argv], self.env, file_actions=actions
        )
        os.sched_setaffinity(0, self.cpus)
        _, status, usage = os.wait4(self.pid, 0)
        end = time.perf_counter()
        self.pid = None
        with open(out, "rb") as fo, open(err, "rb") as fe:
            stdout, stderr = fo.read(), fe.read()
        return {
            "start": start,
            "wall": end - start,
            "exit_code": os.waitstatus_to_exitcode(status),
            "stdout": stdout,
            "stderr": stderr,
            "rss_mb": usage.ru_maxrss / 1024,
        }

    def reference(self, cpus: set) -> float:
        """Wall time of one cold reference child on `cpus`."""
        r = self.run([REFERENCE], "ref", cpus)
        if r["exit_code"] != 0:
            raise Abort("reference failed: " + r["stderr"].decode(errors="replace")[-500:])
        return r["wall"]

    def kill(self):
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def import_check(kids: Children) -> str:
    """Fail unless the program imports from `src/`; return numpy's version."""
    if not os.path.isfile(os.path.join("src", "selfconj", "__init__.py")):
        raise Abort("no src/selfconj in the current directory")
    r = kids.run(["-c", "import numpy, selfconj; print(numpy.__version__)"], "setup")
    if r["exit_code"] != 0:
        raise Abort("cannot import selfconj: " + r["stderr"].decode(errors="replace")[-500:])
    return r["stdout"].decode().strip()


def bracketed(kids: Children, argv: list[str], tag: str) -> dict:
    """One child run between two cold reference children, all on the next
    CPU; the record of `Children.run` plus the reference walls."""
    cpus = kids.next_cpu()
    pre = kids.reference(cpus)
    r = kids.run(argv, tag, cpus)
    return {**r, "ref_walls": [pre, kids.reference(cpus)], "ref_s": reference.CHILD_S}


def setup_samples(kids: Children) -> list[dict]:
    """Cold `python -c "import selfconj"` runs, each bracketed."""
    samples = []
    for _ in range(SETUP_REPEATS):
        r = bracketed(kids, ["-c", "import selfconj"], "setup")
        if r["exit_code"] != 0:
            raise Abort("import selfconj failed")
        samples.append(r)
    return samples


def worker_docs(kids: Children, args: list[str], tag: str, cpus=None) -> tuple[dict, list]:
    """Run perfbench/worker.py; return the child record and the JSON lines
    it wrote (None if it wrote no file)."""
    path = os.path.join(OUT, tag + ".jsonl")
    if os.path.exists(path):
        os.remove(path)
    r = kids.run([WORKER, args[0], path, *args[1:]], tag, cpus)
    docs = None
    if os.path.exists(path):
        with open(path) as fh:
            docs = [json.loads(line) for line in fh]
    return r, docs


def library_ops(records: list[dict]) -> list[dict]:
    return [
        {**op, "exit_code": None, "stdout": op["stdout"].encode(), "stderr": b""}
        for op in records
    ]


# -- workloads, untraced ------------------------------------------------------


def cli_loop(kids: Children, name: str, seconds: float) -> tuple[list, float]:
    argv, fmt, config = workloads.CLI[name]
    ops = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        r = bracketed(kids, ["-m", "selfconj.cli", *argv], "op")
        ops.append({**r, "round": len(ops), "format": fmt, "config": config, "error": None})
        if len(ops) > 1:
            ops[-1]["earlier"] = ops[0]["stdout"]
    return ops, statistics.median(op["rss_mb"] for op in ops)


def sweep_loop(kids: Children, seed: int, seconds: float) -> tuple[list, float]:
    r, docs = worker_docs(kids, ["sweep", str(seed), str(seconds)], "sweep", set(kids.cpus))
    if r["exit_code"] != 0 or not docs:
        raise Abort("sweep worker failed: " + r["stderr"].decode(errors="replace")[-500:])
    warmup, *records = docs
    ops = library_ops(records)
    ops[0]["earlier"] = warmup["stdout"].encode()
    return ops, r["rss_mb"]


# -- workloads, traced ----------------------------------------------------------


def cli_traced(kids: Children, name: str, seconds: float):
    """Pairs of cold worker calls, untraced then traced, for `seconds`."""
    argv, fmt, config = workloads.CLI[name]
    spans_path = os.path.join(OUT, f"spans-{name}.marshal")
    ops, plain_walls, traced_walls, sums = [], [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        cpus = kids.next_cpu()  # both calls of a pair on one CPU
        for spans_arg, walls in (("-", plain_walls), (spans_path, traced_walls)):
            r, docs = worker_docs(kids, ["cli", spans_arg, *argv], "trace", cpus)
            doc = docs[0] if docs else None
            op = {**r, "format": fmt, "config": config, "error": None}
            if ops:
                op["earlier"] = ops[0]["stdout"]
            ops.append(op)
            walls.append(doc["done"] - r["start"] if doc else r["wall"])
            if doc and "totals" in doc:
                sums.append(doc["totals"])
    n = len(traced_walls)
    return ops, plain_walls, traced_walls, _merge(sums), n, n * workloads.momenta(config)


def sweep_traced(kids: Children, seed: int):
    path = os.path.join(OUT, "spans-lib-sweep.marshal")
    r, docs = worker_docs(kids, ["sweep-trace", str(seed), path], "sweep", set(kids.cpus))
    if r["exit_code"] != 0 or not docs:
        raise Abort("sweep worker failed: " + r["stderr"].decode(errors="replace")[-500:])
    doc = docs[0]
    ops = []
    for plain, traced in (library_ops(pair) for pair in doc["pairs"]):
        traced["earlier"] = plain["stdout"]
        ops += [plain, traced]
    plain_walls = [p["wall"] for p, _ in doc["pairs"]]
    traced_walls = [t["wall"] for _, t in doc["pairs"]]
    n_momenta = sum(workloads.momenta(p["config"]) for p, _ in doc["pairs"])
    return ops, plain_walls, traced_walls, doc["totals"], len(doc["pairs"]), n_momenta


def _merge(totals: list[dict]) -> dict:
    out: dict = {}
    for tot in totals:
        for key, table in tot.items():
            dst = out.setdefault(key, {})
            for k, v in table.items():
                dst[k] = dst.get(k, 0) + v
    return out


# -- metrics -------------------------------------------------------------------


def judge(ops: list[dict], expected: dict, name: str):
    """Classify every op; count statuses of the ones that succeeded."""
    reasons, npass, nfail, correct = [], 0, 0, True
    for op in ops:
        reason, statuses = verify.classify(op, expected, op.get("earlier"))
        if reason is not None:
            reasons.append(reason)
            continue
        npass += sum(1 for s in statuses.values() if s == "pass")
        nfail += sum(1 for s in statuses.values() if s == "fail")
        if name == "cli-default" and statuses != expected["default_statuses"]:
            correct = False
    return reasons, npass, nfail, correct and not reasons


def tail(walls: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that
    percentile; the maximum (percentile 100) when there are ten or fewer."""
    xs = sorted(walls)
    if len(xs) <= 10:
        return xs[-1], 100.0
    return xs[len(xs) - 11], 100.0 * (len(xs) - 10) / len(xs)


def scaled(op: dict) -> float:
    """The op's wall time at the host speed where the reference work takes
    its nominal `ref_s`: scaled by that over the mean of the reference
    walls measured just before and after the op."""
    return op["wall"] * op["ref_s"] * len(op["ref_walls"]) / sum(op["ref_walls"])


def end_to_end(ops, rss_mb, setup, npass, nfail, detail):
    """A round is one pass over the workload's operations: one CLI call, or
    the 31 configs of a sweep block, which do the same work in every block.
    Each round's wall time is scaled by its reference runs; the metric is
    the median round.  The raw per-op median and tail, which the host's
    speed moves, are detail lines."""
    rounds: dict = {}
    for op in ops:
        acc = rounds.setdefault(op["round"], [0.0, 0.0])
        acc[0] += op["wall"]
        acc[1] += scaled(op)
    walls = [op["wall"] for op in ops]
    value, pct = tail(walls)
    detail["rounds"] = len(rounds)
    detail["op_wall_p50_s"] = statistics.median(walls)
    detail["op_wall_tail_s"] = {"value": value, "percentile": pct, "samples": len(walls)}
    detail["momenta_per_s"] = sum(workloads.momenta(op["config"]) for op in ops) / sum(walls)
    detail["round_wall_p50_s"] = statistics.median(w for w, _ in rounds.values())
    detail["host_speed_p50"] = statistics.median(s / w for w, s in rounds.values())
    detail["setup_wall_p50_s"] = statistics.median(r["wall"] for r in setup)
    return {
        "setup_s": (statistics.median(scaled(r) for r in setup), "s"),
        "round_wall_scaled_s": (statistics.median(s for _, s in rounds.values()), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "check_pass_ratio": (npass / max(npass + nfail, 1), "ratio"),
    }


def per_layer(tot: dict, n_ops: int, n_momenta: int, overhead: float) -> dict:
    self_s, calls = tot.get("self_s", {}), tot.get("calls", {})
    name_calls, name_s = tot.get("name_calls", {}), tot.get("name_s", {})

    def per_op(x):
        return x / n_ops

    def named(table, *names):
        return sum(table.get(n, 0) for n in names)

    return {
        "fock.self_s": (per_op(self_s.get("fock", 0.0)), "s"),
        "fock.certificate_s": (
            per_op(
                named(name_s, "fock.simultaneous_eigen_certificate", "fock.anticommuting_pair_margin")
            ),
            "s",
        ),
        "fock.svd_calls": (per_op(tot.get("counts", {}).get(spans.FOCK_SVD, 0)), "count"),
        "halfspin.self_s": (per_op(self_s.get("halfspin", 0.0)), "s"),
        "halfspin.calls": (per_op(calls.get("halfspin", 0)), "count"),
        "halfspin.basis_builds_per_momentum": (
            named(name_calls, "halfspin.build_spinor_basis") / n_momenta,
            "count/momentum",
        ),
        "spin1.self_s": (per_op(self_s.get("spin1", 0.0)), "s"),
        "spin1.calls": (per_op(calls.get("spin1", 0)), "count"),
        "spin1.fixed_matrix_builds": (
            per_op(named(name_calls, "spin1.displayed_mr_forms", "spin1.bmw_chiral_gammas")),
            "count",
        ),
        "fieldops.self_s": (per_op(self_s.get("fieldops", 0.0)), "s"),
        "fieldops.calls": (per_op(calls.get("fieldops", 0)), "count"),
        "fieldops.modes_per_momentum": (
            named(name_calls, "fieldops.majorana_mode") / n_momenta,
            "count/momentum",
        ),
        "linalg.self_s": (per_op(self_s.get("linalg", 0.0)), "s"),
        "linalg.calls": (per_op(calls.get("linalg", 0)), "count"),
        "checks.self_s": (per_op(self_s.get("checks", 0.0)), "s"),
        "checks.render_s": (per_op(self_s.get("render", 0.0)), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


# -- entry point ---------------------------------------------------------------


def measure(args, kids: Children) -> dict:
    expected = verify.load_expected()
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": import_check(kids),
            "blas_threads": BLAS_ENV,
            "host": "shared and untuned",
        },
    }
    if args.trace == 0:
        setup = setup_samples(kids)
        if args.workload in workloads.CLI:
            ops, rss_mb = cli_loop(kids, args.workload, args.seconds)
        else:
            ops, rss_mb = sweep_loop(kids, args.seed, args.seconds)
        setup += setup_samples(kids)
        reasons, npass, nfail, correct = judge(ops, expected, args.workload)
        metrics = end_to_end(ops, rss_mb, setup, npass, nfail, detail)
    else:
        if args.workload in workloads.CLI:
            traced = cli_traced(kids, args.workload, args.seconds)
        else:
            traced = sweep_traced(kids, args.seed)
        ops, plain_walls, traced_walls, tot, n_ops, n_momenta = traced
        reasons, npass, nfail, correct = judge(ops, expected, args.workload)
        overhead = statistics.median(traced_walls) / statistics.median(plain_walls)
        metrics = per_layer(tot, n_ops, n_momenta, overhead)
        # every bucket, `cli` too; it is no metric, as lib-sweep never calls it
        detail["self_s_per_op"] = {k: v / n_ops for k, v in sorted(tot["self_s"].items())}
        detail["counts_per_op"] = {k: v / n_ops for k, v in sorted(tot["counts"].items())}
    detail["check_fail_ratio"] = f"{nfail}/{npass + nfail} = {nfail / max(npass + nfail, 1):.6g}"
    detail["op_error_ratio"] = f"{len(reasons)}/{len(ops)} = {len(reasons) / len(ops):.6g}"
    if reasons:
        detail["op_errors"] = sorted(set(reasons))
    return {
        "detail": detail,
        "result": {
            "correct": correct,
            "attempted": len(ops),
            "failed": len(reasons),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def deadline(signum, frame):
        raise Abort(f"run exceeded {DEADLINE_S} s")

    os.makedirs(OUT, exist_ok=True)
    kids = Children()
    signal.signal(signal.SIGALRM, deadline)
    signal.alarm(DEADLINE_S)
    try:
        out = measure(args, kids)
    except Abort as exc:
        kids.kill()
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    for key, value in out["detail"].items():
        print(f"{key}: {json.dumps(value)}")
    for key, metric in out["result"]["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
