"""Child process of the benchmark, run from the checkout root with `src` on
PYTHONPATH.  Each mode writes its results to OUT as JSON lines.

    python3 perfbench/worker.py cli OUT SPANS ARGV...
        One in-process `selfconj.cli.main(ARGV)`: the report goes to stdout
        and the exit code is main's.  OUT gets the clock reading when main
        returned.  Unless SPANS is "-", the call is traced, the spans are
        written to SPANS and OUT also gets their totals.
    python3 perfbench/worker.py sweep OUT SEED SECONDS
        One warm process: an untimed warm-up on the first config, then
        `run_checks` and a render on whole `lib-sweep` blocks until SECONDS
        have passed, each call pinned to the next of the allowed CPUs and
        run there between two timed chunks of the reference work
        (reference.py).  Each call's record goes to OUT as soon as it is
        made, so the process's peak memory does not grow with the number of
        calls.
    python3 perfbench/worker.py sweep-trace OUT SEED SPANS
        The first `lib-sweep` block, each config once untraced and then
        once traced; spans go to SPANS and their totals to OUT.

The clock is `time.perf_counter`, which on Linux reads the system-wide
monotonic clock, so the parent can compare its readings with its own.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
import traceback

import spans
import workloads


def library_op(checks, item: dict) -> dict:
    """Time `run_checks` plus the render on one generated config."""
    start = time.perf_counter()
    try:
        cfg = checks.SuiteConfig(**item["config"])
        render = checks.render_json if item["format"] == "json" else checks.render_text
        text, error = render(cfg, checks.run_checks(cfg)), None
    except Exception:
        text, error = "", traceback.format_exc()
    return {"wall": time.perf_counter() - start, "stdout": text, "error": error, **item}


def cli(spans_path: str, argv: list[str]) -> tuple[int, dict]:
    import selfconj.cli

    tracer = spans.Tracer().install() if spans_path != "-" else None
    code = selfconj.cli.main(argv)
    sys.stdout.flush()
    doc = {"done": time.perf_counter()}
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spans_path)
        doc["totals"] = spans.totals(tracer.spans, tracer.counts)
    return code, doc


def sweep(out, seed: int, seconds: float):
    """Write the warm-up record, then one record per timed call, to `out`."""
    from selfconj import checks

    import reference  # after the program: imported first, it adds 1 MB to peak RSS

    blocks = workloads.sweep_blocks(seed)
    first = next(blocks)
    _line(out, library_op(checks, first[0]))
    reference.kernel(reference.CHUNK_ITERS)
    cpus = sorted(os.sched_getaffinity(0))
    turn = 0
    start = time.perf_counter()
    for k, block in enumerate(itertools.chain([first], blocks)):
        if time.perf_counter() - start >= seconds:
            break
        for item in block:
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
            turn += 1
            pre = _chunk(reference)
            op = library_op(checks, item)
            ref = {"round": k, "ref_walls": [pre, _chunk(reference)], "ref_s": reference.CHUNK_S}
            _line(out, {**op, **ref})


def _chunk(reference) -> float:
    start = time.perf_counter()
    reference.kernel(reference.CHUNK_ITERS)
    return time.perf_counter() - start


def sweep_trace(seed: int, spans_path: str) -> dict:
    from selfconj import checks

    block = next(workloads.sweep_blocks(seed))
    library_op(checks, block[0])
    tracer = spans.Tracer()
    pairs = []
    for k, item in enumerate(block):
        plain = library_op(checks, item)
        tracer.op = k
        tracer.install()
        try:
            traced = library_op(checks, item)
        finally:
            tracer.uninstall()
        pairs.append([plain, traced])
    tracer.dump(spans_path)
    return {"pairs": pairs, "totals": spans.totals(tracer.spans, tracer.counts)}


def _line(out, doc: dict):
    out.write(json.dumps(doc) + "\n")


def main(argv: list[str]) -> int:
    mode, path = argv[0], argv[1]
    code = 0
    with open(path, "w") as out:
        if mode == "cli":
            code, doc = cli(argv[2], argv[3:])
            _line(out, doc)
        elif mode == "sweep":
            sweep(out, int(argv[2]), float(argv[3]))
        elif mode == "sweep-trace":
            _line(out, sweep_trace(int(argv[2]), argv[3]))
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
