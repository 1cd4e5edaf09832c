"""Fixed reference work that measures how fast the host runs right now.

    python3 perfbench/reference.py

The host is a shared VM whose speed moves by up to 2x over minutes, so a
raw wall time says as much about the other tenants as about the program.
The benchmark runs this reference just before and just after each timed
operation, on the same CPU, and scales the operation's wall time by the
nominal over the mean measured reference time.  The work mixes what the
program does: interpreter start, `import numpy`, and a Python loop over
small complex matrices (SVD, products, `max(abs(...))`).  It lives in the
benchmark and never changes with the program, so the scaled times of two
program versions compare.

`CHILD_S` and `CHUNK_S` are the reference times on the measuring host
(see README.md), so scaled times read close to raw seconds there.
"""

from __future__ import annotations

import random

import numpy as np

CHILD_ITERS = 6000  # one cold `python3 perfbench/reference.py`
CHILD_S = 0.35
CHUNK_ITERS = 600  # one in-process chunk, run before and after each library call
CHUNK_S = 0.016

# drawn without numpy.random, whose import would add to the sweep worker's
# peak memory, which is the program's figure
_rng = random.Random(0)
_MATS = np.array([complex(_rng.gauss(0, 1), _rng.gauss(0, 1)) for _ in range(64 * 16)])
_MATS = _MATS.reshape(64, 4, 4)


def kernel(iters: int) -> float:
    acc = 0.0
    for i in range(iters):
        m = _MATS[i % 64]
        s = np.linalg.svd(m, compute_uv=False)
        c = m @ m.conj().T - m.conj().T @ m
        acc += float(np.max(np.abs(c))) + float(s[0])
    return acc


if __name__ == "__main__":
    print(f"{kernel(CHILD_ITERS):.6f}")
