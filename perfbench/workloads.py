"""Workload inputs, made from the workload seed with the standard library.

The CLI workloads are fixed commands.  `lib-sweep` runs blocks of 31
library configs: each block holds every non-empty subset of the five suites
once, with 1-2 masses drawn in [0.25, 4], a grid between 1x1 and 4x8,
theta1/theta2 drawn in [0, 2 pi) and a drawn output format.
"""

from __future__ import annotations

import math
import random

SUITES = ("linalg", "halfspin", "spin1", "fock", "fieldops")

DEFAULT_CONFIG = {
    "masses": [1.0],
    "n_magnitudes": 3,
    "n_directions": 6,
    "tolerance": 1e-12,
    "theta1": 0.0,
    "theta2": 0.0,
    "thetac": 0.0,
    "norm": None,
    "suites": list(SUITES),
}

# name -> (argv after `selfconj`, report format, config the report must echo)
CLI = {
    "cli-default": (["run"], "text", DEFAULT_CONFIG),
    "cli-wide": (
        ["run", "--grid", "32x32", "--format", "json"],
        "json",
        {**DEFAULT_CONFIG, "n_magnitudes": 32, "n_directions": 32},
    ),
}

WORKLOADS = (*CLI, "lib-sweep")

# every grid from 1x1 to 4x8 but 4x1, one per suite subset
SHAPES = [(m, d) for d in range(1, 9) for m in range(1, 5) if (m, d) != (4, 1)]


def momenta(config: dict) -> int:
    """Grid momenta one run verifies: masses x magnitudes x directions."""
    return len(config["masses"]) * config["n_magnitudes"] * config["n_directions"]


def sweep_blocks(seed: int):
    """Endless sequence of blocks; each item is {"slot", "config", "format"}.

    The structure of a block is a fixed design, so that runs with any seed
    do the same amount of work: slot k takes the (k+1)-th non-empty suite
    subset, 1 + k % 2 masses and the grid SHAPES[7k % 31].  The seed draws
    the order, the masses, theta1/theta2 and the format.
    """
    rng = random.Random(seed)
    design = [
        (k, [s for j, s in enumerate(SUITES) if (k + 1) >> j & 1], SHAPES[7 * k % 31], 1 + k % 2)
        for k in range(31)
    ]
    while True:
        rng.shuffle(design)
        yield [
            {
                "slot": slot,
                "config": {
                    **DEFAULT_CONFIG,
                    "masses": [rng.uniform(0.25, 4.0) for _ in range(n_masses)],
                    "n_magnitudes": shape[0],
                    "n_directions": shape[1],
                    "theta1": rng.uniform(0.0, 2 * math.pi),
                    "theta2": rng.uniform(0.0, 2 * math.pi),
                    "suites": suites,
                },
                "format": rng.choice(("text", "json")),
            }
            for slot, suites, shape, n_masses in design
        ]
