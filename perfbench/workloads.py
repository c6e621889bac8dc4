"""The three workloads of the brownlab benchmark.

A workload is a fixed brownlab CLI invocation (one or two subcommands per
pass). Only the seed comes from the benchmark's ``--seed``; the program
sees nothing but the generated argv. Each workload has a ``full`` size,
which is what the benchmark times, and a ``tiny`` size, which is the
untimed warm-up call of every worker and the size of the self-test.

This module imports neither numpy nor brownlab, so the orchestrating
process stays light; the checks that need them live in ``worker.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Reserved for confirming a claimed gain on inputs not used while the
# change was written. Never use it to tune a change.
CONFIRM_SEED = 104729

POLY_ANTI = "x1*x2+x2*x1"
# Three variables, quadratic part of rank 2: n > r, so the family-1 Delta
# scan over N^(r+1) index tuples runs.
POLY_WALK = "x1*x2+x2*x1+x3"
POLY_WALK_VARS = 3
POLY_WALK_RANK = 2

BROWN_BOX = (-2.5, 2.5, -2.5, 2.5)


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    sizes: dict
    argv: Callable
    count: Callable

    def commands(self, seed, size, out):
        """List of (output directory, argv) that one pass runs in order."""
        return self.argv(seed, self.sizes[size], Path(out))

    def work(self, size):
        """Units of work one pass completes."""
        return self.count(self.sizes[size])


def _brown_commands(seed, s, out):
    grid = ",".join(str(v) for v in BROWN_BOX) + f",{s['n']},{s['n']}"
    return [(out, ["brown", "--poly", POLY_ANTI, "--N", str(s["N"]), "--grid", grid,
                   "--trials", str(s["trials"]), "--threads", "1",
                   "--seed", str(seed), "-o", str(out)])]


def _tail_commands(seed, s, out):
    return [(out, ["tail", "--poly", POLY_ANTI, "--N", str(s["N"]), "--z", "0",
                   "--eps", "1e-6:1e-1:log10", "--trials", str(s["trials"]),
                   "--threads", "2", "--seed", str(seed), "-o", str(out)])]


def _walks_commands(seed, s, out):
    common = ["--poly", POLY_WALK, "--n", str(POLY_WALK_VARS), "--z", "0.3",
              "--seed", str(seed)]
    return [
        (out / "delta", ["walks-delta", *common, "--N", str(s["N_delta"]),
                         "-o", str(out / "delta")]),
        (out / "dettail", ["walks-dettail", *common, "--N", str(s["N_tail"]),
                           "--eps", "1e-6:1e-1:log10", "--trials", str(s["trials"]),
                           "-o", str(out / "dettail")]),
    ]


def delta_tuples(N, r=POLY_WALK_RANK, n=POLY_WALK_VARS):
    """Index tuples a full Delta scan visits: family 2 scans N^r tuples for
    each l in [r], family 1 scans N^(r+1) for each l in [r+1, n]."""
    return r * N**r + (n - r) * N ** (r + 1)


# Why each workload was chosen, the layers it exercises and bypasses, and
# the predicted shares are in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="brown-sweep",
            unit="node-samples (trials x nx x ny)",
            sizes={
                # stride picks the sub-grid the SVD cross-check recomputes;
                # (n - 1) must be a multiple of it so the nodes align.
                "full": {"N": 200, "n": 41, "trials": 2, "stride": 8},
                "tiny": {"N": 16, "n": 9, "trials": 1, "stride": 4},
            },
            argv=_brown_commands,
            count=lambda s: s["trials"] * s["n"] * s["n"],
        ),
        Workload(
            name="trial-stream",
            unit="Monte Carlo trials",
            sizes={
                "full": {"N": 100, "trials": 600},
                "tiny": {"N": 12, "trials": 100},
            },
            argv=_tail_commands,
            count=lambda s: s["trials"],
        ),
        Workload(
            name="walks-scan",
            unit="Delta index tuples plus determinant-tail trials",
            sizes={
                "full": {"N_delta": 120, "N_tail": 200, "trials": 20000},
                "tiny": {"N_delta": 10, "N_tail": 12, "trials": 200},
            },
            argv=_walks_commands,
            count=lambda s: delta_tuples(s["N_delta"]) + s["trials"],
        ),
    )
}
