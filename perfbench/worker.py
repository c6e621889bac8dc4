"""One benchmark worker: a fresh interpreter that sets up brownlab, runs
passes of one workload, checks the outputs of every pass, and reports.

Started by run.py, one worker at a time. Set-up is everything from the
interpreter's start to ``ready``: importing numpy, scipy and brownlab, BLAS
start-up, and one untimed warm-up pass at the workload's tiny size. Then
the worker runs passes until its time budget is spent: at least one, or
none with a budget of 0, which makes a worker that only sets up.
With ``--trace 1`` it alternates an untraced and a traced pass, so the
two can be compared for tracing overhead; untraced passes run with nothing
patched. Each pass is checked outside its timed region.

The worker writes one JSON object to its standard output when it ends;
brownlab's own progress lines go to the null device.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    BROWN_BOX, POLY_ANTI, POLY_WALK, POLY_WALK_RANK, POLY_WALK_VARS, WORKLOADS, delta_tuples,
)


class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _check_ladder(ladder, trials):
    """Ladder hits are integers, non-decreasing and at most ``trials``."""
    hits = [rung["hits"] for rung in ladder]
    _require(all(type(h) is int for h in hits), f"non-integer hits {hits}")
    _require(all(0 <= a <= b for a, b in zip(hits, hits[1:])), f"hits decrease: {hits}")
    _require(hits[-1] <= trials, f"hits {hits[-1]} exceed trials {trials}")
    return hits


def check_brown(seed, s, out):
    """h on an aligned sub-grid, recomputed through the exact SVD route."""
    import numpy as np
    from brownlab import GridSpec, log_potential, parse

    rows = np.loadtxt(out / "logpot.csv", delimiter=",", skiprows=1, ndmin=2)
    n, k = s["n"], s["stride"]
    _require(rows.shape[0] == n * n, f"logpot.csv has {rows.shape[0]} rows")
    nodes = (rows[:, 0] + 1j * rows[:, 1]).reshape(n, n)
    h = rows[:, 2].reshape(n, n)
    idx = np.arange(0, n, k)
    sub = GridSpec(*BROWN_BOX, len(idx), len(idx))
    _require(np.array_equal(sub.nodes(), nodes[np.ix_(idx, idx)]), "sub-grid is not aligned")
    ref = log_potential(parse(POLY_ANTI), s["N"], sub, s["trials"], seed=seed, method="svd")
    err = float(np.abs(ref.h - h[np.ix_(idx, idx)]).max())
    _require(err <= 1e-10, f"h differs from the SVD route by {err:.3e}")
    return {}


def check_tail(seed, s, out):
    tail = json.loads((out / "tail.json").read_text(encoding="utf-8"))
    _require(tail["trials"] == s["trials"], f"tail.json reports {tail['trials']} trials")
    return {"hits": _check_ladder(tail["ladder"], s["trials"])}


def check_walks(seed, s, out):
    """Each witness reproduces its Delta from the saved basis; the
    structured flag agrees with the maxima; the det-tail ladder is sane."""
    import numpy as np
    from brownlab import WalkBasis, build_linearization, parse

    rep = json.loads((out / "delta" / "delta.json").read_text(encoding="utf-8"))
    U = WalkBasis.load(out / "delta" / "walkbasis.bin", out / "delta" / "walkbasis.json")
    s_mat = build_linearization(parse(POLY_WALK, num_vars=POLY_WALK_VARS)).s_matrix()
    r, n = U.r, s_mat.shape[1]
    _require(r == POLY_WALK_RANK, f"rank {r}, expected {POLY_WALK_RANK}")
    _require(rep["exact"] is True, "Delta scan exited early")
    witnesses = {}
    for family in (1, 2):
        wit, top = rep[f"witness{family}"], rep[f"max_abs_delta{family}"]
        _require(wit is not None, f"no family-{family} witness")
        l, ind = wit["l"], wit["indices"]
        if family == 1:
            _require(r + 1 <= l <= n, f"family-1 witness has l={l}")
        else:
            _require(1 <= l <= r and ind[0] == ind[l], f"family-2 witness {wit} off its family")
        w = sum(np.conj(s_mat[k, l - 1]) * U.v_rows(k)[ind[0]] for k in range(r + 1))
        cols = [w] + [U.v_rows(0)[i] for i in ind[1:]]
        got = abs(np.linalg.det(np.stack(cols, axis=1)))
        _require(np.isclose(got, top, rtol=1e-9, atol=1e-12),
                 f"family-{family} witness gives |Delta|={got:.6e}, report says {top:.6e}")
        witnesses[family] = [l, list(ind)]
    thr = rep["delta_threshold"]
    structured = rep["max_abs_delta1"] < thr and rep["max_abs_delta2"] < thr
    _require(rep["structured"] == structured, "structured flag disagrees with the maxima")
    tail = json.loads((out / "dettail" / "dettail.json").read_text(encoding="utf-8"))
    _require(tail["trials"] == s["trials"], f"dettail.json reports {tail['trials']} trials")
    return {"witnesses": witnesses, "structured": structured,
            "hits": _check_ladder(tail["ladder"], s["trials"])}


CHECKS = {"brown-sweep": check_brown, "trial-stream": check_tail, "walks-scan": check_walks}

# Counter of the traced pass that must equal the work a pass is defined to do.
TRACED_WORK = {
    "brown-sweep": ("brown.node_samples", lambda s: s["trials"] * s["n"] * s["n"]),
    "trial-stream": ("pool.tasks", lambda s: s["trials"]),
    "walks-scan": ("walks.delta_tuples", lambda s: delta_tuples(s["N_delta"])),
}


def run_pass(dispatch, wl, seed, size, out, tracer=None):
    """One pass: run its commands (timed), then check the outputs."""
    shutil.rmtree(out, ignore_errors=True)
    commands = wl.commands(seed, size, out)
    rec = {"traced": tracer is not None, "ok": False, "codes": []}
    try:
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            for _, argv in commands:
                if tracer is None:
                    code = dispatch(argv)
                else:
                    code = tracer.call("cli", "cli.dispatch", "call", dispatch, (argv,), {})
                rec["codes"].append(code)
                if code != 0:
                    break
        finally:
            rec["wall_s"] = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        _require(rec["codes"] == [0] * len(commands), f"exit codes {rec['codes']}")
        digests, written = [], 0
        for d, _ in commands:
            outputs = json.loads((d / "manifest.json").read_text(encoding="utf-8"))["outputs"]
            digests.append(outputs)
            written += sum((d / name).stat().st_size for name in outputs)
        rec["digests"] = digests
        rec["summary"] = CHECKS[wl.name](seed, wl.sizes[size], out)
        if tracer is not None:
            layers = layer_metrics(tracer)
            layers["cli.bytes_written"] = written
            key, expected = TRACED_WORK[wl.name]
            want = expected(wl.sizes[size])
            _require(layers.get(key) == want, f"{key} = {layers.get(key)}, expected {want}")
            rec["layers"] = layers
        rec["ok"] = True
    except Exception:  # a failed pass is recorded and counted, not fatal
        rec["error"] = traceback.format_exc(limit=4)
    shutil.rmtree(out, ignore_errors=True)
    return rec


def _openblas_threads():
    """Thread count OpenBLAS reports, if numpy's bundled OpenBLAS is found."""
    import numpy

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return fn()
    return None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "openblas_threads": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--budget", type=float, required=True, help="seconds of passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="scratch directory for pass outputs")
    ap.add_argument("--index", type=int, default=0)
    args = ap.parse_args()
    report = sys.stdout
    sys.stdout = open(os.devnull, "w", encoding="utf-8")

    import brownlab
    from brownlab.cli import dispatch

    if Path(brownlab.__file__).resolve().parent != ROOT / "src" / "brownlab":
        raise SystemExit(f"imported brownlab from {brownlab.__file__}, not from this checkout")
    wl = WORKLOADS[args.workload]
    out = Path(args.out)
    # Untimed and uncounted: a broken program shows in the passes below.
    run_pass(dispatch, wl, args.seed, "tiny", out / f"w{args.index}-warmup")
    ready = time.monotonic()

    modes = [False, True] if args.trace else [False]
    passes, spans, last = [], [], 0.0
    start = time.monotonic()
    while args.budget > 0 and (not passes or time.monotonic() - start + last <= args.budget):
        t_round = time.monotonic()
        for traced in modes:
            tracer = Tracer() if traced else None
            passes.append(run_pass(dispatch, wl, args.seed, args.size,
                                   out / f"w{args.index}-p{len(passes)}", tracer))
            if tracer is not None:
                spans.extend(tracer.spans)
        last = time.monotonic() - t_round

    if spans:
        t_first = min(s.t0 for s in spans)
        with open(out / f"spans-w{args.index}.jsonl", "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps({**s._asdict(), "t0": s.t0 - t_first,
                                     "t1": s.t1 - t_first}) + "\n")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report.write(json.dumps({"ready": ready, "passes_s": time.monotonic() - start,
                             "passes": passes, "peak_rss_mb": rss_mb,
                             "env": environment()}) + "\n")
    report.flush()


if __name__ == "__main__":
    main()
