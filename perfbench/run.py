"""Benchmark of the brownlab CLI: each workload timed end to end, plus a
traced pass that splits its time across brownlab's modules.

Run from the repository root:

    python3 perfbench/run.py --workload brown-sweep --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24
    python3 perfbench/run.py --self-test

One run first starts one interpreter that only imports brownlab and is not
timed, so the timed set-ups read their imports from a warm page cache. Then
it starts fresh interpreters in turn (worker.py). Each one sets up, which
gives one ``setup_s`` sample. ``WORKERS`` of them then run passes of the
workload, each for its share of the ``seconds`` the earlier workers left,
and give one ``peak_rss_mb`` sample each (a worker runs a single workload,
so no other workload's peak can leak into it). Before each of these,
``SETUPS_PER_WORKER - 1`` workers only set up, which gives ``setup_s`` more
samples spread between the passes. A pass is ``brownlab.cli.dispatch(argv)``
in-process, from argv in to the outputs and ``manifest.json`` written.
Every pass is checked outside its timed region, and all passes of a run
must give identical manifest output digests and check summaries (the
byte-replay contract); a pass that exits non-zero or fails a check counts
as failed.

With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json,
each a median over the run's passes or workers. With ``--trace 1`` the
workers alternate untraced and traced passes and the metrics are the
per-layer ones: times are medians over traced passes, counts must repeat
exactly, and ``trace.overhead_frac`` compares traced with untraced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Results, the
environment record and the spans of traced passes are written under
``.perfbench-out/``. Exits 2 without a result when the checkout holds no
brownlab sources, 1 when a worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

from workloads import CONFIRM_SEED, WORKLOADS  # noqa: E402

WORKERS = 8
SETUPS_PER_WORKER = 2
# Traced runs report no setup_s, and each round of a traced worker is two
# passes, so fewer workers keep a traced run near ``seconds`` long.
TRACE_WORKERS = 2
OUT = ROOT / ".perfbench-out"
# A worker's first pass may overrun its budget; allow for it and set-up.
WORKER_GRACE_S = 90


class BenchError(RuntimeError):
    pass


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git_commit():
    """Commit of the checkout, or None outside a git work tree or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _worker_env():
    env = dict(os.environ)
    env.pop("BROWNLAB_THREADS", None)
    env["OPENBLAS_NUM_THREADS"] = str(min(2, len(os.sched_getaffinity(0))))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_workload(name, seed, seconds, trace, size="full", workers=None):
    """Run one workload; return the full result record."""
    if not (ROOT / "src" / "brownlab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no brownlab sources under {ROOT / 'src'}")
    workers = workers or (TRACE_WORKERS if trace else WORKERS)
    wl = WORKLOADS[name]
    out = OUT / f"{name}-seed{seed}-trace{trace}-{size}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = _worker_env()
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
                    "import brownlab.cli"], stdout=subprocess.DEVNULL, env=env, cwd=ROOT,
                   timeout=WORKER_GRACE_S)
    setups, rss, passes, worker_env = [], [], [], None
    left = seconds
    for k in range(workers * SETUPS_PER_WORKER):
        runs_passes = k % SETUPS_PER_WORKER == SETUPS_PER_WORKER - 1
        budget = max(left, 0.0) / (workers - k // SETUPS_PER_WORKER) if runs_passes else 0.0
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", name,
                "--seed", str(seed), "--size", size, "--budget", f"{budget:.6f}",
                "--trace", str(trace), "--out", str(out), "--index", str(k)]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                                  text=True, timeout=budget + WORKER_GRACE_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {k} of {name} timed out") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"worker {k} of {name} exited with code {proc.returncode}")
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        setups.append(rep["ready"] - t0)
        worker_env = rep["env"]
        left -= rep["passes_s"]
        if rep["passes"]:
            rss.append(rep["peak_rss_mb"])
            passes.extend(rep["passes"])

    # Byte replay: every pass of the same argv gives the same digests and
    # the same check summary as the first good pass.
    good = [p for p in passes if p["ok"]]
    for p in good[1:]:
        if (p["digests"], p["summary"]) != (good[0]["digests"], good[0]["summary"]):
            p["ok"] = False
            p["error"] = "outputs differ from the run's first pass"
    failed = sum(not p["ok"] for p in passes)
    correct = failed == 0

    timed = [p["wall_s"] for p in passes if not p["traced"]]
    wall = statistics.median(timed)
    end_to_end = {
        "wall_s": wall,
        "items_per_s": wl.work(size) / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    per_layer = {}
    layer_units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    if trace:
        layered = [p["layers"] for p in passes if p["traced"] and p["ok"]]
        traced_walls = [p["wall_s"] for p in passes if p["traced"]]
        if not layered:
            raise BenchError(f"no traced pass of {name} succeeded")
        # A layer the workload never enters reports 0.
        for key in sorted(set(layer_units) | {k for layers in layered for k in layers}):
            if key.startswith("trace."):
                continue
            exact = layer_units.get(key) in ("count", "bytes")
            values = [layers.get(key, 0 if exact else 0.0) for layers in layered]
            per_layer[key] = values[0] if exact else statistics.median(values)
        correct &= not counters_disagree(layered)
        per_layer["trace.wall_s"] = statistics.median(traced_walls)
        per_layer["trace.overhead_frac"] = per_layer["trace.wall_s"] / wall - 1.0
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "correct": correct, "attempted": len(passes), "failed": failed,
        "failed_frac": failed / len(passes), "passes_timed": len(timed),
        "work_per_pass": wl.work(size), "work_unit": wl.unit,
        "end_to_end": end_to_end, "per_layer": per_layer,
        "setup_samples_s": setups, "peak_rss_samples_mb": rss, "wall_samples_s": timed,
        "env": {**(worker_env or {}), "git_commit": git_commit(), "workers": workers},
        "errors": [p["error"] for p in passes if not p["ok"]],
    }
    (out / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def metrics_of(record, section):
    """The BENCHMARK.json metrics of one section, as {name: {value, unit}}."""
    values = record["end_to_end"] if section == "end_to_end" else record["per_layer"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec()[section] if m["name"] in values}


def describe(record):
    """Human-readable lines for one result record."""
    env = record["env"]
    lines = [
        f"# {record['workload']} seed={record['seed']} size={record['size']} "
        f"trace={record['trace']}: {record['passes_timed']} timed passes, "
        f"{len(record['setup_samples_s'])} set-ups; work per pass "
        f"{record['work_per_pass']} {record['work_unit']}",
        f"# env: nproc={env.get('nproc')} {env.get('blas')} {env.get('blas_version')} "
        f"OPENBLAS_NUM_THREADS={env.get('OPENBLAS_NUM_THREADS')} "
        f"(reported {env.get('openblas_threads')}) python {env.get('python')} "
        f"numpy {env.get('numpy')} scipy {env.get('scipy')} commit {env.get('git_commit')}",
    ]
    section = "per_layer" if record["trace"] else "end_to_end"
    for name, m in metrics_of(record, section).items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        lines.append(f"{name:28s} {value:>14} {m['unit']}")
    if not record["trace"]:
        walls = record["wall_samples_s"]
        lines.append(f"{'wall_s min..max':28s} {min(walls):>14.6g} .. {max(walls):.6g} s")
    lines.append(f"{'failed_frac':28s} {record['failed_frac']:>14.6g} "
                 f"({record['failed']} of {record['attempted']} passes)")
    for err in record["errors"][:3]:
        lines.append("# failed pass: " + err.strip().splitlines()[-1])
    return lines


def counters_disagree(layer_sets):
    """Counter metrics (``count`` and ``bytes`` units) that differ between
    the given per-layer metric dicts; a missing counter reads 0."""
    return [m["name"] for m in spec()["per_layer"] if m["unit"] in ("count", "bytes")
            and len({layers.get(m["name"], 0) for layers in layer_sets}) != 1]


def self_test(seed):
    """Tiny sizes: every metric is emitted with its unit, outputs check,
    and two traced runs agree exactly on every counter."""
    bench = spec()
    problems = []
    for name in WORKLOADS:
        plain = run_workload(name, seed, 2, 0, size="tiny", workers=1)
        traced = [run_workload(name, seed, 2, 1, size="tiny", workers=1) for _ in range(2)]
        for rec in [plain] + traced:
            print("\n".join(describe(rec)))
            if not rec["correct"]:
                problems.append(f"{name}: trace={rec['trace']} run not correct")
        for section, rec in (("end_to_end", plain), ("per_layer", traced[0])):
            missing = {m["name"] for m in bench[section]} - set(metrics_of(rec, section))
            if missing:
                problems.append(f"{name}: {section} metrics missing: {sorted(missing)}")
        for key in counters_disagree([t["per_layer"] for t in traced]):
            problems.append(f"{name}: {key} differs between traced runs: "
                            f"{[t['per_layer'].get(key) for t in traced]}")
    for p in problems:
        print("SELF-TEST FAILED: " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1,
                    help=f"workload seed; {CONFIRM_SEED} is reserved for confirming claims")
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds of passes per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test(args.seed)
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        seconds = args.seconds or spec()["run_seconds"]
        records = [run_workload(n, args.seed, seconds, args.trace) for n in names]
    except (FileNotFoundError, BenchError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, FileNotFoundError) else 1
    section = "per_layer" if args.trace else "end_to_end"
    for rec in records:
        print("\n".join(describe(rec)))
    if len(records) == 1:
        metrics = metrics_of(records[0], section)
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records
                   for k, v in metrics_of(r, section).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
