"""Batch command-line front end.

Every subcommand writes its artifacts plus a manifest.json recording the
exact argument vector, parameter set, seed (null for free-moment, which
draws nothing), tool version, wall-clock duration, the BLAS build, and a
sha256 digest per output file. Every command runs on one BLAS thread;
`--threads`, on the commands that have it, sizes the trial pool.
Re-running the same arguments reproduces byte-identical outputs
regardless of --threads and of the BLAS thread count; `brownlab replay
manifest.json -o DIR` re-executes a manifest and verifies the digests.
Replay does not compare the BLAS record; it is there to explain a
mismatch on a host with another BLAS build.

Exit codes: 0 success, 1 validation error (bad flags, malformed
polynomial, unsatisfiable grid, a star word too long for free-moment, an
uncreatable output directory, a bad replay manifest or one whose argv
only asks for help), 2 numerical backend failure. The parsers refuse
non-finite numbers ('nan', 'inf'), a non-positive `--N`, `--trials` or
`--threads`, a negative `--seed`, and a non-positive `area --eps`,
`linearize-check --tol`, `brown --floor` or `walks-delta --threshold`,
and the walk commands refuse a `--j` outside [0, N), so those exit 1
before any work is done.
Failure rule: a trial whose P = p(X) or L^z is non-finite, or whose
LAPACK call fails, raises numpy's LinAlgError; that, a degenerate walk
draw, a singular linearization factor, a failed Schur check and a
MemoryError (an array too large to allocate) all exit 2.
Since a body writes nothing and dispatch writes only once the body has
returned, a run that exits 1 or 2 leaves no file, even when it fails
while serializing its last output. An OSError while writing outputs is
outside this contract.

The subcommands form one table, COMMANDS. An entry holds the name, the
help text, the argparse additions and a run(args, p) body. Given the
parsed flags and the parsed polynomial (None without --poly), a body
computes and returns ({file name: str or bytes}, summary line). Bodies
look up library functions through this module's globals when they run,
so a function replaced on this module (a fault injected by a test, a
tracing wrapper) is the one called. One runner, dispatch, owns the rest:
the polynomial, the output directory, timing, the mapping from
exceptions to exit codes, and the writes. Every file, the manifest
included, leaves through _save, which hashes the bytes it writes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import __version__
from ._pool import _BLAS, blas_record
from .brown import brown_estimate, log_potential, stieltjes
from .linearize import (SchurMismatchError, SingularFactorError, build_linearization,
                        verify_schur)
from .ncpoly import ParseError, free_moment, parse, parse_star_word
from .pseudospec import (
    MIN_TAIL_TRIALS,
    GridSpec,
    pseudospectrum_area,
    smin_map_full,
    tail_estimate,
    trial_map,
    trial_tuple,
)
from .rmtcore import csv_text, esd
from .walks import DegenerateDrawError, delta_report, det_tail_experiment, orthocomplement_basis

__all__ = ["main", "dispatch"]

# Caught before ValueError, which np.linalg.LinAlgError subclasses.
_BACKEND_ERRORS = (DegenerateDrawError, SingularFactorError, SchurMismatchError,
                   np.linalg.LinAlgError, MemoryError)


# An ArgumentTypeError raised by a type= parser reaches stderr with its
# message; argparse replaces a plain ValueError's with "invalid ... value".
class CliError(argparse.ArgumentTypeError, ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the artifact reserves 2
    # for backend failures, so route usage errors through exit code 1.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # values like "-2,2,-2,2,41,41" or "-0.5i" start with a dash; widen
        # the negative-number matcher so they pass as values, not flags
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        raise CliError(message)


def parse_complex(text):
    """Parse 'a+bi' style complex input; 'a' and 'bi' alone also work.

    Both parts must be finite: 'nan', 'inf' and literals that overflow a
    float, such as '1e400', are refused.
    """
    t = text.strip().replace(" ", "")
    value = None
    if t.endswith("i"):
        body = t[:-1]
        m = re.fullmatch(
            r"(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
            r"(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)",
            body,
        )
        if m:
            value = complex(float(m.group("re")), float(m.group("im")))
        elif re.fullmatch(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?", body):
            value = complex(0.0, float(body))
    else:
        try:
            value = complex(float(t), 0.0)
        except ValueError:
            pass
    if value is None:
        raise CliError(f"cannot parse complex number {text!r}")
    if not np.isfinite(value):
        raise CliError(f"complex number {text!r} is not finite")
    return value


def parse_positive_float(text):
    """A finite float above 0; 'nan', 'inf' and 0 are refused."""
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise CliError(f"{text!r} is not a finite positive number")
    return value


def parse_positive_int(text):
    """An integer of at least 1."""
    value = int(text)
    if value < 1:
        raise CliError(f"{text!r} is not a positive integer")
    return value


def parse_nonnegative_int(text):
    """An integer of at least 0, as a Philox seed must be."""
    value = int(text)
    if value < 0:
        raise CliError(f"{text!r} is not a non-negative integer")
    return value


def _increasing(vals):
    if not (np.all(np.isfinite(vals)) and np.all(vals > 0) and np.all(np.diff(vals) > 0)):
        raise CliError("ladder values must be finite, positive and strictly increasing")
    return vals


# Rungs of a 'lo:hi:log10' ladder that gives no count.
_LADDER_COUNT = 10


def parse_ladder(text):
    """'lo:hi:log10[:count]' log-spaced ladder, or a comma list of values."""
    if ":" not in text:
        return _increasing(np.array([float(v) for v in text.split(",")]))
    parts = text.split(":")
    if len(parts) not in (3, 4) or parts[2] != "log10":
        raise CliError(f"ladder must look like lo:hi:log10[:count], got {text!r}")
    count = int(parts[3]) if len(parts) == 4 else _LADDER_COUNT
    if count < 1:
        raise CliError("ladder needs count >= 1")
    lo, hi = np.log10(_increasing(np.array([float(parts[0]), float(parts[1])])))
    return _increasing(np.logspace(lo, hi, count))


def parse_grid(text):
    parts = text.split(",")
    if len(parts) != 6:
        raise CliError("grid must be re_min,re_max,im_min,im_max,nx,ny")
    try:
        return GridSpec(
            re_min=float(parts[0]),
            re_max=float(parts[1]),
            im_min=float(parts[2]),
            im_max=float(parts[3]),
            nx=int(parts[4]),
            ny=int(parts[5]),
        )
    except ValueError as exc:
        raise CliError(f"unsatisfiable grid: {exc}") from exc


def _json_text(obj):
    return json.dumps(obj, indent=1, sort_keys=True)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _save(out, files):
    """Write {file name: str or bytes} into out; return {file name: sha256}.

    Every text is encoded as UTF-8 before the first file is written, and
    each digest is taken from the bytes written.
    """
    data = {name: f.encode("utf-8") if isinstance(f, str) else f for name, f in files.items()}
    for name, b in data.items():
        (out / name).write_bytes(b)
    return {name: _sha256(b) for name, b in data.items()}


def _write_manifest(out, command, argv, params, seed, t0, digests):
    _save(out, {"manifest.json": _json_text({
        "command": command,
        "argv": list(argv),
        "params": params,
        "master_seed": seed,
        "version": __version__,
        "duration_s": round(time.time() - t0, 6),
        "blas": blas_record(),
        "outputs": digests,
    })})


def _params(args):
    out = {}
    for key, val in vars(args).items():
        if isinstance(val, complex):
            out[key] = [val.real, val.imag]
        elif isinstance(val, np.ndarray):
            out[key] = [float(v) for v in val]
        elif isinstance(val, GridSpec):
            out[key] = val.to_dict()
        else:
            out[key] = val
    return out


def _poly(args):
    try:
        return parse(args.poly, num_vars=args.n)
    except ParseError as exc:
        raise CliError(f"malformed polynomial: {exc}") from exc


def _slope(est):
    return "undefined" if est.slope is None else f"{est.slope:.3f}"


# ------------------------------------------------------------ command bodies

def _spectrum(args, p):
    lam = np.concatenate(trial_map(esd, p, args.N, args.trials, args.seed,
                                   threads=args.threads))
    return ({"spectrum.csv": csv_text({"re": lam.real, "im": lam.imag})},
            f"spectrum: {len(lam)} eigenvalues -> {Path(args.out, 'spectrum.csv')}")


def _linearize_check(args, p):
    lin = build_linearization(p)
    residual = verify_schur(lin, trial_tuple(p.num_vars, args.N, args.seed, 0), args.z)
    ok = residual <= args.tol
    return {
        "linearization.json": lin.to_json(),
        "check.json": _json_text({"residual": residual, "tol": args.tol, "ok": bool(ok),
                                  "rank": lin.rank, "z": [args.z.real, args.z.imag]}),
    }, f"linearize-check: residual={residual:.3e} tol={args.tol:g} ok={ok}"


def _smin_map(args, p):
    med, mean, mn = smin_map_full(p, args.N, args.grid, args.trials, args.seed,
                                  threads=args.threads)
    return ({"smin_map.csv": args.grid.to_csv(med, {"mean": mean, "min": mn})},
            f"smin-map: {args.grid.nx}x{args.grid.ny} grid -> {Path(args.out, 'smin_map.csv')}")


def _tail(args, p):
    est = tail_estimate(p, args.N, args.z, args.eps, args.trials, args.seed,
                        threads=args.threads)
    return ({"tail.json": est.to_json()},
            f"tail: slope={_slope(est)} -> {Path(args.out, 'tail.json')}")


def _area(args, p):
    area = pseudospectrum_area(p, args.N, args.eps, args.grid, args.trials, args.seed,
                               threads=args.threads)
    return {"area.json": _json_text({
        "eps": args.eps, "area": area, "omega": args.grid.to_dict(), "N": args.N,
        "trials": args.trials,
    })}, f"area: E Leb = {area:.6g} -> {Path(args.out, 'area.json')}"


def _brown(args, p):
    # density.csv sits on the interior nodes, which must span a rectangle
    if min(args.grid.nx, args.grid.ny) < 4:
        raise CliError("brown needs a grid of at least 4 x 4 nodes")
    fld = log_potential(p, args.N, args.grid, args.trials, floor=args.floor,
                        seed=args.seed, threads=args.threads)
    est = brown_estimate(fld)
    return {
        "logpot.csv": fld.grid.to_csv(fld.h, {"truncated_fraction": fld.truncated_fraction}),
        "density.csv": est.grid.interior().to_csv(est.density),
        "brown.json": _json_text({
            "N": args.N, "trials": args.trials, "floor": fld.floor,
            "seed": args.seed, "total_mass": est.total_mass,
            "truncated_fraction_summary": fld.truncation_summary(),
        }),
    }, f"brown: total_mass={est.total_mass:.4f} -> {Path(args.out, 'density.csv')}"


def _stieltjes(args, p):
    g = stieltjes(p, args.N, args.z, args.eta, args.trials, args.seed, threads=args.threads)
    return {"stieltjes.json": _json_text({
        "z": [args.z.real, args.z.imag], "N": args.N, "trials": args.trials,
        "values": [{"eta": float(e), "re": v.real, "im": v.imag}
                   for e, v in zip(args.eta, g)],
    })}, f"stieltjes: {len(args.eta)} rungs -> {Path(args.out, 'stieltjes.json')}"


def _walk_basis(args, p):
    """The linearization of p and the basis U for block column j of L^z."""
    if not 0 <= args.j < args.N:  # before the tuple is drawn
        raise CliError(f"argument --j: block column index {args.j} outside [0, {args.N})")
    lin = build_linearization(p)
    blocks = lin.blocks(trial_tuple(p.num_vars, args.N, args.seed, 0), args.z)
    return lin, orthocomplement_basis(blocks, args.j, args.seed)


def _walks_delta(args, p):
    lin, U = _walk_basis(args, p)
    threshold = args.threshold
    if threshold is None:
        threshold = float(args.N) ** (-lin.rank / 2 - 10)
    rep = delta_report(U, lin.s_matrix(), threshold)
    basis, header = U.dump()
    return {"delta.json": rep.to_json(), "walkbasis.bin": basis, "walkbasis.json": header}, (
        f"walks-delta: structured={rep.structured} "
        f"max1={rep.max_abs_delta1:.3e} max2={rep.max_abs_delta2:.3e} "
        f"-> {Path(args.out, 'delta.json')}")


def _walks_dettail(args, p):
    if args.trials < MIN_TAIL_TRIALS:  # before the basis is drawn
        raise CliError(f"det tail experiments need trials >= {MIN_TAIL_TRIALS}")
    lin, U = _walk_basis(args, p)
    K = lin.pencil(args.z)[1]
    est = det_tail_experiment(U, lin.s_matrix(), U.blocks[args.j].conj().T @ K,
                              args.eps, args.trials, args.seed)
    return ({"dettail.json": est.to_json()},
            f"walks-dettail: slope={_slope(est)} -> {Path(args.out, 'dettail.json')}")


def _free_moment(args, p):
    word = parse_star_word(args.word)
    value = free_moment(word)
    return {"freemoment.json": _json_text({"word": str(word), "moment": value})}, str(value)


# ------------------------------------------------------------ command table

def _arg(*flags, **kwargs):
    return flags, kwargs


def _trials(default):
    return _arg("--trials", type=parse_positive_int, default=default)


_POLY = (
    _arg("--poly", required=True, help="polynomial, e.g. 'x1*x2+x2*x1'"),
    _arg("--n", type=int, default=None, help="declared number of variables"),
    _arg("--N", type=parse_positive_int, required=True, help="matrix size"),
)
_Z = _arg("--z", type=parse_complex, default=0j, help="shift, as a+bi")
_GRID = _arg("--grid", type=parse_grid, required=True, help="re_min,re_max,im_min,im_max,nx,ny")
_EPS = _arg("--eps", type=parse_ladder, required=True,
            help="ladder lo:hi:log10[:count] or comma list")
_J = _arg("--j", type=int, default=0, help="block column index")
_RUN = (
    _arg("--seed", type=parse_nonnegative_int, default=0),
    _arg("-o", "--out", default="brownlab-out", help="output directory"),
)
# the commands that map their trials or grid chunks through the pool
_POOL_RUN = (*_RUN, _arg("--threads", type=parse_positive_int, default=1,
                         help="worker threads"))


Command = namedtuple("Command", "name help arguments run")

COMMANDS = {cmd.name: cmd for cmd in (
    Command("spectrum", "eigenvalue samples of p(X)",
            (*_POLY, _trials(1), *_POOL_RUN), _spectrum),
    Command("linearize-check", "Schur resolvent identity residual",
            (*_POLY, _Z, *_RUN, _arg("--tol", type=parse_positive_float, default=1e-8)),
            _linearize_check),
    Command("smin-map", "grid map of smin(P - z)",
            (*_POLY, _GRID, _trials(1), *_POOL_RUN), _smin_map),
    Command("tail", "small-ball tail of smin(P - z)",
            (*_POLY, _Z, _EPS, _trials(1000), *_POOL_RUN), _tail),
    Command("area", "expected pseudospectrum area in a rectangle",
            (*_POLY, _GRID, _trials(1), *_POOL_RUN,
             _arg("--eps", type=parse_positive_float, required=True)),
            _area),
    Command("brown", "log-potential and Brown density estimate",
            (*_POLY, _GRID, _trials(1), *_POOL_RUN,
             _arg("--floor", type=parse_positive_float, default=None,
                  help="singular value floor (default N^-6)")),
            _brown),
    Command("stieltjes", "Stieltjes transform of the hermitization",
            (*_POLY, _Z, _trials(10), *_POOL_RUN,
             _arg("--eta", type=parse_ladder, required=True,
                  help="eta ladder lo:hi:log10[:count] or comma list")),
            _stieltjes),
    Command("walks-delta", "Delta determinant report for a drawn basis",
            (*_POLY, _Z, *_RUN, _J,
             _arg("--threshold", type=parse_positive_float, default=None,
                  help="structured threshold (default N^(-r/2-10))")),
            _walks_delta),
    Command("walks-dettail", "determinant small-ball experiment",
            # an int: the body states the floor, MIN_TAIL_TRIALS, for 0 too
            (*_POLY, _Z, _EPS, _arg("--trials", type=int, default=1000), *_RUN, _J),
            _walks_dettail),
    Command("free-moment", "free moment of a star word",
            (_arg("--word", required=True, help="e.g. 'c1 c1* c2 c2*'"),
             _arg("-o", "--out", default=None)),
            _free_moment),
)}


# ------------------------------------------------------------ runner

# Every spelling argparse accepts for the output directory: -o DIR, -oDIR,
# --out DIR, --out=DIR, and the unambiguous prefixes --o and --ou.
_OUT_FLAG = re.compile(r"-o.*|--o(?:u|ut)?(?:=.*)?")


def _replay(args):
    try:
        manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read manifest: {exc}") from exc
    # argv must name a command of COMMANDS, so a replay never replays a replay
    argv = manifest.get("argv") if isinstance(manifest, dict) else None
    if not (isinstance(argv, list) and argv and all(isinstance(t, str) for t in argv)
            and argv[0] in COMMANDS and isinstance(manifest.get("outputs"), dict)):
        raise CliError("manifest needs an argv naming a command and an outputs object")
    # swap the recorded output directory for the replay target
    argv, skip = [], False
    for tok in manifest["argv"]:
        if skip:
            skip = False
        elif _OUT_FLAG.fullmatch(tok):
            skip = tok in ("-o", "--o", "--ou", "--out")
        else:
            argv.append(tok)
    try:
        code = dispatch(argv + ["-o", args.out])
    except SystemExit as exc:  # argparse printed help: the argv asks for no run
        raise CliError("manifest argv runs no command (a help flag?)") from exc
    if code != 0:
        print(f"replay: command failed with exit code {code}")
        return code
    ok = True
    for name, digest in manifest["outputs"].items():
        path = Path(args.out) / name
        match = path.is_file() and _sha256(path.read_bytes()) == digest
        ok = ok and match
        print(f"replay: {name} {'OK' if match else 'MISMATCH'}")
    return 0 if ok else 1


def build_parser():
    ap = _Parser(prog="brownlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS.values():
        sp = sub.add_parser(cmd.name, help=cmd.help)
        for flags, kwargs in cmd.arguments:
            sp.add_argument(*flags, **kwargs)
    sp = sub.add_parser("replay", help="re-run a manifest and verify digests")
    sp.add_argument("manifest")
    sp.add_argument("-o", "--out", required=True)
    return ap


def dispatch(argv):
    """Run one command line and return its exit code."""
    try:
        args = build_parser().parse_args(argv)
        if args.command == "replay":
            return _replay(args)
        t0 = time.time()
        cmd = COMMANDS[args.command]
        p = _poly(args) if "poly" in vars(args) else None
        out = None if args.out is None else Path(args.out)
        if out is not None:
            try:
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise CliError(f"cannot create output directory: {exc}") from exc
        with _BLAS.one_thread():
            files, summary = cmd.run(args, p)
        if out is not None:
            _write_manifest(out, cmd.name, argv, _params(args), getattr(args, "seed", None),
                            t0, _save(out, files))
        print(summary)
        return 0
    except _BACKEND_ERRORS as exc:
        print(f"numerical backend failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # CliError and ParseError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
