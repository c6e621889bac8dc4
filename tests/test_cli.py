import json
import hashlib
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from brownlab.cli import (
    COMMANDS,
    dispatch,
    parse_complex,
    parse_grid,
    parse_ladder,
    parse_nonnegative_int,
    parse_positive_float,
    parse_positive_int,
)
from brownlab.pseudospec import GridSpec


def _digests(outdir):
    out = {}
    for p in sorted(Path(outdir).iterdir()):
        if p.name == "manifest.json":
            continue
        out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


# ------------------------------------------------------------ dependencies

def test_cli_import_loads_no_scipy():
    # the package runs on numpy alone; scipy is a test and benchmark extra
    import brownlab

    env = dict(os.environ)
    src = str(Path(brownlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, brownlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# ------------------------------------------------------------ flag parsing

def test_parse_complex_forms():
    assert parse_complex("1.5") == 1.5
    assert parse_complex("2i") == 2j
    assert parse_complex("-0.5i") == -0.5j
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-1.5e-2-0.25i") == -0.015 - 0.25j
    with pytest.raises(ValueError):
        parse_complex("nope")


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "infinity", "1e400", "1e400i",
                                  "1+1e400i"])
def test_parse_complex_refuses_non_finite_parts(text):
    with pytest.raises(ValueError, match="not finite"):
        parse_complex(text)


def test_parse_ladder_forms():
    lad = parse_ladder("1e-6:1e-1:log10")
    assert len(lad) == 10
    assert np.isclose(lad[0], 1e-6) and np.isclose(lad[-1], 1e-1)
    lad = parse_ladder("1e-3:1e-1:log10:4")
    assert len(lad) == 4
    lad = parse_ladder("0.001,0.01,0.1")
    assert lad.tolist() == [0.001, 0.01, 0.1]
    with pytest.raises(ValueError):
        parse_ladder("1e-1:1e-6:log10")
    # the rungs collapse in floating point: rejected before any sampling
    with pytest.raises(ValueError):
        parse_ladder("1:1.000000000000001:log10:50")
    # an infinite rung is no rung: every sample falls below it
    for text in ("1e-3,inf", "1e-3,1e400", "1e-3:inf:log10"):
        with pytest.raises(ValueError):
            parse_ladder(text)


def test_parse_grid_validation():
    g = parse_grid("-2,2,-2,2,5,7")
    assert (g.nx, g.ny) == (5, 7)
    with pytest.raises(ValueError):
        parse_grid("-2,2,-2,2,5")
    with pytest.raises(ValueError):
        parse_grid("2,-2,-2,2,5,5")
    # an infinite side leaves no finite node spacing
    for text in ("-1,inf,-1,1,5,5", "-1e308,1e308,-1,1,5,5"):
        with pytest.raises(ValueError):
            parse_grid(text)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(_finite, _finite)
@example(-1.5e-2, -0.25)
@example(0.0, -0.0)
def test_parse_complex_round_trip(re_part, im_part):
    sign = "-" if str(im_part).startswith("-") else "+"
    assert parse_complex(f"{re_part!r}{sign}{abs(im_part)!r}i") == complex(re_part, im_part)
    assert parse_complex(repr(re_part)) == re_part
    assert parse_complex(f"{im_part!r}i") == 1j * im_part


@given(st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=1, max_size=12,
                unique=True))
def test_parse_ladder_comma_list_round_trip(values):
    values = sorted(values)
    assert parse_ladder(",".join(map(repr, values))).tolist() == values


@given(st.floats(min_value=1e-12, max_value=1.0), st.floats(min_value=2.0, max_value=1e6),
       st.integers(min_value=1, max_value=30))
def test_parse_ladder_log_form_round_trip(lo, ratio, count):
    lad = parse_ladder(f"{lo!r}:{lo * ratio!r}:log10:{count}")
    assert len(lad) == count and np.isclose(lad[0], lo)
    # the ladder is a valid comma list that parses back to itself
    assert np.array_equal(parse_ladder(",".join(map(repr, lad.tolist()))), lad)


@given(st.floats(-1e6, 1e6), st.floats(1e-6, 1e6), st.floats(-1e6, 1e6),
       st.floats(1e-6, 1e6), st.integers(1, 100), st.integers(1, 100))
def test_parse_grid_round_trip(re_min, width, im_min, height, nx, ny):
    spec = GridSpec(re_min, re_min + width, im_min, im_min + height, nx, ny)
    text = ",".join(repr(v) for v in spec.to_dict().values())
    assert parse_grid(text) == spec


# ------------------------------------------------------------ exit codes

def test_unknown_flag_exits_one(capsys):
    assert dispatch(["tail", "--bogus", "1"]) == 1


def test_malformed_polynomial_exits_one(tmp_path, capsys):
    code = dispatch(
        ["spectrum", "--poly", "x1*(", "--N", "8", "-o", str(tmp_path)]
    )
    assert code == 1
    assert "polynomial" in capsys.readouterr().err


def test_unsatisfiable_grid_exits_one(tmp_path, capsys):
    code = dispatch(
        ["smin-map", "--poly", "x1*x2", "--N", "8", "--grid", "2,-2,0,1,3,3",
         "-o", str(tmp_path)]
    )
    assert code == 1


def test_nonpositive_eta_ladder_exits_one(tmp_path, capsys):
    code = dispatch(
        ["stieltjes", "--poly", "x1*x2", "--N", "6", "--eta", "0.0,1.0",
         "-o", str(tmp_path)]
    )
    assert code == 1


@pytest.mark.parametrize("z", ["nan", "inf", "1e400"])
@pytest.mark.parametrize("argv", [
    ["tail", "--poly", "x1*x2+x2*x1", "--N", "6", "--eps", "1e-3,1e-2", "--trials", "100"],
    ["walks-delta", "--poly", "x1*x2+x2*x1", "--N", "6"],
], ids=lambda argv: argv[0])
def test_non_finite_shift_exits_one_and_writes_nothing(argv, z, tmp_path, capsys):
    out = tmp_path / "out"
    assert dispatch(argv + ["--z", z, "-o", str(out)]) == 1
    assert "--z" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("eps", ["nan", "inf", "0", "-0.5"])
def test_area_eps_must_be_finite_and_positive(eps, tmp_path, capsys):
    code = dispatch(["area", "--poly", "x1*x2", "--N", "6", "--eps", eps,
                     "--grid", "-1,1,-1,1,3,3", "-o", str(tmp_path)])
    assert code == 1
    assert "--eps" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()
    assert not (tmp_path / "area.json").exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_must_be_a_positive_integer(threads, tmp_path, capsys):
    code = dispatch(["tail", "--poly", "x1*x2", "--N", "6", "--eps", "1e-3,1e-2",
                     "--trials", "100", "--threads", threads, "-o", str(tmp_path)])
    assert code == 1
    assert "--threads" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["tail", "walks-delta", "linearize-check"])
def test_negative_seed_is_refused_before_the_output_directory(name, tmp_path, capsys):
    out = tmp_path / "out"
    assert dispatch([name, *_CONTRACT_BASE[name], "--seed", "-1", "-o", str(out)]) == 1
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, flag, value, reason", [
    ("tail", "--z", "nan", "complex number 'nan' is not finite"),
    ("tail", "--eps", "0.2,0.1",
     "ladder values must be finite, positive and strictly increasing"),
    ("smin-map", "--grid", "1,2", "grid must be re_min,re_max,im_min,im_max,nx,ny"),
    ("tail", "--eps", "1:2:log10:0", "ladder needs count >= 1"),
    ("spectrum", "--n", "0", "'0' is not a positive integer"),
], ids=["z-nan", "eps-decreasing", "grid-two-parts", "eps-count-zero", "n-zero"])
def test_parser_reasons_reach_stderr(name, flag, value, reason, tmp_path, capsys):
    argv = _with([name, *_CONTRACT_BASE[name]], flag, value) + ["-o", str(tmp_path)]
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == f"error: argument {flag}: {reason}\n"
    assert list(tmp_path.iterdir()) == []


def _assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert captured.out == ""
    return captured.err


def test_deeply_nested_polynomial_exits_one(tmp_path, capsys):
    poly = "(" * 5000 + "x1*x2" + ")" * 5000
    assert dispatch(["spectrum", "--poly", poly, "--N", "4", "-o", str(tmp_path)]) == 1
    assert "parentheses nest deeper than 100" in _assert_one_error_line(capsys)
    assert list(tmp_path.iterdir()) == []


def test_long_star_word_exits_one(capsys):
    assert dispatch(["free-moment", "--word", "c1 c1* " * 2500]) == 1
    assert "5000 letters" in _assert_one_error_line(capsys)


def test_tiny_polynomial_fails_without_a_warning(tmp_path, capsys):
    # kappa_F of a 1e-300-scaled L^z overflows; that is "not certified",
    # and the SVD route reports the rank deficiency as one stderr line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = dispatch(["walks-delta", "--poly", "1e-300*x1*x2", "--N", "4",
                         "-o", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "numerical backend failure" in err
    assert list(tmp_path.iterdir()) == []


def test_backend_failure_exits_two(tmp_path, capsys, monkeypatch):
    import brownlab.cli as cli
    from brownlab.walks import DegenerateDrawError

    def boom(*a, **k):
        raise DegenerateDrawError("forced degenerate draw")

    monkeypatch.setattr(cli, "orthocomplement_basis", boom)
    code = dispatch(
        ["walks-delta", "--poly", "x1*x2+x2*x1", "--N", "8", "-o", str(tmp_path)]
    )
    assert code == 2
    assert "numerical backend failure" in capsys.readouterr().err


def test_memory_error_exits_two(tmp_path, capsys, monkeypatch):
    # an allocation numpy cannot make (spectrum --N 100000000) is a backend
    # failure; it is injected here, never provoked
    import brownlab.cli as cli

    def boom(*a, **k):
        raise MemoryError("Unable to allocate 149 PiB for an array")

    monkeypatch.setattr(cli, "esd", boom)
    code = dispatch(["spectrum", "--poly", "x1*x2", "--N", "6", "-o", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "numerical backend failure" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cls, method, csv_ready, argv", [
    # the second output each command serializes; brown's fails once
    # logpot.csv, its one CSV before density.csv, is ready
    ("GridSpec", "interior", 1,
     ["brown", "--poly", "x1*x2+x2*x1", "--N", "8", "--grid", "-1,1,-1,1,5,5"]),
    ("WalkBasis", "dump", 0, ["walks-delta", "--poly", "x1*x2+x2*x1", "--N", "8"]),
], ids=["brown", "walks-delta"])
def test_memory_error_while_serializing_leaves_no_file(cls, method, csv_ready, argv, tmp_path,
                                                       capsys, monkeypatch):
    import brownlab

    csvs, faults = [], []
    to_csv = brownlab.GridSpec.to_csv

    def counting_to_csv(*a, **k):
        csvs.append(a)
        return to_csv(*a, **k)

    def no_memory(*a, **k):
        faults.append(len(csvs))
        raise MemoryError("Unable to allocate 149 PiB for an array")

    monkeypatch.setattr(brownlab.GridSpec, "to_csv", counting_to_csv)
    monkeypatch.setattr(getattr(brownlab, cls), method, no_memory)
    code = dispatch([*argv, "-o", str(tmp_path)])
    assert code == 2
    assert faults == [csv_ready]  # first reached while serializing
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "numerical backend failure" in err
    assert list(tmp_path.iterdir()) == []


# Constructor arguments of every numerical-failure class brownlab defines.
_FAILURE_ARGS = {
    "DegenerateDrawError": ("forced degenerate draw",),
    "SingularFactorError": ("linearization L^z", 0.0),
    "SchurMismatchError": ("forced Schur mismatch",),
}


def test_every_numerical_failure_class_exits_two(tmp_path, capsys, monkeypatch):
    # an exception class brownlab defines is a numerical failure unless it
    # is a ValueError (a validation error, exit 1); each one, injected into
    # linearize-check, exits 2 with one stderr line and no output
    import inspect

    import brownlab
    import brownlab.cli as cli

    failures = {name: cls for name, cls in inspect.getmembers(brownlab, inspect.isclass)
                if issubclass(cls, Exception) and not issubclass(cls, ValueError)}
    assert set(failures) == set(_FAILURE_ARGS)
    for name, cls in failures.items():
        def boom(*a, **k):
            raise cls(*_FAILURE_ARGS[name])

        monkeypatch.setattr(cli, "verify_schur", boom)
        out = tmp_path / name
        code = dispatch(["linearize-check", "--poly", "x1*x2+x2*x1", "--N", "5",
                         "-o", str(out)])
        assert code == 2, name
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "numerical backend failure" in err, name
        assert list(out.iterdir()) == [], name


def test_output_path_naming_a_file_exits_one(tmp_path, capsys, monkeypatch):
    import brownlab.cli as cli

    def started(*a, **k):
        raise AssertionError("sampling ran before the output directory was made")

    monkeypatch.setattr(cli, "esd", started)
    path = tmp_path / "taken"
    path.write_bytes(b"keep me\n")
    code = dispatch(["spectrum", "--poly", "x1*x2", "--N", "5", "-o", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: cannot create output directory")
    assert path.read_bytes() == b"keep me\n"


_LINALG_CASES = [
    # the sigma(P - z) commands reach LAPACK through rmtcore's kernel
    ("svdvals", ["tail", "--poly", "x1*x2+x2*x1", "--N", "8", "--eps", "1e-3:1e-1:log10:3",
                 "--trials", "100"]),
    ("svdvals", ["stieltjes", "--poly", "x1*x2+x2*x1", "--N", "8", "--eta", "0.1,1.0",
                 "--trials", "2"]),
    ("svdvals", ["smin-map", "--poly", "x1*x2", "--N", "8", "--grid", "-1,1,-1,1,3,3"]),
    ("svdvals", ["area", "--poly", "x1*x2", "--N", "8", "--eps", "0.5",
                 "--grid", "-1,1,-1,1,3,3"]),
    ("eig", ["brown", "--poly", "x1*x2+x2*x1", "--N", "8", "--grid", "-1,1,-1,1,5,5"]),
    ("svd", ["walks-delta", "--poly", "x1*x2+x2*x1", "--N", "8", "--z", "0"]),
    ("svd", ["walks-dettail", "--poly", "x1*x2+x2*x1", "--N", "8", "--z", "0",
             "--eps", "1e-3:1e-1:log10:3", "--trials", "100"]),
]


@pytest.mark.parametrize("patched, argv", _LINALG_CASES,
                         ids=[f"argv{i}" for i in range(len(_LINALG_CASES))])
def test_linalg_error_exits_two(patched, argv, tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError; it must still map to exit code 2.
    import brownlab.rmtcore as rmtcore

    def boom(*a, **k):
        raise np.linalg.LinAlgError(f"forced {patched} failure")

    monkeypatch.setattr(rmtcore if patched == "svdvals" else np.linalg, patched, boom)
    assert dispatch(argv + ["-o", str(tmp_path)]) == 2
    assert "numerical backend failure" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_OVERFLOW = ["--poly", "1e200*1e200*x1*x2", "--N", "6"]


@pytest.mark.parametrize("argv", [
    ["spectrum", *_OVERFLOW],
    ["smin-map", *_OVERFLOW, "--grid", "-1,1,-1,1,3,3"],
    ["area", *_OVERFLOW, "--eps", "0.1", "--grid", "-1,1,-1,1,3,3"],
    ["tail", *_OVERFLOW, "--eps", "1e-3:1:log10:3", "--trials", "100"],
    ["stieltjes", *_OVERFLOW, "--eta", "0.1,1", "--trials", "2"],
    ["brown", *_OVERFLOW, "--grid", "-1,1,-1,1,5,5"],
], ids=lambda argv: argv[0])
def test_non_finite_p_exits_two_and_writes_nothing(argv, tmp_path, capsys):
    # the coefficient overflows to inf, so every entry of P is non-finite
    assert dispatch(argv + ["-o", str(tmp_path)]) == 2
    assert "numerical backend failure" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# One small valid command line per command; the contract tests below vary
# each numeric flag of the command table, and each part of --grid, on top of it.
_CONTRACT_BASE = {
    "spectrum": ["--poly", "x1*x2+x2*x1", "--N", "5"],
    "linearize-check": ["--poly", "x1*x2+x2*x1", "--N", "5"],
    "smin-map": ["--poly", "x1*x2+x2*x1", "--N", "5", "--grid", "-1,1,-1,1,3,3"],
    "tail": ["--poly", "x1*x2+x2*x1", "--N", "5", "--eps", "1e-3,1e-1", "--trials", "100"],
    "area": ["--poly", "x1*x2+x2*x1", "--N", "5", "--grid", "-1,1,-1,1,3,3",
             "--eps", "0.1"],
    "brown": ["--poly", "x1*x2+x2*x1", "--N", "5", "--grid", "-1,1,-1,1,5,5"],
    "stieltjes": ["--poly", "x1*x2+x2*x1", "--N", "5", "--eta", "0.1,1"],
    "walks-delta": ["--poly", "x1*x2+x2*x1", "--N", "5"],
    "walks-dettail": ["--poly", "x1*x2+x2*x1", "--N", "5", "--eps", "1e-3,1e-1",
                      "--trials", "100"],
    "free-moment": ["--word", "c1 c1*"],
}
_NUMERIC_TYPES = {int, parse_positive_int, parse_nonnegative_int, parse_positive_float,
                  parse_complex, parse_ladder}
_NOT_POSITIVE = ["0", "-1", "nan", "inf"]


def _numeric_flags(cmd):
    for flags, kwargs in cmd.arguments:
        if kwargs.get("type") in _NUMERIC_TYPES:
            yield next(f for f in flags if f.startswith("--"))


def _with(argv, flag, value):
    """argv with flag set to value, in place of its base value if it has one."""
    argv = list(argv)
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    return argv


def _assert_exit_contract(argv, out, replay_out, capsys):
    # argv names out as its output directory. The exit code is 0, 1 or 2, a
    # failed run leaves no file, and a run that succeeds replays; an
    # exception escaping dispatch, a traceback at the command line, fails
    # the test
    code = dispatch(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in capsys.readouterr().err, argv
    if code != 0:
        assert not out.exists() or list(out.iterdir()) == [], argv
        return
    code = dispatch(["replay", str(out / "manifest.json"), "-o", str(replay_out)])
    assert code == 0, argv
    assert "MISMATCH" not in capsys.readouterr().out, argv


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_every_numeric_flag_keeps_the_exit_contract(name, tmp_path, capsys):
    # each numeric flag at 0, -1, nan and inf, with N at most 5
    for flag in _numeric_flags(COMMANDS[name]):
        for value in _NOT_POSITIVE:
            out = tmp_path / f"{flag}={value}"
            _assert_exit_contract(_with([name, *_CONTRACT_BASE[name]], flag, value)
                                  + ["-o", str(out)], out, tmp_path / f"replay{flag}={value}",
                                  capsys)


@pytest.mark.parametrize("name", ["smin-map", "area", "brown"])
def test_every_grid_part_keeps_the_exit_contract(name, tmp_path, capsys):
    # each of the six parts of --grid at 0, -1, nan and inf in turn; no
    # huge value is tried, since a huge nx or ny would allocate its nodes
    argv = [name, *_CONTRACT_BASE[name]]
    base = argv[argv.index("--grid") + 1].split(",")
    for k in range(6):
        for value in _NOT_POSITIVE:
            grid = ",".join(value if i == k else part for i, part in enumerate(base))
            out = tmp_path / f"{k}={value}"
            _assert_exit_contract(_with(argv, "--grid", grid) + ["-o", str(out)], out,
                                  tmp_path / f"replay{k}={value}", capsys)


# Values drawn for each flag of the command table. No size is large: N <= 8,
# trials <= 200, grid sides <= 6, ladder counts <= 5 and threads <= 2, since
# a huge size would allocate before any check fails. The values are of the
# flag's type but need not be valid together (a trial count below the tail
# floor, --j outside [0, N), a variable above --n); one flag in three argvs
# then gets a value of _JUNK.
_JUNK = st.sampled_from([*_NOT_POSITIVE, "junk"])


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


_REAL = st.floats(-2, 2)
_POSITIVE = st.floats(1e-12, 2).map(repr)
_RUNG = st.floats(1e-6, 2)


@st.composite
def _complex_text(draw):
    re_part, im_part = draw(_REAL), draw(_REAL)
    return f"{re_part!r}{'-' if im_part < 0 else '+'}{abs(im_part)!r}i"


@st.composite
def _grid_text(draw):
    re_min, im_min = draw(_REAL), draw(_REAL)
    re_max, im_max = re_min + draw(st.floats(0.1, 2)), im_min + draw(st.floats(0.1, 2))
    return ",".join([repr(v) for v in (re_min, re_max, im_min, im_max)]
                    + [draw(_ints(1, 6)), draw(_ints(1, 6))])


@st.composite
def _ladder_text(draw):
    if draw(st.booleans()):
        return ",".join(repr(v) for v in sorted(draw(st.lists(_RUNG, min_size=1, max_size=5,
                                                               unique=True))))
    lo, ratio = draw(_RUNG), draw(st.floats(1.5, 1e4))
    count = draw(st.sampled_from(["", ":0", ":1", ":3", ":5"]))
    return f"{lo!r}:{lo * ratio!r}:log10{count}"


_FLAG_VALUES = {
    # quadratics in one draw of two, since only they linearize
    "--poly": st.one_of(st.sampled_from(["x1*x2+x2*x1", "x1*x2 - 0.3*x2*x3 + 0.1*x3*x1",
                                         "(1+2i)*x1*x1 - 0.25i*x2 + (0.5-1i)"]),
                        st.sampled_from(["x1", "2", "0", "x1*x2*x1", "x1*@"])),
    "--n": _ints(1, 4),
    "--N": _ints(1, 8),
    "--z": st.one_of(_REAL.map(repr), _complex_text()),
    "--grid": _grid_text(),
    "--trials": _ints(1, 200),
    "--seed": _ints(0, 2**64),
    "--threads": _ints(1, 2),
    "--j": _ints(-1, 9),
    "--tol": _POSITIVE,
    "--floor": _POSITIVE,
    "--threshold": _POSITIVE,
    "--eta": _ladder_text(),
    "--word": st.lists(st.sampled_from(["c1", "c1*", "c2", "c2*", "c0"]), max_size=6)
    .map(" ".join),
}
# Every spelling of the output directory that argparse accepts
_OUT_SPELLINGS = [["-o", "DIR"], ["--out", "DIR"], ["--out=DIR"], ["-oDIR"], ["--o", "DIR"],
                  ["--ou", "DIR"]]


@st.composite
def _argvs(draw, name):
    """A command line of command name: its flags drawn with values, in any
    order, each at most twice, and an output directory named DIR."""
    pairs = []
    for flags, kwargs in COMMANDS[name].arguments:
        flag = flags[-1]
        if flag == "--out":
            continue
        if flag == "--eps":  # a ladder, except area's single level
            values = _ladder_text() if kwargs["type"] is parse_ladder else _POSITIVE
        else:
            values = _FLAG_VALUES[flag]
        for _ in range(draw(st.integers(1 if kwargs.get("required") else 0, 2))):
            pairs.append([flag, draw(values)])
    if draw(st.integers(0, 2)) == 0:
        pairs[draw(st.integers(0, len(pairs) - 1))][1] = draw(_JUNK)
    pairs.append(draw(st.sampled_from(_OUT_SPELLINGS)))
    order = draw(st.permutations(range(len(pairs))))
    return [name] + [tok for k in order for tok in pairs[k]]


@pytest.mark.parametrize("name", sorted(COMMANDS))
@settings(max_examples=20, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_drawn_argv_keeps_the_exit_contract(name, data, capsys):
    argv = data.draw(_argvs(name), label="argv")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "out")
        _assert_exit_contract([tok.replace("DIR", str(out)) for tok in argv], out,
                              Path(tmp, "replay"), capsys)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_threads_flag_only_where_a_pool_runs(name, tmp_path, capsys):
    # commands without a trial pool refuse --threads instead of ignoring it
    pooled = name in {"spectrum", "smin-map", "tail", "area", "brown", "stieltjes"}
    flags = {f for flags, _ in COMMANDS[name].arguments for f in flags}
    assert ("--threads" in flags) == pooled
    if not pooled:
        argv = [name, *_CONTRACT_BASE[name], "--threads", "2", "-o", str(tmp_path)]
        assert dispatch(argv) == 1
        assert "--threads" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["spectrum", "smin-map", "tail", "area", "brown",
                                  "stieltjes"])
def test_each_pool_command_maps_its_trials_once(name, tmp_path, monkeypatch, capsys):
    # the benchmark's traced pool.tasks counts these maps
    import brownlab.pseudospec as pseudospec

    calls = []
    parallel_map = pseudospec.parallel_map

    def counting_map(fn, items, threads=None):
        items = list(items)
        calls.append(len(items))
        return parallel_map(fn, items, threads)

    monkeypatch.setattr(pseudospec, "parallel_map", counting_map)
    trials = 100 if name == "tail" else 3
    argv = _with([name, *_CONTRACT_BASE[name]], "--trials", str(trials))
    assert dispatch(argv + ["-o", str(tmp_path)]) == 0
    assert calls == [trials]


# ------------------------------------------------------------ subcommands

def test_free_moment_prints_value(capsys):
    assert dispatch(["free-moment", "--word", "c1 c1* c1 c1*"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_free_moment_writes_manifest(tmp_path, capsys):
    assert dispatch(["free-moment", "--word", "c1 c1*", "-o", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "free-moment"
    data = json.loads((tmp_path / "freemoment.json").read_text())
    assert data["moment"] == 1


def test_manifest_of_a_command_without_a_seed_records_null(tmp_path, capsys):
    # free-moment draws nothing, so its manifest names no seed, not seed 0
    assert dispatch(["free-moment", "--word", "c1 c1*", "-o", str(tmp_path / "fm")]) == 0
    assert json.loads((tmp_path / "fm" / "manifest.json").read_text())["master_seed"] is None
    assert dispatch(["spectrum", "--poly", "x1", "--N", "3", "-o", str(tmp_path / "sp")]) == 0
    assert json.loads((tmp_path / "sp" / "manifest.json").read_text())["master_seed"] == 0


def test_spectrum_row_count(tmp_path, capsys):
    code = dispatch(
        ["spectrum", "--poly", "x1*x2+x2*x1", "--N", "12", "--trials", "2",
         "--seed", "3", "-o", str(tmp_path)]
    )
    assert code == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "re,im"
    assert len(lines) == 1 + 12 * 2


def test_linearize_check_reports_ok(tmp_path, capsys):
    code = dispatch(
        ["linearize-check", "--poly", "x1*x2+x2*x1", "--N", "6", "--z",
         "0.3+0.1i", "--seed", "1", "-o", str(tmp_path)]
    )
    assert code == 0
    data = json.loads((tmp_path / "check.json").read_text())
    assert data["ok"] is True
    assert data["residual"] <= 1e-9


def test_linearize_check_runs_one_full_svd(tmp_path, capsys, monkeypatch):
    # the linearization's SVD of A; both smins are values-only SVDs
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    code = dispatch(["linearize-check", "--poly", "x1*x2+x2*x1", "--N", "20",
                     "-o", str(tmp_path)])
    assert code == 0
    assert len(calls) == 1


def test_tail_deterministic_outputs(tmp_path, capsys):
    args = ["tail", "--poly", "x1*x2+x2*x1", "--N", "12", "--z", "0",
            "--eps", "1e-4:1e-1:log10:5", "--trials", "100", "--seed", "1"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert dispatch(args + ["-o", str(d1)]) == 0
    assert dispatch(args + ["-o", str(d2)]) == 0
    assert _digests(d1) == _digests(d2)
    est = json.loads((d1 / "tail.json").read_text())
    assert est["trials"] == 100


def test_tail_thread_invariance(tmp_path, capsys):
    # two pool threads run their SVDs at the same time, outside the GIL
    base = ["tail", "--poly", "x1*x2+x2*x1", "--N", "30", "--z", "0.1+0.2i",
            "--eps", "1e-3:1e-1:log10:4", "--trials", "200", "--seed", "3"]
    d1, d2 = tmp_path / "t1", tmp_path / "t2"
    assert dispatch(base + ["--threads", "1", "-o", str(d1)]) == 0
    assert dispatch(base + ["--threads", "2", "-o", str(d2)]) == 0
    assert _digests(d1) == _digests(d2)


def test_smin_map_thread_invariance(tmp_path, capsys):
    base = ["smin-map", "--poly", "x1*x2", "--N", "10", "--grid",
            "-1,1,-1,1,3,3", "--trials", "2", "--seed", "5"]
    d1, d2 = tmp_path / "t1", tmp_path / "t2"
    assert dispatch(base + ["--threads", "1", "-o", str(d1)]) == 0
    assert dispatch(base + ["--threads", "3", "-o", str(d2)]) == 0
    assert _digests(d1) == _digests(d2)
    header = (d1 / "smin_map.csv").read_text().splitlines()[0]
    assert header == "re,im,value,mean,min"


def test_area_command(tmp_path, capsys):
    code = dispatch(
        ["area", "--poly", "x1*x2", "--N", "10", "--eps", "0.5", "--grid",
         "-2,2,-2,2,5,5", "--trials", "1", "--seed", "2", "-o", str(tmp_path)]
    )
    assert code == 0
    data = json.loads((tmp_path / "area.json").read_text())
    assert 0 <= data["area"] <= 16


def test_brown_command_outputs(tmp_path, capsys):
    code = dispatch(
        ["brown", "--poly", "x1*x2+x2*x1", "--N", "16", "--grid",
         "-2.5,2.5,-2.5,2.5,9,9", "--trials", "2", "--seed", "4",
         "-o", str(tmp_path)]
    )
    assert code == 0
    side = json.loads((tmp_path / "brown.json").read_text())
    assert side["floor"] == 16.0**-6
    assert "truncated_fraction_summary" in side
    dens = (tmp_path / "density.csv").read_text().splitlines()
    assert len(dens) == 1 + 7 * 7


def test_brown_rejects_grid_without_interior_rectangle(tmp_path, capsys):
    # a 3x3 grid has a single interior node, which cannot carry density.csv
    code = dispatch(["brown", "--poly", "x1*x2", "--N", "8", "--grid", "-1,1,-1,1,3,3",
                     "-o", str(tmp_path)])
    assert code == 1
    assert "4 x 4" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("trials", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["spectrum", "--poly", "x1*x2+x2*x1", "--N", "6"],
    ["stieltjes", "--poly", "x1*x2+x2*x1", "--N", "6", "--eta", "0.1,1"],
], ids=lambda argv: argv[0])
def test_nonpositive_trials_exit_one_and_write_nothing(argv, trials, tmp_path, capsys):
    assert dispatch(argv + ["--trials", trials, "-o", str(tmp_path)]) == 1
    assert "--trials" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_stieltjes_command(tmp_path, capsys):
    code = dispatch(
        ["stieltjes", "--poly", "x1*x2+x2*x1", "--N", "10", "--z", "0",
         "--eta", "1e-1:1:log10:3", "--trials", "2", "--seed", "6",
         "-o", str(tmp_path)]
    )
    assert code == 0
    data = json.loads((tmp_path / "stieltjes.json").read_text())
    assert len(data["values"]) == 3
    assert all(v["im"] < 0 for v in data["values"])


def test_walks_delta_command(tmp_path, capsys):
    code = dispatch(
        ["walks-delta", "--poly", "x1*x2+x2*x1", "--N", "14", "--z", "0",
         "--seed", "7", "-o", str(tmp_path)]
    )
    assert code == 0
    rep = json.loads((tmp_path / "delta.json").read_text())
    assert rep["structured"] is False
    assert (tmp_path / "walkbasis.bin").exists()


@pytest.mark.parametrize("threshold", _NOT_POSITIVE)
def test_walks_delta_rejects_nonpositive_threshold(threshold, tmp_path, capsys, monkeypatch):
    # an explicit 0 is a threshold, not a request for the N^(-r/2-10) default;
    # the parser rejects it, nan and inf before the basis is drawn
    import brownlab.cli as cli

    def drawn(*a, **k):
        raise AssertionError("basis drawn before the threshold was checked")

    monkeypatch.setattr(cli, "orthocomplement_basis", drawn)
    code = dispatch(["walks-delta", "--poly", "x1*x2+x2*x1", "--N", "6", "--z", "0",
                     "--threshold", threshold, "-o", str(tmp_path)])
    assert code == 1
    assert "--threshold" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", _NOT_POSITIVE)
@pytest.mark.parametrize("flag, argv, first_step", [
    ("--tol", ["linearize-check", "--poly", "x1*x2+x2*x1", "--N", "6"],
     "build_linearization"),
    ("--floor", ["brown", "--poly", "x1*x2", "--N", "6", "--grid", "-1,1,-1,1,5,5"],
     "log_potential"),
], ids=["tol", "floor"])
def test_tol_and_floor_are_checked_before_any_work(flag, argv, first_step, value, tmp_path,
                                                   capsys, monkeypatch):
    import brownlab.cli as cli

    def started(*a, **k):
        raise AssertionError(f"{first_step} ran before {flag} was checked")

    monkeypatch.setattr(cli, first_step, started)
    assert dispatch(argv + [flag, value, "-o", str(tmp_path)]) == 1
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, extra", [
    ("walks-delta", []),
    ("walks-dettail", ["--eps", "1e-3,1e-2", "--trials", "100"]),
], ids=["delta", "dettail"])
@pytest.mark.parametrize("j", ["8", "-1"])
def test_walks_block_column_is_checked_before_the_draw(command, extra, j, tmp_path, capsys,
                                                       monkeypatch):
    # --j outside [0, N) exits 1 before the Ginibre tuple is drawn, so a
    # bad index at a large N costs nothing
    import brownlab.cli as cli

    def drawn(*a, **k):
        raise AssertionError("tuple drawn before --j was checked")

    monkeypatch.setattr(cli, "trial_tuple", drawn)
    code = dispatch([command, "--poly", "x1*x2+x2*x1", "--N", "8", "--z", "0", "--j", j,
                     *extra, "-o", str(tmp_path)])
    assert code == 1
    assert "--j" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_walks_dettail_command(tmp_path, capsys):
    code = dispatch(
        ["walks-dettail", "--poly", "x1*x2+x2*x1", "--N", "14", "--z", "0",
         "--eps", "1e-6:1e-2:log10:5", "--trials", "500", "--seed", "8",
         "-o", str(tmp_path)]
    )
    assert code == 0
    est = json.loads((tmp_path / "dettail.json").read_text())
    assert est["trials"] == 500


def test_walks_dettail_full_size_memory(tmp_path):
    # walks-scan's det-tail draw (N = 200, 20 000 trials): the inputs, the
    # 2r+1 blocks of L^z and the (r+1)^2 x trials walk are the largest
    # arrays, about 6 MB at the peak, while L^z alone would be 5.8 MB. A
    # tiny run first fills the one-time caches
    import tracemalloc

    common = ["walks-dettail", "--poly", "x1*x2+x2*x1+x3", "--n", "3", "--z", "0.3",
              "--eps", "1e-6:1e-1:log10", "--seed", "1"]
    assert dispatch(common + ["--N", "6", "--trials", "100", "-o", str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        code = dispatch(common + ["--N", "200", "--trials", "20000", "-o", str(tmp_path / "full")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 7e6


@pytest.mark.parametrize("trials", ["99", "0"])
def test_walks_dettail_rejects_few_trials_before_the_basis(trials, tmp_path, capsys,
                                                          monkeypatch):
    import brownlab.cli as cli

    def drawn(*a, **k):
        raise AssertionError("basis drawn before the trial count was checked")

    monkeypatch.setattr(cli, "orthocomplement_basis", drawn)
    code = dispatch(["walks-dettail", "--poly", "x1*x2+x2*x1", "--N", "6", "--z", "0",
                     "--eps", "1e-3,1e-2", "--trials", trials, "-o", str(tmp_path)])
    assert code == 1
    assert "trials >= 100" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_manifest_records_blas_and_replay_ignores_it(tmp_path, capsys):
    rundir = tmp_path / "run"
    args = ["walks-delta", "--poly", "x1*x2+x2*x1", "--N", "6", "--z", "0", "--seed", "4"]
    assert dispatch(args + ["-o", str(rundir)]) == 0
    manifest = json.loads((rundir / "manifest.json").read_text())
    blas = manifest["blas"]
    assert set(blas) == {"vendor"}
    assert "blas" not in manifest["outputs"]
    if "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]:
        assert blas["vendor"].startswith("OpenBLAS")
    else:
        assert blas == {"vendor": None}
    # a record from another host does not fail the replay
    manifest["blas"] = {"vendor": "another BLAS"}
    (rundir / "manifest.json").write_text(json.dumps(manifest))
    code = dispatch(["replay", str(rundir / "manifest.json"), "-o", str(tmp_path / "r")])
    assert code == 0
    assert "MISMATCH" not in capsys.readouterr().out


_REPLAY_ACROSS_BLAS = [
    ["spectrum", "--poly", "x1*x2+x2*x1", "--N", "100", "--trials", "2", "--seed", "3"],
    ["walks-delta", "--poly", "x1*x2+x2*x1+x3", "--n", "3", "--N", "40", "--z", "0.3",
     "--seed", "1"],
    ["walks-dettail", "--poly", "x1*x2+x2*x1+x3", "--n", "3", "--N", "40", "--z", "0.3",
     "--eps", "1e-6:1e-1:log10", "--trials", "1000", "--seed", "1"],
]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs")
@pytest.mark.parametrize("argv", _REPLAY_ACROSS_BLAS, ids=lambda argv: argv[0])
def test_manifest_written_at_two_blas_threads_replays_at_one(argv, tmp_path):
    # without the pin, eigvals and the walk basis differ in their last bits
    # between one and two OpenBLAS threads at these sizes
    import brownlab

    src = str(Path(brownlab.__file__).resolve().parents[1])

    def run(threads, *args):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "brownlab.cli", *args], env=env,
                              capture_output=True, text=True, timeout=300)

    assert run(2, *argv, "-o", str(tmp_path / "run")).returncode == 0
    replay = run(1, "replay", str(tmp_path / "run" / "manifest.json"),
                 "-o", str(tmp_path / "replay"))
    assert replay.returncode == 0, replay.stdout + replay.stderr
    assert "MISMATCH" not in replay.stdout


def test_blas_record_is_null_without_openblas(monkeypatch):
    from brownlab import _pool

    monkeypatch.setattr(_pool, "symbol", lambda *a: None)
    assert _pool.blas_record() == {"vendor": None}


def test_manifest_contents_and_replay(tmp_path, capsys):
    args = ["tail", "--poly", "x1*x2+x2*x1", "--N", "10", "--z", "0",
            "--eps", "1e-4:1e-1:log10:4", "--trials", "100", "--seed", "9"]
    for k, out_form in enumerate(["-o DIR", "--out=DIR", "-oDIR", "--out DIR"]):
        rundir = tmp_path / f"run{k}"
        code = dispatch(args + out_form.replace("DIR", str(rundir)).split())
        assert code == 0
        manifest = json.loads((rundir / "manifest.json").read_text())
        assert manifest["command"] == "tail"
        assert manifest["master_seed"] == 9
        assert set(manifest["outputs"]) == {"tail.json"}
        replay_dir = tmp_path / f"replay{k}"
        code = dispatch(["replay", str(rundir / "manifest.json"), "-o", str(replay_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "tail.json OK" in out
        # the replayed run names the new directory only
        replayed = json.loads((replay_dir / "manifest.json").read_text())["argv"]
        assert replayed == args + ["-o", str(replay_dir)]


def _manifest(tmp_path, edit):
    """A free-moment manifest as JSON text, after edit(manifest) ran on it."""
    rundir = tmp_path / "run"
    assert dispatch(["free-moment", "--word", "c1 c1*", "-o", str(rundir)]) == 0
    manifest = json.loads((rundir / "manifest.json").read_text())
    edit(manifest)
    return json.dumps(manifest)


_BAD_MANIFESTS = {
    "missing file": None,
    "not JSON": lambda tmp_path: "{",
    "not an object": lambda tmp_path: "[]",
    "no argv": lambda tmp_path: _manifest(tmp_path, lambda m: m.pop("argv")),
    "argv not a list": lambda tmp_path: _manifest(tmp_path, lambda m: m.update(argv=5)),
    "argv not strings": lambda tmp_path: _manifest(
        tmp_path, lambda m: m.update(argv=["free-moment", "--word", 5])),
    "argv names no command": lambda tmp_path: _manifest(
        tmp_path, lambda m: m.update(argv=["spectra", "--N", "5"])),
    "replays itself": lambda tmp_path: _manifest(
        tmp_path, lambda m: m.update(argv=["replay", str(tmp_path / "manifest.json")])),
    "no outputs": lambda tmp_path: _manifest(tmp_path, lambda m: m.pop("outputs")),
    "outputs not an object": lambda tmp_path: _manifest(
        tmp_path, lambda m: m.update(outputs=["freemoment.json"])),
}


@pytest.mark.parametrize("case", sorted(_BAD_MANIFESTS))
def test_replay_of_a_bad_manifest_exits_one(case, tmp_path, capsys):
    path = tmp_path / "manifest.json"
    if _BAD_MANIFESTS[case] is not None:
        path.write_text(_BAD_MANIFESTS[case](tmp_path))
    capsys.readouterr()
    code = dispatch(["replay", str(path), "-o", str(tmp_path / "r")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert captured.out == ""
    assert not (tmp_path / "r").exists()


def test_replay_of_a_help_argv_exits_one(tmp_path, capsys):
    # the help flag makes argparse print help and leave the nested run
    text = _manifest(tmp_path, lambda m: m.update(argv=["free-moment", "-h"],
                                                  outputs={"freemoment.json": "0" * 64}))
    (tmp_path / "manifest.json").write_text(text)
    capsys.readouterr()
    code = dispatch(["replay", str(tmp_path / "manifest.json"), "-o", str(tmp_path / "r")])
    assert code == 1
    captured = capsys.readouterr()
    assert " OK" not in captured.out
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert not (tmp_path / "r").exists()


def test_replay_reports_a_missing_output_as_mismatch(tmp_path, capsys):
    text = _manifest(tmp_path, lambda m: m["outputs"].update({"absent.json": "0" * 64}))
    (tmp_path / "manifest.json").write_text(text)
    code = dispatch(["replay", str(tmp_path / "manifest.json"), "-o", str(tmp_path / "r")])
    assert code == 1
    out = capsys.readouterr().out
    assert "freemoment.json OK" in out and "absent.json MISMATCH" in out


def test_replay_detects_mismatch(tmp_path, capsys):
    rundir = tmp_path / "run"
    dispatch(["free-moment", "--word", "c1 c1*", "-o", str(rundir)])
    manifest = json.loads((rundir / "manifest.json").read_text())
    manifest["outputs"]["freemoment.json"] = "0" * 64
    (rundir / "manifest.json").write_text(json.dumps(manifest))
    code = dispatch(["replay", str(rundir / "manifest.json"), "-o", str(tmp_path / "r")])
    assert code == 1
