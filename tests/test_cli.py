import json
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from brownlab.cli import dispatch, parse_complex, parse_grid, parse_ladder
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


def test_parse_grid_validation():
    g = parse_grid("-2,2,-2,2,5,7")
    assert (g.nx, g.ny) == (5, 7)
    with pytest.raises(ValueError):
        parse_grid("-2,2,-2,2,5")
    with pytest.raises(ValueError):
        parse_grid("2,-2,-2,2,5,5")


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


def test_threads_default_comes_from_environment(monkeypatch):
    from brownlab._pool import default_threads

    monkeypatch.setenv("BROWNLAB_THREADS", "4")
    assert default_threads() == 4
    monkeypatch.setenv("BROWNLAB_THREADS", "junk")
    assert default_threads() == 1
    monkeypatch.delenv("BROWNLAB_THREADS")
    assert default_threads() == 1


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
    assert "trials must be >= 1" in capsys.readouterr().err
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


@pytest.mark.parametrize("threshold", ["0", "-1"])
def test_walks_delta_rejects_nonpositive_threshold(threshold, tmp_path, capsys, monkeypatch):
    # an explicit 0 is a threshold, not a request for the N^(-r/2-10) default;
    # it is rejected before the basis (and its full SVD) is drawn
    import brownlab.cli as cli

    def drawn(*a, **k):
        raise AssertionError("basis drawn before the threshold was checked")

    monkeypatch.setattr(cli, "orthocomplement_basis", drawn)
    code = dispatch(["walks-delta", "--poly", "x1*x2+x2*x1", "--N", "6", "--z", "0",
                     "--threshold", threshold, "-o", str(tmp_path)])
    assert code == 1
    assert "threshold must be positive" in capsys.readouterr().err
    assert not (tmp_path / "delta.json").exists()
    assert not (tmp_path / "manifest.json").exists()


def test_walks_dettail_command(tmp_path, capsys):
    code = dispatch(
        ["walks-dettail", "--poly", "x1*x2+x2*x1", "--N", "14", "--z", "0",
         "--eps", "1e-6:1e-2:log10:5", "--trials", "500", "--seed", "8",
         "-o", str(tmp_path)]
    )
    assert code == 0
    est = json.loads((tmp_path / "dettail.json").read_text())
    assert est["trials"] == 500


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
    from brownlab._pool import _BLAS

    rundir = tmp_path / "run"
    args = ["walks-delta", "--poly", "x1*x2+x2*x1", "--N", "6", "--z", "0", "--seed", "4"]
    assert dispatch(args + ["-o", str(rundir)]) == 0
    manifest = json.loads((rundir / "manifest.json").read_text())
    blas = manifest["blas"]
    assert set(blas) == {"vendor", "threads"}
    assert "blas" not in manifest["outputs"]
    if "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]:
        assert blas["vendor"].startswith("OpenBLAS")
        assert blas["threads"] == _BLAS.threads() >= 1
    else:
        assert blas == {"vendor": None, "threads": None}
    # a record from another host does not fail the replay
    manifest["blas"] = {"vendor": "another BLAS", "threads": 64}
    (rundir / "manifest.json").write_text(json.dumps(manifest))
    code = dispatch(["replay", str(rundir / "manifest.json"), "-o", str(tmp_path / "r")])
    assert code == 0
    assert "MISMATCH" not in capsys.readouterr().out


def test_blas_record_is_null_without_openblas(monkeypatch):
    from brownlab import _pool

    monkeypatch.setattr(_pool, "symbol", lambda *a: None)
    monkeypatch.setattr(_pool, "_BLAS", _pool._BlasPin())
    assert _pool.blas_record() == {"vendor": None, "threads": None}


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


def test_replay_detects_mismatch(tmp_path, capsys):
    rundir = tmp_path / "run"
    dispatch(["free-moment", "--word", "c1 c1*", "-o", str(rundir)])
    manifest = json.loads((rundir / "manifest.json").read_text())
    manifest["outputs"]["freemoment.json"] = "0" * 64
    (rundir / "manifest.json").write_text(json.dumps(manifest))
    code = dispatch(["replay", str(rundir / "manifest.json"), "-o", str(tmp_path / "r")])
    assert code == 1
