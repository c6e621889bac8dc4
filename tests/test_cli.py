import json
import hashlib
from pathlib import Path

import numpy as np
import pytest

from brownlab.cli import dispatch, parse_complex, parse_grid, parse_ladder


def _digests(outdir):
    out = {}
    for p in sorted(Path(outdir).iterdir()):
        if p.name == "manifest.json":
            continue
        out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


# ------------------------------------------------------------ flag parsing

def test_parse_complex_forms():
    assert parse_complex("1.5") == 1.5
    assert parse_complex("2i") == 2j
    assert parse_complex("-0.5i") == -0.5j
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-1.5e-2-0.25i") == -0.015 - 0.25j
    with pytest.raises(ValueError):
        parse_complex("nope")


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


def test_parse_grid_validation():
    g = parse_grid("-2,2,-2,2,5,7")
    assert (g.nx, g.ny) == (5, 7)
    with pytest.raises(ValueError):
        parse_grid("-2,2,-2,2,5")
    with pytest.raises(ValueError):
        parse_grid("2,-2,-2,2,5,5")


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


@pytest.mark.parametrize("argv", [
    ["tail", "--poly", "x1*x2+x2*x1", "--N", "8", "--eps", "1e-3:1e-1:log10:3",
     "--trials", "100"],
    ["stieltjes", "--poly", "x1*x2+x2*x1", "--N", "8", "--eta", "0.1,1.0",
     "--trials", "2"],
])
def test_linalg_error_exits_two(argv, tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError; it must still map to exit code 2.
    def boom(*a, **k):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", boom)
    assert dispatch(argv + ["-o", str(tmp_path)]) == 2
    assert "numerical backend failure" in capsys.readouterr().err


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


def test_walks_dettail_command(tmp_path, capsys):
    code = dispatch(
        ["walks-dettail", "--poly", "x1*x2+x2*x1", "--N", "14", "--z", "0",
         "--eps", "1e-6:1e-2:log10:5", "--trials", "500", "--seed", "8",
         "-o", str(tmp_path)]
    )
    assert code == 0
    est = json.loads((tmp_path / "dettail.json").read_text())
    assert est["trials"] == 500


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
