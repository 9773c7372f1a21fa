import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.stats

from freqsel import NoiseSchedule, linear_schedule, load_manifest, read_tensor, simulate_forward
from freqsel.cli import _threads_arg, default_probe_grid, main, parse_timestep_grid
from freqsel.tensor_io import write_array

from util import child_env, corrupt_corpus, make_map, write_dataset, write_series_text


def run(*argv):
    return main(list(argv))


def make_oracle(tmp_path, **overrides):
    out = tmp_path / "data"
    args = {
        "--out": str(out),
        "--images": "3",
        "--shape": "1,16,16",
        "--total-timesteps": "20",
        "--timesteps": "2..20..2",
        "--peak-timestep": "12",
        "--curve-width": "4",
        "--detail-frequency": "5",
        "--seed": "9",
    }
    args.update(overrides)
    argv = ["oracle"]
    for k, v in args.items():
        argv += [k, v]
    assert run(*argv) == 0
    return out / "manifest.json"


# --- exit codes and diagnostics ---------------------------------------------------

def test_usage_errors_exit_1(capsys):
    assert run("hfr") == 1  # missing required flags
    assert run("no-such-command") == 1
    assert run("hfr", "--manifest", "m.json", "--out", "c.csv", "--bogus") == 1
    assert run("hfr", "--manifest", "m.json", "--out", "c.csv", "--cutoff", "-3") == 1
    assert run("select") == 1  # needs --manifest xor --curve
    err = capsys.readouterr().err
    assert "usage:" in err
    hfr = ("hfr", "--manifest", "m.json", "--out", "c.csv")
    oracle = ("oracle", "--out", "o", "--peak-timestep", "1")
    for argv in (
        (*hfr, "--cutoff", "abc"),
        (*oracle, "--images", "0"),
        (*oracle, "--images", "x"),
        (*hfr, "--timesteps", "1..5..0"),
        (*hfr, "--timesteps", "1..2..3..4"),
        (*hfr, "--threads", "0"),
        (*hfr, "--threads", "x"),
        (*oracle, "--shape", "1,2"),
        (*oracle, "--shape", "a,b,c"),
        (*oracle, "--shape", "0,4,4"),
    ):
        assert run(*argv) == 1, argv
        assert "error: argument " in capsys.readouterr().err, argv


@pytest.mark.parametrize("flag", ["--cutoff", "--tie-epsilon"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_float_flags_exit_1(tmp_path, capsys, flag, value):
    curve = tmp_path / "c.csv"
    curve.write_text("t,mean_hfr,n\n1,0.5,2\n")
    out = tmp_path / "report.json"
    assert run("select", "--curve", str(curve), f"{flag}={value}", "--out", str(out)) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_0(capsys):
    assert run("--help") == 0
    assert run("select", "--help") == 0
    out = capsys.readouterr().out
    assert "select" in out


def test_data_errors_exit_2_with_error_class(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run("hfr", "--manifest", str(missing), "--out", str(tmp_path / "c.csv")) == 2
    assert capsys.readouterr().err.startswith("IoFailure:")

    empty = tmp_path / "empty.json"
    empty.write_text('{"total_timesteps": 5, "entries": []}')
    assert run("hfr", "--manifest", str(empty), "--out", str(tmp_path / "c.csv")) == 2
    assert capsys.readouterr().err.startswith("EmptyTimestep:")

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{")
    assert run("select", "--manifest", str(bad_json)) == 2
    assert capsys.readouterr().err.startswith("ManifestSchemaError:")

    manifest = write_dataset(tmp_path / "data", [make_map(np.ones((1, 4, 4)), "a", 1)], 1)
    no_dir = tmp_path / "no_dir"
    assert run("hfr", "--manifest", str(manifest), "--out", str(no_dir / "c.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"IoFailure: cannot write {no_dir / 'c.csv'}: ") and err.count("\n") == 1
    assert not no_dir.exists() and not list(tmp_path.rglob("*.tmp"))

    a_file = tmp_path / "a_file"
    a_file.write_text("")
    assert run("oracle", "--out", str(a_file), "--peak-timestep", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith("IoFailure: [Errno 17] ") and err.count("\n") == 1

    out = tmp_path / "oracle"
    argv = ["oracle", "--out", str(out), "--total-timesteps", "100", "--timesteps", "50,200"]
    assert run(*argv, "--peak-timestep", "50") == 2
    assert capsys.readouterr().err == "ProfileInvalid: timestep grid must stay within [1, 100]\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("hfr", "--manifest", "{manifest}", "--out", "{out}"),
        ("select", "--manifest", "{manifest}", "--out", "{out}"),
        ("decompose", "--tensor", "{tensor}", "--out-high", "{out}", "--out-low", "{tmp}/low.npy"),
    ],
    ids=["hfr", "select", "decompose"],
)
def test_an_out_that_is_a_directory_fails_before_any_tensor_is_read(tmp_path, capsys, argv):
    manifest = write_dataset(tmp_path / "data", [make_map(np.ones((1, 4, 4)), "a", 1)], 1)
    tensor = next((tmp_path / "data").glob("*.npy"))
    tensor.write_bytes(b"not a tensor")  # MalformedHeader, if it were read
    out = tmp_path / "outdir"
    out.mkdir()
    names = {"manifest": manifest, "tensor": tensor, "out": out, "tmp": tmp_path}
    assert run(*(arg.format(**names) for arg in argv)) == 2
    assert capsys.readouterr().err == f"IoFailure: cannot write {out}: it is a directory\n"
    assert list(out.iterdir()) == [] and not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize(
    "command, flag, error",
    [
        ("select", "--curve", "SeriesInvalid"),
        ("correlate", "--xs", "SeriesInvalid"),
        ("simulate", "--schedule", "ScheduleInvalid"),
        ("hfr", "--manifest", "ManifestSchemaError"),
    ],
)
def test_non_utf8_text_input_exits_2_naming_the_file(tmp_path, capsys, command, flag, error):
    clean = write_dataset(tmp_path / "clean", [make_map(np.ones((1, 4, 4)), "a", 1)], 1)
    (tmp_path / "ys.csv").write_text("t,value\n1,0.1\n2,0.2\n3,0.3\n")
    bad = tmp_path / "latin1.csv"
    bad.write_bytes("t,value\n1,0.5 \u00b5\n".encode("latin-1"))
    others = {
        "select": [],
        "correlate": ["--ys", str(tmp_path / "ys.csv")],
        "simulate": ["--manifest", str(clean), "--out", str(tmp_path / "sim")],
        "hfr": ["--out", str(tmp_path / "c.csv")],
    }[command]
    assert run(command, flag, str(bad), *others) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{error}: {bad}")
    assert "Traceback" not in err


def test_invalid_curve_values_exit_2_naming_the_file(tmp_path, capsys):
    curve = tmp_path / "c.csv"
    curve.write_text("t,mean_hfr,n\n1,1.5,2\n")
    assert run("select", "--curve", str(curve)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"SeriesInvalid: {curve}: curve values must be finite")


def test_corrupt_tensor_reported_with_class(tmp_path, capsys):
    target = tmp_path / "broken.npy"
    target.write_bytes(b"\x00garbage")
    assert (
        run(
            "decompose",
            "--tensor", str(target),
            "--out-high", str(tmp_path / "h.npy"),
            "--out-low", str(tmp_path / "l.npy"),
        )
        == 2
    )
    assert capsys.readouterr().err.startswith("MalformedHeader:")


@pytest.mark.parametrize("command", ["hfr", "select", "fisher", "decompose", "correlate"])
def test_missing_out_directory_fails_before_any_tensor_is_read(tmp_path, capsys, command):
    # the one input is malformed, so reading it would raise its format's error
    manifest = write_dataset(tmp_path, [make_map(np.ones((1, 4, 4)), "a", 1)], 1, labels={0: 0})
    bad = tmp_path / "t0001_0000.npy"
    bad.write_bytes(b"\x00garbage")
    out = tmp_path / "no_dir" / "out"
    high = tmp_path / "h.npy"  # its directory exists
    argv = {
        "decompose": ["--tensor", str(bad), "--out-high", str(high), "--out-low", str(out)],
        "correlate": ["--xs", str(bad), "--ys", str(bad), "--out", str(out)],
    }.get(command, ["--manifest", str(manifest), "--out", str(out)])
    assert run(command, *argv) == 2
    assert capsys.readouterr().err == f"IoFailure: cannot write {out}: {out.parent} is not a directory\n"
    assert not out.parent.exists()
    assert not high.exists()


@pytest.mark.parametrize("name", ["header_unhashable_key", "header_set_key"])
@pytest.mark.parametrize("command", ["hfr", "decompose"])
def test_unhashable_header_key_exits_2_naming_the_file(tmp_path, capsys, command, name):
    raw = dict((n, r) for n, r, _ in corrupt_corpus())[name]
    manifest = write_dataset(tmp_path, [make_map(np.ones((2, 3)), "a", 1)], 1)
    target = tmp_path / "t0001_0000.npy"
    target.write_bytes(raw)
    argv = {
        "hfr": ["--manifest", str(manifest), "--out", str(tmp_path / "c.csv")],
        "decompose": ["--tensor", str(target), "--out-high", str(tmp_path / "h.npy"),
                      "--out-low", str(tmp_path / "l.npy")],
    }[command]
    assert run(command, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"MalformedHeader: {target}: header is not a dict literal")
    assert "Traceback" not in err


def test_zero_energy_map_points_at_file(tmp_path, capsys):
    maps = [make_map(np.zeros((1, 8, 8)), "z", 1)]
    manifest = write_dataset(tmp_path, maps, 1)
    assert run("hfr", "--manifest", str(manifest), "--out", str(tmp_path / "c.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith("ZeroEnergyFeature:")
    assert "t0001_0000.npy" in err


# --- grid syntax --------------------------------------------------------------------

def test_grid_parsing():
    assert parse_timestep_grid("1,50,100") == (1, 50, 100)
    assert parse_timestep_grid("5,1,5") == (1, 5)
    assert parse_timestep_grid("1..200..50") == (1, 51, 101, 151, 200)
    assert parse_timestep_grid("3..7") == (3, 4, 5, 6, 7)
    with pytest.raises(Exception):
        parse_timestep_grid("0,5")
    with pytest.raises(Exception):
        parse_timestep_grid("9..1")
    with pytest.raises(Exception):
        parse_timestep_grid("")


def test_default_probe_grid():
    assert default_probe_grid(200) == (1, 50, 100, 150, 200)
    assert default_probe_grid(1000)[:3] == (1, 50, 100)
    assert default_probe_grid(1000)[-1] == 1000
    assert default_probe_grid(30) == (1,)


def test_range_grid_row_count_via_cli(tmp_path, capsys):
    manifest = make_oracle(tmp_path, **{"--total-timesteps": "200", "--timesteps": "1..200..50",
                                        "--peak-timestep": "51", "--curve-width": "40"})
    curve_path = tmp_path / "curve.csv"
    assert run("hfr", "--manifest", str(manifest), "--out", str(curve_path)) == 0
    rows = curve_path.read_text().splitlines()
    assert rows[0] == "t,mean_hfr,n"
    assert len(rows) == 1 + 5  # header + one row per grid point


# --- end-to-end pipeline -----------------------------------------------------------------

def test_hfr_select_pipeline(tmp_path, capsys):
    manifest = make_oracle(tmp_path)
    curve_path = tmp_path / "curve.csv"
    report_path = tmp_path / "report.json"
    assert run("hfr", "--manifest", str(manifest), "--out", str(curve_path)) == 0
    assert run(
        "select", "--curve", str(curve_path), "--out", str(report_path), "--tie-epsilon", "1e-9"
    ) == 0
    out = capsys.readouterr().out
    assert "selected t=12" in out

    doc = json.loads(report_path.read_text())
    assert doc["selected_t"] == 12
    assert doc["ties"] == [12]
    assert doc["cutoff"] == 30.0
    assert len(doc["curve"]) == 10
    assert doc["config"]["command"] == "select"
    assert "threads" not in doc["config"]

    # selecting straight from the manifest agrees with the curve route
    assert run("select", "--manifest", str(manifest), "--tie-epsilon", "1e-9") == 0
    assert "selected t=12" in capsys.readouterr().out


def test_select_timestep_subset(tmp_path, capsys):
    manifest = make_oracle(tmp_path)
    assert run("select", "--manifest", str(manifest), "--timesteps", "2,4,6") == 0
    assert "selected t=6" in capsys.readouterr().out

    curve_path = tmp_path / "c.csv"
    assert run("hfr", "--manifest", str(manifest), "--out", str(curve_path)) == 0
    assert run("select", "--curve", str(curve_path), "--timesteps", "2,4,6") == 0
    assert "selected t=6" in capsys.readouterr().out
    assert run("select", "--curve", str(curve_path), "--timesteps", "3") == 2
    assert capsys.readouterr().err.startswith("EmptyTimestep:")


def test_reruns_byte_identical_and_thread_independent(tmp_path):
    manifest = make_oracle(tmp_path)
    outputs = []
    for name, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        curve_path = tmp_path / f"{name}.csv"
        report_path = tmp_path / f"{name}.json"
        assert run("hfr", "--manifest", str(manifest), "--out", str(curve_path), "--threads", threads) == 0
        assert run(
            "select", "--manifest", str(manifest), "--out", str(report_path), "--threads", threads
        ) == 0
        outputs.append((curve_path.read_bytes(), report_path.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_curve_bytes_do_not_depend_on_the_manifest_order(tmp_path):
    manifest = make_oracle(tmp_path, **{"--images": "7"})
    doc = json.loads(manifest.read_text())
    doc["entries"].reverse()
    reversed_manifest = manifest.with_name("reversed.json")
    reversed_manifest.write_text(json.dumps(doc))
    curves = []
    for path in (manifest, reversed_manifest):
        out = tmp_path / f"{path.stem}.csv"
        assert run("hfr", "--manifest", str(path), "--out", str(out)) == 0
        curves.append(out.read_bytes())
    assert curves[0] == curves[1]


def test_blas_threads_never_change_bytes(tmp_path):
    manifest = make_oracle(tmp_path, **{"--images": "2", "--shape": "4,64,64", "--timesteps": "4..20..4"})
    curves = []
    for blas, threads in (("1", "1"), ("2", "1"), ("2", "2"), ("1", "2")):
        env = child_env(OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas)
        curve = tmp_path / f"blas{blas}_pool{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "freqsel", "hfr", "--manifest", str(manifest),
             "--out", str(curve), "--threads", threads],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        curves.append(curve.read_bytes())
    assert all(c == curves[0] for c in curves)


def test_threads_auto_counts_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _threads_arg("auto") == 1


def test_oracle_rerun_byte_identical(tmp_path):
    m1 = make_oracle(tmp_path / "r1")
    m2 = make_oracle(tmp_path / "r2")
    files1 = sorted(p.name for p in m1.parent.iterdir())
    files2 = sorted(p.name for p in m2.parent.iterdir())
    assert files1 == files2
    for name in files1:
        assert (m1.parent / name).read_bytes() == (m2.parent / name).read_bytes()


def test_decompose_writes_parts(tmp_path):
    values = np.random.default_rng(0).normal(size=(2, 12, 12))
    src = tmp_path / "in.npy"
    write_array(values, src, "f64")
    high, low = tmp_path / "high.npy", tmp_path / "low.npy"
    assert run("decompose", "--tensor", str(src), "--out-high", str(high), "--out-low", str(low)) == 0
    got = read_tensor(high).values + read_tensor(low).values
    assert np.max(np.abs(got - values)) <= 1e-9 * np.max(np.abs(values))


def test_simulate_pipeline(tmp_path):
    clean = [make_map(np.random.default_rng(i).normal(size=(1, 8, 8)), f"img{i}", 1) for i in range(2)]
    manifest = write_dataset(tmp_path / "clean", clean, 1)
    out = tmp_path / "noised"
    assert run(
        "simulate",
        "--manifest", str(manifest),
        "--total-timesteps", "10",
        "--timesteps", "1,5,10",
        "--seed", "3",
        "--out", str(out),
    ) == 0
    assert (out / "manifest.json").exists()
    assert len(list(out.glob("*.npy"))) == 6
    out2 = tmp_path / "noised2"
    assert run(
        "simulate",
        "--manifest", str(manifest),
        "--total-timesteps", "10",
        "--timesteps", "1,5,10",
        "--seed", "3",
        "--out", str(out2),
    ) == 0
    for p in sorted(out.glob("*")):
        assert p.read_bytes() == (out2 / p.name).read_bytes()


def test_simulate_seeds_are_taken_mod_2_to_the_64(tmp_path):
    manifest = write_dataset(tmp_path / "clean", [make_map(np.ones((2, 4, 4)), "a", 1)], 1)

    def simulated(seed):
        out = tmp_path / f"seed{seed}"
        assert run(
            "simulate", "--manifest", str(manifest), "--total-timesteps", "10",
            "--timesteps", "1,10", "--seed", seed, "--out", str(out),
        ) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    assert simulated("-1") == simulated("18446744073709551615") != simulated("0")


def test_simulate_with_schedule_csv(tmp_path, capsys):
    clean = [make_map(np.ones((1, 4, 4)), "a", 1)]
    manifest = write_dataset(tmp_path / "clean", clean, 1)
    sched = tmp_path / "sched.csv"
    sched.write_text("t,alpha\n1,0.0\n2,0.5\n3,1.0\n")
    out = tmp_path / "out"
    assert run(
        "simulate", "--manifest", str(manifest), "--schedule", str(sched),
        "--timesteps", "1,3", "--out", str(out),
    ) == 0
    # alpha(1) = 0: the t=1 output is the clean input
    t1 = read_tensor(out / "t0001_i0000.npy")
    assert np.array_equal(t1.values, clean[0].values)
    # a schedule that breaks a rule is named in the one-line error
    for content, rule in (
        ("t,alpha\n1,0.5\n2,1.5\n", "every alpha must be finite and in [0, 1]"),
        ("t,alpha\n1,0.5\n2,0.25\n", "alphas must be non-decreasing in t"),
        ("t,alpha\n", "schedule must cover at least one timestep"),
    ):
        sched.write_text(content)
        bad_out = tmp_path / "bad_out"
        argv = ("simulate", "--manifest", str(manifest), "--schedule", str(sched), "--timesteps", "1", "--out", str(bad_out))
        assert run(*argv) == 2
        assert capsys.readouterr().err == f"ScheduleInvalid: {sched}: {rule}\n"
        assert not bad_out.exists()


def test_alpha_index_t_minus_1_is_the_shifted_schedule(tmp_path):
    # --alpha-index t-1, a schedule CSV holding alpha_{t-1}, and the library
    # given that shifted schedule write the same bytes
    clean = [make_map(np.random.default_rng(i).normal(size=(2, 5, 7)), f"img{i}", 1) for i in range(2)]
    manifest = write_dataset(tmp_path / "clean", clean, 1)
    shifted = (0.0,) + linear_schedule(10).alphas[:-1]
    sched = tmp_path / "shifted.csv"
    sched.write_text("t,alpha\n" + "".join(f"{t},{a!r}\n" for t, a in enumerate(shifted, start=1)))
    common = ["simulate", "--manifest", str(manifest), "--timesteps", "1,2,10", "--seed", "4", "--dtype", "f32"]
    assert run(*common, "--total-timesteps", "10", "--alpha-index", "t-1", "--out", str(tmp_path / "flag")) == 0
    assert run(*common, "--schedule", str(sched), "--out", str(tmp_path / "csv")) == 0
    simulate_forward(load_manifest(manifest), NoiseSchedule(shifted), (1, 2, 10), 4, tmp_path / "lib", "f32")
    names = sorted(p.name for p in (tmp_path / "flag").iterdir())
    assert len(names) == 7
    for other in ("csv", "lib"):
        assert sorted(p.name for p in (tmp_path / other).iterdir()) == names
        for name in names:
            assert (tmp_path / other / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()


def test_simulate_keeps_allow_ragged(tmp_path, capsys):
    rng = np.random.default_rng(0)
    clean = [make_map(rng.normal(size=(1, n, n)), f"img{n}", 1) for n in (4, 5)]
    manifest = write_dataset(tmp_path / "clean", clean, 1, allow_ragged=True)
    out = tmp_path / "noised"
    assert run(
        "simulate", "--manifest", str(manifest), "--total-timesteps", "5",
        "--timesteps", "1,5", "--out", str(out),
    ) == 0
    assert run("hfr", "--manifest", str(out / "manifest.json"), "--out", str(tmp_path / "c.csv")) == 0
    assert capsys.readouterr().err == ""


def test_oracle_peak_outside_the_curve_exits_2(tmp_path, capsys):
    out = tmp_path / "data"
    assert run("oracle", "--out", str(out), "--total-timesteps", "10", "--peak-timestep", "20") == 2
    assert capsys.readouterr().err == "ProfileInvalid: peak timestep 20 outside curve [1, 10]\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["decompose", "simulate"])
def test_value_beyond_f32_range_exits_2(tmp_path, command):
    # a finite float64 above the float32 range must not become an Inf on disk
    values = np.ones((1, 8, 8))
    values[0, 3, 3] = 1e39
    manifest = write_dataset(tmp_path / "in", [make_map(values, "big", 1)], 1)
    src = tmp_path / "in" / load_manifest(manifest).entries[0].path
    out = tmp_path / "out"
    out.mkdir()
    if command == "decompose":
        argv = ["decompose", "--tensor", str(src), "--out-high", str(out / "high.npy"),
                "--out-low", str(out / "low.npy"), "--dtype", "f32"]
    else:
        argv = ["simulate", "--manifest", str(manifest), "--total-timesteps", "2",
                "--timesteps", "1", "--dtype", "f32", "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-m", "freqsel", *argv], env=child_env(), capture_output=True, text=True
    )
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    assert line.startswith(f"NonFiniteValue: {out}")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["hfr", "decompose"])
def test_tiny_cutoff_exits_0_without_warnings(tmp_path, capsys, command):
    src = tmp_path / "in.npy"
    write_array(np.random.default_rng(0).normal(size=(2, 9, 8)), src, "f64")
    manifest = tmp_path / "m.json"
    manifest.write_text('{"total_timesteps": 1, "entries": [{"path": "in.npy", "image_id": "a", "timestep": 1, "group": ""}]}')
    if command == "hfr":
        argv = ["hfr", "--manifest", str(manifest), "--out", str(tmp_path / "c.csv")]
    else:
        argv = ["decompose", "--tensor", str(src), "--out-high", str(tmp_path / "h.npy"),
                "--out-low", str(tmp_path / "l.npy")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv, "--cutoff", "1e-200") == 0
    assert capsys.readouterr().err == ""


def test_fisher_command(tmp_path, capsys):
    rng = np.random.default_rng(0)
    maps = []
    labels = {}
    idx = 0
    for t in (1, 2):
        for cls in (0, 1):
            for _ in range(3):
                base = np.full((2, 4, 4), float(cls * (3 - t)))
                maps.append(make_map(base + 0.1 * rng.normal(size=(2, 4, 4)), f"i{idx}", t))
                labels[idx] = cls
                idx += 1
    manifest = write_dataset(tmp_path, maps, 2, labels=labels)
    out = tmp_path / "fisher.json"
    assert run("fisher", "--manifest", str(manifest), "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "t=1" in stdout and "t=2" in stdout
    doc = json.loads(out.read_text())
    assert [row["t"] for row in doc["per_timestep"]] == [1, 2]
    # class separation shrinks from t=1 to t=2 by construction
    assert doc["per_timestep"][0]["score"] > doc["per_timestep"][1]["score"]
    assert "label" in doc["note"]


def test_fisher_requires_labels(tmp_path, capsys):
    maps = [make_map(np.random.default_rng(i).normal(size=(1, 4, 4)), f"i{i}", 1) for i in range(4)]
    manifest = write_dataset(tmp_path, maps, 1)
    assert run("fisher", "--manifest", str(manifest)) == 2
    assert capsys.readouterr().err.startswith("ManifestSchemaError:")
    # a label missing on the last entry wins over a corrupt first tensor:
    # labels are checked before any tensor is read
    manifest = write_dataset(tmp_path / "partial", maps, 1, labels={0: 0, 1: 0, 2: 1})
    (tmp_path / "partial" / "t0001_0000.npy").write_bytes(b"\x00garbage")
    assert run("fisher", "--manifest", str(manifest)) == 2
    assert capsys.readouterr().err.startswith("ManifestSchemaError:")


@pytest.mark.parametrize(
    "late_labels, message",
    [({4: 0}, "need at least two samples"), ({4: 1, 5: 1}, "need at least two distinct classes")],
)
def test_fisher_error_names_the_timestep(tmp_path, capsys, late_labels, message):
    # t=1 is fine; t=3 holds one sample, or two of one class
    rng = np.random.default_rng(4)
    labels = {0: 0, 1: 0, 2: 1, 3: 1, **late_labels}
    maps = [make_map(rng.normal(size=(2, 4, 4)), f"i{i}", 1 if i < 4 else 3) for i in labels]
    manifest = write_dataset(tmp_path, maps, 3, labels=labels)
    assert run("fisher", "--manifest", str(manifest)) == 2
    captured = capsys.readouterr()
    assert "t=1 fisher=" in captured.out
    assert captured.err == f"InvalidEmbeddingSet: timestep 3: {message}\n"


def test_fisher_out_is_strict_json_when_traces_overflow(tmp_path, capsys):
    rng = np.random.default_rng(3)
    maps = [make_map(1e160 * (cls + rng.random((2, 4, 4))), f"i{i}", 1) for i, cls in enumerate((0, 0, 4, 4))]
    manifest = write_dataset(tmp_path, maps, 1, labels={0: 0, 1: 0, 2: 1, 3: 1})
    out = tmp_path / "fisher.json"
    assert run("fisher", "--manifest", str(manifest), "--out", str(out)) == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    (row,) = json.loads(out.read_text(), parse_constant=reject)["per_timestep"]
    assert row["trace_between"] is None and row["trace_within"] is None
    assert np.isfinite(row["score"]) and row["score"] > 0.0


def test_correlate_command(tmp_path, capsys):
    ts = tuple(range(1, 13))
    rng = np.random.default_rng(5)
    xs = rng.normal(size=12)
    ys = 2.0 * xs + rng.normal(size=12) * 0.3
    write_series_text(tmp_path / "xs.csv", ts, xs)
    write_series_text(tmp_path / "ys.csv", ts, ys)
    out = tmp_path / "corr.json"
    assert run("correlate", "--xs", str(tmp_path / "xs.csv"), "--ys", str(tmp_path / "ys.csv"), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 12
    assert doc["pearson"] == pytest.approx(scipy.stats.pearsonr(xs, ys).statistic, abs=1e-12)
    assert doc["spearman"] == pytest.approx(scipy.stats.spearmanr(xs, ys).statistic, abs=1e-12)
    assert doc["config"]["command"] == "correlate"
    assert "pearson=" in capsys.readouterr().out


def test_correlate_misaligned_series(tmp_path, capsys):
    (tmp_path / "xs.csv").write_text("t,value\n1,0.1\n2,0.2\n3,0.3\n")
    (tmp_path / "ys.csv").write_text("t,value\n1,0.1\n2,0.2\n4,0.3\n")
    assert run("correlate", "--xs", str(tmp_path / "xs.csv"), "--ys", str(tmp_path / "ys.csv")) == 2
    assert capsys.readouterr().err.startswith("SeriesInvalid:")


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "freqsel", "--help"], env=child_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "correlate" in proc.stdout
