import argparse
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.stats

from freqsel import NoiseSchedule, linear_schedule, load_manifest, read_tensor, simulate_forward
from freqsel import cli
from freqsel.cli import _threads_arg, build_parser, default_probe_grid, main, parse_timestep_grid
from freqsel.defaults import MAX_TIMESTEPS
from freqsel.tensor_io import write_array

from util import CAP_HEADROOM, child_env, corrupt_corpus, make_map, write_dataset, write_series_text


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
        (*oracle, "--total-timesteps", str(MAX_TIMESTEPS + 1)),
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


# one command line per command, giving each flag with a typed value
COMMAND_LINES = {
    "hfr": ("--manifest", "m.json", "--cutoff", "12.5", "--timesteps", "1..9..4", "--threads", "2",
            "--out", "c.csv"),
    "select": ("--curve", "c.csv", "--tie-epsilon", "0", "--timesteps", "1,5", "--out", "r.json"),
    "decompose": ("--tensor", "x.npy", "--out-high", "h.npy", "--out-low", "l.npy", "--dtype", "f32"),
    "fisher": ("--manifest", "m.json", "--timesteps", "3", "--out", "f.json"),
    "simulate": ("--manifest", "m.json", "--schedule", "s.csv", "--total-timesteps", "9",
                 "--timesteps", "1,9", "--seed", "-1", "--alpha-index", "t-1", "--out", "sim"),
    "oracle": ("--out", "o", "--images", "2", "--shape", "2,8,8", "--peak-timestep", "4",
               "--peak-amplitude", "0.5", "--curve-width", "3", "--detail-frequency", "2",
               "--dtype", "f32"),
    "correlate": ("--xs", "x.csv", "--ys", "y.csv", "--out", "c.json"),
}


def subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", COMMAND_LINES)
def test_one_command_parser_matches_the_full_parser(command):
    assert list(COMMAND_LINES) == list(cli._COMMANDS)
    full, one = build_parser(), cli._parser([command])
    assert list(subparsers(one)) == [command]
    assert subparsers(one)[command].format_help() == subparsers(full)[command].format_help()
    argv = [command, *COMMAND_LINES[command]]
    assert one.parse_args(argv) == full.parse_args(argv)


def test_main_builds_the_named_command_alone(monkeypatch, capsys):
    built = []
    real = cli._parser
    monkeypatch.setattr(cli, "_parser", lambda commands: built.append(list(commands)) or real(commands))
    assert run("select", "--curve", "c.csv", "--bogus") == 1
    assert run("correlate", "--help") == 0
    for argv in ((), ("--help",), ("no-such-command",), ("-h", "hfr")):
        assert run(*argv) == (0 if argv[:1] in (("--help",), ("-h",)) else 1)
    assert built == [["select"], ["correlate"]] + [list(COMMAND_LINES)] * 4


def test_help_lists_every_command_and_an_unknown_one_is_refused(capsys):
    assert run("--help") == 0
    out = capsys.readouterr().out
    assert re.findall(r"^    (\w+)", out, re.M) == list(COMMAND_LINES)
    assert all(line in out for line, _ in cli._COMMANDS.values())
    assert run("no-such-command") == 1
    assert capsys.readouterr().err == (
        "usage: freqsel [-h] command ...\n"
        "freqsel: error: argument command: invalid choice: 'no-such-command' (choose from "
        "'hfr', 'select', 'decompose', 'fisher', 'simulate', 'oracle', 'correlate')\n"
    )


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


def test_grid_ranges_are_bounded():
    # the stop counts too when the steps miss it
    assert len(parse_timestep_grid(f"1..{MAX_TIMESTEPS}")) == MAX_TIMESTEPS
    assert len(parse_timestep_grid(f"1..{100 * MAX_TIMESTEPS - 99}..100")) == MAX_TIMESTEPS
    for text in (f"1..{MAX_TIMESTEPS + 1}", f"1..{100 * MAX_TIMESTEPS - 98}..100"):
        with pytest.raises(argparse.ArgumentTypeError, match=f"holds {MAX_TIMESTEPS + 1} timesteps, more than"):
            parse_timestep_grid(text)


# Caps the child's address space at its first argument, in bytes, then runs
# freqsel's __main__ with the other arguments: a count built before it is
# checked ends in a MemoryError instead of taking the host's memory.
_RUN_CAPPED = """
import resource, runpy, sys
cap = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.argv = ["freqsel", *sys.argv[2:]]
runpy.run_module("freqsel", run_name="__main__", alter_sys=True)
"""


_HUGE = "100000000000"


@pytest.mark.skipif(os.name != "posix", reason="needs resource.RLIMIT_AS")
@pytest.mark.parametrize(
    "argv, flag, detail",
    [
        (["hfr", "--manifest", "m.json", "--out", "c.csv", "--timesteps", f"1..{_HUGE}"], "--timesteps",
         f"bad timestep grid '1..{_HUGE}': range holds {_HUGE} timesteps, more than {MAX_TIMESTEPS}"),
        (["simulate", "--manifest", "m.json", "--out", "sim", "--total-timesteps", _HUGE, "--timesteps", "1,2"],
         "--total-timesteps", f"must be <= {MAX_TIMESTEPS}, got {_HUGE}"),
        (["oracle", "--out", "o", "--peak-timestep", "5", "--total-timesteps", _HUGE],
         "--total-timesteps", f"must be <= {MAX_TIMESTEPS}, got {_HUGE}"),
    ],
    ids=["hfr_grid", "simulate", "oracle"],
)
def test_oversized_timestep_counts_are_usage_errors(tmp_path, argv, flag, detail):
    # in 512 MiB of address space, a count built before its check ends in
    # a MemoryError traceback, not in the OOM killer
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_CAPPED, str(512 << 20), *argv],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    *usage, error = proc.stderr.splitlines()
    assert usage[0].startswith(f"usage: freqsel {argv[0]} "), proc.stderr
    assert all(line.startswith(" ") for line in usage[1:]), proc.stderr
    assert error == f"freqsel {argv[0]}: error: argument {flag}: {detail}"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_oracle_refuses_its_grid_before_it_builds_a_curve(tmp_path):
    # with 32 MiB of headroom, a curve of 10^6 timesteps built before the
    # frequency check ends in a MemoryError traceback
    argv = ["oracle", "--out", "o", "--shape", "1,8,8", "--total-timesteps", "1000000",
            "--timesteps", "1,5", "--peak-timestep", "3"]
    script = CAP_HEADROOM + "sys.exit(freqsel.cli.main(sys.argv[2:]))"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(32 << 20), *argv],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == [
        "FrequencyTooHigh: detail frequency 8 needs a grid larger than 8x8 (require 2 * frequency < min(H, W))"
    ]
    assert list(tmp_path.iterdir()) == []


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
    # None: neither variable set, so the CLI's own default of one BLAS thread
    for blas, threads in (("1", "1"), ("2", "1"), ("2", "2"), ("1", "2"), (None, "2")):
        env = child_env(OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas)
        if blas is None:
            del env["OPENBLAS_NUM_THREADS"], env["OMP_NUM_THREADS"]
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


def test_decompose_rejects_one_file_for_both_parts(tmp_path, capsys):
    tensor = tmp_path / "in.npy"
    tensor.write_bytes(b"not a tensor")  # MalformedHeader, if it were read
    out = tmp_path / "parts.npy"
    assert run("decompose", "--tensor", str(tensor), "--out-high", str(out), "--out-low", str(out)) == 2
    assert capsys.readouterr().err == f"IoFailure: cannot write {out}: it is also --out-high\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.npy"]


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


@pytest.mark.parametrize("via_symlink", [False, True])
def test_simulate_into_its_own_inputs_fails_and_writes_nothing(tmp_path, capsys, via_symlink):
    clean = [make_map(np.random.default_rng(i).normal(size=(1, 8, 8)), f"img{i}", 1) for i in range(2)]
    manifest = write_dataset(tmp_path / "clean", clean, 1)
    data = tmp_path / "data"
    simulate = ["simulate", "--total-timesteps", "10", "--timesteps", "1,2,3,4", "--seed", "3"]
    assert run(*simulate, "--manifest", str(manifest), "--out", str(data)) == 0
    before = {p.name: p.read_bytes() for p in sorted(data.iterdir())}
    assert len(before) == 9  # 8 maps and the manifest
    capsys.readouterr()
    out = data
    if via_symlink:
        out = tmp_path / "link"
        out.symlink_to(data)
    # run in place, the maps of entries 0 and 1 would replace inputs 2-7 before they are read
    assert run(*simulate, "--manifest", str(data / "manifest.json"), "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"IoFailure: cannot write {out / 't0001_i0000.npy'}: it is input entry img0 of the manifest\n"
    )
    assert {p.name: p.read_bytes() for p in sorted(data.iterdir())} == before


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
