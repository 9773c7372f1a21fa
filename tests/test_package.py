"""The package surface: lazy exports, which commands and calls load numpy,
the CLI's process-wide defaults (BLAS threads, no OpenSSL), and the
scripts built on the library."""
import ast
import gc
import hmac
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import freqsel
import freqsel.cli

from freqsel.tensor_io import write_array
from util import child_env, make_map, write_dataset

MODULES = ("manifest", "tensor_io", "spectral", "diffusion", "discriminability", "selection")


def test_every_export_is_the_object_its_module_exports():
    assert len(freqsel.__all__) == len(set(freqsel.__all__)) == 36
    assert freqsel.errors is importlib.import_module("freqsel.errors")
    for name in set(freqsel.__all__) - {"errors", "__version__"}:
        owners = [m for m in MODULES if name in importlib.import_module(f"freqsel.{m}").__all__]
        assert owners, name
        for module in owners:
            assert getattr(freqsel, name) is getattr(importlib.import_module(f"freqsel.{module}"), name)
    assert set(freqsel.__all__) <= set(dir(freqsel))
    with pytest.raises(AttributeError, match="no_such_name"):
        freqsel.no_such_name


def test_names_without_a_pipeline_caller_are_gone():
    for name in ("HighPassMask", "gaussian_highpass_mask", "write_tensor", "reshape_tokens",
                 "load_entry", "iter_loaded", "sample_noise", "forward_noise",
                 "save_schedule_csv", "write_series_csv", "energy", "pearson", "spearman",
                 "pairwise_sum", "standard_normal", "uniforms", "stream_seed"):
        with pytest.raises(AttributeError):
            getattr(freqsel, name)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from freqsel import *", namespace)
    assert set(freqsel.__all__) <= set(namespace)
    assert namespace["hfr"] is freqsel.spectral.hfr


# Runs freqsel's __main__ with the given arguments, then reports on stderr,
# whatever the exit status, which of numpy, dataclasses and inspect it
# loaded, and whether it froze the heap.
_RUN_MAIN = """
import gc, runpy, sys
sys.argv = ["freqsel", *sys.argv[1:]]
try:
    runpy.run_module("freqsel", run_name="__main__", alter_sys=True)
finally:
    print("loaded:", [m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules], file=sys.stderr)
    print("frozen:", gc.get_freeze_count() > 0, file=sys.stderr)
"""

CURVE = "t,mean_hfr,n\n1,0.25,3\n50,0.5,3\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        ([], 1),
        (["--help"], 0),
        (["select", "--curve", "c.csv", "--no-such-flag"], 1),
        (["select", "--curve", "c.csv", "--out", "r.json"], 0),
        (["select", "--curve", "c.csv", "--timesteps", "7"], 2),
    ],
)
def test_curve_commands_and_usage_load_no_numpy_or_dataclasses(tmp_path, argv, code):
    (tmp_path / "c.csv").write_text(CURVE)
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_MAIN, *argv],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.endswith("loaded: []\nfrozen: True\n")
    if "--out" in argv:
        assert '"selected_t": 50' in (tmp_path / "r.json").read_text()


def test_only_the_process_entry_freezes_the_heap(tmp_path, capsys):
    (tmp_path / "c.csv").write_text(CURVE)
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_MAIN, "select", "--curve", "c.csv"],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.endswith("frozen: True\n")
    before = gc.get_freeze_count()
    assert freqsel.cli.main(["select", "--curve", str(tmp_path / "c.csv")]) == 0
    assert gc.get_freeze_count() == before
    assert capsys.readouterr().out == "selected t=50 mean_hfr=0.5 ties=[50]\n"


ONE_ENTRY = '{"total_timesteps": 1, "entries": [{"path": "x.npy", "image_id": "x", "timestep": 1, "group": ""}]}'


@pytest.mark.parametrize(
    "argv, error",
    [
        (["hfr", "--manifest", "none.json", "--out", "c.csv"], "IoFailure"),
        (["simulate", "--manifest", "none.json", "--out", "sim"], "IoFailure"),
        (["fisher", "--manifest", "none.json"], "IoFailure"),
        (["select", "--manifest", "bad.json"], "ManifestSchemaError"),
        (["hfr", "--manifest", "m.json", "--out", "c.csv"], "MissingFile"),
    ],
)
def test_commands_check_their_manifest_before_numpy_loads(tmp_path, argv, error):
    (tmp_path / "bad.json").write_text('{"total_timesteps": 0, "entries": []}')
    (tmp_path / "m.json").write_text(ONE_ENTRY)
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_MAIN, *argv],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"{error}: "), proc.stderr
    assert proc.stderr.endswith("loaded: []\nfrozen: True\n")


# Runs freqsel's __main__ with the given arguments, then reports on stderr
# the process's OS thread count, once the command has loaded numpy.
_RUN_MAIN_THREADS = """
import runpy, sys
sys.argv = ["freqsel", *sys.argv[1:]]
try:
    runpy.run_module("freqsel", run_name="__main__", alter_sys=True)
finally:
    assert "numpy" in sys.modules
    with open("/proc/self/status") as fh:
        print(next(line for line in fh if line.startswith("Threads:")).strip(), file=sys.stderr)
"""

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def blas_env(**overrides):
    """child_env with no BLAS or OpenMP thread variable, then `overrides`."""
    env = child_env()
    for name in BLAS_THREAD_VARS:
        env.pop(name, None)
    return dict(env, **overrides)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize(
    "overrides, threads",
    [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2), ({"OMP_NUM_THREADS": "2"}, 2)],
)
def test_the_cli_runs_blas_on_one_thread_unless_the_caller_says(tmp_path, overrides, threads):
    if threads > 1 and len(os.sched_getaffinity(0)) < threads:
        pytest.skip(f"needs {threads} usable CPUs")
    write_array(np.random.default_rng(0).normal(size=(2, 32, 32)), tmp_path / "x.npy", "f64")
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_MAIN_THREADS, "decompose", "--tensor", "x.npy",
         "--out-high", "high.npy", "--out-low", "low.npy"],
        cwd=tmp_path, env=blas_env(**overrides), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"Threads:\t{threads}\n"


def test_only_the_entry_point_sets_the_blas_default():
    probe = (
        "import os, numpy, freqsel, freqsel.cli, freqsel.spectral\n"
        "print(os.environ.get('OMP_NUM_THREADS'))\n"
        "import freqsel.__main__\n"
        "print(os.environ.get('OMP_NUM_THREADS'), freqsel.__main__.main.__module__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=blas_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "None\n1 freqsel.__main__\n"
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert 'freqsel = "freqsel.__main__:main"' in pyproject.splitlines()


# Marks absent the modules its first argument lists (comma-separated), runs
# freqsel's __main__ with the other arguments, then prints as the last line
# of stdout, whatever the exit status, a dict: whether the process holds
# _hashlib and freqsel.spectral, what hashlib's and hmac's SHA-256 give, and,
# where /proc/self/maps exists, whether any libcrypto is mapped.
_RUN_MAIN_HASHES = """
import os, runpy, sys
blocked, *argv = sys.argv[1:]
for name in filter(None, blocked.split(",")):
    sys.modules[name] = None
sys.argv = ["freqsel", *argv]
try:
    runpy.run_module("freqsel", run_name="__main__", alter_sys=True)
finally:
    import hashlib, hmac
    report = {
        "_hashlib": sys.modules.get("_hashlib") is not None,
        "spectral": "freqsel.spectral" in sys.modules,
        "sha256": hashlib.sha256(b"abc").hexdigest(),
        "hmac": hmac.new(b"key", b"msg", "sha256").hexdigest(),
    }
    if os.path.exists("/proc/self/maps"):
        with open("/proc/self/maps") as fh:
            report["libcrypto"] = "libcrypto" in fh.read()
    print(report)
"""


def run_main_hashes(cwd, blocked, *argv) -> dict:
    """The report of _RUN_MAIN_HASHES, which must exit 0 with an empty stderr."""
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_MAIN_HASHES, ",".join(blocked), *argv],
        cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def hashes(**report) -> dict:
    """`report` plus the SHA-256 and HMAC-SHA-256 digests the child must give."""
    return dict(
        report,
        sha256="ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        hmac=hmac.new(b"key", b"msg", "sha256").hexdigest(),
    )


@pytest.mark.parametrize(
    "argv, spectral",
    [
        (["simulate", "--manifest", "clean/manifest.json", "--total-timesteps", "4",
          "--timesteps", "1,4", "--dtype", "f32", "--out", "sim"], False),
        (["oracle", "--out", "oracle", "--images", "1", "--shape", "2,8,8", "--total-timesteps", "4",
          "--timesteps", "1,4", "--peak-timestep", "2", "--detail-frequency", "3"], True),
    ],
    ids=["simulate", "oracle"],
)
def test_the_cli_keeps_openssl_out_and_hashes_still_work(tmp_path, argv, spectral):
    # numpy.random imports secrets -> hmac -> hashlib, which fall back to
    # CPython's own hashes; only the oracle loads the spectral kernel
    write_dataset(tmp_path / "clean", [make_map(np.ones((2, 8, 8)), "img0", 1)], 1)
    report = run_main_hashes(tmp_path, [], *argv)
    if os.path.exists("/proc/self/maps"):
        assert report.pop("libcrypto") is False
    assert report == hashes(_hashlib=False, spectral=spectral)
    stem = "img" if spectral else "i"
    written = sorted(p.name for p in (tmp_path / argv[argv.index("--out") + 1]).iterdir())
    assert written == ["manifest.json", f"t0001_{stem}0000.npy", f"t0004_{stem}0000.npy"]


@pytest.mark.skipif(importlib.util.find_spec("_hashlib") is None, reason="needs OpenSSL's _hashlib")
def test_an_interpreter_without_a_builtin_hash_keeps_hashlib(tmp_path):
    # without _md5, hashlib would log an error for md5 if _hashlib were absent
    (tmp_path / "c.csv").write_text(CURVE)
    report = run_main_hashes(tmp_path, ["_md5"], "select", "--curve", "c.csv")
    report.pop("libcrypto", None)
    assert report == hashes(_hashlib=True, spectral=False)


# Runs freqsel.cli.main with the given arguments, then prints its exit code
# and which of concurrent.futures and logging the process has loaded.
_RUN_CLI_POOL_MODULES = """
import sys
from freqsel.cli import main
code = main(sys.argv[1:])
print(code, [m for m in ("concurrent.futures", "logging") if m in sys.modules])
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["hfr", "--manifest", "clean/manifest.json", "--out", "c.csv", "--threads", "2"],
        ["simulate", "--manifest", "clean/manifest.json", "--out", "sim", "--timesteps", "1,2,3",
         "--total-timesteps", "4", "--dtype", "f32"],
    ],
    ids=["hfr_threads_2", "simulate"],
)
def test_pooled_commands_load_no_executor_or_logging(tmp_path, argv):
    # maps of one piece each, so simulate pools their timesteps on every
    # usable CPU, and hfr scores them on two threads
    rng = np.random.default_rng(0)
    maps = [make_map(rng.normal(size=(1, 64, 1024)), f"img{i}", 1) for i in range(3)]
    write_dataset(tmp_path / "clean", maps, 1)
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_CLI_POOL_MODULES, *argv],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


@pytest.mark.skipif(importlib.util.find_spec("_hashlib") is None, reason="needs OpenSSL's _hashlib")
def test_only_the_entry_point_keeps_hashlib_out():
    probe = (
        "import sys, freqsel.cli, freqsel.diffusion, numpy.random\n"
        "print(sys.modules.get('_hashlib') is not None)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


def test_import_freqsel_does_not_load_numpy():
    probe = "import sys, freqsel; print(sorted(m for m in sys.modules if m.startswith(('numpy', 'freqsel'))))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['freqsel', 'freqsel.errors']"


def test_load_manifest_loads_no_array_module(tmp_path):
    (tmp_path / "x.npy").write_bytes(b"")
    (tmp_path / "m.json").write_text(ONE_ENTRY)
    probe = (
        "import sys, freqsel; freqsel.load_manifest(sys.argv[1]); print(sorted(m for m in sys.modules "
        "if m.startswith(('numpy', 'freqsel', 'concurrent', 'dataclasses', 'inspect'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, tmp_path / "m.json"],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['freqsel', 'freqsel.errors', 'freqsel.fileio', 'freqsel.manifest']"
    assert freqsel.tensor_io.load_manifest is freqsel.manifest.load_manifest


def test_scripts_recover_the_planted_peak(tmp_path):
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    runs = [
        (["run_oracle_experiment.py", "--workdir", str(tmp_path / "demo"), "--images", "4",
          "--grid-step", "20"], "recovered exactly"),
        (["sweep_cutoff.py", "--threads", "2"], "distinct selections across sweep: [80]"),
    ]
    for (script, *args), line in runs:
        proc = subprocess.run(
            [sys.executable, str(scripts / script), *args],
            cwd=tmp_path, env=child_env(TMPDIR=str(tmp_path)), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert line in proc.stdout.splitlines(), proc.stdout
