import copy
import pickle

import numpy as np
import pytest

from freqsel import (
    HfrCurve,
    SelectionReport,
    average_hfr,
    hfr,
    load_manifest,
    read_curve_csv,
    select_timestep,
    write_curve_csv,
)
from freqsel.errors import (
    EmptyCurve,
    EmptyTimestep,
    MetaMismatch,
    NonPositiveCutoff,
    SeriesInvalid,
    ZeroEnergyFeature,
)
from freqsel.selection import curve_to_csv_text, report_to_dict

from util import make_map, write_dataset


def small_dataset(tmp_path, per_step=3, steps=(1, 4, 9), seed=0):
    rng = np.random.default_rng(seed)
    maps = [
        make_map(rng.normal(size=(2, 8, 8)), f"img{i}", t)
        for t in steps
        for i in range(per_step)
    ]
    return load_manifest(write_dataset(tmp_path, maps, max(steps))), maps


# --- curve construction -----------------------------------------------------------

def test_average_matches_direct_mean(tmp_path):
    manifest, maps = small_dataset(tmp_path)
    curve = average_hfr(manifest, 6.0)
    assert curve.timesteps == (1, 4, 9)
    assert curve.counts == (3, 3, 3)
    for idx, t in enumerate(curve.timesteps):
        per_map = [hfr(m, 6.0) for m in maps if m.meta.timestep == t]
        assert curve.mean_hfr[idx] == pytest.approx(np.mean(per_map), abs=1e-15)
        assert 0.0 <= curve.mean_hfr[idx] < 1.0
    assert curve.cutoff == 6.0


def test_average_respects_requested_grid(tmp_path):
    manifest, _ = small_dataset(tmp_path)
    curve = average_hfr(manifest, 6.0, timesteps=(9, 1))
    assert curve.timesteps == (1, 9)
    with pytest.raises(EmptyTimestep):
        average_hfr(manifest, 6.0, timesteps=(1, 7))


def test_average_thread_count_is_invisible(tmp_path):
    manifest, _ = small_dataset(tmp_path, per_step=5)
    curves = [average_hfr(manifest, 6.0, threads=k) for k in (1, 2, 5, 8)]
    for other in curves[1:]:
        assert other.mean_hfr == curves[0].mean_hfr
        assert other == curves[0]


def test_average_empty_manifest(tmp_path):
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text('{"total_timesteps": 5, "entries": []}')
    with pytest.raises(EmptyTimestep):
        average_hfr(load_manifest(manifest_path), 6.0)


def test_zero_energy_map_aborts_with_file_pointer(tmp_path):
    maps = [
        make_map(np.ones((1, 4, 4)), "ok", 1),
        make_map(np.zeros((1, 4, 4)), "allzero", 1),
    ]
    manifest = load_manifest(write_dataset(tmp_path, maps, 1))
    with pytest.raises(ZeroEnergyFeature) as err:
        average_hfr(manifest, 6.0)
    assert "t0001_0001.npy" in str(err.value)


def test_ragged_shapes_fail_under_threads(tmp_path):
    maps = [
        make_map(np.ones((1, 4, 4)), "a", 2),
        make_map(np.ones((1, 5, 5)) * 2, "b", 2),
    ]
    # with a zero-energy map after the ragged one: the first fault in
    # manifest order wins, however the pool interleaves the work
    later_zero_map = [make_map(np.ones((1, 4, 4)), "c", 2), make_map(np.zeros((1, 4, 4)), "d", 2)]
    for name, dataset in (("ragged", maps), ("ragged_then_zero", maps + later_zero_map)):
        manifest = load_manifest(write_dataset(tmp_path / name, dataset, 2))
        for threads in (1, 4):
            with pytest.raises(MetaMismatch):
                average_hfr(manifest, 6.0, threads=threads)


# --- curve type and CSV -----------------------------------------------------------------

def test_curve_validation():
    with pytest.raises(SeriesInvalid):
        HfrCurve((1, 2), (0.5,), (1, 1))
    with pytest.raises(SeriesInvalid):
        HfrCurve((2, 1), (0.5, 0.5), (1, 1))
    with pytest.raises(SeriesInvalid):
        HfrCurve((1, 2), (0.5, 1.5), (1, 1))
    with pytest.raises(SeriesInvalid):
        HfrCurve((1, 2), (0.5, 0.5), (1, 0))
    assert len(HfrCurve((), (), ())) == 0


def test_curve_is_an_immutable_value():
    curve = HfrCurve([1, 5], [0.5, 1], [2, 2], cutoff=8)
    assert (curve.timesteps, curve.mean_hfr, curve.counts, curve.cutoff) == ((1, 5), (0.5, 1.0), (2, 2), 8.0)
    assert type(curve.mean_hfr[1]) is float and type(curve.cutoff) is float
    same = HfrCurve((1, 5), (0.5, 1.0), (2, 2), 8.0)
    assert curve == same and hash(curve) == hash(same)
    assert curve != HfrCurve((1, 5), (0.5, 1.0), (2, 2)) and curve != curve.timesteps
    assert repr(curve) == "HfrCurve(timesteps=(1, 5), mean_hfr=(0.5, 1.0), counts=(2, 2), cutoff=8.0)"
    assert copy.deepcopy(curve) == pickle.loads(pickle.dumps(curve)) == curve
    with pytest.raises(AttributeError):
        curve.cutoff = 9.0
    with pytest.raises(AttributeError):
        del curve.timesteps
    with pytest.raises(AttributeError):
        curve.extra = 1
    assert curve == same


def test_each_report_holds_its_own_config():
    curve = HfrCurve((1,), (0.5,), (1,))
    first, second = select_timestep(curve), select_timestep(curve)
    first.config["command"] = "select"
    assert second.config == {}
    assert first._replace(config={}) == second
    with pytest.raises(TypeError):
        SelectionReport(1, 0.5, (1,), curve)


@pytest.mark.parametrize("cutoff", [float("inf"), float("nan"), 0.0, -3.0])
def test_curve_cutoff_must_be_finite_and_positive(tmp_path, cutoff):
    with pytest.raises(NonPositiveCutoff, match="cutoff must be finite and > 0"):
        HfrCurve((1,), (0.5,), (1,), cutoff=cutoff)
    write_curve_csv(HfrCurve((1,), (0.5,), (1,)), tmp_path / "c.csv")
    with pytest.raises(NonPositiveCutoff):
        read_curve_csv(tmp_path / "c.csv", cutoff)


def test_curve_csv_roundtrip(tmp_path):
    curve = HfrCurve((1, 50, 100), (0.25, 0.5, 0.125), (4, 4, 2), cutoff=8.0)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    assert path.read_text() == "t,mean_hfr,n\n1,0.25,4\n50,0.5,4\n100,0.125,2\n"
    back = read_curve_csv(path, cutoff=8.0)
    assert back == curve


def test_curve_csv_text_uses_shortest_roundtrip_floats():
    value = 0.6163
    text = curve_to_csv_text(HfrCurve((1,), (value,), (2,)))
    assert text == "t,mean_hfr,n\n1,0.6163,2\n"
    assert float(text.splitlines()[1].split(",")[1]) == value


def test_curve_csv_rejects_malformed(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("t,hfr\n1,0.5,1\n")
    with pytest.raises(SeriesInvalid):
        read_curve_csv(path)
    path.write_text("t,mean_hfr,n\n1,0.5\n")
    with pytest.raises(SeriesInvalid):
        read_curve_csv(path)


@pytest.mark.parametrize(
    "rows,rule",
    [
        ("1,1.5,2\n", "values must be finite"),
        ("2,0.5,1\n1,0.5,1\n", "strictly increasing"),
        ("1,0.5,0\n", "counts must be >= 1"),
    ],
    ids=["value", "timestep_order", "count"],
)
def test_curve_csv_rule_errors_name_the_file(tmp_path, rows, rule):
    path = tmp_path / "c.csv"
    path.write_text("t,mean_hfr,n\n" + rows)
    with pytest.raises(SeriesInvalid) as info:
        read_curve_csv(path)
    assert str(info.value).startswith(f"{path}: ")
    assert rule in str(info.value)


def test_curve_csv_with_byte_order_mark_loads(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("t,mean_hfr,n\n1,0.25,4\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert read_curve_csv(path) == HfrCurve((1,), (0.25,), (4,))


# --- selection ---------------------------------------------------------------------------

def test_select_picks_argmax():
    curve = HfrCurve((1, 5, 9), (0.2, 0.9, 0.4), (1, 1, 1))
    report = select_timestep(curve)
    assert report.selected_timestep == 5
    assert report.max_mean_hfr == 0.9
    assert report.ties == (5,)


def test_select_exact_tie_breaks_to_smaller_t():
    curve = HfrCurve((3, 7, 11), (0.5, 0.9, 0.9), (1, 1, 1))
    report = select_timestep(curve)
    assert report.selected_timestep == 7
    assert report.ties == (7, 11)


def test_select_near_ties_reported():
    curve = HfrCurve((1, 2, 3, 4), (0.89995, 0.9, 0.89, 0.1), (1, 1, 1, 1))
    report = select_timestep(curve, tie_epsilon=1e-4)
    assert report.selected_timestep == 2
    assert report.ties == (1, 2)
    assert report.selected_timestep in report.ties
    strict = select_timestep(curve, tie_epsilon=0.0)
    assert strict.ties == (2,)


def test_select_empty_curve():
    with pytest.raises(EmptyCurve):
        select_timestep(HfrCurve((), (), ()))


def test_select_rejects_negative_epsilon():
    with pytest.raises(ValueError):
        select_timestep(HfrCurve((1,), (0.5,), (1,)), tie_epsilon=-1.0)


def test_select_rejects_nan_epsilon():
    # best - v <= nan is never true, so a NaN would drop the selection from its own ties
    with pytest.raises(ValueError):
        select_timestep(HfrCurve((1, 2), (0.5, 0.6), (1, 1)), tie_epsilon=float("nan"))


def test_report_dict_schema():
    curve = HfrCurve((1, 5), (0.2, 0.7), (2, 2), cutoff=12.0)
    report = select_timestep(curve, config={"command": "select", "cutoff": 12.0})
    doc = report_to_dict(report)
    assert set(doc) == {"selected_t", "max_mean_hfr", "ties", "cutoff", "curve", "config"}
    assert doc["selected_t"] == 5
    assert doc["cutoff"] == 12.0
    assert doc["curve"] == [
        {"t": 1, "mean_hfr": 0.2, "n": 2},
        {"t": 5, "mean_hfr": 0.7, "n": 2},
    ]
    assert doc["config"]["command"] == "select"
