"""Acceptance suite: eight end-to-end criteria with runtime budgets.

Each test prints one `criterion N ... PASS/FAIL` line (visible with
`pytest tests/test_acceptance.py -s`) and fails if the checked property or
its runtime budget is violated.
"""

import json
import shutil
import time
from contextlib import contextmanager

import numpy as np

from freqsel import (
    DatasetManifest,
    FeatureMap,
    HfrCurve,
    LabeledEmbeddingSet,
    NoiseSchedule,
    OracleProfile,
    average_hfr,
    extract_high_freq,
    fisher_score,
    gaussian_bump_curve,
    hfr,
    load_manifest,
    oracle_features,
    read_tensor,
    save_manifest,
    select_timestep,
    simulate_forward,
)
from freqsel.cli import main
from freqsel.tensor_io import write_array

from reference_curves import (
    ACCURACY_BY_RESOLUTION,
    EXPECTED_SELECTION,
    HFR_BY_RESOLUTION,
    PROBE_TIMESTEPS,
)
from util import (
    corrupt_corpus,
    energy,
    fisher_scatter_oracle,
    keyed_generator,
    make_map,
    naive_dft2,
    reference_gains,
    rel_err,
    write_dataset,
    write_series_text,
)


@contextmanager
def criterion(num, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < budget_s
    print(
        f"criterion {num} ({label}): {'PASS' if within else 'FAIL'} "
        f"[{elapsed:.2f}s / budget {budget_s:g}s]"
    )
    assert within, f"criterion {num} blew its runtime budget: {elapsed:.2f}s"


def test_criterion_1_kernel_matches_direct_dft():
    with criterion(1, "high-pass kernel vs direct DFT + Parseval", 10.0):
        rng = np.random.default_rng(101)
        cutoffs = np.geomspace(0.5, 120.0, 11)
        for h in range(1, 33):
            for w in range(1, 33):
                fmap = FeatureMap(rng.normal(size=(h, w)))
                cutoff = float(cutoffs[(h + w) % len(cutoffs)])
                gains = reference_gains(h, w, cutoff)
                spectrum = naive_dft2(fmap.values[0])
                power = np.abs(spectrum) ** 2
                # inverse DFT through the forward oracle: conj(DFT(conj(Y))) / (H*W)
                want = np.conj(naive_dft2(np.conj(gains * spectrum))).real / (h * w)
                assert rel_err(extract_high_freq(fmap, cutoff).values[0], want) <= 1e-9, (h, w, cutoff)
                parseval = np.sum(gains**2 * power) / np.sum(power)
                assert rel_err(hfr(fmap, cutoff), parseval) <= 1e-9, (h, w, cutoff)
                assert rel_err(energy(fmap), np.sum(power) / (h * w)) <= 1e-9, (h, w)


def test_criterion_2_hfr_invariants():
    with criterion(2, "HFR bounded / scale-free / cutoff-monotone / domain-consistent", 30.0):
        rng = np.random.default_rng(202)
        for _ in range(100):
            shape = (int(rng.integers(1, 4)), int(rng.integers(4, 41)), int(rng.integers(4, 41)))
            fmap = FeatureMap(rng.normal(size=shape))
            value = hfr(fmap)
            assert 0.0 <= value <= 1.0

            assert hfr(FeatureMap(fmap.values * 2.0**40)) == value
            for c in (1000.0, 0.001, np.pi):
                assert abs(hfr(FeatureMap(fmap.values * c)) - value) <= 1e-12 * value

            by_cutoff = [hfr(fmap, d0) for d0 in (5.0, 15.0, 30.0, 60.0, 120.0)]
            assert all(a >= b for a, b in zip(by_cutoff, by_cutoff[1:]))

            spatial = energy(extract_high_freq(fmap, 30.0)) / energy(fmap)
            assert abs(spatial - value) <= 1e-8 * value


def test_criterion_3_white_noise_hfr_matches_mean_gain():
    with criterion(3, "white-noise HFR vs analytic mean squared gain", 30.0):
        target = float(np.mean(reference_gains(64, 64, 8.0) ** 2))
        draws = [
            hfr(make_map(keyed_generator(303, i).standard_normal((1, 64, 64))), 8.0)
            for i in range(200)
        ]
        mean = float(np.mean(draws))
        assert abs(mean - target) <= 0.01, (mean, target)


def test_criterion_4_reference_curves_select_reported_timesteps(tmp_path):
    with criterion(4, "published 21-row curves: selection + correlation", 1.0):
        counts = (1,) * len(PROBE_TIMESTEPS)
        for resolution, expected in EXPECTED_SELECTION.items():
            curve = HfrCurve(PROBE_TIMESTEPS, HFR_BY_RESOLUTION[resolution], counts)
            report = select_timestep(curve)
            assert report.selected_timestep == expected, (resolution, report.selected_timestep)

        xs, ys = tmp_path / "hfr.csv", tmp_path / "acc.csv"
        write_series_text(xs, PROBE_TIMESTEPS, HFR_BY_RESOLUTION[512])
        write_series_text(ys, PROBE_TIMESTEPS, ACCURACY_BY_RESOLUTION[512])
        out = tmp_path / "corr.json"
        assert main(["correlate", "--xs", str(xs), "--ys", str(ys), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["spearman"] > 0.9


def test_criterion_5_oracle_recovery_end_to_end(tmp_path):
    with criterion(5, "20 random profiles recovered end to end, also at x1000 scale", 120.0):
        total = 200
        grid = tuple(range(10, 201, 10))
        identity = NoiseSchedule((0.0,) * total)  # alpha=0 keeps features exact
        for k in range(20):
            rng = np.random.default_rng(5000 + k)
            peak = int(rng.choice(grid))
            profile = OracleProfile(
                peak_timestep=peak,
                base_low_freq_amplitude=float(rng.uniform(0.5, 1.5)),
                detail_amplitude_curve=gaussian_bump_curve(
                    total, peak, float(rng.uniform(0.5, 2.0)), float(rng.uniform(5.0, 40.0))
                ),
                detail_frequency=int(rng.integers(4, 15)),
            )
            root = tmp_path / f"profile{k:02d}"
            clean = oracle_features(
                profile, n_images=16, shape=(4, 32, 32), seed=900 + k,
                out_dir=root / "clean", timesteps=grid,
            )
            # forward-process stage: noise each timestep's images at its own t
            noised_dir = root / "noised"
            collected = []
            for t in grid:
                at_t = tuple(e for e in clean.entries if e.timestep == t)
                sub = DatasetManifest(total, at_t, False, clean.root)
                out = simulate_forward(sub, identity, (t,), seed=77, out_dir=noised_dir)
                collected.extend(out.entries)
            for src, dst in zip(clean.entries, collected):
                assert clean.resolve(src).read_bytes() == (noised_dir / dst.path).read_bytes()
            noised = DatasetManifest(total, tuple(collected), False, noised_dir)
            save_manifest(noised, noised_dir / "manifest.json")

            report = select_timestep(average_hfr(noised, timesteps=grid, threads=2))
            assert report.selected_timestep == peak, (k, report.selected_timestep, peak)

            scaled_dir = root / "scaled"
            scaled_dir.mkdir()
            for entry in noised.entries:
                fmap = read_tensor(noised.resolve(entry))
                write_array(fmap.values * 1000.0, scaled_dir / entry.path, fmap.meta.dtype)
            scaled = DatasetManifest(total, noised.entries, False, scaled_dir)
            save_manifest(scaled, scaled_dir / "manifest.json")
            report = select_timestep(average_hfr(scaled, timesteps=grid, threads=2))
            assert report.selected_timestep == peak, (k, "x1000", report.selected_timestep)
            shutil.rmtree(root)


def test_criterion_6_fisher_matches_scatter_matrices():
    with criterion(6, "trace-form Fisher vs explicit scatter matrices", 10.0):
        rng = np.random.default_rng(606)
        for _ in range(50):
            n_classes = int(rng.integers(2, 6))
            d = int(rng.integers(1, 11))
            n = int(rng.integers(2 * n_classes, 101))
            labels = np.concatenate(
                [np.arange(n_classes), rng.integers(0, n_classes, size=n - n_classes)]
            )
            x = rng.normal(size=(n, d)) + labels[:, None] * rng.uniform(0.0, 3.0)
            result = fisher_score(LabeledEmbeddingSet(x, labels))
            tr_b, tr_w = fisher_scatter_oracle(x, labels)
            assert abs(result.score - tr_b / tr_w) <= 1e-9 * abs(tr_b / tr_w)

            mu = x.mean(axis=0)
            tr_total = float(np.sum((x - mu) ** 2))
            assert abs((result.trace_between + result.trace_within) - tr_total) <= 1e-9 * tr_total

        hand = fisher_score(
            LabeledEmbeddingSet(np.array([[0.0], [2.0], [10.0], [12.0]]), np.array([0, 0, 1, 1]))
        )
        assert hand.score == 25.0 and hand.trace_between == 100.0 and hand.trace_within == 4.0


def test_criterion_7_endpoints_exact_and_runs_deterministic(tmp_path):
    with criterion(7, "forward endpoints exact; CLI reruns byte-identical across threads", 30.0):
        z0 = np.random.default_rng(707).normal(size=(2, 9, 11))
        clean = load_manifest(write_dataset(tmp_path / "clean", [make_map(z0)], 1))
        ends = simulate_forward(clean, NoiseSchedule((0.0, 1.0)), (1, 2), 7, tmp_path / "ends")
        eps = keyed_generator(7, 0, 2).standard_normal(z0.shape)
        assert np.array_equal(read_tensor(ends.resolve(ends.entries[0])).values, z0)
        assert np.array_equal(read_tensor(ends.resolve(ends.entries[1])).values, eps)

        def oracle_into(data):
            assert main([
                "oracle", "--out", str(data), "--images", "4", "--shape", "2,16,16",
                "--total-timesteps", "40", "--timesteps", "5..40..5",
                "--peak-timestep", "20", "--curve-width", "8", "--detail-frequency", "5",
                "--seed", "11",
            ]) == 0
            return {p.name: p.read_bytes() for p in sorted(data.iterdir())}

        # dataset generation is reproducible (manifests store relative paths)
        data = tmp_path / "data"
        assert oracle_into(data) == oracle_into(tmp_path / "data2")

        manifest = data / "manifest.json"
        first = sorted(data.glob("*.npy"))[0]

        def run_all(root, threads):
            root.mkdir()
            assert main(["hfr", "--manifest", str(manifest), "--out", str(root / "curve.csv"),
                         "--threads", threads]) == 0
            assert main(["select", "--manifest", str(manifest), "--out", str(root / "report.json"),
                         "--threads", threads]) == 0
            assert main(["decompose", "--tensor", str(first),
                         "--out-high", str(root / "high.npy"),
                         "--out-low", str(root / "low.npy")]) == 0
            assert main(["simulate", "--manifest", str(manifest), "--total-timesteps", "40",
                         "--timesteps", "20,40", "--seed", "13",
                         "--out", str(root / "noised")]) == 0
            return {
                p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()
            }

        runs = [run_all(tmp_path / name, threads)
                for name, threads in (("a", "1"), ("b", "4"), ("c", "1"))]
        assert runs[0] == runs[1] == runs[2]


def test_criterion_8_tensor_roundtrips_and_corrupt_files(tmp_path):
    with criterion(8, "100 exact round-trips; 22 corrupt files raise the documented class", 10.0):
        rng = np.random.default_rng(808)
        for i in range(100):
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 24)), int(rng.integers(1, 24)))
            original = make_map(rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7))
            path = tmp_path / f"rt{i:03d}.npy"
            write_array(original.values, path, "f64")
            back = read_tensor(path)
            assert np.array_equal(back.values, original.values)
            assert back.meta.dtype == "f64"

        for name, payload, expected in corrupt_corpus():
            path = tmp_path / f"{name}.npy"
            path.write_bytes(payload)
            try:
                read_tensor(path)
            except expected:
                pass
            else:
                raise AssertionError(f"{name}: expected {expected.__name__}")
