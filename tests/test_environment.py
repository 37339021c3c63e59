"""Noise and tide synthesis: statistics, determinism, pass-through."""

import math

import numpy as np
import pytest

from braggsim.environment import (
    STREAM_DETECTION,
    STREAM_MIRROR,
    NoiseModel,
    TideComponent,
    TideModel,
    apply_detection_noise,
    sample_mirror_phases,
    shot_rng,
    synthesize_tide,
    tilt_projection_drift,
)
from reference_models import demo_m2


class TestMirrorPhases:
    def test_zero_rms_is_exact_zero(self):
        model = NoiseModel(mirror_phase_rms_rad=0.0)
        rng = shot_rng(1, STREAM_MIRROR)
        state = rng.bit_generator.state
        out = sample_mirror_phases(model, rng, 4)
        assert out.shape == (4, 3) and np.all(out == 0.0)
        assert rng.bit_generator.state == state  # no draw was made

    def test_combination_variance(self):
        # var(phi1 - 2 phi2 + phi3) = 6 rms^2; 3 sigma statistical band
        rms = 0.1
        model = NoiseModel(mirror_phase_rms_rad=rms)
        n = 20000
        p = sample_mirror_phases(model, shot_rng(42, STREAM_MIRROR), n)
        combos = p[:, 0] - 2 * p[:, 1] + p[:, 2]
        expected = 6 * rms**2
        tol = 3 * expected * math.sqrt(2.0 / n)
        assert abs(np.var(combos) - expected) < tol

    def test_same_seed_same_triple(self):
        # shot 3 reads row 3 of its stream, whichever batch draws it
        model = NoiseModel(mirror_phase_rms_rad=0.2)
        a = sample_mirror_phases(model, shot_rng(7, STREAM_MIRROR), 4)[3]
        b = sample_mirror_phases(model, shot_rng(7, STREAM_MIRROR), 10)[3]
        np.testing.assert_array_equal(a, b)

    def test_streams_independent(self):
        model = NoiseModel(mirror_phase_rms_rad=0.2)
        rows = sample_mirror_phases(model, shot_rng(7, STREAM_MIRROR), 5)
        other = sample_mirror_phases(model, shot_rng(7, STREAM_DETECTION), 5)
        assert np.all(rows[3] != rows[4])
        assert np.all(rows != other)


class TestDetectionNoise:
    def test_infinite_snr_pass_through(self):
        model = NoiseModel(detection_snr=None)
        pops = np.array([0.4, 0.5])
        out = apply_detection_noise(pops, model, shot_rng(1, STREAM_DETECTION))
        assert out is pops

    def test_normalized_population_rms(self):
        # error propagation through p = p0/(p0+pn):
        # sigma_p = (1/snr) * sqrt(a^2 + b^2) / (a+b)^2
        snr = 50.0
        a, b = 0.5, 0.5
        model = NoiseModel(detection_snr=snr)
        n = 20000
        noisy = apply_detection_noise(np.tile([a, b], (n, 1)), model,
                                      shot_rng(3, STREAM_DETECTION))
        ps = noisy[:, 0] / (noisy[:, 0] + noisy[:, 1])
        expected = (1 / snr) * math.sqrt(a * a + b * b) / (a + b) ** 2
        got = np.std(ps)
        assert got == pytest.approx(expected, rel=0.1)

    def test_clamping_keeps_populations_physical(self):
        model = NoiseModel(detection_snr=2.0)  # huge noise to force clamping
        rng = shot_rng(5, STREAM_DETECTION)
        for _ in range(200):
            out = apply_detection_noise(np.array([0.0, 1.0]), model, rng)
            assert 0.0 <= out[0] <= 1.0 and 0.0 <= out[1] <= 1.0

    def test_dict_and_array_paths_agree_in_shape(self):
        model = NoiseModel(detection_snr=50.0)
        arr = apply_detection_noise(np.array([0.3, 0.7]), model,
                                    shot_rng(9, STREAM_DETECTION))
        assert arr.shape == (2,)


class TestStreams:
    def test_stream_statistics(self):
        # one draw of n shots per stream: Gaussian rows with the model's
        # variance, uncorrelated across shots, pulses, ports and streams
        rms, snr, n = 0.1, 50.0, 20000
        mirror = sample_mirror_phases(NoiseModel(mirror_phase_rms_rad=rms),
                                      shot_rng(11, STREAM_MIRROR), n)
        assert np.all(np.abs(mirror.mean(axis=0)) < 4 * rms / math.sqrt(n))
        assert np.all(np.abs(mirror.var(axis=0) - rms**2)
                      < 3 * math.sqrt(2.0 / n) * rms**2)
        detection = apply_detection_noise(
            np.full((n, 2), 0.5), NoiseModel(detection_snr=snr),
            shot_rng(11, STREAM_DETECTION)) - 0.5
        columns = np.column_stack([mirror, detection]).T
        bound = 4 / math.sqrt(n)
        for col in columns:
            assert abs(np.corrcoef(col[:-1], col[1:])[0, 1]) < bound
        corr = np.corrcoef(columns)
        assert np.all(np.abs(corr[np.triu_indices(len(columns), 1)]) < bound)


class TestTide:
    def test_no_components(self):
        model = TideModel(mean_gravity=9.81)
        assert synthesize_tide(model, 0.0) == 9.81
        assert synthesize_tide(model, 1e5) == 9.81

    def test_single_component_peak(self):
        model = TideModel(mean_gravity=9.81,
                          components=(TideComponent(2e-6, 1e-4, 0.0),))
        assert synthesize_tide(model, 0.0) == pytest.approx(9.81 + 2e-6, abs=1e-15)

    def test_demo_m2_period(self):
        model = demo_m2()
        g0 = synthesize_tide(model, 0.0)
        half = synthesize_tide(model, 12.42 * 3600 / 2)
        full = synthesize_tide(model, 12.42 * 3600)
        assert g0 == pytest.approx(9.81 + 1e-6, abs=1e-12)
        assert half == pytest.approx(9.81 - 1e-6, abs=1e-12)
        assert full == pytest.approx(g0, abs=1e-12)

    def test_vectorized(self):
        model = demo_m2()
        t = np.linspace(0, 36 * 3600, 100)
        g = synthesize_tide(model, t)
        assert g.shape == (100,)
        assert np.all(np.abs(g - 9.81) <= 1e-6 + 1e-12)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -9.81])
    def test_mean_gravity_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError, match=r"mean_gravity must be (finite|> 0), got"):
            TideModel(mean_gravity=value)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            TideComponent(-1e-6, 1e-4)

    @pytest.mark.parametrize("field, value", [
        ("amplitude", math.nan), ("amplitude", math.inf),
        ("angular_frequency", math.nan), ("angular_frequency", math.inf),
        ("phase", math.nan), ("phase", -math.inf),
    ], ids=["amplitude-nan", "amplitude-inf", "frequency-nan", "frequency-inf",
            "phase-nan", "phase-inf"])
    def test_rejects_non_finite(self, field, value):
        kwargs = {"amplitude": 1e-6, "angular_frequency": 1e-4, field: value}
        with pytest.raises(ValueError, match=field):
            TideComponent(**kwargs)


class TestTiltDrift:
    def test_no_drift_constant(self):
        model = NoiseModel(tilt_drift_rad_per_hour=0.0)
        assert tilt_projection_drift(model, 3600.0, base_tilt=0.2) == pytest.approx(
            math.cos(0.2), abs=1e-15)

    def test_tenth_degree_error(self):
        # 1 - cos(0.1 deg) = 1.5e-6 relative gravity error
        model = NoiseModel(tilt_drift_rad_per_hour=math.radians(0.1))
        c = tilt_projection_drift(model, 3600.0)
        assert 1.0 - c == pytest.approx(1.5e-6, rel=0.02)

    def test_small_angle_quadratic(self):
        model = NoiseModel(tilt_drift_rad_per_hour=1e-3)
        e1 = 1.0 - tilt_projection_drift(model, 3600.0)
        e2 = 1.0 - tilt_projection_drift(model, 7200.0)
        assert e2 / e1 == pytest.approx(4.0, rel=1e-4)


class TestValidation:
    def test_noise_model_invariants(self):
        with pytest.raises(ValueError):
            NoiseModel(mirror_phase_rms_rad=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(detection_snr=0.0)
        # None is the one way to switch detection noise off
        with pytest.raises(ValueError, match="detection_snr must be finite, got inf"):
            NoiseModel(detection_snr=math.inf)

    @pytest.mark.parametrize("field, value", [
        ("mirror_phase_rms_rad", math.nan), ("mirror_phase_rms_rad", math.inf),
        ("tilt_drift_rad_per_hour", math.nan), ("tilt_drift_rad_per_hour", math.inf),
    ], ids=["mirror-nan", "mirror-inf", "tilt-nan", "tilt-inf"])
    def test_noise_model_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            NoiseModel(**{field: value})

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            synthesize_tide(TideModel(), -1.0)
        with pytest.raises(ValueError):
            tilt_projection_drift(NoiseModel(), -1.0)

    @pytest.mark.parametrize("call", [
        lambda t: synthesize_tide(TideModel(), t),
        lambda t: tilt_projection_drift(NoiseModel(), t),
    ], ids=["synthesize_tide-t", "tilt_projection_drift-t"])
    def test_nan_time_rejected(self, call):
        with pytest.raises(ValueError, match="^t must be finite, got nan"):
            call([0.0, math.nan])

    @pytest.mark.parametrize("call", [
        lambda t: synthesize_tide(TideModel(), t),
        lambda t: tilt_projection_drift(NoiseModel(), t),
    ], ids=["synthesize_tide-t", "tilt_projection_drift-t"])
    def test_infinite_time_rejected(self, call):
        with pytest.raises(ValueError, match="^t must be finite, got inf"):
            call([0.0, math.inf])
