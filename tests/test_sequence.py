"""Interferometer runs: closure, phase response, determinism, gradiometry."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from braggsim.analysis import (FringeScan, extract_shot_phases, fit_harmonics,
                               fringe_contrast)
from braggsim.environment import (
    STREAM_DETECTION,
    STREAM_DETECTION_UPPER,
    STREAM_MIRROR,
    STREAM_QUASIMOMENTUM,
    NoiseModel,
    TideComponent,
    TideModel,
)
from braggsim.ladder import (
    EvolutionConfig,
    PulseSpec,
    apply_pulse,
    plane_wave_state,
)
from braggsim.physics import (
    AtomSpecies,
    BeamGeometry,
    bragg_resonance,
    mzi_phase,
    revival_period,
)
from braggsim import ladder, sequence
from braggsim.sequence import (
    EnsembleSpec,
    GradiometerSpec,
    MZISequence,
    prepare_sequence,
    run_gradiometer,
    run_gravity_series,
    run_shot,
    scan_contrast_vs_T,
    scan_fringe,
)

from free_flight import free_propagate
from reference_models import demo_m2

RB = AtomSpecies.rubidium87()
QUIET = NoiseModel(mirror_phase_rms_rad=0.0, detection_snr=None)
PLANE = EnsembleSpec(samples=1, sigma_q_hk=0.0)
GRID = np.linspace(0, 4 * math.pi, 24, endpoint=False)


@pytest.fixture(scope="module")
def deep_seq():
    # deep-Bragg first order: near-ideal two-level pulses
    return prepare_sequence(RB, order=1, interrogation_time=3e-3,
                            pulse_sigma=200e-6)


@pytest.fixture(scope="module")
def lowfringe_seq():
    # first order, short T: mirror noise of 0.3 rad sweeps the mid-fringe
    # operating point across the whole monotonic segment
    return prepare_sequence(RB, order=1, interrogation_time=1e-3,
                            pulse_sigma=15e-6)


@pytest.fixture(scope="module")
def qb_seq():
    # quasi-Bragg working point: short pulses couple neighbouring orders
    return prepare_sequence(RB, order=2, interrogation_time=2e-3,
                            pulse_sigma=5e-6)


def manual_pulse_chain(seq, phases=(0.0, 0.0, 0.0)):
    """Port populations of a plane wave through the public ladder operations
    with the engine's timing and beat phases, pulse k also carrying
    ``phases[k]``."""
    delta_res = 4 * seq.order * RB.recoil_frequency
    d = 6 * seq.pulse_sigma
    T = seq.interrogation_time
    starts = [0.0, d / 2 + T - d / 2, d / 2 + 2 * T - d / 2]
    rabis = [seq.beamsplitter_rabi, seq.mirror_rabi, seq.beamsplitter_rabi]
    psi = plane_wave_state(RB)
    for k, (rabi, t, phi) in enumerate(zip(rabis, starts, phases)):
        if k:
            psi = free_propagate(psi, T - d)
        psi = apply_pulse(psi, PulseSpec(rabi, seq.pulse_sigma, detuning=delta_res,
                                         laser_phase=delta_res * t + phi))
    return {port: psi.population(port) for port in (0, seq.order)}


def _engine(seq, sweep_rate_offset=0.0):
    return sequence._ShotEngine(RB, seq, EvolutionConfig(), sweep_rate_offset)


def _plane_populations(engine, phases):
    # one plane-wave sample: the engine's sum over samples is the mean
    return engine.populations(phases, PLANE.draw(), {})


class TestShotComposition:
    def test_run_shot_matches_manual_pulse_chain(self, qb_seq):
        """The engine's cached-propagator path must equal composing the
        public ladder operations with the same timing and beat phases."""
        shot = scan_fringe(RB, PLANE, qb_seq, QUIET, [0.0], master_seed=3)
        for port, pop in manual_pulse_chain(qb_seq).items():
            assert shot.port_populations[port][0] == pytest.approx(pop, abs=5e-9)

    def test_run_shot_honours_laser_phases(self, qb_seq):
        # each pulse's phase adds to its beat phase on the phase-zero
        # propagators that the unphased shot uses
        engine = _engine(qb_seq)
        phased, unphased = _plane_populations(engine, np.array([[0.4, 1.1, 0.4],
                                                                [0.0, 0.0, 0.0]]))
        for port, pop in manual_pulse_chain(qb_seq, (0.4, 1.1, 0.4)).items():
            assert phased[engine.ports[port]] == pytest.approx(pop, abs=5e-9)
        # phi1 - 2 phi2 + phi3 = -1.4 rad moves the fringe
        assert abs(phased[engine.ports[0]] - unphased[engine.ports[0]]) > 0.01

    def test_pulses_take_their_frequency_from_the_run(self, monkeypatch):
        # the schedule holds amplitudes and one width; each offset sets the
        # detuning at every pulse centre and the chirp across it
        seq = TestPinnedShotStreams.QB
        built = []

        def recording(species, pulse, *args):
            built.append(pulse)
            return real(species, pulse, *args)

        real = sequence.pulse_propagator
        monkeypatch.setattr(sequence, "pulse_propagator", recording)
        offsets = (-1.5e3, 4e3)
        sequence.scan_sweep_rate(RB, PLANE, seq, QUIET, offsets)
        d, T = 6 * seq.pulse_sigma, seq.interrogation_time
        rabis = (seq.beamsplitter_rabi, seq.mirror_rabi, seq.beamsplitter_rabi)
        centres = (d / 2, d / 2 + T, d / 2 + 2 * T)
        assert len(built) == 6
        for pulse, (offset, rabi, t_c) in zip(
                built, [(o, r, t) for o in offsets for r, t in zip(rabis, centres)]):
            assert (pulse.rabi_peak, pulse.sigma) == (rabi, seq.pulse_sigma)
            assert pulse.detuning == (bragg_resonance(seq.order, RB)
                                      + 2 * math.pi * offset * t_c)
            assert pulse.chirp == pytest.approx(offset, rel=1e-15)
            assert pulse.laser_phase == 0.0

    def test_single_point_scan_equals_run_shot(self, qb_seq):
        # run_shot is the one-point scan at final-pulse phase 0
        noise = NoiseModel(mirror_phase_rms_rad=0.1, detection_snr=50.0)
        shot = run_shot(RB, PLANE, qb_seq, noise, master_seed=4, shot_index=3,
                        sweep_rate_offset=250.0)
        scan = scan_fringe(RB, PLANE, qb_seq, noise, [0.0], master_seed=4,
                           shot_index_offset=3, sweep_rate_offset=250.0)
        assert np.array_equal(shot.phase_grid, scan.phase_grid)
        assert np.array_equal(shot.normalized, scan.normalized)
        for port, values in scan.port_populations.items():
            assert np.array_equal(shot.port_populations[port], values)


class TestMachZehnderClosure:
    def test_resonant_shot_at_extremum(self, deep_seq):
        p = scan_fringe(RB, PLANE, deep_seq, QUIET, [0.0]).normalized[0]
        assert p > 0.999 or p < 0.001

    def test_full_contrast_cosine_fringe(self, deep_seq):
        scan = scan_fringe(RB, PLANE, deep_seq, QUIET, GRID)
        fit = fit_harmonics(scan, 3)
        assert fit.amplitudes[0] == pytest.approx(0.5, abs=0.01)
        assert fit.amplitudes[1] < 0.01
        assert fringe_contrast(fit) > 0.98

    def test_global_pulse_phase_shift_invariance(self, deep_seq):
        # the same phase on all three pulses cancels in phi1 - 2 phi2 + phi3
        base, shifted = _plane_populations(_engine(deep_seq),
                                           np.array([[0.0, 0.0, 0.0],
                                                     [0.73, 0.73, 0.73]]))
        np.testing.assert_allclose(shifted, base, atol=1e-11)


@pytest.fixture(scope="module")
def long_seq():
    # deep-Bragg first order at T = 20 ms: the fringe argument r*T^2 is
    # large for a small offset r from resonance
    return prepare_sequence(RB, order=1, interrogation_time=20e-3,
                            pulse_sigma=15e-6)


def _phase_difference(a, b):
    return (a.phases[0] - b.phases[0] + math.pi) % (2 * math.pi) - math.pi


class TestEquationOnePhaseResponse:
    def test_sweep_rate_slope_matches_T_squared(self, long_seq):
        # fringe argument shifts by r*T^2 with r = 2 pi * offset
        base = fit_harmonics(scan_fringe(RB, PLANE, long_seq, QUIET, GRID), 3)
        dalpha = 300.0
        fit = fit_harmonics(scan_fringe(RB, PLANE, long_seq, QUIET, GRID,
                                        sweep_rate_offset=dalpha), 3)
        T = long_seq.interrogation_time
        assert _phase_difference(fit, base) == pytest.approx(
            2 * math.pi * dalpha * T * T, rel=0.01)

    def test_fringe_shifts_match_mzi_phase(self, long_seq):
        # a pulse phase and a sweep-rate offset each move the fringe over
        # the final-pulse phase by -(Delta Phi)/n of the closed form
        grid = np.linspace(0, 4 * math.pi, 48, endpoint=False)
        n, T = long_seq.order, long_seq.interrogation_time
        geom = BeamGeometry.vertical(RB)

        def fit(pulse_phases=(0.0, 0.0, 0.0), sweep_rate=0.0):
            engine = _engine(long_seq, sweep_rate)
            phases = np.zeros((len(grid), 3)) + pulse_phases
            phases[:, 2] += grid
            pops = _plane_populations(engine, phases)
            lower, upper = pops[:, engine.ports[0]], pops[:, engine.ports[n]]
            return fit_harmonics(FringeScan(grid, {}, lower / (lower + upper)), 3)

        base = fit()
        for inputs in ({"pulse_phases": (0.0, 0.0, 0.01)},
                       {"pulse_phases": (0.01, 0.0, 0.0)},
                       {"pulse_phases": (0.0, 0.01, 0.0)},
                       {"sweep_rate": 0.5}, {"sweep_rate": 2.0}):
            d_phi = mzi_phase(n, T, geom, **inputs) - mzi_phase(n, T, geom)
            assert _phase_difference(fit(**inputs), base) == pytest.approx(
                -d_phi / n, rel=0.01), inputs

    @pytest.mark.parametrize("tilt", [0.0, 0.5])
    def test_gradient_phase_matches_closed_form(self, long_seq, tilt):
        # the clouds run at -/+ k_eff cos(tilt) G L / (4 pi) from resonance,
        # so their fringes differ in phase by -k_eff cos(tilt) G L T^2
        geom = BeamGeometry.vertical(RB, tilt_angle=tilt)
        gspec = GradiometerSpec(lower_momentum_hk=8, upper_momentum_hk=2,
                                gradient_per_s2=0.05)
        res = run_gradiometer(RB, gspec, PLANE, long_seq, QUIET, GRID, geometry=geom)
        T, L = long_seq.interrogation_time, gspec.baseline(RB)
        expected = -geom.k_eff * geom.projection * gspec.gradient_per_s2 * L * T * T
        assert abs(expected) > 0.5
        d = _phase_difference(fit_harmonics(res.lower, 3),
                              fit_harmonics(res.upper, 3))
        assert d == pytest.approx(expected, rel=0.01)
        # the lower cloud is a lone scan at the negative offset
        lone = scan_fringe(RB, PLANE, long_seq, QUIET, GRID,
                           sweep_rate_offset=expected / (4 * math.pi * T * T))
        np.testing.assert_allclose(res.lower.normalized, lone.normalized,
                                   rtol=0, atol=1e-12)


class TestFringePeriodicityRegimes:
    def test_pure_bragg_oscillates_at_2pi_over_n(self):
        seq = prepare_sequence(RB, order=2, interrogation_time=2e-3,
                               pulse_sigma=80e-6)
        fit = fit_harmonics(scan_fringe(RB, PLANE, seq, QUIET, GRID), 3)
        assert fit.amplitudes[1] > 5 * fit.amplitudes[0]

    def test_quasi_bragg_oscillates_at_2pi(self, qb_seq):
        ens = EnsembleSpec(samples=64, sigma_q_hk=0.42, seed=7)
        fit = fit_harmonics(scan_fringe(RB, ens, qb_seq, QUIET, GRID), 3)
        assert fit.amplitudes[0] > fit.amplitudes[1]


class TestDeterminism:
    def test_identical_seeds_identical_results(self, qb_seq):
        noise = NoiseModel(mirror_phase_rms_rad=0.1, detection_snr=50.0)
        ens = EnsembleSpec(samples=8, sigma_q_hk=0.42, seed=3)
        a, b = (scan_fringe(RB, ens, qb_seq, noise, [0.0], master_seed=9,
                            shot_index_offset=4) for _ in range(2))
        assert np.array_equal(a.normalized, b.normalized)
        for port, values in a.port_populations.items():
            assert np.array_equal(b.port_populations[port], values)

    def test_different_shots_differ(self, qb_seq):
        noise = NoiseModel(mirror_phase_rms_rad=0.1, detection_snr=50.0)
        a, b = (scan_fringe(RB, PLANE, qb_seq, noise, [0.0], master_seed=9,
                            shot_index_offset=i) for i in (0, 1))
        assert a.normalized[0] != b.normalized[0]

    def test_ensemble_draw_deterministic(self):
        ens = EnsembleSpec(samples=32, sigma_q_hk=0.42, seed=5)
        np.testing.assert_array_equal(ens.draw(), ens.draw())

    def test_ensemble_draw_in_hk(self):
        ens = EnsembleSpec(samples=8, sigma_q_hk=0.42)
        draws = ens.draw()
        assert len(draws) == 8 and np.all(np.abs(draws) <= 1.0)
        np.testing.assert_array_equal(draws, ens.draw())


class TestStreamAddressing:
    def test_one_shot_alone_matches_its_scan_point(self, qb_seq, monkeypatch):
        # shot 5 reads row 5 of each stream, alone or in a batch of 16
        noise = NoiseModel(mirror_phase_rms_rad=0.1, detection_snr=50.0)
        ens = EnsembleSpec(samples=4, sigma_q_hk=0.42, seed=3)
        grid = np.linspace(0.0, 4 * math.pi, 16, endpoint=False)
        drawn = []
        sample = sequence.sample_mirror_phases

        def recorded(*args):
            drawn.append(sample(*args))
            return drawn[-1]

        monkeypatch.setattr(sequence, "sample_mirror_phases", recorded)
        scan = scan_fringe(RB, ens, qb_seq, noise, grid, master_seed=9)
        alone = scan_fringe(RB, ens, qb_seq, noise, grid[5:6], master_seed=9,
                            shot_index_offset=5)
        # the last draw is the lone shot's row, after rows 0-4 were skipped
        np.testing.assert_array_equal(drawn[-1][0], drawn[0][5])
        for port in (0, 2):
            assert alone.port_populations[port][0] == pytest.approx(
                scan.port_populations[port][5], abs=1e-12)

    def test_negative_shot_index_rejected(self, qb_seq):
        noise = NoiseModel(mirror_phase_rms_rad=0.1, detection_snr=50.0)
        with pytest.raises(ValueError, match="^shot_index must be >= 0, got -1"):
            scan_fringe(RB, PLANE, qb_seq, noise, [0.0], shot_index_offset=-1)

    def test_generator_builds_do_not_grow_with_shots(self, lowfringe_seq,
                                                     monkeypatch):
        builds = []
        build = sequence.shot_rng

        def counted(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(sequence, "shot_rng", counted)
        noise = NoiseModel(mirror_phase_rms_rad=0.3, detection_snr=50.0)
        counts = []
        for n_shots in (200, 2000):
            builds.clear()
            run_gravity_series(RB, PLANE, lowfringe_seq, demo_m2(),
                               noise, n_shots=n_shots, shot_period=1.0)
            counts.append(len(builds))
        assert counts[0] == counts[1] <= 5

    def test_one_draw_per_stream_however_many_operating_points(
            self, lowfringe_seq, monkeypatch):
        # a run draws its ensemble and each noise stream once, whether it
        # scans 8 or 16 interrogation times, 4 or 8 sweep-rate offsets, or
        # runs two gradiometer clouds (one mirror stream for both)
        builds, draws = [], []
        build, draw = sequence.shot_rng, EnsembleSpec.draw
        monkeypatch.setattr(sequence, "shot_rng",
                            lambda *args: builds.append(args[1]) or build(*args))
        monkeypatch.setattr(EnsembleSpec, "draw",
                            lambda self: draws.append(self) or draw(self))
        noise = NoiseModel(mirror_phase_rms_rad=0.3, detection_snr=50.0)
        ens = EnsembleSpec(samples=2, sigma_q_hk=0.42, seed=3)
        t0, step = lowfringe_seq.interrogation_time, revival_period(RB) / 8

        def counted(run, *args):
            builds.clear()
            draws.clear()
            run(*args)
            return dict(Counter(builds)), len(draws)

        once = {STREAM_QUASIMOMENTUM: 1, STREAM_MIRROR: 1, STREAM_DETECTION: 1}
        for n in (8, 16):
            assert counted(scan_contrast_vs_T, RB, ens, lowfringe_seq,
                           t0 + step * np.arange(n), noise) == (once, 1)
        for n in (4, 8):
            assert counted(sequence.scan_sweep_rate, RB, ens, lowfringe_seq,
                           noise, np.linspace(-1e3, 1e3, n)) == (once, 1)
        assert counted(run_gradiometer, RB, GradiometerSpec(), ens, lowfringe_seq,
                       noise, GRID[:4]) == (
            {**once, STREAM_DETECTION_UPPER: 1}, 1)

    def test_skipped_rows_are_the_rows_of_the_earlier_shots(self, monkeypatch):
        # a stream opened at shot i reads what a stream opened at shot 0
        # reads at row i; the rows before it are drawn in chunks of at most
        # _SERIES_CHUNK, here 3, so shots 4 and 7 sit past chunk seams
        monkeypatch.setattr(sequence, "_SERIES_CHUNK", 3)
        sizes = []
        sample = sequence.sample_mirror_phases
        monkeypatch.setattr(sequence, "sample_mirror_phases",
                            lambda *args: sizes.append(args[2]) or sample(*args))
        noise = NoiseModel(mirror_phase_rms_rad=0.1, detection_snr=50.0)
        clean = np.tile([0.3, 0.4], (10, 1))

        def read(first, n):
            mirror = sequence.sample_mirror_phases(
                noise, sequence._stream(noise, 4, STREAM_MIRROR, first), n)
            detected = sequence._detect(
                clean[:n], noise, sequence._stream(noise, 4, STREAM_DETECTION, first))
            return mirror, *detected

        rows = read(0, 10)
        for i, skipped in ((0, []), (4, [3, 1]), (7, [3, 3, 1])):
            sizes.clear()
            for alone, row in zip(read(i, 1), rows):
                np.testing.assert_array_equal(alone[0], row[i])
            assert sizes == skipped + [1], i


def _hex(values):
    return [float(v).hex() for v in values]


def _fixed_sequence(order, interrogation_time, sigma, bs_hex, pi_hex):
    """The calibrated sequence with its amplitudes written out, so that a
    change to the calibrator cannot move the pinned streams."""
    return MZISequence(order, interrogation_time, sigma, float.fromhex(bs_hex),
                       float.fromhex(pi_hex))


class TestPinnedShotStreams:
    """Exact per-shot values of noisy runs: any change to the RNG streams,
    their order of use or the shot arithmetic shows up here bit for bit."""

    # lowfringe_seq and qb_seq with their calibrated pi/2 and pi amplitudes
    LOWFRINGE = _fixed_sequence(1, 1e-3, 15e-6,
                                "0x1.4a925a3f21ad7p+15", "0x1.530a1a22735bep+16")
    QB = _fixed_sequence(2, 2e-3, 5e-6,
                         "0x1.134f3ecf2fbe9p+18", "0x1.2a04753f5af56p+19")

    def test_gravity_series_stream(self):
        series = run_gravity_series(
            RB, PLANE, self.LOWFRINGE, demo_m2(),
            NoiseModel(mirror_phase_rms_rad=0.3, detection_snr=50.0),
            n_shots=8, shot_period=1.0, master_seed=1)
        assert _hex(series.normalized_population) == [
            "0x1.035855bb248f8p-4", "0x1.52d4a59239650p-2",
            "0x1.6d3dfffeb994bp-1", "0x1.8379e85a734a6p-2",
            "0x1.6738c85bda694p-2", "0x1.e7511f312b010p-2",
            "0x1.e10dc5c458500p-1", "0x1.407fec5175f23p-2"]

    def test_fringe_scan_stream(self):
        ens = EnsembleSpec(samples=4, sigma_q_hk=0.42, seed=2)
        grid = np.linspace(0.0, 4 * math.pi, 16, endpoint=False)
        scan = scan_fringe(RB, ens, self.QB,
                           NoiseModel(mirror_phase_rms_rad=0.05, detection_snr=50.0),
                           grid, master_seed=3, shot_index_offset=100)
        assert _hex(scan.port_populations[0]) == [
            "0x1.ecc75be22d491p-2", "0x1.124794023ae21p-3",
            "0x1.a45792ecc23f1p-3", "0x1.d80834ea98c09p-4",
            "0x0.0p+0", "0x1.f0198c09da244p-4",
            "0x1.1fb1c608f86f5p-5", "0x1.dd2f1ed848b57p-3",
            "0x1.fa92b8cbb1f00p-2", "0x1.41be47e17db1dp-3",
            "0x1.9e25657e80428p-3", "0x1.328202cbc9d24p-3",
            "0x0.0p+0", "0x1.dd1509194afa2p-4",
            "0x1.1305df9d84f4bp-5", "0x1.e20e07a72afdep-3"]
        assert _hex(scan.port_populations[2]) == [
            "0x1.5f7e145598f21p-3", "0x1.52428ad4b20fbp-3",
            "0x1.4796a82d4264fp-4", "0x1.59a2811088390p-2",
            "0x1.1d03036d405a0p-2", "0x1.79f26ec633ebfp-5",
            "0x1.093a975a8a546p-3", "0x1.cd91a500095a6p-6",
            "0x1.14a2099c7b4d8p-4", "0x1.acda9e646a4f7p-3",
            "0x1.fb001d3e05be5p-5", "0x1.3c92cfa9f5456p-2",
            "0x1.4b3f7285d6d9bp-2", "0x1.6cd3d9b26823ap-4",
            "0x1.70ecbaaacae3ap-3", "0x1.5066ab5712626p-4"]
        assert _hex(scan.normalized) == [
            "0x1.7966ee287389ap-1", "0x1.ca85681bb266dp-2",
            "0x1.706ede1827a79p-1", "0x1.04a1d2def0226p-2",
            "0x0.0p+0", "0x1.72c48c3a6cb7dp-1",
            "0x1.b4e49989f6870p-3", "0x1.c8c59bd7aeec4p-1",
            "0x1.c27f50c510815p-1", "0x1.b6eff1be1eccfp-2",
            "0x1.88056fa61a026p-1", "0x1.4e05447d13760p-2",
            "0x0.0p+0", "0x1.22222229974c5p-1",
            "0x1.41b9040e52413p-3", "0x1.7b8fcfb964ea8p-1"]


class TestBoundedChunks:
    """A run evolves its ensemble in chunks of samples and shots, so no
    array grows with either beyond a chunk; small chunk constants make
    several chunks cheap here."""

    QB = TestPinnedShotStreams.QB

    def pops(self, samples):
        q = EnsembleSpec(samples=samples, sigma_q_hk=0.42, seed=5).draw()
        engine = sequence._ShotEngine(RB, self.QB, EvolutionConfig())
        ports, normalized = sequence._shots([engine], q, GRID, QUIET, 0)
        return np.column_stack([*ports.values(), normalized])

    def test_shot_populations_do_not_depend_on_the_shot_chunk(self, monkeypatch):
        expected = self.pops(8)
        for chunk in (1, 5, 24, 100):
            monkeypatch.setattr(sequence, "_SHOT_CHUNK", chunk)
            assert np.array_equal(self.pops(8), expected), chunk

    def test_sample_chunks_agree_with_one_chunk(self, monkeypatch):
        # three chunks of 100 on the node path, each above 49 samples
        one = self.pops(300)
        monkeypatch.setattr(sequence, "_SAMPLE_CHUNK", 100)
        np.testing.assert_allclose(self.pops(300), one, rtol=1e-14, atol=0)

    def test_one_node_solve_per_distinct_pulse(self, monkeypatch):
        # the pi/2 pulses share one propagator at zero offset: two distinct
        # pulses, each one 25-node half solve however many chunks there are,
        # and one propagator call per distinct pulse and chunk
        columns, calls = [], []
        real_evolve, real_propagator = ladder._evolve, sequence.pulse_propagator
        monkeypatch.setattr(ladder, "_evolve", lambda kin, *a, **k: columns.append(
            kin.shape[0]) or real_evolve(kin, *a, **k))
        monkeypatch.setattr(sequence, "pulse_propagator", lambda *a: calls.append(
            len(a[3])) or real_propagator(*a))
        for chunk, sizes in ((1024, [300] * 2), (100, [100] * 6)):
            monkeypatch.setattr(sequence, "_SAMPLE_CHUNK", chunk)
            ladder._node_series.cache_clear()
            columns.clear(), calls.clear()
            self.pops(300)
            assert columns == [25, 25] and calls == sizes, chunk

    def test_peak_memory_does_not_grow_with_the_ensemble(self, monkeypatch):
        monkeypatch.setattr(sequence, "_SAMPLE_CHUNK", 250)
        self.pops(250)   # the node solves, memoised for both runs below
        peaks = []
        for samples in (1000, 3000):
            tracemalloc.start()
            self.pops(samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.3 * peaks[0], peaks


class TestContrastVsT:
    def test_step_validation(self, qb_seq):
        times = 0.8e-3 + np.arange(3) * revival_period(RB)  # far too coarse
        with pytest.raises(ValueError):
            scan_contrast_vs_T(RB, PLANE, qb_seq, times, QUIET)

    def test_plane_wave_contrast_nearly_T_independent(self):
        # holds for clean (15 us) pulses where the plane-wave interferometer
        # is effectively two-path; in deep quasi-Bragg even a plane wave
        # shows coherent multi-path beating vs T
        seq = prepare_sequence(RB, order=2, interrogation_time=0.8e-3,
                               pulse_sigma=15e-6)
        dT = revival_period(RB)
        times = 0.8e-3 + np.arange(0, 1.05 * dT, dT / 10)
        plane_curve = scan_contrast_vs_T(RB, PLANE, seq, times, QUIET)
        ens = EnsembleSpec(samples=24, sigma_q_hk=0.42, seed=7)
        ens_curve = scan_contrast_vs_T(RB, ens, seq, times, QUIET)
        spread = lambda curve: max(c for _, c in curve) - min(c for _, c in curve)
        assert spread(plane_curve) < 0.5 * spread(ens_curve)
        assert min(c for _, c in plane_curve) > 0.9


class TestGradiometer:
    def test_zero_gradient_no_noise_identical_fringes(self):
        seq = prepare_sequence(RB, order=3, interrogation_time=2e-3,
                               pulse_sigma=15e-6)
        gspec = GradiometerSpec(lower_momentum_hk=8, upper_momentum_hk=2,
                                gradient_per_s2=0.0)
        ens = EnsembleSpec(samples=8, sigma_q_hk=0.42, seed=11)
        grid = np.linspace(0, 4 * math.pi, 16, endpoint=False)
        res = run_gradiometer(RB, gspec, ens, seq, QUIET, grid)
        np.testing.assert_allclose(res.lower.normalized, res.upper.normalized,
                                   atol=1e-9)

    def test_overlapping_resonances_rejected(self):
        seq = prepare_sequence(RB, order=1, interrogation_time=2e-3,
                               pulse_sigma=15e-6)
        gspec = GradiometerSpec(lower_momentum_hk=4, upper_momentum_hk=2)
        with pytest.raises(ValueError, match=r"separation\*sigma = 2.84 < 4"):
            run_gradiometer(RB, gspec, PLANE, seq, QUIET, GRID)

    def test_paper_scale_baseline(self):
        gspec = GradiometerSpec(lower_momentum_hk=80, upper_momentum_hk=74,
                                bvs_separation_s=50e-3)
        assert gspec.baseline(RB) == pytest.approx(2.4e-2, rel=0.03)

    @pytest.mark.parametrize("gradient, calls", [(0.0, 2), (3e-6, 6)])
    def test_clouds_share_equal_pulses(self, gradient, calls, monkeypatch):
        # at zero gradient both clouds fire the same two distinct pulses and
        # share their propagators; otherwise each cloud has its own three.
        # Either way each cloud reads what it reads run on its own
        seq = prepare_sequence(RB, order=3, interrogation_time=2e-3,
                               pulse_sigma=15e-6)
        gspec = GradiometerSpec(lower_momentum_hk=8, upper_momentum_hk=2,
                                gradient_per_s2=gradient)
        ens = EnsembleSpec(samples=8, sigma_q_hk=0.42, seed=11)
        noise = NoiseModel(mirror_phase_rms_rad=0.05, detection_snr=50.0)
        grid = GRID[:8]
        built = []
        propagator = sequence.pulse_propagator
        monkeypatch.setattr(sequence, "pulse_propagator",
                            lambda *args: built.append(args[1]) or propagator(*args))
        res = run_gradiometer(RB, gspec, ens, seq, noise, grid, master_seed=13)
        assert len(built) == calls
        monkeypatch.undo()
        offset = (BeamGeometry.vertical(RB).k_eff * gradient * gspec.baseline(RB)
                  / (4 * math.pi))
        for scan, sign, stream in ((res.lower, -1, STREAM_DETECTION),
                                   (res.upper, 1, STREAM_DETECTION_UPPER)):
            ports, normalized = sequence._shots(
                [_engine(seq, sign * offset)], ens.draw(), grid, noise, 13, 0, (stream,))
            assert np.array_equal(scan.normalized, normalized)
            for port, values in ports.items():
                assert np.array_equal(scan.port_populations[port], values)

    def test_common_mode_correlation(self):
        seq = prepare_sequence(RB, order=3, interrogation_time=2e-3,
                               pulse_sigma=15e-6)
        gspec = GradiometerSpec(lower_momentum_hk=8, upper_momentum_hk=2)
        ens = EnsembleSpec(samples=8, sigma_q_hk=0.42, seed=11)
        noise = NoiseModel(mirror_phase_rms_rad=0.05, detection_snr=50.0)
        grid = np.linspace(0, 4 * math.pi, 96, endpoint=False)
        res = run_gradiometer(RB, gspec, ens, seq, noise, grid, master_seed=13)
        fit_lo = fit_harmonics(res.lower, 3)
        fit_up = fit_harmonics(res.upper, 3)
        d_lo, m_lo = extract_shot_phases(res.lower, fit_lo)
        d_up, m_up = extract_shot_phases(res.upper, fit_up)
        keep = m_lo & m_up
        assert keep.sum() >= 40
        r = np.corrcoef(d_lo[keep], d_up[keep])[0, 1]
        assert r > 0.9


class TestGravitySeries:
    def test_constant_gravity_recovered_exactly(self):
        seq = prepare_sequence(RB, order=2, interrogation_time=20e-3,
                               pulse_sigma=15e-6)
        tide = TideModel(mean_gravity=9.81)
        series = run_gravity_series(RB, PLANE, seq, tide, QUIET,
                                    n_shots=16, shot_period=1.0)
        np.testing.assert_allclose(series.mean_gravity + series.recovered_shift, 9.81,
                                   atol=1e-10)

    def test_small_offset_tracked_with_sign(self):
        seq = prepare_sequence(RB, order=2, interrogation_time=20e-3,
                               pulse_sigma=15e-6)
        dg = 5e-7
        tide = TideModel(mean_gravity=9.81,
                         components=(TideComponent(dg, 1e-9, 0.0),))
        series = run_gravity_series(RB, PLANE, seq, tide, QUIET,
                                    n_shots=8, shot_period=1.0)
        # omega ~ 0: constant +dg offset must be recovered with its sign
        np.testing.assert_allclose(series.mean_gravity + series.recovered_shift - 9.81, dg,
                                   rtol=1e-3)

    @pytest.mark.parametrize("snr, expected", [(50.0, 13), (5.0, 77)])
    def test_saturated_shots_are_the_clamped_readings(self, lowfringe_seq,
                                                      snr, expected):
        series = run_gravity_series(
            RB, PLANE, lowfringe_seq, demo_m2(),
            NoiseModel(mirror_phase_rms_rad=0.3, detection_snr=snr),
            n_shots=500, shot_period=1.0, master_seed=1)
        # the inversion maps every reading beyond an end of the monotonic
        # segment onto that end, so the readings outside the segment are
        # the ones sharing the lowest or the highest recovered value
        rec = series.mean_gravity + series.recovered_shift
        ends = [np.count_nonzero(rec == rec.min()),
                np.count_nonzero(rec == rec.max())]
        assert min(ends) > 1  # both ends saturate, so the count is exact
        assert series.saturated_shots == sum(ends) == expected

    def test_quiet_run_has_no_saturated_shots(self, lowfringe_seq):
        series = run_gravity_series(RB, PLANE, lowfringe_seq,
                                    demo_m2(), QUIET,
                                    n_shots=500, shot_period=1.0, master_seed=1)
        assert series.saturated_shots == 0


class TestSeriesChunks:
    """A gravity series walks its shots in chunks of _SERIES_CHUNK; only the
    four per-shot output columns grow with the shot count."""

    LOWFRINGE = TestPinnedShotStreams.LOWFRINGE
    # SNR 5 with 0.3 rad of mirror noise: 77 of 500 readings saturate
    NOISE = NoiseModel(mirror_phase_rms_rad=0.3, detection_snr=5.0,
                       tilt_drift_rad_per_hour=1e-3)

    def series(self, n_shots):
        return run_gravity_series(RB, PLANE, self.LOWFRINGE, demo_m2(),
                                  self.NOISE, n_shots=n_shots, shot_period=1.0,
                                  master_seed=1)

    @pytest.mark.parametrize("chunk", [1, 7, 500, 501])
    def test_series_does_not_depend_on_the_chunk(self, chunk, monkeypatch):
        expected = self.series(500)
        monkeypatch.setattr(sequence, "_SERIES_CHUNK", chunk)
        series = self.series(500)
        for name in ("times", "true_gravity", "normalized_population",
                     "recovered_shift"):
            assert np.array_equal(getattr(series, name), getattr(expected, name)), name
        assert (series.bias_phase, series.saturated_shots) == (
            expected.bias_phase, expected.saturated_shots)

    def test_saturated_shots_counted_across_seams(self, monkeypatch):
        # every reading beyond an end of the inversion segment is recovered
        # as that end, so the saturated readings are those sharing the
        # lowest or the highest recovered value, wherever a seam falls
        monkeypatch.setattr(sequence, "_SERIES_CHUNK", 7)
        series = self.series(500)
        rec = series.recovered_shift
        ends = [np.count_nonzero(rec == rec.min()), np.count_nonzero(rec == rec.max())]
        assert min(ends) > 1
        assert series.saturated_shots == sum(ends)

    def test_peak_memory_grows_only_by_the_output_columns(self, monkeypatch):
        # one chunk for the whole run would grow by about 10 MB here
        monkeypatch.setattr(sequence, "_SERIES_CHUNK", 1024)
        self.series(64)   # first calls and imports outside the traced runs
        peaks = []
        for n_shots in (25000, 100000):
            tracemalloc.start()
            self.series(n_shots)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        columns = 4 * 8 * (100000 - 25000)   # four float64 columns a shot
        assert peaks[1] - peaks[0] <= 1.3 * columns, peaks


class TestShotChecks:
    def test_populations_summing_past_one_are_rejected(self, monkeypatch):
        # propagators scaled by 1 + 1e-6 lift a shot's population sum by
        # about 6e-6, which a looser bound than 1 + 1e-9 would let through
        real = sequence.pulse_propagator
        monkeypatch.setattr(sequence, "pulse_propagator",
                            lambda *args: real(*args) * (1.0 + 1e-6))
        with pytest.raises(ValueError, match=r"sum <= 1 \+ 1e-9"):
            scan_fringe(RB, PLANE, TestPinnedShotStreams.QB, QUIET, [0.0])

    def test_a_shot_detecting_no_atoms_reads_one_half(self):
        rng = sequence._stream(QUIET, 0, STREAM_DETECTION)
        measured, normalized = sequence._detect(np.zeros((2, 2)), QUIET, rng)
        assert measured.tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert normalized.tolist() == [0.5, 0.5]


class TestSpecValidation:
    def test_interrogation_time_must_exceed_pulses(self):
        # 200 us pulses: half of two 1.2 ms windows exceeds T = 1 ms
        with pytest.raises(ValueError, match="half pulse windows"):
            MZISequence(order=1, interrogation_time=1e-3, pulse_sigma=200e-6,
                        beamsplitter_rabi=1e4, mirror_rabi=2e4)

    @pytest.mark.parametrize("field, value", [
        ("order", math.nan),
        ("interrogation_time", math.nan), ("interrogation_time", math.inf),
        ("pulse_sigma", math.nan), ("pulse_sigma", -5e-6),
        ("beamsplitter_rabi", math.nan), ("beamsplitter_rabi", math.inf),
        ("mirror_rabi", math.nan), ("mirror_rabi", math.inf),
    ], ids=["order-nan", "interrogation_time-nan", "interrogation_time-inf",
            "pulse_sigma-nan", "pulse_sigma-negative", "beamsplitter_rabi-nan",
            "beamsplitter_rabi-inf", "mirror_rabi-nan", "mirror_rabi-inf"])
    def test_mzi_sequence_rejects_non_finite(self, field, value):
        kwargs = {"order": 1, "interrogation_time": 1e-3, "pulse_sigma": 5e-6,
                  "beamsplitter_rabi": 1e5, "mirror_rabi": 2e5, field: value}
        with pytest.raises(ValueError, match=field):
            MZISequence(**kwargs)

    @pytest.mark.parametrize("run, rate", [
        (scan_fringe, math.nan), (scan_fringe, math.inf),
        (run_shot, math.nan), (run_shot, math.inf),
    ], ids=["scan_fringe-nan", "scan_fringe-inf", "run_shot-nan", "run_shot-inf"])
    def test_sweep_rate_offset_rejects_non_finite(self, run, rate, monkeypatch):
        # checked before the ensemble draw and any pulse solve
        solves = []
        monkeypatch.setattr(sequence, "pulse_propagator",
                            lambda *a: solves.append(a))
        args = [[0.0]] if run is scan_fringe else []
        with pytest.raises(ValueError, match="sweep_rate_offset must be finite"):
            run(RB, PLANE, TestPinnedShotStreams.QB, QUIET, *args,
                sweep_rate_offset=rate)
        assert solves == []

    def test_ensemble_validation(self):
        with pytest.raises(ValueError):
            EnsembleSpec(samples=0)
        with pytest.raises(ValueError):
            EnsembleSpec(sigma_q_hk=-0.1)
        with pytest.raises(ValueError, match=r"sigma_q_hk must lie in \[0, 10\]"):
            EnsembleSpec(sigma_q_hk=10.5)
        assert len(EnsembleSpec(samples=8, sigma_q_hk=10.0).draw()) == 8

    @pytest.mark.parametrize("kwargs, field", [
        ({"samples": math.nan}, "samples"),
        ({"sigma_q_hk": math.nan}, "sigma_q_hk"),
        ({"sigma_q_hk": math.inf}, "sigma_q_hk"),
    ], ids=["samples-nan", "sigma_q-nan", "sigma_q-inf"])
    def test_ensemble_rejects_non_finite(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            EnsembleSpec(**kwargs)

    def test_gradiometer_spec_validation(self):
        with pytest.raises(ValueError):
            GradiometerSpec(lower_momentum_hk=8, upper_momentum_hk=5)
        with pytest.raises(ValueError):
            GradiometerSpec(lower_momentum_hk=8, upper_momentum_hk=8)

    @pytest.mark.parametrize("field, value", [
        ("bvs_separation_s", math.nan), ("bvs_separation_s", math.inf),
    ], ids=["bvs_separation-nan", "bvs_separation-inf"])
    def test_gradiometer_spec_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            GradiometerSpec(**{field: value})
