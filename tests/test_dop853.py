"""The in-package DOP853 against scipy's, step for step, on real kernel stages.

Every solve of ``ladder._evolve`` is run twice, by ``braggsim.dop853`` and by
``scipy.integrate.solve_ivp(method="DOP853")`` on the real view of the same
right-hand side, and the two must agree exactly: the same final state bits,
the same accepted times and the same number of right-hand side evaluations.
scipy's ``fun(t, y)`` makes a one-time coefficient pass at t, while ours makes
one pass per step over all its stage times, so the agreement also shows that
the batched pass gives the one-time values bit for bit. scipy's error norms
are BLAS dots, whose sums change with the BLAS thread count; ours are not, so
scipy runs here with ``np.linalg.norm`` set to the sum ours takes.
"""

import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from braggsim import dop853, ladder
from braggsim.bloch import LatticeRamp, selection_profile
from braggsim.ladder import PulseSpec, calibrate_pulse_amplitude, drive, plane_wave_state
from braggsim.physics import AtomSpecies, bragg_resonance

RB = AtomSpecies.rubidium87()
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def thread_free_norm(monkeypatch):
    """scipy's norms, taken as ``braggsim.dop853`` takes them."""
    monkeypatch.setattr(np.linalg, "norm", lambda x: math.sqrt(np.einsum("i,i->", x, x)))


@pytest.fixture
def pairs(monkeypatch):
    """[scipy's solution, ours] per solve; ours stays None if it raised."""
    out = []

    def both(coefficients, bind, t_span, y0, rtol, atol, max_step):
        shape = np.shape(y0)

        def fun(t, y):   # the same right-hand side, bound afresh at each call
            f = np.empty(shape, dtype=complex)
            bind(y.view(complex).reshape(shape), f)(coefficients(np.array([t]))[0])
            return f.reshape(-1).view(float)

        flat = np.array(y0, dtype=complex).reshape(-1).view(float)
        ref = scipy_solve_ivp(fun, t_span, flat, method="DOP853", rtol=rtol, atol=atol,
                              max_step=max_step)
        out.append([ref, None])
        out[-1][1] = dop853.solve_ivp(coefficients, bind, t_span, y0, rtol, atol, max_step)
        return out[-1][1]

    monkeypatch.setattr(ladder, "solve_ivp", both)
    return out


def assert_identical(pairs, solves):
    assert len(pairs) == solves
    for ref, ours in pairs:
        assert ref.success
        assert np.array_equal(ours.y.reshape(-1).view(float), ref.y[:, -1])
        assert ours.t == ref.t.tolist() and ours.nfev == ref.nfev


def work(pairs):
    """(solves, steps, right-hand side evaluations): a change to the kernel or
    to how many solves a task takes shows in these counts, pinned below."""
    return (len(pairs), sum(len(ours.t) - 1 for _, ours in pairs),
            sum(ours.nfev for _, ours in pairs))


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("sigma", [5e-6, 15e-6, 30e-6])
def test_bragg_pulses(pairs, order, sigma):
    for chirp in (0.0, 2e3, -2e3):
        pulse = PulseSpec(rabi_peak=order * math.pi / (sigma * math.sqrt(2 * math.pi)),
                          sigma=sigma, detuning=bragg_resonance(order, RB),
                          laser_phase=0.7, chirp=chirp)
        ladder.pulse_propagator(RB, pulse, (-order - 6, order + 6))
    # one half solve for the unchirped pulse, two (at +-chirp) for each chirped one
    assert_identical(pairs, 5)


def test_calibration_batch_with_per_row_coupling(pairs):
    # the seeded sweep batch, the lobe proxy and the pi/2 check
    ladder._first_lobe.cache_clear()   # a warm memo would skip the solves
    calibrate_pulse_amplitude(RB, 0.5, 2, 30e-6)
    assert [ours.y.shape for _, ours in pairs] == [(b, 17, 1) for b in (9, 33, 1)]
    assert_identical(pairs, 3)
    assert work(pairs) == (3, 345, 4242)


def test_propagator_stack_on_quasimomentum_nodes(pairs):
    pulse = PulseSpec(rabi_peak=3e5, sigma=5e-6, detuning=bragg_resonance(2, RB))
    ladder._node_series.cache_clear()   # a warm memo would skip the solves
    ladder.pulse_propagator(RB, pulse, (-8, 8), np.linspace(-0.9, 0.9, 64))
    assert pairs[0][1].y.shape == (25, 17, 17)
    assert_identical(pairs, 1)
    assert work(pairs) == (1, 50, 614)


def test_bloch_stages(pairs):
    selection_profile(RB, LatticeRamp(), np.linspace(-2.0, 2.0, 5))
    assert_identical(pairs, 3)
    assert work(pairs) == (3, 2873, 34542)


def test_nan_coupling_fails_in_both(pairs):
    # NaN past the pulse centre: every step across it is rejected until the
    # step size falls below the float spacing, where scipy gives up too
    dur, coupling, theta = ladder._pulse_stage(PulseSpec(
        rabi_peak=3e5, sigma=5e-6, detuning=bragg_resonance(1, RB)))
    with pytest.raises(RuntimeError, match="fell below"):
        drive([plane_wave_state(RB)],
              [(dur, lambda t: coupling(t) if t < dur / 2 else math.nan, theta)],
              (7, 7))
    [(ref, ours)] = pairs
    assert not ref.success and ours is None


def test_nan_from_the_start_raises():
    # a NaN initial step never falls below the float spacing by comparison,
    # so a test written "h < min_step" would reject steps forever
    with pytest.raises(RuntimeError, match="fell below"):
        dop853.solve_ivp(lambda ts: ts, lambda y, out: lambda c: out.fill(math.nan),
                         (0.0, 1.0), np.ones(4), rtol=1e-11, atol=1e-12, max_step=0.1)


@pytest.mark.parametrize("rtol", [1e-11, 1e-15])
def test_decay_keeps_no_history(rtol):
    # below 100 machine epsilons both raise rtol to that floor, with a warning
    args = ((0.0, 2.0), np.array([1.0, 2.0]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = dop853.solve_ivp(lambda ts: ts,
                               lambda y, out: lambda c: np.negative(y, out=out),
                               *args, rtol=rtol, atol=0.1 * rtol, max_step=0.5)
        ref = scipy_solve_ivp(lambda t, y: -y, *args, method="DOP853", rtol=rtol,
                              atol=0.1 * rtol, max_step=0.5)
    assert len(caught) == (2 if rtol < 1e-13 else 0)
    assert sol.y.shape == (2,) and all(isinstance(t, float) for t in sol.t)
    assert np.array_equal(sol.y, ref.y[:, -1]) and sol.t == ref.t.tolist()
    np.testing.assert_allclose(sol.y, [math.exp(-2.0), 2 * math.exp(-2.0)], rtol=1e-10)


# 25-sample order-2 pi stacks on +-8 sites, unchirped and chirped, written to
# stdout: their states are long enough for a BLAS dot to split across threads
STACK = """
import math, sys
import numpy as np
from braggsim.ladder import PulseSpec, pulse_propagator
from braggsim.physics import AtomSpecies, bragg_resonance
rb, sigma = AtomSpecies.rubidium87(), 15e-6
for chirp in (0.0, 2.5e5):
    pulse = PulseSpec(2 * math.pi / (sigma * math.sqrt(2 * math.pi)), sigma,
                      detuning=bragg_resonance(2, rb), chirp=chirp)
    stack = pulse_propagator(rb, pulse, (-8, 8), np.linspace(-0.5, 0.5, 25))
    sys.stdout.buffer.write(stack.tobytes())
"""


def test_stack_bits_do_not_depend_on_blas_threads():
    def stack_bytes(threads):
        env = {**os.environ, "PYTHONPATH": str(SRC),
               "OMP_NUM_THREADS": str(threads), "OPENBLAS_NUM_THREADS": str(threads)}
        done = subprocess.run([sys.executable, "-c", STACK], capture_output=True,
                              env=env)
        assert done.returncode == 0, done.stderr.decode()
        return done.stdout

    one = stack_bytes(1)
    assert len(one) == 2 * 25 * 17 * 17 * 16
    assert stack_bytes(2) == one
