"""Schroedinger dynamics on the 2*hbar*k momentum ladder.

The atom is expanded over plane waves |p = 2n*hbar*k + q> with integer site
index n and continuous quasimomentum q (|q| <= hbar*k). Momenta and
quasimomenta are in units of hbar*k throughout. In the frame falling
with the cloud and co-chirped with the lattice, a two-frequency pulse of
envelope Omega(t), beam frequency difference delta(t) and laser phase phi
drives

    i db_n/dt = [4 w_r (n + q/2hk)^2 - n delta(t)] b_n
                + (Omega(t)/2) (e^{-i phi} b_{n-1} + e^{+i phi} b_{n+1}),

i.e. a tridiagonal Hamiltonian with kinetic diagonal and nearest-neighbour
coupling Omega/2; each up-step along the ladder imprints e^{-i phi}. The
physical (lattice-phase-free) amplitudes c_n follow from b_n by the diagonal
gauge c_n = b_n e^{-i n theta(t)} with theta = integral of delta.

The kernel. Everything is integrated in the interaction picture
A_n = e^{+i kin_n t} c_n, which removes the fast kinetic phases exactly and
leaves a right-hand side linear in the amplitudes, with one slowly varying
coefficient per ladder bond,
c_n(t) = -i (Omega(t)/2) e^{i (dkin_n t - theta(t))}, that
``dop853.solve_ivp`` resolves in a few hundred steps. A step evaluates Omega
and theta at its 12 stage times as Python scalars and builds all 12
coefficient arrays in one vectorised pass, the per-state amplitude
multiplied in once per step; each stage is then two multiplies and one add,
in place. One kernel, ``_evolve``, evolves columns of amplitudes: a state is
a one-column propagator, and a propagator (or a stack over quasimomenta) is
the evolved identity. Its whole input is a stage, the triple
(duration, coupling Omega(t)/2, theta(t)) of scalar functions of t, and a
per-state amplitude that scales the coupling; a zero coupling integrates to
free flight. phi couples only through e^{-i (theta + phi)}, so a laser phase
is a constant inside theta, and U(phi) = D U(0) D* with
D = diag(e^{-i n phi}). One step rule serves every stage: no step is longer
than a twelfth of the stage, sigma/2 for a 6 sigma pulse, and a half pulse
keeps its pulse's sigma/2, so that steps grown on a weak envelope tail
cannot stride over the peak. Each solve takes a tenth of the config's
``error_tolerance`` as its relative and a hundredth as its absolute
tolerance.

The driver. ``drive`` evolves a batch of states, one solve per stage: it
checks their norms, grows each window (never shrinking it), pads the
windows to the widest and checks every state's edge leakage against
LEAK_BOUND (``check_leakage``). One rule, applied only here, sizes every
window (``stage_window``): the occupied sites, the sites a stage moves
population to beyond them (its reach), and ``guard_sites`` on each side. A
lone pulse, at any amplitude, reaches the order nearest its detuning both
ways; a shot's pulses reach no site past the 0 and n its clouds occupy.

Pulse propagators. A propagator is built at laser phase zero from its first
half. In the lattice frame b = G* c, G(t) = diag(e^{-i n theta(t)}), the
Hamiltonian K - n delta(t) + (Omega(t)/2)(R + R^dagger) is real, and time
reversal about the pulse centre t_c = 3 sigma maps chirp r to -r. So with
U_b1(r) = G(t_c)* U_c1(r) G(0), U_c1 one solve over [0, t_c], the pulse is
U = G(6 sigma) U_b1(-r)^T U_b1(r) G(0)*: one half solve for an unchirped
pulse and two, at r and -r, for a chirped one, which costs what one
whole-pulse solve did. The product is an einsum, not a BLAS matmul, so its
bytes do not depend on the BLAS thread count.

Quasimomentum stacks. A pulse sees the ensemble only through q, and once
its own free flight e^{-i kin(q) dur/2} is taken off each side the
propagator is an entire function of q. So a stack over more than 49
quasimomenta costs one half solve (two if chirped) on 25 Chebyshev-Lobatto
nodes of q in [-1, 1]; if the series fails the tail rule below, only the
24 nodes between are solved and the 49-node series is tried, and if that
fails too the stack is built one column per q, as a smaller stack is. The
accepted series is memoised per pulse (``_node_series``, 128 pulses), so
every chunk of an ensemble shares one node solve, and is evaluated at each
drawn q with the exact free flight put back.

Calibration. Amplitudes are calibrated on the first Rabi lobe of a plane
wave at q = 0, in batches of probed peak Rabi frequencies Omega_0: a batch
is one ``drive`` of copies of the plane wave through the unit-amplitude
pulse, copy b at the b-th amplitude. A 1.25x sweep finds the lobe. It
starts near half the deep-Bragg pi amplitude of adiabatic elimination
(Mueller, Chiow & Chu, PRA 77, 023609 (2008)), Omega_0^n = sqrt(n) w_pi
(8 w_r)^(n-1) ((n-1)!)^2 with w_pi = pi / (sigma sqrt(2 pi)), up to 2.4
times below the lobe's, so one batch of 9 spans about 0.5-3x of it. A
batch that leaks past the lobe is solved again lower half first; if the
sweep finds no lobe, or its first probe already lies on one, the probes
below it are solved too, so that it still covers the grid from its start.
A sweep with no transfer above 0.05 below its ceiling (400 times the
two-level pi amplitude) is a CalibrationError for any target. The transfer
P(Omega_0) is analytic, so one solve on 33 Chebyshev-Lobatto nodes over
[0, 1.25x the best probe] gives its series to roundoff, or the 32 nodes
between are solved and the 65-node series is tried. The series' maximum
near the best probe (``chebder``, ``chebroots``) is the pi pulse; its first
root of P - target below the maximum is the pi/2 pulse, which one more
solve checks to 1e-4. The sweep and the check only decide: a grid point,
a leak against LEAK_BOUND, a root within 1e-4. So they solve at a
hundredth of those bounds, LEAK_BOUND / 100 = 1e-6, or at the config's
tolerance if looser; DOP853 takes about tol^(-1/8) steps, so they take
about a third of the steps they would at 1e-10. The series, whose values
are the amplitudes, solves at the config's tolerance, and its interval is
1.25x a grid point, so the sweep's roundoff moves no amplitude while the
same probe stays best. The sweep and the series are memoised per pulse
width, so the pi search makes no solve of its own and a pi/2 - pi
sequence usually makes 3 solves.

Both Chebyshev series, the propagator's and the lobe's, come from one
DCT-I, one tail rule (accepted when the last quarter of the coefficients is
at most the tolerance) and one node-doubling rule, which solves only the
n - 1 nodes between the n it has and keeps every value it has
(``_chebyshev_series``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import replace
from typing import Annotated

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .bounds import Finite, NonNegative, Positive, Range, bounded, check
from .dop853 import solve_ivp
from .physics import AtomSpecies, bragg_resonance


class TruncationLeakError(RuntimeError):
    """Norm leaked into the outermost ladder sites beyond the allowed bound."""

    def __init__(self, leakage: float, bound: float):
        self.leakage = leakage
        self.bound = bound
        super().__init__(
            f"truncation leakage {leakage:.3e} exceeds bound {bound:.1e}; "
            "enlarge the ladder window"
        )


class CalibrationError(RuntimeError):
    """Pulse-amplitude calibration failed to bracket the requested transfer."""

    def __init__(self, message: str, sweep: list[tuple[float, float]]):
        self.sweep = sweep
        lines = ", ".join(f"({o:.4g}, {p:.4g})" for o, p in sweep[:12])
        super().__init__(f"{message}; diagnostic sweep (Omega0, transfer): {lines}")


LEAK_BOUND = 1e-4
QUASIMOMENTUM_BAND = Range(-1 - 1e-12, 1 + 1e-12)   # q, in units of hbar*k
TRANSFER_TARGETS = Range(0, 1, open_low=True)   # what a pulse is calibrated to transfer


@bounded
class EvolutionConfig:
    """Integrator knobs, the config's ``evolution`` block."""

    error_tolerance: Annotated[float, Range(0.0, 1e-3, open_low=True)] = 1e-10
    guard_sites: Annotated[int, Range(4)] = 6


DEFAULT_CONFIG = EvolutionConfig()


@bounded
class PulseSpec:
    """Gaussian two-frequency Bragg pulse.

    rabi_peak is the peak two-photon Rabi frequency Omega_0 (rad/s); the
    envelope is Omega_0 exp(-(t-t_c)^2 / 2 sigma^2) over 6 sigma (tails
    clipped at +-3 sigma). ``detuning`` is the beam frequency difference at
    the pulse centre (rad/s), ``bragg_resonance(n, species)`` for order n;
    ``chirp`` (Hz/s) sweeps it linearly across the pulse, and ``laser_phase``
    (rad) is a constant phase of the lattice.
    """

    rabi_peak: Annotated[float, NonNegative]
    sigma: Annotated[float, Positive]
    detuning: Annotated[float, Finite]
    laser_phase: Annotated[float, Finite] = 0.0
    chirp: Annotated[float, Finite] = 0.0

    @property
    def total_duration(self) -> float:
        return 6 * self.sigma


@bounded
class MomentumLadderState:
    """Amplitudes over ladder sites n_min..n_min+len-1.

    Site n is the plane wave with momentum p = 2n*hbar*k + q in the freely
    falling frame; the quasimomentum q is in units of hbar*k.
    """

    species: AtomSpecies
    amplitudes: np.ndarray
    n_min: int
    quasimomentum: Annotated[float, QUASIMOMENTUM_BAND] = 0.0

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", np.asarray(self.amplitudes, dtype=complex))

    @property
    def n_max(self) -> int:
        return self.n_min + len(self.amplitudes) - 1

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    @property
    def norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def population(self, site: int) -> float:
        if site < self.n_min or site > self.n_max:
            return 0.0
        return float(np.abs(self.amplitudes[site - self.n_min]) ** 2)

    def expanded(self, n_min: int, n_max: int) -> "MomentumLadderState":
        """Zero-pad the window to cover [n_min, n_max] (never shrinks)."""
        lo = min(n_min, self.n_min)
        hi = max(n_max, self.n_max)
        if lo == self.n_min and hi == self.n_max:
            return self
        amps = np.zeros(hi - lo + 1, dtype=complex)
        amps[self.n_min - lo:self.n_min - lo + len(self.amplitudes)] = self.amplitudes
        return replace(self, amplitudes=amps, n_min=lo)


def plane_wave_state(
    species: AtomSpecies,
    site: int = 0,
    quasimomentum: float = 0.0,
) -> MomentumLadderState:
    """The plane wave on one ladder site (quasimomentum in units of hbar*k),
    a window of that site alone; ``drive`` grows it to what a stage needs."""
    return MomentumLadderState(species=species, amplitudes=np.ones(1, dtype=complex),
                               n_min=site, quasimomentum=quasimomentum)


def kinetic_frequencies(species: AtomSpecies, sites: np.ndarray,
                        quasimomentum: float | np.ndarray) -> np.ndarray:
    """E_n / hbar = 4 w_r (n + q/2)^2 (rad/s) for q in units of hbar*k,
    shape quasimomentum.shape + (W,)."""
    q = np.asarray(quasimomentum, dtype=float)[..., None]
    return 4.0 * species.recoil_frequency * (sites + q / 2.0) ** 2


# -- the evolution kernel ---------------------------------------------------

def _evolve(kin, columns, duration, coupling, theta, cfg, amplitude=1.0, max_step=None):
    """Schroedinger-picture evolution e^{-i kin duration} A(duration) of the
    amplitude columns ``columns`` (..., W, C), rows ladder sites, through the
    stage ``(duration, coupling, theta)``. ``kin``: kinetic frequencies
    (..., W). ``coupling(t)``: Omega(t)/2 at amplitude 1. ``theta(t)``:
    integral of delta from 0 plus the laser phase; each up-step imprints
    e^{-i theta}. Both map a Python float to one. ``amplitude``: one factor
    or one per batch row (...). ``max_step``: the step cap, a twelfth of
    ``duration`` if None.
    """
    shape = np.broadcast_shapes(kin.shape[:-1], columns.shape[:-2]) + columns.shape[-2:]
    dkin = (kin[..., 1:] - kin[..., :-1])[..., None]   # (..., W-1, 1)
    amp = np.asarray(amplitude, dtype=float)[..., None, None]
    lead = (-1,) + (1,) * dkin.ndim

    @functools.cache
    def bound_pass(n):   # a pass size's buffers and its (c_n, -conj(c_n)) rows
        g, th = np.empty(n), np.empty(n)
        ga = np.empty(np.broadcast_shapes((n,) + (1,) * dkin.ndim, amp.shape))
        phase = np.empty((n,) + dkin.shape)
        c = np.empty(np.broadcast_shapes(ga.shape, phase.shape), dtype=complex)
        # the phase factor goes into c itself unless amp broadcasts it wider
        z = c if c.shape == phase.shape else np.empty(phase.shape, dtype=complex)
        minus_conj = np.empty_like(c)
        return g, th, ga, phase, z, c, minus_conj, list(zip(c, minus_conj))

    def coefficients(ts):
        # coupling, theta as scalars, then one pass, written into the buffers
        # bound to its size at its first use: c = -i g e^{i (dkin t - theta)}
        g, th, ga, phase, z, c, minus_conj, rows = bound_pass(len(ts))
        times = ts.tolist()
        g[:] = [coupling(t) for t in times]
        th[:] = [theta(t) for t in times]
        np.multiply(g.reshape(lead), amp, out=ga)
        np.multiply(dkin, ts.reshape(lead), out=phase)
        np.subtract(phase, th.reshape(lead), out=phase)
        np.multiply(1j, phase, out=z)
        np.exp(z, out=z)
        np.multiply(np.multiply(-1j, ga), z, out=c)
        np.conjugate(c, out=minus_conj)
        np.negative(minus_conj, out=minus_conj)
        return rows

    work = np.empty(shape[:-2] + (shape[-2] - 1, shape[-1]), dtype=complex)

    def bind(A, out):
        # site n gains c_n A_{n-1}; site n-1 gains -conj(c_n) A_n; the views of
        # one pair of stage buffers are taken once per solve
        above, below = A[..., 1:, :], A[..., :-1, :]
        low, high, last = out[..., :-1, :], out[..., 1:, :], out[..., -1, :]

        def rhs(cs):
            c, minus_conj = cs
            last.fill(0.0)
            np.multiply(minus_conj, above, out=low)
            np.multiply(c, below, out=work)
            np.add(high, work, out=high)
        return rhs

    tol = cfg.error_tolerance
    if max_step is None:   # the one step rule
        max_step = duration / 12.0
    sol = solve_ivp(coefficients, bind, (0.0, duration), np.broadcast_to(columns, shape),
                    rtol=0.1 * tol, atol=0.01 * tol, max_step=max_step)
    return np.exp(-1j * kin * duration)[..., None] * sol.y


def _pulse_stage(pulse: PulseSpec):
    """The pulse as a stage ``(duration, coupling, theta)``: envelope
    Omega(t)/2 and lattice phase integral theta(t) plus the laser phase."""
    dur = pulse.total_duration
    tc = dur / 2.0
    delta_c = pulse.detuning
    ramp = 2.0 * math.pi * pulse.chirp  # rad/s^2
    half_omega = 0.5 * pulse.rabi_peak
    inv2s2 = 1.0 / (2.0 * pulse.sigma**2)

    def coupling(t):
        return half_omega * math.exp(-((t - tc) ** 2) * inv2s2)

    def theta(t):
        # integral of delta_c + ramp*(t' - tc) from 0 to t
        return delta_c * t + 0.5 * ramp * ((t - tc) ** 2 - tc**2) + pulse.laser_phase

    return dur, coupling, theta


def check_leakage(populations) -> None:
    """Raise TruncationLeakError, reporting the worst row, if the outermost
    two sites of any row of ``populations`` (..., W) exceed LEAK_BOUND."""
    leak = np.max(np.asarray(populations)[..., [0, -1]].sum(axis=-1))
    if not leak <= LEAK_BOUND:   # NaN fails too
        raise TruncationLeakError(float(leak), LEAK_BOUND)


def stage_window(occupied, reach: tuple[int, int], cfg: EvolutionConfig) -> range:
    """The sites of a stage on the ``occupied`` sites that reaches ``(below,
    above)`` sites beyond them, with ``cfg.guard_sites`` beyond those."""
    g = cfg.guard_sites
    return range(min(occupied) - reach[0] - g, max(occupied) + reach[1] + g + 1)


def drive(states: list[MomentumLadderState], stages, reach: tuple[int, int],
          cfg: EvolutionConfig = DEFAULT_CONFIG,
          amplitude=1.0) -> list[MomentumLadderState]:
    """Evolve normalised states through ``stages`` of ``(duration, coupling,
    theta)``, couplings scaled by ``amplitude``, one or one per state, each on
    the ``stage_window`` of its occupied sites and ``reach``, padded at the
    top to the widest; TruncationLeakError past LEAK_BOUND."""
    grown = []
    for psi in states:
        check("state norm", psi.norm, Range(1 - 1e-6, 1 + 1e-6))
        sites = stage_window(psi.sites[np.abs(psi.amplitudes) ** 2 > 1e-12], reach, cfg)
        grown.append(psi.expanded(sites[0], sites[-1]))
    width = max(len(psi.amplitudes) for psi in grown)
    states = [psi.expanded(psi.n_min, psi.n_min + width - 1) for psi in grown]
    kin = np.stack([kinetic_frequencies(psi.species, psi.sites, psi.quasimomentum)
                    for psi in states])
    # one shared row: B-fold fewer exps per step, all taken in the coefficient pass
    if np.all(kin == kin[0]):
        kin = kin[:1]
    amps = np.stack([psi.amplitudes for psi in states])[..., None]
    for duration, coupling, theta in stages:
        amps = _evolve(kin, amps, duration, coupling, theta, cfg, amplitude)
    check_leakage(np.abs(amps[..., 0]) ** 2)
    return [replace(psi, amplitudes=a) for psi, a in zip(states, amps[..., 0])]


def apply_pulse(
    state: MomentumLadderState,
    pulse: PulseSpec,
    cfg: EvolutionConfig = DEFAULT_CONFIG,
) -> MomentumLadderState:
    """Evolve the state through one full pulse that reaches the order nearest
    its detuning (at least 1) on both sides; TruncationLeakError past LEAK_BOUND."""
    order = max(1, abs(round(pulse.detuning / (4.0 * state.species.recoil_frequency))))
    return drive([state], [_pulse_stage(pulse)], (order, order), cfg)[0]


_Q_NODES = 25   # Chebyshev-Lobatto quasimomentum nodes; 2 * 25 - 1 on a second round


def _chebyshev_series(f, n: int, tol: float) -> np.ndarray | None:
    """Chebyshev coefficients on [-1, 1] of ``f`` (ascending points to values
    along axis 0) from the DCT-I of values on the n Chebyshev-Lobatto points
    ``chebpts2(n)``, or, if the last quarter exceeds tol, on those and the
    n - 1 between them; None if that fails too."""
    def dct(x):   # of the even extension of m values, 2m - 2 long
        return np.fft.rfft(x, axis=0).real / (len(x) // 2)

    values = f(cheb.chebpts2(n))
    while True:
        ext = np.concatenate([values[::-1], values[1:-1]])
        coef = dct(ext) if np.isrealobj(ext) else dct(ext.real) + 1j * dct(ext.imag)
        coef[[0, -1]] /= 2.0
        if np.abs(coef[3 * len(coef) // 4:]).max() <= tol:
            return coef
        if len(values) > n:
            return None
        # chebpts2(2n - 1)[::2] is chebpts2(n): sample only the n - 1 between
        between = f(cheb.chebpts2(2 * n - 1)[1::2])
        values = np.insert(values, np.arange(1, n), between, axis=0)


def pulse_propagator(
    species: AtomSpecies,
    pulse: PulseSpec,
    window: tuple[int, int],
    quasimomentum: float | np.ndarray = 0.0,
    cfg: EvolutionConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """Full-pulse propagator over the ladder window, laser phase included;
    for an array of q values (units of hbar*k), a stack (len(q), W, W).
    Every q must lie within +-1 hbar*k (ValueError, NaN included, before any
    solve). A stack of more than 49 comes from the memoised node series, so
    a caller may evaluate an ensemble chunk by chunk at the cost of one node
    solve."""
    q = np.asarray(quasimomentum, dtype=float)
    check("quasimomentum", q, QUASIMOMENTUM_BAND)
    sites = np.arange(window[0], window[1] + 1)
    if q.size == 0:   # nothing to solve; a zero-length solve would fail
        return np.empty(q.shape + (len(sites),) * 2, dtype=complex)
    dur, coupling, theta = _pulse_stage(pulse)
    coef = (_node_series(species, pulse, tuple(window), cfg)
            if q.size > 2 * _Q_NODES - 1 else None)
    if coef is not None:
        h = np.exp(-0.5j * dur * kinetic_frequencies(species, sites, q))   # half flight
        V = np.moveaxis(cheb.chebval(q, coef), (0, 1), (-2, -1))
        return h[..., :, None] * V * h[..., None, :]

    # U = G(dur) G(0) [G(t_c)* U_c1(-r)]^T [G(t_c)* U_c1(r)]: the G(0) of
    # U_b1 and the G(0)* of U cancel on the right; the first half at chirp
    # r, then, if r != 0, at -r for the second
    thetas = [theta] if pulse.chirp == 0.0 else [
        theta, _pulse_stage(replace(pulse, chirp=-pulse.chirp))[2]]
    kin = kinetic_frequencies(species, sites, q)
    halves = []
    for th in thetas:
        half = _evolve(kin, np.eye(len(sites), dtype=complex), dur / 2.0, coupling,
                       th, cfg, max_step=dur / 12.0)
        half *= np.exp(1j * sites * th(dur / 2.0))[:, None]
        halves.append(half)
    U = np.einsum("...ki,...kj->...ij", halves[-1], halves[0])
    U *= np.exp(-1j * sites * (theta(dur) + theta(0.0)))[:, None]
    return U


@functools.lru_cache
def _node_series(species, pulse, window, cfg) -> np.ndarray | None:
    """Chebyshev coefficients on q in [-1, 1] of the pulse's centred
    propagator V(q) = e^{+i kin dur/2} U(q) e^{+i kin dur/2} from direct
    stacks on 25 nodes, or 49; None if 49 fail. Memoised, read-only."""
    sites, dur = np.arange(window[0], window[1] + 1), pulse.total_duration

    def centred(qs):
        h = np.conj(np.exp(-0.5j * dur * kinetic_frequencies(species, sites, qs)))
        U = pulse_propagator(species, pulse, window, qs, cfg)
        return h[..., :, None] * U * h[..., None, :]

    coef = _chebyshev_series(centred, _Q_NODES, cfg.error_tolerance)
    if coef is not None:
        coef.setflags(write=False)   # shared by every caller of the memo
    return coef


# -- amplitude calibration --------------------------------------------------

_SWEEP_BATCH, _PROXY_NODES = 9, 33  # probes per sweep solve, proxy nodes (then 65)
_CEILING = 400.0  # sweep ceiling, in two-level first-order pi amplitudes


def _search_config(cfg: EvolutionConfig) -> EvolutionConfig:
    # for solves whose values only decide: a hundredth of LEAK_BOUND, the
    # bound they are compared against, never tighter than the caller asked
    return replace(cfg, error_tolerance=max(cfg.error_tolerance, LEAK_BOUND / 100))


def _transfer(species, order, sigma, cfg, omegas) -> list:
    # |0> -> |order> of a plane wave at q = 0, per Omega_0 in one solve
    unit = _pulse_stage(PulseSpec(
        rabi_peak=1.0, sigma=sigma, detuning=bragg_resonance(order, species)))
    return [final.population(order) for final in drive(
        [plane_wave_state(species)] * len(omegas), [unit], (order, order), cfg, omegas)]


@functools.lru_cache
def _first_lobe(species, order, sigma, cfg) -> tuple:
    """``(sweep, top, coef)`` of the first Rabi lobe of |0> -> |order> at
    q = 0: the sweep of (Omega_0, transfer) and the Chebyshev series of the
    transfer on [0, top]; memoised."""
    search = _search_config(cfg)

    def probes(batch):
        # (Omega_0, transfer) per probe in one solve; a probe past the lobe may
        # leak, and then the lower half goes first and the upper half only if
        # the sweep gets there
        try:
            yield from zip(batch, _transfer(species, order, sigma, search, batch))
        except TruncationLeakError:
            if len(batch) == 1:
                raise
            yield from probes(batch[:(len(batch) + 1) // 2])
            yield from probes(batch[(len(batch) + 1) // 2:])

    def batches(grid):
        for lo in range(0, len(grid), _SWEEP_BATCH):
            yield from probes(grid[lo:lo + _SWEEP_BATCH])

    def lobe(points):
        # the sweep up to the first probe past a lobe peak, its best probe, and
        # whether it got past one
        sweep, best = [], (0.0, -1.0)
        for om, p in points:
            sweep.append((om, p))
            best = max(best, (om, p), key=lambda s: s[1])
            if best[1] > 0.05 and p < 0.8 * best[1]:
                return sweep, best, True
        return sweep, best, False

    omega_pi = math.pi / (sigma * math.sqrt(2.0 * math.pi))  # two-level first-order pi
    grid = omega_pi / 8.0 * 1.25 ** np.arange(
        1 + math.floor(math.log(8.0 * _CEILING, 1.25)))
    # the deep-Bragg pi amplitude; the sweep starts at the grid point at or
    # below half of it
    log_est = (math.log(math.sqrt(order) * omega_pi) + 2.0 * math.lgamma(order)
               + (order - 1) * math.log(8.0 * species.recoil_frequency)) / order
    start = math.floor((math.log(4.0) + log_est - math.log(omega_pi)) / math.log(1.25))
    start = min(max(start, 0), len(grid))
    sweep, (best_om, best_p), past_peak = lobe(batches(grid[start:]))
    if not past_peak or sweep[0][1] > 0.5 * best_p:
        # no lobe above the start, or its first probe already on one (a lobe
        # lower than the estimate): sweep from the grid's first point, the
        # probes from the start on taken as found
        sweep, (best_om, best_p), past_peak = lobe(
            itertools.chain(batches(grid[:start]), sweep))
    if not past_peak and best_p < 0.05:
        raise CalibrationError("no Rabi lobe reaching transfer 0.05 below the "
                               "search ceiling", sweep)

    # P(Omega_0) on [0, 1.25 best] as a Chebyshev series in x = 2 Omega_0 / top - 1
    top = 1.25 * best_om
    coef = _chebyshev_series(lambda x: _transfer(species, order, sigma, cfg,
                                                 top / 2 * (1.0 + x)),
                             _PROXY_NODES, cfg.error_tolerance)
    if coef is None:
        raise CalibrationError(f"no lobe proxy within {cfg.error_tolerance:.1e}", sweep)
    coef.setflags(write=False)   # shared by every caller of the memo
    return tuple(sweep), top, coef


def calibrate_pulse_amplitude(
    species: AtomSpecies,
    target: float,
    order: int,
    sigma: float,
    cfg: EvolutionConfig = DEFAULT_CONFIG,
) -> float:
    """Peak Rabi frequency transferring ``target`` of |0> into |2n hbar k>,
    calibrated on a plane wave at q = 0: the smallest Omega_0 on the first
    Rabi lobe whose simulated transfer equals the target within 1e-4, or the
    lobe peak for a target at or above it (notably 1 in the quasi-Bragg
    regime). CalibrationError if no lobe is found or the check fails."""
    check("target", target, TRANSFER_TARGETS)
    sweep, top, coef = _first_lobe(species, order, sigma, cfg)

    def roots(c, lo, hi):  # real roots of the series c in [lo, hi]
        r = cheb.chebroots(c)
        return r.real[(abs(r.imag) <= 1e-9) & (lo <= r.real) & (r.real <= hi)]

    # pi: the maximum on [best / 1.25, 1.25 best], x in [0.28, 1]: an end or a root of p'
    xs = np.r_[0.28, 1.0, roots(cheb.chebder(coef), 0.28, 1.0)]
    peak_x = xs[np.argmax(cheb.chebval(xs, coef))]
    if target >= cheb.chebval(peak_x, coef) - 1e-9:
        return float(top / 2 * (1.0 + peak_x))
    # pi/2: the first crossing below the peak (else the peak, which the check rejects)
    root = float(top / 2 * (1.0 + min(roots(cheb.chebsub(coef, target), -1.0, peak_x),
                                      default=peak_x)))
    achieved = _transfer(species, order, sigma, _search_config(cfg), (root,))[0]
    if abs(achieved - target) > 1e-4:
        raise CalibrationError(f"calibration converged to transfer "
                               f"{achieved:.6f}, not {target}", list(sweep))
    return root
