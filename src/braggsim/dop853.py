"""The Dormand-Prince 8(5,3) Runge-Kutta pair DOP853 (Hairer, Norsett &
Wanner, Solving Ordinary Differential Equations I, Sec. II.10).

``solve_ivp`` takes the steps of ``scipy.integrate.solve_ivp(method="DOP853")``
operation for operation, on the real view of a real or complex array of any
shape, and keeps scipy out of the runtime. Its error norms are summed by
numpy's einsum, not by a BLAS dot, whose summation order changes with the
BLAS thread count, so no bit depends on that count; with scipy's norm taking
the same sum, its states, times and evaluation counts are scipy's to the bit
(``tests/test_dop853.py`` checks this on real stages, at one BLAS thread and
at the default count). A step knows its 12 stage times before its first
stage, so it asks for the time dependence of all 12 at once; each stage then
writes its derivative in place into a preallocated row, through a
right-hand side bound once per solve to its pair of stage buffers. It keeps
only the latest state. The tableau is copied
digit for digit from scipy's ``integrate/_ivp/dop853_coefficients.py``
(Copyright (c) 2001-2002 Enthought, Inc. and 2003- SciPy Developers; BSD
3-Clause License).
"""

import math
import warnings
from typing import NamedTuple

import numpy as np

_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0])
_A = np.zeros((13, 12))   # rows 1-11 build the stages; row 12 is the solution weights
_A[1, 0] = 5.26001519587677318785587544488e-2
_A[2, [0, 1]] = 1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2
_A[3, [0, 2]] = 2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2
_A[4, [0, 2, 3]] = (2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
                    9.24834003261792003115737966543e-1)
_A[5, [0, 3, 4]] = (3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
                    1.25467687566822425016691814123e-1)
_A[6, [0, 3, 4, 5]] = (3.7109375e-2, 1.70252211019544039314978060272e-1,
                       6.02165389804559606850219397283e-2, -1.7578125e-2)
_A[7, [0, 3, 4, 5, 6]] = (3.70920001185047927108779319836e-2,
    1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
    -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3)
_A[8, [0, 3, 4, 5, 6, 7]] = (6.24110958716075717114429577812e-1,
    -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
    2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
    -4.34898841810699588477366255144e1)
_A[9, [0, 3, 4, 5, 6, 7, 8]] = (4.77662536438264365890433908527e-1,
    -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
    2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
    -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2)
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = (-9.3714243008598732571704021658e-1,
    5.18637242884406370830023853209, 1.09143734899672957818500254654,
    -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
    2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
    -3.0467644718982195003823669022)
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = (2.27331014751653820792359768449,
    -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
    -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
    -2.85899827713502369474065508674, -8.87285693353062954433549289258,
    1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1)
_A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = (5.42937341165687622380535766363e-2,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2)
_E3 = np.append(_A[12], 0.0)   # the 3rd- and 5th-order error weights of the 13 stages
_E3[[0, 8, 11]] -= (0.244094488188976377952755905512, 0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1)
_E5 = np.zeros(13)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = (0.1312004499419488073250102996e-1,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1)
_C_STEP = np.append(_C[1:], 1.0)   # the stage times of a step, t + h last
_RTOL_MIN = 100 * np.finfo(float).eps


def _norm(x) -> float:
    """The 2-norm of a real 1-D array, the same at any BLAS thread count."""
    return math.sqrt(np.einsum("i,i->", x, x))


class Solution(NamedTuple):
    t: list         # accepted times, t_span[0] first
    y: np.ndarray   # the state at t[-1], shaped as y0
    nfev: int       # right-hand side evaluations


def solve_ivp(coefficients, bind, t_span, y0, rtol, atol, max_step) -> Solution:
    """Integrate dy/dt = f(t, y) forward over ``t_span`` to a local error
    within atol + rtol |y|. ``coefficients(ts)`` gives f's time dependence,
    one entry per time of the array ts, read before its next call.
    ``bind(y, out)`` returns the right-hand side ``rhs(c)`` that writes f at
    entry c and state ``y`` into ``out``; y and out are views of y0's shape
    and type, refilled in place. Raises RuntimeError when the step falls
    below ten float spacings of t, or is NaN."""
    t, t_end = map(float, t_span)
    dtype, shape = np.result_type(y0, float), np.shape(y0)
    y = np.array(y0, dtype=dtype, order="C").reshape(-1).view(float)

    def shaped(a):   # a real 1-D buffer as a view of y0's shape and type
        return a.view(dtype).reshape(shape)

    if rtol < _RTOL_MIN:   # scipy's floor, warned of as scipy warns
        warnings.warn(f"rtol {rtol} raised to {_RTOL_MIN}", stacklevel=2)
        rtol = _RTOL_MIN
    K, arg, y_new = np.empty((13, y.size)), np.empty(y.size), np.empty(y.size)
    f = K[0]   # C-contiguous rows, so every shaped view is a view
    # stage s: y + (K[:s].T @ a_s) h, summed as scipy sums it, into its argument
    # (y_new at s = 12), then f there into row s of K
    stages = [(K[:s].T, _A[s, :s], b, bind(shaped(b), shaped(K[s])))
              for s, b in zip(range(1, 13), [arg] * 11 + [y_new])]
    # the initial step: two RMS norms and one trial evaluation at y + h0 f,
    # made in the first stage's buffers (Sec. II.4)
    bind(shaped(y), shaped(f))(coefficients(np.array([t]))[0])
    scale, root_n = atol + np.abs(y) * rtol, y.size ** 0.5
    d0, d1 = (_norm(v / scale) / root_n for v in (y, f))
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t)
    np.multiply(h0, f, out=arg)
    arg += y
    stages[0][-1](coefficients(np.array([t + h0]))[0])
    d2 = _norm((K[1] - f) / scale) / root_n / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1 / 8))
    h_abs = min(100 * h0, h1, t_end - t, max_step)
    ts, nfev = [t], 2
    while t < t_end:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max_step if h_abs > max_step else max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:   # NaN fails too
                raise RuntimeError(f"DOP853 step {h_abs} fell below {min_step} at t = {t}")
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            coefs = coefficients(t + _C_STEP * h)
            for (Ks, a, b, rhs), c in zip(stages, coefs):
                np.dot(Ks, a, out=b)
                b *= h
                b += y
                rhs(c)
            nfev += 12
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = _norm(np.dot(K.T, _E5) / scale) ** 2
            err3 = _norm(np.dot(K.T, _E3) / scale) ** 2
            error = (0.0 if err5 == 0 and err3 == 0
                     else h * err5 / np.sqrt((err5 + 0.01 * err3) * y.size))
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error ** -0.125)
            rejected = True
        t, y[:], f[:] = t_new, y_new, K[12]
        ts.append(t)
    return Solution(ts, shaped(y), nfev)
