"""DOP853 step loop specialised to the radial ground-state equation.

    phi'' = -phi'/r + phi - |phi|^(p-2) phi,   phi(r0) = beta, phi'(r0) = 0,

carried together with the integrands of mass = 2 pi int phi^2 r dr,
A = 2 pi int phi'^2 r dr and C = 2 pi int |phi|^p r dr as three more
states, so the state is (phi, phi', mass, A, C).

The method is the explicit Runge-Kutta pair of order 8(5,3) of Dormand and
Prince with Hairer and Wanner's step-size control, from the Fortran code
DOP853 (version of April 25, 1996; latest correction August 8, 2005):

    E. Hairer, S.P. Norsett and G. Wanner, Solving Ordinary Differential
    Equations I. Nonstiff Problems, 2nd edition, Springer Series in
    Computational Mathematics, Springer-Verlag (1993).
    Authors of DOP853: E. Hairer and G. Wanner, Universite de Geneve,
    Dept. de Mathematiques, CH-1211 Geneve 24, Switzerland.

The step control follows SciPy's C translation of that code, which this
loop reproduces bit for bit (checked against SciPy 1.17.1's compiled
dop853 on every shoot of the ground states from p = 2.01 to p = 47) at
SciPy's defaults: the initial step from HINIT, relative and absolute
tolerances given as scalars, safety factor 0.9, step ratio held in
[0.3, 6] after an accepted step and set to 0.3 after a rejected one, no
Lund stabilisation, at most 500 steps, rounding unit 2.3e-16 in the
step-size floor.  Only phi and phi' enter the right-hand side, so only
their stage values are formed, and the right-hand side is written out in
each stage.  The span, the tolerances and the stop rule of a shoot are
this module's own: no caller sets them.  The notice of that translation:

    Copyright (C) 2025 SciPy developers

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions are
    met:

        a. Redistributions of source code must retain the above copyright
           notice, this list of conditions and the following disclaimer.
        b. Redistributions in binary form must reproduce the above
           copyright notice, this list of conditions and the following
           disclaimer in the documentation and/or other materials provided
           with the distribution.
        c. Names of the SciPy Developers may not be used to endorse or
           promote products derived from this software without specific
           prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A
    PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    HOLDERS OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED
    TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE, DATA, OR
    PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY THEORY OF
    LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT (INCLUDING
    NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE OF THIS
    SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

Every floating-point operation is the one of the compiled loop, in its
order: sums left to right, squares as products, powers through libm pow.
"""

from __future__ import annotations

import math
from typing import List, Tuple

__all__ = ["radial_dop853"]

# Every shoot runs from just off the origin, where the -phi'/r term is
# finite, towards _R_END, past the decay radius of the profile down to
# p = 2.01 (r_decay = 75), at these tolerances.
_R0, _R_END = 1e-8, 200.0
_RTOL, _ATOL = 1e-12, 1e-14

# Step control at SciPy's defaults for dop853.
_NMAX = 500                  # steps, accepted or rejected
_UROUND = 2.3e-16            # rounding unit of the step-size floor
_SAFE = 0.9
_FACC1 = 1.0 / 0.3           # largest step decrease, 1/fac1
_FACC2 = 1.0 / 6.0           # largest step increase, 1/fac2
_EXPO1 = 1.0 / 8.0

_TWO_PI = 2.0 * math.pi


def radial_dop853(p: float, beta: float,
                  ) -> Tuple[int, int, List[Tuple[float, float, float]], List[float]]:
    """Shoot the radial equation from (phi, phi', mass, A, C) =
    (beta, 0, 0, 0, 0) at _R0 towards _R_END, and stop at the first
    accepted step end where phi <= 0 (checked first: sign -1, an
    overshoot) or phi' >= 0 (sign +1, an undershoot); sign 0 if neither
    happens.

    Returns DOP853's code, the sign, the step record (r, phi, phi') at _R0
    and at every accepted step end, and the state at the last one.  The
    codes: 1 reached _R_END, 2 stopped by the sign, -2 more than _NMAX
    steps needed, -3 step size too small.  A power too large for a float
    raises OverflowError from the right-hand side, as Python's float **
    does."""
    # Nodes, weights and error weights of the 8(5,3) pair, as in DOP853.
    C2 = 0.526001519587677318785587544488e-01
    C3 = 0.789002279381515978178381316732e-01
    C4 = 0.118350341907227396726757197510e+00
    C5 = 0.281649658092772603273242802490e+00
    C6 = 0.333333333333333333333333333333e+00
    C7 = 0.25e+00
    C8 = 0.307692307692307692307692307692e+00
    C9 = 0.651282051282051282051282051282e+00
    C10 = 0.6e+00
    C11 = 0.857142857142857142857142857142e+00
    B1 = 5.42937341165687622380535766363e-2
    B6 = 4.45031289275240888144113950566e0
    B7 = 1.89151789931450038304281599044e0
    B8 = -5.8012039600105847814672114227e0
    B9 = 3.1116436695781989440891606237e-1
    B10 = -1.52160949662516078556178806805e-1
    B11 = 2.01365400804030348374776537501e-1
    B12 = 4.47106157277725905176885569043e-2
    BHH1 = 0.244094488188976377952755905512e+00
    BHH2 = 0.733846688281611857341361741547e+00
    BHH3 = 0.220588235294117647058823529412e-01
    ER1 = 0.1312004499419488073250102996e-01
    ER6 = -0.1225156446376204440720569753e+01
    ER7 = -0.4957589496572501915214079952e+00
    ER8 = 0.1664377182454986536961530415e+01
    ER9 = -0.3503288487499736816886487290e+00
    ER10 = 0.3341791187130174790297318841e+00
    ER11 = 0.8192320648511571246570742613e-01
    ER12 = -0.2235530786388629525884427845e-01
    A21 = 5.26001519587677318785587544488e-2
    A31 = 1.97250569845378994544595329183e-2
    A32 = 5.91751709536136983633785987549e-2
    A41 = 2.95875854768068491816892993775e-2
    A43 = 8.87627564304205475450678981324e-2
    A51 = 2.41365134159266685502369798665e-1
    A53 = -8.84549479328286085344864962717e-1
    A54 = 9.24834003261792003115737966543e-1
    A61 = 3.7037037037037037037037037037e-2
    A64 = 1.70828608729473871279604482173e-1
    A65 = 1.25467687566822425016691814123e-1
    A71 = 3.7109375e-2
    A74 = 1.70252211019544039314978060272e-1
    A75 = 6.02165389804559606850219397283e-2
    A76 = -1.7578125e-2
    A81 = 3.70920001185047927108779319836e-2
    A84 = 1.70383925712239993810214054705e-1
    A85 = 1.07262030446373284651809199168e-1
    A86 = -1.53194377486244017527936158236e-2
    A87 = 8.27378916381402288758473766002e-3
    A91 = 6.24110958716075717114429577812e-1
    A94 = -3.36089262944694129406857109825e0
    A95 = -8.68219346841726006818189891453e-1
    A96 = 2.75920996994467083049415600797e1
    A97 = 2.01540675504778934086186788979e1
    A98 = -4.34898841810699588477366255144e1
    A101 = 4.77662536438264365890433908527e-1
    A104 = -2.48811461997166764192642586468e0
    A105 = -5.90290826836842996371446475743e-1
    A106 = 2.12300514481811942347288949897e1
    A107 = 1.52792336328824235832596922938e1
    A108 = -3.32882109689848629194453265587e1
    A109 = -2.03312017085086261358222928593e-2
    A111 = -9.3714243008598732571704021658e-1
    A114 = 5.18637242884406370830023853209e0
    A115 = 1.09143734899672957818500254654e0
    A116 = -8.14978701074692612513997267357e0
    A117 = -1.85200656599969598641566180701e1
    A118 = 2.27394870993505042818970056734e1
    A119 = 2.49360555267965238987089396762e0
    A1110 = -3.0467644718982195003823669022e0
    A121 = 2.27331014751653820792359768449e0
    A124 = -1.05344954667372501984066689879e1
    A125 = -2.00087205822486249909675718444e0
    A126 = -1.79589318631187989172765950534e1
    A127 = 2.79488845294199600508499808837e1
    A128 = -2.85899827713502369474065508674e0
    A129 = -8.87285693353062954433549289258e0
    A1210 = 1.23605671757943030647266201528e1
    A1211 = 6.43392746015763530355970484046e-1

    # The math functions, the span and the tolerances as locals too, read
    # by name in every stage.
    copysign, sqrt, two_pi = math.copysign, math.sqrt, _TWO_PI
    rtol, atol, r_end = _RTOL, _ATOL, _R_END
    pm1 = p - 1.0
    x = _R0
    y0, y1, y2, y3, y4 = beta, 0.0, 0.0, 0.0, 0.0

    # k1 = f(x, y); the phi component of every stage derivative is the
    # stage value of phi', so k_j = (v_j, w_j, m_j, a_j, c_j).
    v1 = y1
    w1 = -y1 / x + y0 - copysign(abs(y0) ** pm1, y0)
    tau = two_pi * x
    m1 = tau * y0 * y0
    a1 = tau * y1 * y1
    c1 = tau * abs(y0) ** p

    # HINIT: initial step from an explicit Euler step.
    hmax = abs(r_end - x)
    dnf = dny = 0.0
    for yi, fi in ((y0, v1), (y1, w1), (y2, m1), (y3, a1), (y4, c1)):
        sk = atol + rtol * abs(yi)
        q = fi / sk
        dnf = dnf + q * q
        q = yi / sk
        dny = dny + q * q
    if dnf <= 1e-10 or dny <= 1e-10:
        h = 1.0e-6
    else:
        h = sqrt(dny / dnf) * 0.01
    h = min(h, hmax)
    u = y0 + h * v1
    v = y1 + h * w1
    r = x + h
    tau = two_pi * r
    der2 = 0.0
    for yi, fi, gi in (
            (y0, v1, v),
            (y1, w1, -v / r + u - copysign(abs(u) ** pm1, u)),
            (y2, m1, tau * u * u),
            (y3, a1, tau * v * v),
            (y4, c1, tau * abs(u) ** p)):
        sk = atol + rtol * abs(yi)
        q = (gi - fi) / sk
        der2 = der2 + q * q
    der2 = sqrt(der2) / h
    der12 = max(abs(der2), sqrt(dnf))
    if der12 <= 1e-15:
        h1 = max(1.0e-6, abs(h) * 1.0e-3)
    else:
        h1 = (0.01 / der12) ** (1.0 / 8)
    h = min(100 * abs(h), h1, hmax)

    steps = [(x, y0, y1)]
    last = reject = False
    nstep = 0
    while True:
        if nstep > _NMAX:
            return -2, 0, steps, [y0, y1, y2, y3, y4]
        if 0.1 * abs(h) <= abs(x) * _UROUND:
            return -3, 0, steps, [y0, y1, y2, y3, y4]
        if x + 1.01 * h - r_end > 0.0:
            h = r_end - x
            last = True
        nstep += 1

        # The twelve stages: stage values u (phi) and v (phi'), then
        # w = phi'' and the three integrands at them.
        ha = h * A21
        u = y0 + ha * v1
        v2 = y1 + ha * w1
        r = x + C2 * h
        au = abs(u)
        w2 = -v2 / r + u - copysign(au ** pm1, u)
        tau = two_pi * r
        m2 = tau * u * u
        a2 = tau * v2 * v2
        c2 = tau * au ** p

        u = y0 + h * (A31 * v1 + A32 * v2)
        v3 = y1 + h * (A31 * w1 + A32 * w2)
        r = x + C3 * h
        au = abs(u)
        w3 = -v3 / r + u - copysign(au ** pm1, u)
        tau = two_pi * r
        m3 = tau * u * u
        a3 = tau * v3 * v3
        c3 = tau * au ** p

        u = y0 + h * (A41 * v1 + A43 * v3)
        v4 = y1 + h * (A41 * w1 + A43 * w3)
        r = x + C4 * h
        au = abs(u)
        w4 = -v4 / r + u - copysign(au ** pm1, u)
        tau = two_pi * r
        m4 = tau * u * u
        a4 = tau * v4 * v4
        c4 = tau * au ** p

        u = y0 + h * (A51 * v1 + A53 * v3 + A54 * v4)
        v5 = y1 + h * (A51 * w1 + A53 * w3 + A54 * w4)
        r = x + C5 * h
        au = abs(u)
        w5 = -v5 / r + u - copysign(au ** pm1, u)
        tau = two_pi * r
        m5 = tau * u * u
        a5 = tau * v5 * v5
        c5 = tau * au ** p

        u = y0 + h * (A61 * v1 + A64 * v4 + A65 * v5)
        v6 = y1 + h * (A61 * w1 + A64 * w4 + A65 * w5)
        r = x + C6 * h
        au = abs(u)
        w6 = -v6 / r + u - copysign(au ** pm1, u)
        tau = two_pi * r
        m6 = tau * u * u
        a6 = tau * v6 * v6
        c6 = tau * au ** p

        u = y0 + h * (A71 * v1 + A74 * v4 + A75 * v5 + A76 * v6)
        v7 = y1 + h * (A71 * w1 + A74 * w4 + A75 * w5 + A76 * w6)
        r = x + C7 * h
        au = abs(u)
        w7 = -v7 / r + u - copysign(au ** pm1, u)
        tau = two_pi * r
        m7 = tau * u * u
        a7 = tau * v7 * v7
        c7 = tau * au ** p

        u = y0 + h * (A81 * v1 + A84 * v4 + A85 * v5 + A86 * v6 + A87 * v7)
        v8 = y1 + h * (A81 * w1 + A84 * w4 + A85 * w5 + A86 * w6 + A87 * w7)
        r = x + C8 * h
        au = abs(u)
        w8 = -v8 / r + u - copysign(au ** pm1, u)
        tau = two_pi * r
        m8 = tau * u * u
        a8 = tau * v8 * v8
        c8 = tau * au ** p

        u = y0 + h * (A91 * v1 + A94 * v4 + A95 * v5 + A96 * v6 + A97 * v7
                      + A98 * v8)
        v9 = y1 + h * (A91 * w1 + A94 * w4 + A95 * w5 + A96 * w6 + A97 * w7
                       + A98 * w8)
        r = x + C9 * h
        au = abs(u)
        w9 = -v9 / r + u - copysign(au ** pm1, u)
        tau = two_pi * r
        m9 = tau * u * u
        a9 = tau * v9 * v9
        c9 = tau * au ** p

        u = y0 + h * (A101 * v1 + A104 * v4 + A105 * v5 + A106 * v6
                      + A107 * v7 + A108 * v8 + A109 * v9)
        v10 = y1 + h * (A101 * w1 + A104 * w4 + A105 * w5 + A106 * w6
                        + A107 * w7 + A108 * w8 + A109 * w9)
        r = x + C10 * h
        au = abs(u)
        w10 = -v10 / r + u - copysign(au ** pm1, u)
        tau = two_pi * r
        m10 = tau * u * u
        a10 = tau * v10 * v10
        c10 = tau * au ** p

        u = y0 + h * (A111 * v1 + A114 * v4 + A115 * v5 + A116 * v6
                      + A117 * v7 + A118 * v8 + A119 * v9 + A1110 * v10)
        v11 = y1 + h * (A111 * w1 + A114 * w4 + A115 * w5 + A116 * w6
                        + A117 * w7 + A118 * w8 + A119 * w9 + A1110 * w10)
        r = x + C11 * h
        au = abs(u)
        w11 = -v11 / r + u - copysign(au ** pm1, u)
        tau = two_pi * r
        m11 = tau * u * u
        a11 = tau * v11 * v11
        c11 = tau * au ** p

        xph = x + h
        u = y0 + h * (A121 * v1 + A124 * v4 + A125 * v5 + A126 * v6
                      + A127 * v7 + A128 * v8 + A129 * v9 + A1210 * v10
                      + A1211 * v11)
        v12 = y1 + h * (A121 * w1 + A124 * w4 + A125 * w5 + A126 * w6
                        + A127 * w7 + A128 * w8 + A129 * w9 + A1210 * w10
                        + A1211 * w11)
        au = abs(u)
        w12 = -v12 / xph + u - copysign(au ** pm1, u)
        tau = two_pi * xph
        m12 = tau * u * u
        a12 = tau * v12 * v12
        c12 = tau * au ** p

        # The eighth-order increment, the new state, and the error
        # estimate of each component, summed in component order.
        i0 = (B1 * v1 + B6 * v6 + B7 * v7 + B8 * v8 + B9 * v9 + B10 * v10
              + B11 * v11 + B12 * v12)
        i1 = (B1 * w1 + B6 * w6 + B7 * w7 + B8 * w8 + B9 * w9 + B10 * w10
              + B11 * w11 + B12 * w12)
        i2 = (B1 * m1 + B6 * m6 + B7 * m7 + B8 * m8 + B9 * m9 + B10 * m10
              + B11 * m11 + B12 * m12)
        i3 = (B1 * a1 + B6 * a6 + B7 * a7 + B8 * a8 + B9 * a9 + B10 * a10
              + B11 * a11 + B12 * a12)
        i4 = (B1 * c1 + B6 * c6 + B7 * c7 + B8 * c8 + B9 * c9 + B10 * c10
              + B11 * c11 + B12 * c12)
        z0, z1, z2 = y0 + h * i0, y1 + h * i1, y2 + h * i2
        z3, z4 = y3 + h * i3, y4 + h * i4
        s0 = atol + rtol * max(abs(y0), abs(z0))
        s1 = atol + rtol * max(abs(y1), abs(z1))
        s2 = atol + rtol * max(abs(y2), abs(z2))
        s3 = atol + rtol * max(abs(y3), abs(z3))
        s4 = atol + rtol * max(abs(y4), abs(z4))
        q0 = (i0 - BHH1 * v1 - BHH2 * v9 - BHH3 * v12) / s0
        q1 = (i1 - BHH1 * w1 - BHH2 * w9 - BHH3 * w12) / s1
        q2 = (i2 - BHH1 * m1 - BHH2 * m9 - BHH3 * m12) / s2
        q3 = (i3 - BHH1 * a1 - BHH2 * a9 - BHH3 * a12) / s3
        q4 = (i4 - BHH1 * c1 - BHH2 * c9 - BHH3 * c12) / s4
        err2 = q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3 + q4 * q4
        q0 = (ER1 * v1 + ER6 * v6 + ER7 * v7 + ER8 * v8 + ER9 * v9
              + ER10 * v10 + ER11 * v11 + ER12 * v12) / s0
        q1 = (ER1 * w1 + ER6 * w6 + ER7 * w7 + ER8 * w8 + ER9 * w9
              + ER10 * w10 + ER11 * w11 + ER12 * w12) / s1
        q2 = (ER1 * m1 + ER6 * m6 + ER7 * m7 + ER8 * m8 + ER9 * m9
              + ER10 * m10 + ER11 * m11 + ER12 * m12) / s2
        q3 = (ER1 * a1 + ER6 * a6 + ER7 * a7 + ER8 * a8 + ER9 * a9
              + ER10 * a10 + ER11 * a11 + ER12 * a12) / s3
        q4 = (ER1 * c1 + ER6 * c6 + ER7 * c7 + ER8 * c8 + ER9 * c9
              + ER10 * c10 + ER11 * c11 + ER12 * c12) / s4
        err = q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3 + q4 * q4
        deno = err + 0.01 * err2
        if deno <= 0.0:
            deno = 1.0
        err = abs(h) * err * sqrt(1.0 / (5 * deno))
        fac11 = err ** _EXPO1
        hnew = h / max(_FACC2, min(_FACC1, fac11 / _SAFE))
        if err <= 1.0:
            y0, y1, y2, y3, y4 = z0, z1, z2, z3, z4
            x = xph
            # First stage of the next step, at the new state.
            v1 = y1
            au = abs(y0)
            w1 = -y1 / x + y0 - copysign(au ** pm1, y0)
            tau = two_pi * x
            m1 = tau * y0 * y0
            a1 = tau * y1 * y1
            c1 = tau * au ** p
            steps.append((x, y0, y1))
            if y0 <= 0.0:
                return 2, -1, steps, [y0, y1, y2, y3, y4]
            if y1 >= 0.0:
                return 2, +1, steps, [y0, y1, y2, y3, y4]
            if last:
                return 1, 0, steps, [y0, y1, y2, y3, y4]
            if abs(hnew) > hmax:
                hnew = hmax
            if reject:
                hnew = min(abs(hnew), abs(h))
            reject = False
        else:
            # Hairer's listing reads h / min(facc1, fac11 / safe) here; the
            # compiled loop divides by facc1, and only that matches it.
            hnew = h / _FACC1
            reject = True
            last = False
        h = hnew
