"""Standard-library ``decimal`` references, written apart from ``qfel``:
the emission kinematics and the Bessel function J_n at 50 digits and the
seeded tube closed form at 120.

The final state is fixed by the selection rules with a self-consistent
wiggling radius R' = eA / (k (E' - p'_z)):

    E' - p'_z = (E - p_z) - k'(1 - cos theta)
    E' + p'_z = (E + p_z) + 2 N k - eA k (R' - R) - k'(1 + cos theta)
    p'_perp   = k' sin theta

and k' is the root of the final mass shell
(E' - p'_z)(E' + p'_z) - p'_perp^2 - 1.  That residual is linear in k'
(the R' terms cancel against the d' factor), so the secant through two
evaluations lands on the root.  The beam's light-cone components come
from its energy alone; cos and sin are summed from their Taylor series
at the exact binary value of the float angle.

The tube section solves lambda_c dn/dl = a (2n^2 - b n + c) with
b = 2 N0 + 3 n0 + 1 and c = n0 (n0 + N0) from n(0) = n0:
u = (n - lo)/(n - hi) = u(0) exp(-a d l / lambda_c) between the roots
lo and hi = (b + d)/4, d = sqrt(b^2 - 8c).  lo is taken from the root
product, 2c/(b + d): at 50 digits (b - d)/4 loses every digit when
c << b^2.  n' = n0 - n and N = N0 + n' are differences, which the 120
digits absorb.
"""

import math
from decimal import Decimal, localcontext

DIGITS = 50
TUBE_DIGITS = 120


def _cos_sin(theta):
    x = Decimal(theta)
    cos = sin = Decimal(0)
    term = Decimal(1)           # x^n / n!
    n = 0
    while abs(term) > Decimal(10) ** -(DIGITS + 5):
        if n % 4 == 0:
            cos += term
        elif n % 4 == 1:
            sin += term
        elif n % 4 == 2:
            cos -= term
        else:
            sin -= term
        n += 1
        term = term * x / n
    return cos, sin


def final_state(theta, harmonic, energy, head_on, k, ea):
    """(k', E' - p'_z, E' + p'_z) as floats, for a collinear beam of energy
    ``energy`` (units of m_e) moving against (``head_on``) or along the
    laser of photon energy ``k`` and amplitude ``ea``."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        e = Decimal(energy)
        p = ((e - 1) * (e + 1)).sqrt()
        if head_on:
            d = e + p
            s = 1 / d
        else:
            s = e + p
            d = 1 / s
        k, ea = Decimal(k), Decimal(ea)
        nk = harmonic * k
        c, sn = _cos_sin(theta)
        radius = ea / (k * d)

        def state(kp):
            d1 = d - kp * (1 - c)
            radius1 = ea / (k * d1)
            s1 = s + 2 * nk - ea * k * (radius1 - radius) - kp * (1 + c)
            return d1, s1, d1 * s1 - 1 - (kp * sn) ** 2

        # d' >= d/2 > 0 along the secant
        k1 = d / 4
        f0, f1 = state(Decimal(0))[2], state(k1)[2]
        kp = k1 * f0 / (f0 - f1)
        d1, s1, _ = state(kp)
        return float(kp), float(d1), float(s1)


def bessel_jn(n, x):
    """J_n(x) as a float for an integer order n >= 0 and a float x >= 0,
    from the ascending series (DLMF 10.2.2) at 50 digits.  The terms'
    magnitudes sum to I_n(x) (DLMF 10.25.2), so rounding costs the result
    about log10(I_n(x)/|J_n(x)|) of its digits: a few next to the zeros of
    J_n at x <= 9, and next to none where n >> x."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        half = Decimal(x) / 2
        term = (half ** n if n else Decimal(1)) / math.factorial(n)
        total, m = term, 0
        while term and (m * (n + m) <= half * half
                        or abs(term) > abs(total) * Decimal(10) ** -DIGITS):
            m += 1
            term = -term * half * half / (m * (n + m))
            total += term
        return float(total)


def tube_section(n0, seed, gain, length, compton_wavelength):
    """(n, n', N, asymptote) as floats at distance ``length`` into a section
    of initial electron density ``n0`` entered by photon density ``seed``
    (per Compton volume), with gain coefficient ``gain``."""
    with localcontext() as ctx:
        ctx.prec = TUBE_DIGITS
        n0, seed = Decimal(n0), Decimal(seed)
        b = 2 * seed + 3 * n0 + 1
        c = n0 * (n0 + seed)
        d = (b * b - 8 * c).sqrt()
        lo, hi = 2 * c / (b + d), (b + d) / 4
        if length == 0.0:
            n = n0                  # the initial condition, exactly
        else:
            u = (n0 - lo) / (n0 - hi) * (
                -Decimal(gain) * d * Decimal(length)
                / Decimal(compton_wavelength)).exp()
            n = (lo - hi * u) / (1 - u)
        return (float(n), float(n0 - n), float(seed + n0 - n),
                float(seed + n0 - lo))
