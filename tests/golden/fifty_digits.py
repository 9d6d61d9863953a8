"""Re-evaluate qfel CSV files at 50 digits and report, per column and
per headline, the cell that lies farthest from that re-evaluation.

    python tests/golden/fifty_digits.py tests/golden/fig1.csv tests/golden/fig2.csv
    python tests/golden/fifty_digits.py OLD.csv NEW.csv

The inputs are the floats qfel builds from the configuration echoed in
each file's header (laser k and eA, beam energy, the theta and energy
grids, and for a tube the densities in Compton volumes, the section
length and its sample positions).  From there everything runs in
50-digit ``mpmath``: the photon energy is the root of the selection-rule
mass shell with the self-consistent R' (two-point secant; the residual
is linear in k'), the final light-cone components follow from the
selection rules, and the polarization repeats the formulas of the keep
and flip halves of ``qfel.amplitudes`` with mpmath Bessel functions.  The
cross section is summed with qfel's stop from either of two forms of its
harmonic term: the squared spin vectors of those tables (``table_term``,
the default) or the sum of squares of J_{N-1} and J_{N+1} that
``qfel.emission`` sums (``squares_term``).  The gain coefficient of a
tube or ``limits`` file is that cross section at theta = pi itself, not at
the float next to it; a ``limits`` file's critical density and wiggling
radius follow from k, eA and E - p_z, and a tube's sections are chained
through the seeded closed form u = (n - lo)/(n - hi) = u(0) exp(-a d l /
lambda_c), whose differences n0 - n run at twice the digits.  Given an
older and a newer file of one configuration, the report also counts the
cells that differ between them.  Needs ``mpmath`` (test-only).
"""

import math
import os
import sys

import mpmath as mp
import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from qfel import LaserField, make_beam, physcore  # noqa: E402
from qfel.emission import DEFAULT_HARMONIC_MAX  # noqa: E402
from qfel.tube import density_si_to_compton  # noqa: E402

mp.mp.dps = 50
ALPHA = mp.mpf("7.2973525693e-3")
MEV = mp.mpf("0.51099895000")


class Beam:
    def __init__(self, energy_mev, direction, spin):
        e = mp.mpf(make_beam(energy_mev, direction=direction).energy)
        p = mp.sqrt((e - 1) * (e + 1))
        self.e, self.spin = e, spin
        self.pz = -p if direction == "head_on" else p
        # the light-cone pair from its sum, on the mass shell d s = 1: the
        # residual of ``final_state`` is of order N k d, so d = e - p_z
        # of a fast co-propagating beam would cost it digits
        big = e + p
        self.d, self.s = (big, 1 / big) if direction == "head_on" else (1 / big, big)


def final_state(theta, n, beam, k, ea):
    """(k', d', s', p'_perp) of harmonic n at angle theta."""
    c, sn = mp.cos(theta), mp.sin(theta)
    radius = ea / (k * beam.d)

    def state(kp):
        d1 = beam.d - kp * (1 - c)
        s1 = beam.s + 2 * n * k - ea * k * (ea / (k * d1) - radius) - kp * (1 + c)
        return d1, s1, d1 * s1 - 1 - (kp * sn) ** 2

    k1 = beam.d / 4
    f0, f1 = state(mp.mpf(0))[2], state(k1)[2]
    kp = k1 * f0 / (f0 - f1)
    d1, s1, _ = state(kp)
    return kp, d1, s1, kp * sn


def vectors(theta, n, beam, k, ea, sigma):
    """Spin-keep and spin-flip vectors of ``harmonic_vectors`` at phi_k = 0."""
    kp, d1, s1, pp = final_state(theta, n, beam, k, ea)
    ct, st = mp.cos(theta), mp.sin(theta)
    e1, pz1 = (s1 + d1) / 2, (s1 - d1) / 2
    em, emp = beam.e + 1, e1 + 1
    dm, dmp = -(beam.d + 1), -(d1 + 1)
    r, rp = ea / (k * beam.d), ea / (k * d1)
    pz = beam.pz
    x_cross = pz * emp - pz1 * em
    y_sum = emp * pz + em * pz1
    j = 1j
    f = {(1, 0): -ct * pp * em - st * (y_sum + k * k * r * rp * dm * dmp / 2),
         (1, sigma): k / 2 * (ct * r * dm * dmp + st * pp * ((r + rp) * em - (r - rp) * pz)),
         (1, -sigma): k / 2 * ct * rp * dm * dmp,
         (2, 0): -j * sigma * pp * em,
         (2, sigma): -j * sigma * k / 2 * r * dm * dmp,
         (2, -sigma): j * sigma * k / 2 * rp * dm * dmp}
    g = {(1, 0): sigma * (ct * x_cross + st * pp * (k * k * r * rp * dm / 2 + em)),
         (1, sigma): -sigma * k / 2 * (ct * r * pp * dm
                                       + st * (r * dm * (s1 + 1) - rp * (beam.s + 1) * dmp)),
         (1, -sigma): -sigma * k / 2 * ct * rp * pp * dm,
         (2, 0): j * x_cross,
         (2, sigma): j * k / 2 * r * pp * dm,
         (2, -sigma): -j * k / 2 * rp * pp * dm}
    bessel = {nu: mp.besselj(n - nu, pp * rp) for nu in (0, 1, -1)}
    basis = ((ct, 0, -st), (0, 1, 0))
    out = []
    for table in (f, g):
        comps = [sum(table[(i, nu)] * bessel[nu] for nu in (0, 1, -1)) for i in (1, 2)]
        out.append([comps[0] * basis[0][a] + comps[1] * basis[1][a] for a in range(3)])
    return kp, d1, s1, out[0], out[1]


def norm2(v):
    return sum(abs(x) ** 2 for x in v)


def table_term(theta, n, beam, k, ea):
    """Term of harmonic n summed over both spins, from the spin-keep and
    spin-flip vectors of the F/G coefficient tables."""
    term = mp.mpf(0)
    for sigma in (1, -1):
        kp, d1, s1, fv, gv = vectors(theta, n, beam, k, ea, sigma)
        e1 = (s1 + d1) / 2
        pref = (ALPHA * kp ** 2 / (8 * mp.pi * n * k * abs(beam.pz) * beam.d
                                    * (beam.e + 1) * (e1 + 1)))
        term += pref * (norm2(fv) + norm2(gv))
    return term


def squares_term(theta, n, beam, k, ea):
    """The same term as a sum of squares of J_{N-1} and J_{N+1} at
    z = N 2 xi sqrt(s s-bar) / sqrt(1 + xi^2) (Nikishov-Ritus circular
    polarization rate), with xi = eA, S = sin^2(theta/2),
    C = cos^2(theta/2), D = (1 + xi^2) S/d0 + d0 C, s = (1 + xi^2) S/den,
    s-bar = d0^2 C/den (den their sum of numerators) and u = 2 N k S/D."""
    xi2, d0 = ea ** 2, beam.d
    big_s, big_c = mp.sin(theta / 2) ** 2, mp.cos(theta / 2) ** 2
    den = (1 + xi2) * big_s + d0 ** 2 * big_c
    s, s_bar = (1 + xi2) * big_s / den, d0 ** 2 * big_c / den
    big_d = (1 + xi2) * big_s / d0 + d0 * big_c
    u = 2 * n * k * big_s / big_d
    z = n * 2 * ea * mp.sqrt(s * s_bar) / mp.sqrt(1 + xi2)
    jm, jp = mp.besselj(n - 1, z), mp.besselj(n + 1, z)
    plus2, minus2 = (jm + jp) ** 2, (jm - jp) ** 2
    return (ALPHA * xi2 * n * k * d0
            / (4 * mp.pi * abs(beam.pz) * big_d ** 2 * (1 + u) ** 2)
            * (minus2 + (s_bar - s) ** 2 * plus2
               + u ** 2 / (2 * (1 + u))
               * (minus2 + plus2 * (1 + xi2 * (s_bar - s) ** 2) / (1 + xi2))))


def harmonic_sum(theta, beam, k, ea, harmonic_max, term=table_term):
    """Spin-averaged cross section with qfel's stop, from either form of
    the term (``table_term`` or ``squares_term``)."""
    total = mp.mpf(0)
    for n in range(1, harmonic_max + 1):
        both = term(theta, n, beam, k, ea)
        total += both / 2
        if both <= mp.mpf("1e-14") * total:
            break
    return total


def angular_row(theta, beam, k, ea, harmonic_max):
    """(k' [MeV], 1e6 x averaged cross section, polarization x, y)."""
    total = harmonic_sum(theta, beam, k, ea, harmonic_max)
    first_kp, _, _, keep, _ = vectors(theta, 1, beam, k, ea, beam.spin)
    unit = [x / mp.sqrt(norm2(keep)) for x in keep]
    # qfel's argmax takes the first of equally large components; on and
    # next to the axis |x| and |y| agree beyond float resolution, so
    # components within 1e-12 of the largest count as equal
    top = max(abs(x) for x in unit)
    big = next(a for a in range(3) if abs(unit[a]) >= top * (1 - mp.mpf("1e-12")))
    phase = unit[big] / abs(unit[big])
    pol = [x * mp.conj(phase) for x in unit]
    return first_kp * MEV, 1e6 * total, pol[0], pol[1]


def tube_section(n0, seed, a, l, lc):
    """(n, n', N, asymptote) at distance l into a section entered by photon
    density seed (per Compton volume)."""
    with mp.workdps(2 * mp.mp.dps):
        b = 2 * seed + 3 * n0 + 1
        c = n0 * (n0 + seed)
        d = mp.sqrt(b * b - 8 * c)
        lo, hi = 2 * c / (b + d), (b + d) / 4
        n = n0                  # the initial condition, exactly
        if l != 0:
            u = (n0 - lo) / (n0 - hi) * mp.exp(-a * d * l / lc)
            n = (lo - hi * u) / (1 - u)
        return +n, +(n0 - n), +(seed + n0 - n), +(seed + n0 - lo)


def tube(config, beam, k, ea):
    """Data rows and headlines of ``run_multi_section`` and ``cmd_tube``: the
    chain runs on 50-digit densities from the first seed on, and the last
    cycle is sampled at the file's 200 positions per section."""
    lc = mp.mpf(physcore.COMPTON_WAVELENGTH_M)
    vol = mp.mpf(density_si_to_compton(1.0))
    n0_si = float(config["beam.density_m3"])
    n0 = mp.mpf(density_si_to_compton(n0_si))
    length = float(config["tube.section_length_m"])
    sections, cycles = int(config["tube.sections"]), int(config["tube.cycles"])
    efficiency = mp.mpf(float(config["tube.reflection_efficiency"]))
    a = harmonic_sum(mp.pi, beam, k, ea, DEFAULT_HARMONIC_MAX)
    kp_mev = final_state(mp.mpf(math.pi), 1, beam, k, ea)[0] * MEV
    seed = mp.mpf(density_si_to_compton(float(config["tube.seed_density_m3"])))
    for cycle in range(cycles):
        if cycle:
            seed *= efficiency
        seeds = []
        for _ in range(sections):
            seeds.append(seed)
            seed = tube_section(n0, seed, a, mp.mpf(length), lc)[2]
    rows = []
    for j, entry in enumerate(seeds):
        for l in np.linspace(0.0, length, 200):
            n, n_prime, photon, _ = tube_section(n0, entry, a, mp.mpf(float(l)), lc)
            rows.append([mp.mpf(j + 1), mp.mpf(float(l)), n, n_prime, photon,
                         n / vol, photon / vol])
    watts = kp_mev * mp.mpf(1e6) * mp.mpf(physcore.ELEMENTARY_CHARGE) \
        * mp.mpf(physcore.SPEED_OF_LIGHT)
    half = seeds[0] / vol + n0_si * sections / mp.mpf(2)
    headlines = {
        "forward photon energy [MeV]": kp_mev,
        "gain coefficient a": a,
        "gain length lambda_c/a [m]": lc / a,
        "asymptotic photon density [per Compton volume]":
            tube_section(n0, seeds[0], a, mp.mpf(0), lc)[3],
        "photon density, exact chain [1/m^3]": seed / vol,
        "photon density, one-half rule [1/m^3]": half,
        "output intensity, exact chain [W/m^2]": seed / vol * watts,
        "output intensity, one-half rule [W/m^2]": half * watts}
    return rows, headlines


def read(path):
    config, headlines, rows, command = {}, {}, [], None
    with open(path) as fh:
        for line in fh:
            if line.startswith("# qfel "):
                command = line.split()[3]
            elif line.startswith("# headline: "):
                name, _, value = line[12:].rstrip("\n").rpartition(" = ")
                headlines[name] = value
            elif line.startswith("# ") and " = " in line:
                key, _, value = line[2:].rstrip("\n").partition(" = ")
                config[key] = value
            elif not line.startswith("#"):
                rows.append(line.rstrip("\n").split(","))
    return command, config, cells(rows, headlines)


def cells(rows, headlines):
    """(column or headline, data row, value) of every cell, data first."""
    out = [(col, j, cell) for j, row in enumerate(rows)
           for col, cell in enumerate(row)]
    return out + [(name, None, value) for name, value in headlines.items()]


def references(command, config):
    """50-digit value of every cell, in the order of ``cells``."""
    laser = LaserField(float(config["laser.wavelength_nm"]),
                       float(config["laser.intensity_w_m2"]))
    k, ea = mp.mpf(laser.k), mp.mpf(laser.ea)
    direction, spin = config["beam.direction"], int(config["beam.spin"])
    if command == "kinematics":
        energies = np.linspace(float(config["sweep.energy_min_mev"]),
                               float(config["sweep.energy_max_mev"]),
                               int(config["sweep.energy_points"]))
        rows = []
        for e_mev in energies:
            beam = Beam(float(e_mev), direction, spin)
            rows.append([mp.mpf(float(e_mev)),
                         final_state(mp.mpf(math.pi), 1, beam, k, ea)[0] * MEV])
        return cells(rows, {})
    beam = Beam(float(config["beam.energy_mev"]), direction, spin)
    if command == "tube":
        return cells(*tube(config, beam, k, ea))
    if command == "limits":
        lc = mp.mpf(physcore.COMPTON_WAVELENGTH_M)
        a = harmonic_sum(mp.pi, beam, k, ea, DEFAULT_HARMONIC_MAX)
        return cells([], {
            "coherence amplitude eA": ea, "laser photon energy [m_e]": k,
            "critical density [1/m^3]": (mp.sqrt(ALPHA / (ea * k)) * lc) ** -3,
            "gain coefficient a": a, "gain length lambda_c/a [m]": lc / a,
            "wiggling radius R": ea / (k * beam.d)})
    harmonic_max = int(config["sweep.harmonic_max"])
    rows = []
    for theta in np.linspace(0.0, math.pi, int(config["sweep.theta_points"])):
        kp, xsec, px, py = angular_row(mp.mpf(float(theta)), beam, k, ea, harmonic_max)
        rows.append([mp.mpf(float(theta)) / mp.pi, kp, xsec,
                     mp.re(px), mp.im(px), mp.re(py), mp.im(py)])
    return cells(rows, {})


def _rel(cell, ref):
    got = mp.mpf(cell)
    return abs(got - ref) / abs(ref) if ref != 0 else abs(got)


def _where(key, j):
    return f"headline {key!r}" if j is None else f"column {key}, data row {j}"


def main(paths):
    """Worst cell per column and per headline of each file.  Given an older
    and a newer file of one configuration, also count the cells that
    differ between them and how many of those moved farther from the
    50-digit value."""
    tables, cache = [], {}
    for path in paths:
        command, config, table = read(path)
        key = (command, tuple(sorted(config.items())))
        if key not in cache:
            cache[key] = [ref for _, _, ref in references(command, config)]
        refs = cache[key]
        tables.append((key, table, refs))
        worst = {}
        for (col, j, cell), ref in zip(table, refs):
            err = _rel(cell, ref)
            if col not in worst or err > worst[col][0]:
                worst[col] = (err, j, cell, ref)
        print(path)
        for col, (err, j, cell, ref) in worst.items():
            print(f"  {_where(col, j)}: worst rel {float(err):.3g}: "
                  f"file {cell}, 50 digits {mp.nstr(ref, 14)}")
    if len(tables) == 2 and tables[0][0] == tables[1][0]:
        (_, old, refs), (_, new, _) = tables
        moved, worst, farther = {}, {}, []
        for (col, j, x), (_, _, y), ref in zip(old, new, refs):
            if x != y:
                moved[col] = moved.get(col, 0) + 1
                if col not in worst or _rel(x, ref) > worst[col][0]:
                    worst[col] = (_rel(x, ref), j, x, y, ref)
                if _rel(y, ref) > _rel(x, ref):
                    farther.append((_where(col, j), x, y, mp.nstr(ref, 14)))
        print(f"cells that differ, by column: {moved}; moved farther: {farther}")
        for col, (err, j, x, y, ref) in worst.items():
            print(f"  {_where(col, j)}, worst moved cell: old {x} "
                  f"(rel {float(err):.3g}), new {y} (rel {float(_rel(y, ref)):.3g}), "
                  f"50 digits {mp.nstr(ref, 14)}")


if __name__ == "__main__":
    main(sys.argv[1:])
