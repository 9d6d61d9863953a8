"""The benchmark's workloads: the CLI calls each seed generates.

A workload is a list of jobs, and a job is a list of ``qfel`` argument
vectors run one after the other.  Every value the independent checks
need is passed explicitly with ``--set``; everything else stays at the
program's default, so that a later change of a default (for example the
harmonic cutoff) shows in the measurements.

Draws are stratified: each drawn quantity takes one value from each of
``JOBS`` equal strata of its range, in a seeded random order.  Every
seed therefore produces a different list with nearly the same spread of
job sizes, which keeps the seed from moving the medians.
"""

from __future__ import annotations

import math
import random

JOBS = 16                   # distinct jobs in one round of every workload
THETA_POINTS = 150          # angles per angular job, 0 and pi included
LASER_NM = 785.0
WEAK_W_M2 = 1e19            # eA = 0.015
STRONG_W_M2 = (1e24, 1e25)  # eA = 4.7 ... 15
BEAM_MEV = (100.0, 1000.0)


def _num(x):
    """Six significant digits: short, and read back exactly by the CLI."""
    return repr(float(f"{x:.6g}"))


def _strata(rng, lo, hi, log=False, n=JOBS):
    """One uniform draw from each of n equal strata of [lo, hi], shuffled."""
    order = list(range(n))
    rng.shuffle(order)
    if log:
        a, b = math.log(lo), math.log(hi)
        return [math.exp(a + (b - a) * (i + rng.random()) / n) for i in order]
    return [lo + (hi - lo) * (i + rng.random()) / n for i in order]


def _sets(pairs):
    argv = []
    for key, value in pairs:
        argv += ["--set", f"{key}={value}"]
    return argv


def _angular(seed, intensities):
    rng = random.Random(seed)
    energies = _strata(rng, *BEAM_MEV)
    spins = [1, -1] * (JOBS // 2)
    rng.shuffle(spins)
    jobs = []
    for energy, intensity, spin in zip(energies, intensities(rng), spins):
        jobs.append([["angular"] + _sets([
            ("laser.wavelength_nm", _num(LASER_NM)),
            ("laser.intensity_w_m2", _num(intensity)),
            ("beam.direction", "head_on"),
            ("beam.energy_mev", _num(energy)),
            ("beam.spin", spin),
            ("sweep.theta_points", THETA_POINTS),
        ])])
    return jobs


def angular_weak(seed):
    return _angular(seed, lambda rng: [WEAK_W_M2] * JOBS)


def angular_strong(seed):
    return _angular(seed, lambda rng: _strata(rng, *STRONG_W_M2, log=True))


def reports(seed):
    """One kinematics, tube, coherence and limits call per drawn scenario.

    Even jobs run a seeded multi-section tube, odd jobs a cyclic tube at
    zero seed (the CLI ignores the seed when cycles > 1).
    """
    rng = random.Random(seed)
    energies = _strata(rng, *BEAM_MEV)
    intensities = _strata(rng, 1e18, 1e20, log=True)
    densities = _strata(rng, 1e17, 1e19, log=True)
    points = _strata(rng, 1500, 2500)
    half = JOBS // 2
    sections = _strata(rng, 10, 40, n=half)
    seeds = _strata(rng, 1e15, 1e17, log=True, n=half)
    cyc_sections = _strata(rng, 10, 40, n=half)
    cycles = _strata(rng, 2, 4, n=half)
    efficiencies = _strata(rng, 0.5, 1.0, n=half)
    thetas = [1.0 - t for t in _strata(rng, 0.0, 1.0)]
    shifts = _strata(rng, 1e-5, 1e-3, log=True)
    jobs = []
    for j in range(JOBS):
        scenario = [
            ("laser.wavelength_nm", _num(LASER_NM)),
            ("laser.intensity_w_m2", _num(intensities[j])),
            ("beam.direction", "head_on"),
            ("beam.energy_mev", _num(energies[j])),
            ("beam.density_m3", _num(densities[j])),
        ]
        if j % 2 == 0:
            tube = [("tube.sections", int(sections[j // 2])),
                    ("tube.cycles", 1),
                    ("tube.seed_density_m3", _num(seeds[j // 2]))]
        else:
            tube = [("tube.sections", int(cyc_sections[j // 2])),
                    ("tube.cycles", int(cycles[j // 2])),
                    ("tube.reflection_efficiency", _num(efficiencies[j // 2])),
                    ("tube.seed_density_m3", _num(0.0))]
        tube.append(("tube.section_length_m", _num(0.01)))
        jobs.append([
            ["kinematics"] + _sets(scenario + [
                ("sweep.energy_min_mev", _num(BEAM_MEV[0])),
                ("sweep.energy_max_mev", _num(BEAM_MEV[1])),
                ("sweep.energy_points", int(points[j]))]),
            ["tube"] + _sets(scenario + tube),
            ["coherence"] + _sets([
                ("coherence.probe_energy_mev", _num(5.135)),
                ("coherence.probe_direction", "co_propagating"),
                ("coherence.theta_over_pi", _num(thetas[j])),
                ("coherence.radiation_wavelength_nm", _num(0.8707)),
                ("coherence.radiation_intensity_w_m2", _num(1e26)),
                ("coherence.measured_shift", _num(shifts[j]))]),
            ["limits"] + _sets(scenario),
        ])
    return jobs


WORKLOADS = {
    "angular_weak": angular_weak,
    "angular_strong": angular_strong,
    "reports": reports,
}


def overrides(call):
    """The {key: text} of one argument vector's --set pairs."""
    pairs = call[2::2]
    return dict(p.split("=", 1) for p in pairs)
