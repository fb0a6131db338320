"""Shared test utilities: the closed-form reference channels, a
well-conditioned random outer-model generator, the benchmark's
unfiltered random recipe, the fuzz recipe, two sampled transfer comparisons
and the scalar Moebius map with its inverse."""

import functools
import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np

import spectralfactors as sf
from spectralfactors.statespace import eval_gap


def channel_transfer(z, zero, pole):
    """Scalar rational (z - zero)/(z - pole) over Fractions or complex."""
    return (z - zero) / (z - pole)


def ref_w_minus_entry(z, i):
    """Diagonal entry i of the reference outer factor, exact rational."""
    zeros = (Fraction(1, 4), Fraction(1, 3))
    return channel_transfer(z, zeros[i], Fraction(1, 2))


def ref_density_entry(z, i):
    """Diagonal entry i of the reference density, exact rational in z."""
    return ref_w_minus_entry(z, i) * ref_w_minus_entry(1 / z, i)


def random_outer(seed, n_max=5, m=2):
    """Random minimal outer factor with D = I and the zero matrix kept
    stable by shrinking the output map.

    Models are rejected unless both Stein solutions are well conditioned;
    the ensemble probes the factorization theorem, so it stays where double
    precision can represent the theorem's content.
    """
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        n = int(rng.integers(1, n_max + 1))
        a = rng.normal(size=(n, n))
        radius = max(abs(np.linalg.eigvals(a)))
        a *= rng.uniform(0.4, 0.85) / radius
        if min(abs(np.linalg.eigvals(a))) < 0.2:
            continue
        b = rng.normal(size=(n, m)) / np.sqrt(n)
        c = rng.normal(size=(m, n)) / np.sqrt(n)
        ok = False
        for _ in range(60):
            gamma_eigs = np.linalg.eigvals(a - b @ c)
            if max(abs(gamma_eigs)) < 0.9 and min(abs(gamma_eigs)) > 0.2:
                ok = True
                break
            c = c * 0.7
        if not ok:
            continue
        w = sf.Realization(a, b, c, np.eye(m))
        try:
            sf.validate_outer(w)
            ext = sf.extremal_set(w)
        except sf.SpectralFactorsError:
            continue
        ex = np.abs(np.linalg.eigvalsh(ext.x))
        ey = np.abs(np.linalg.eigvalsh(ext.y))
        if ex.max() / ex.min() > 200 or ey.max() / ey.min() > 200 or ey.max() > 100:
            continue
        return w
    raise RuntimeError(f"no admissible model for seed {seed}")


@functools.cache
def bench_workloads():
    """The benchmark's model generators and numpy checks,
    ``bench/workloads.py``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    return wl


def recipe_outer(n, seed):
    """The benchmark's random outer recipe with no filter on conditioning
    or on what the library does with the model: model ``seed`` of state
    dimension ``n`` in the probe stream 99."""
    wl = bench_workloads()
    return sf.Realization(*wl.random_outer(wl._rng(99, n, seed), n))


def fuzz_outer(seed):
    """A random model W = (A, B, C, I) with n <= 8 and m <= 3, neither
    filtered on conditioning nor guaranteed outer (its zeros may lie
    outside the disc)."""
    rng = np.random.default_rng(seed)
    n, m, _ = rng.integers(1, 9), rng.integers(1, 4), rng.integers(0, 6)
    a = rng.normal(size=(n, n))
    a *= rng.uniform(0.1, 0.999) / max(abs(np.linalg.eigvals(a)))
    b = rng.normal(size=(n, m))
    c = rng.normal(size=(m, n)) * rng.uniform(0.01, 0.5)
    return sf.Realization(a, b, c, np.eye(m))


def transfer_equal(r1, r2, config=sf.DEFAULT_TOL):
    """Same widths, same McMillan degree and sampled transfer gap within
    ``residual_tol`` relative to the larger feedthrough."""
    if (r1.n_out, r1.n_in) != (r2.n_out, r2.n_in):
        return False
    if sf.mcmillan_degree(r1, config) != sf.mcmillan_degree(r2, config):
        return False
    scale = 1.0 + max(np.max(np.abs(r.d), initial=0.0) for r in (r1, r2))
    return eval_gap(r1, r2, config=config) <= config.residual_tol * scale


def equivalence_gap(r1, r2):
    """The benchmark's numpy distance of G1^{-1} G2 from one constant real
    orthogonal matrix, on its 64 offset circle points."""
    wl = bench_workloads()
    return wl.equivalence_gap(r1, r2, wl._circle())


def full_gamma_divisor(cp):
    """The left divisor of the whole Gamma block; W+ = W- times it."""
    pi = np.zeros((cp.t.n, cp.t.n))
    pi[:cp.n_gamma, :cp.n_gamma] = np.eye(cp.n_gamma)
    return sf.divisor_from_projector(cp, pi)


def moebius_image(z, a):
    """Scalar Moebius map z -> (z - a) / (1 - a z); maps circle to circle."""
    z = np.asarray(z, dtype=complex)
    return (z - a) / (1.0 - a * z)


def moebius_preimage(lam, a):
    """Inverse of moebius_image: lam -> (lam + a) / (1 + a lam)."""
    lam = np.asarray(lam, dtype=complex)
    return (lam + a) / (1.0 + a * lam)


def circle_points(k):
    return np.exp(2j * np.pi * np.arange(k) / k)
