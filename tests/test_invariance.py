"""Invariance harness: the factor family does not depend on the state
coordinates.

A state similarity (S A S^{-1}, S B, C S^{-1}, D) leaves the transfer
function of W-, hence its spectral density and the family of its minimal
spectral factors, unchanged.  The models are the first three of
``roundtrip_round(s, 0)`` for s = 0..3 (n = 3 and 4), with the benchmark's
round-trip config.  Each is taken through a seeded similarity
S = U diag(logspace(0, L, n)) V^T with random orthogonal U and V, so
cond S = 10^L, and through a seeded state permutation.

Each transformed family (conjugate phase, divisor enumeration and
``minimal_factor`` for every divisor) must either be the untransformed
family or raise a typed ``SpectralFactorsError``.  Factors are matched by
their divisor's subspace dims and pole set, and must agree to
``FAMILY_TOL`` relative to max(1, max |W|) on the benchmark's 64 offset
circle points, evaluated with numpy.  Up to cond S = 1e2 every case must
give the family.

The Moebius leg builds the family of each model in the variable of
``conjugate_phase(w, CONFIG, moebius_param=a)`` for a = +-0.5, one
``family_member`` per block-subset spec, each factor mapped back to the
original variable.  A divisor's pole p' there is the pole
p = (p' + a) / (1 + a p') of the original variable.  Each divisor's
feedthrough is normalised at infinity of its own variable, so a mapped-back
factor equals the ungated one only up to a constant orthogonal right
factor: the two must agree modulo it to ``FAMILY_TOL`` (the benchmark's
``equivalence_gap``).
"""

import functools
from itertools import combinations

import numpy as np
import pytest

import spectralfactors as sf
from spectralfactors.factors import family_member

from helpers import bench_workloads

CONFIG = sf.ToleranceConfig(circle_samples=64, residual_tol=1e-7)
FAMILY_TOL = 1e-7
MODELS = [(seed, slot) for seed in range(4) for slot in range(3)]
TRANSFORMS = ("cond1e0", "cond1e2", "cond1e4", "cond1e8", "permutation")
MOEBIUS = (0.5, -0.5)


def _cases(legs):
    return [pytest.param(leg, seed, slot, id=f"{leg}-s{seed}m{slot}")
            for leg in legs for seed, slot in MODELS]


@functools.cache
def _round(seed):
    return bench_workloads().roundtrip_round(seed, 0)


def _model(seed, slot):
    return _round(seed)[slot]


def _family(w):
    """(subspace dims, divisor poles, factor) of every enumerated divisor
    of ``w``."""
    cp = sf.conjugate_phase(w, CONFIG)
    return [(div.subspace_dims, np.linalg.eigvals(div.t_ell.a),
             sf.minimal_factor(w, div, CONFIG)[0])
            for div in sf.enumerate_divisors(cp, CONFIG)]


def _block_specs(cp):
    """The selection of every block subset pair of ``cp``."""
    def subsets(blocks):
        return [sum((b.indices for b in s), ())
                for k in range(len(blocks) + 1)
                for s in combinations(blocks, k)]
    return [sf.SubspaceSpec(gamma_select=g, a_select=a)
            for g in subsets(cp.gamma_blocks) for a in subsets(cp.a_blocks)]


def _moebius_family(w, a):
    """(subspace dims, divisor poles mapped back, factor in the original
    variable) of every block-subset spec of the family gated by ``a``."""
    cp = sf.conjugate_phase(w, CONFIG, moebius_param=a)
    out = []
    for spec in _block_specs(cp):
        div, f, _ = family_member(cp, spec)
        p = np.linalg.eigvals(div.t_ell.a)
        out.append((div.subspace_dims, (p + a) / (1 + a * p), f))
    return out


@functools.cache
def _base_family(seed, slot):
    return _family(sf.Realization(*_model(seed, slot)))


def _transformed(transform, seed, slot):
    """The model in new state coordinates, and cond S."""
    a, b, c, d = _model(seed, slot)
    n = a.shape[0]
    rng = np.random.default_rng([seed, slot, 10])
    if transform == "permutation":
        perm = rng.permutation(n)
        while np.array_equal(perm, np.arange(n)):
            perm = rng.permutation(n)
        s = np.eye(n)[perm]
    else:
        wl = bench_workloads()
        u, v = wl._orthogonal(rng, n), wl._orthogonal(rng, n)
        s = u @ np.diag(np.logspace(0, int(transform[-1]), n)) @ v.T
    s_inv = np.linalg.inv(s)
    return sf.Realization(s @ a @ s_inv, s @ b, c @ s_inv, d), np.linalg.cond(s)


def _pole_distance(p, q):
    """Hausdorff distance of two pole sets of one size."""
    if not p.size:
        return 0.0
    d = np.abs(p[:, None] - q[None, :])
    return max(d.min(axis=0).max(), d.min(axis=1).max())


def _relative_gap(f0, f, zs):
    wl = bench_workloads()
    g0, g = (wl.transfer(r.a, r.b, r.c, r.d, zs) for r in (f0, f))
    return float(np.max(np.abs(g - g0)) / max(1.0, float(np.max(np.abs(g0)))))


def _family_gap(base, family, gap):
    """Largest ``gap`` between each factor of ``family`` and the factor of
    ``base`` whose divisor has its subspace dims and the nearest pole set,
    on the benchmark's circle points."""
    assert len(family) == len(base)
    zs = bench_workloads()._circle()
    worst = 0.0
    for dims, poles, f in family:
        matches = [(_pole_distance(poles, p0), f0)
                   for d0, p0, f0 in base if d0 == dims]
        assert matches, dims
        f0 = min(matches, key=lambda m: m[0])[1]
        worst = max(worst, gap(f0, f, zs))
    return worst


@pytest.mark.parametrize("transform, seed, slot", _cases(TRANSFORMS))
def test_transformed_family_is_the_family_or_a_typed_refusal(transform, seed,
                                                             slot):
    w, cond = _transformed(transform, seed, slot)
    try:
        family = _family(w)
    except sf.SpectralFactorsError:
        assert cond > 1e2
        return
    assert (_family_gap(_base_family(seed, slot), family, _relative_gap)
            <= FAMILY_TOL)


@pytest.mark.parametrize("a, seed, slot", _cases(MOEBIUS))
def test_moebius_family_mapped_back_is_the_family(a, seed, slot):
    family = _moebius_family(sf.Realization(*_model(seed, slot)), a)
    assert (_family_gap(_base_family(seed, slot), family,
                        bench_workloads().equivalence_gap) <= FAMILY_TOL)
