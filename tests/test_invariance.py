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

Where scipy's Kronecker Lyapunov solve inside ``solve_stein`` meets a
singular matrix, it warns with ``LinAlgWarning`` before the typed refusal
that follows; tier-1 turns that warning into an error, so the case raises
an untyped exception.  Those cases are strict xfails naming ROADMAP item
10(b) (no untyped error in bad coordinates), so a fix shows.
"""

import functools

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning

import spectralfactors as sf

from helpers import bench_workloads

CONFIG = sf.ToleranceConfig(circle_samples=64, residual_tol=1e-7)
FAMILY_TOL = 1e-7
MODELS = [(seed, slot) for seed in range(4) for slot in range(3)]
TRANSFORMS = ("cond1e0", "cond1e2", "cond1e4", "cond1e8", "permutation")
# (transform, seed, slot) whose solve_stein warns under this seeding.
STEIN_WARNS = {
    ("cond1e4", 0, 0), ("cond1e4", 0, 1), ("cond1e4", 1, 0),
    ("cond1e4", 1, 1), ("cond1e4", 2, 0),
    ("cond1e8", 0, 0), ("cond1e8", 0, 2), ("cond1e8", 1, 0),
    ("cond1e8", 1, 1), ("cond1e8", 2, 1), ("cond1e8", 2, 2),
    ("cond1e8", 3, 2),
}


def _cases():
    for transform in TRANSFORMS:
        for seed, slot in MODELS:
            marks = ()
            if (transform, seed, slot) in STEIN_WARNS:
                marks = pytest.mark.xfail(
                    strict=True, raises=LinAlgWarning,
                    reason="ROADMAP 10(b): solve_stein lets scipy's "
                           "LinAlgWarning through in bad coordinates")
            yield pytest.param(transform, seed, slot, marks=marks,
                               id=f"{transform}-s{seed}m{slot}")


@functools.cache
def _round(seed):
    return bench_workloads().roundtrip_round(seed, 0)


def _model(seed, slot):
    return _round(seed)[slot]


def _family(w):
    """(subspace dims, divisor poles, factor on the circle points) of every
    enumerated divisor of ``w``."""
    wl = bench_workloads()
    zs = wl._circle()
    cp = sf.conjugate_phase(w, CONFIG)
    out = []
    for div in sf.enumerate_divisors(cp, CONFIG):
        f = sf.minimal_factor(w, div, CONFIG)[0]
        out.append((div.subspace_dims, np.linalg.eigvals(div.t_ell.a),
                    wl.transfer(f.a, f.b, f.c, f.d, zs)))
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


def _family_gap(base, family):
    """Largest relative transfer gap between each factor of ``family`` and
    the factor of ``base`` whose divisor has its subspace dims and the
    nearest pole set."""
    assert len(family) == len(base)
    worst = 0.0
    for dims, poles, g in family:
        matches = [(_pole_distance(poles, p0), g0)
                   for d0, p0, g0 in base if d0 == dims]
        assert matches, dims
        g0 = min(matches, key=lambda m: m[0])[1]
        worst = max(worst, float(np.max(np.abs(g - g0))
                                 / max(1.0, float(np.max(np.abs(g0))))))
    return worst


@pytest.mark.parametrize("transform, seed, slot", _cases())
def test_transformed_family_is_the_family_or_a_typed_refusal(transform, seed,
                                                             slot):
    w, cond = _transformed(transform, seed, slot)
    try:
        family = _family(w)
    except sf.SpectralFactorsError:
        assert cond > 1e2
        return
    except LinAlgWarning as exc:
        # Re-raised without scipy's frames, which are slow to report.
        raise exc.with_traceback(None)
    assert _family_gap(_base_family(seed, slot), family) <= FAMILY_TOL
