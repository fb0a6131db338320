"""Seeded inputs, operations and independent output checks.

Generators use numpy only and return plain ``(A, B, C, D)`` tuples (or JSON
files for the CLI); the library sees nothing but these realizations.  No
model is ever filtered on what the library does with it: every typed
``SpectralFactorsError`` an op raises is counted as a failed op.

Checks evaluate transfer functions with numpy directly, so a wrong answer
from the library cannot certify itself.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Spectral factors are compared on this many circle points, offset from the
# library's own sample grid.
CHECK_POINTS = 64
# Threshold for the identities checked on the circle: an extracted divisor
# is orthogonally equivalent to the generated one, and T_l T_r = T.  The
# acceptance suite certifies the same round trip at this level.
EQUIV_TOL = 1e-7


# --------------------------------------------------------------- generators

def _rng(seed, *stream):
    return np.random.default_rng([int(s) % 2**63 for s in (seed, *stream)])


def _orthogonal(rng, k):
    q, r = np.linalg.qr(rng.normal(size=(k, k)))
    return q * np.sign(np.diag(r))


def _scaled_state(rng, n, lo, hi, min_mod):
    """Gaussian n x n matrix scaled to a spectral radius in [lo, hi], redrawn
    until every eigenvalue modulus exceeds ``min_mod``."""
    while True:
        a = rng.normal(size=(n, n))
        eigs = np.linalg.eigvals(a)
        a *= rng.uniform(lo, hi) / max(abs(eigs))
        if min(abs(np.linalg.eigvals(a))) > min_mod:
            return a


def block_count(m):
    """Real eigenvalues plus complex pairs: the number of eigen blocks the
    divisor enumeration toggles on one side."""
    e = np.linalg.eigvals(m)
    real = int(np.sum(np.abs(e.imag) <= 1e-9 * max(1.0, np.max(np.abs(e)))))
    return real + (len(e) - real) // 2


def random_outer(rng, n):
    """The acceptance suite's random outer recipe with m = 2 (D = I, zero
    matrix kept stable by shrinking C) without its library-outcome and
    Gramian-condition filters.  Only the structural pole/zero range draws
    are kept."""
    m = 2
    while True:
        a = _scaled_state(rng, n, 0.4, 0.85, 0.2)
        b = rng.normal(size=(n, m)) / np.sqrt(n)
        c = rng.normal(size=(m, n)) / np.sqrt(n)
        for _ in range(60):
            g = np.linalg.eigvals(a - b @ c)
            if max(abs(g)) < 0.9 and min(abs(g)) > 0.2:
                return a, b, c, np.eye(m)
            c = c * 0.7


# One round of roundtrip-small: (n, pole blocks, zero blocks) per model.  The
# enumeration cost is 2^(blocks) divisors, so the mix is fixed per round and
# only the values vary with the seed; otherwise one rare 1024-divisor draw
# would swing a whole run.  Every stratum has five blocks in all, so 32
# divisors, and costs about the same per op: these models often fail, and
# with like ops a failure more or less leaves the throughput of the rest
# unchanged.  n = 5 has at least three blocks a side, so it is left out.
ROUNDTRIP_STRATA = (
    (3, 3, 2), (3, 2, 3), (4, 3, 2), (4, 2, 3),
    (3, 3, 2), (3, 2, 3), (4, 3, 2), (4, 2, 3),
)


def roundtrip_round(seed, index):
    """Models of one round: the random recipe, drawn until each model has
    its stratum's pole and zero block counts."""
    out = []
    for slot, (n, ka, kg) in enumerate(ROUNDTRIP_STRATA):
        rng = _rng(seed, 1, index, slot)
        while True:
            a, b, c, d = random_outer(rng, n)
            if block_count(a) == ka and block_count(a - b @ c) == kg:
                out.append((a, b, c, d))
                break
    return out


def _cyclic_channel(s, alpha, beta):
    """(z^s - alpha)/(z^s - beta) as an s-state cyclic chain."""
    a = np.diag(np.ones(s - 1), -1)
    a[0, s - 1] = beta
    b = np.zeros((s, 1))
    b[0, 0] = 1.0
    c = np.zeros((1, s))
    c[0, s - 1] = beta - alpha
    return a, b, c


def seasonal_model(rng, s):
    """Two seasonal ARMA(1,1)_s channels, n = 2s, mixed by random
    orthogonal state, input and output transforms."""
    n = 2 * s
    a = np.zeros((n, n))
    b = np.zeros((n, 2))
    c = np.zeros((2, n))
    for ch in range(2):
        beta = rng.uniform(0.85, 0.95) ** s
        alpha = rng.uniform(0.55, 0.8) ** s
        ai, bi, ci = _cyclic_channel(s, alpha, beta)
        sl = slice(ch * s, (ch + 1) * s)
        a[sl, sl], b[sl, ch:ch + 1], c[ch:ch + 1, sl] = ai, bi, ci
    t = _orthogonal(rng, n)
    q_in, q_out = _orthogonal(rng, 2), _orthogonal(rng, 2)
    return t @ a @ t.T, t @ b @ q_in, q_out @ c @ t.T, q_out @ q_in


def varma_model(rng, n):
    """VARMA(1,1) y_t = A y_{t-1} + e_t + Theta e_{t-1} realised as
    (A, A + Theta, I, I); its zeros are the eigenvalues of -Theta.

    A and Theta are drawn until each has exactly two real eigenvalues: the
    Loewner matrices of ``minimal`` grow with the number of distinct pole
    moduli, so this keeps the cost of equal-size models alike.
    """
    def draw(lo, hi):
        while True:
            m = _scaled_state(rng, n, lo, hi, 0.1)
            if block_count(m) == n // 2 + 1:
                return m
    a = draw(0.5, 0.85)
    theta = draw(0.3, 0.7)
    return a, a + theta, np.eye(n), np.eye(n)


# One round of each session workload, one model per entry.  Seasonal
# sessions fail often at n = 24 and 32, so the round carries eight n = 16
# sessions next to one of each larger size: the count of successful ops then
# moves little from seed to seed, while n = 32 still takes about half the
# round's time.  VARMA rounds are weighted to n = 12, so the median and the
# tail percentile fall inside one size class whatever the number of rounds.
SEASONAL_PERIODS = (8,) * 8 + (12, 16)          # n = 2s
VARMA_DIMS = (8, 12, 12, 12, 16)


def seasonal_round(seed, index):
    return [seasonal_model(_rng(seed, 2, index, slot), s)
            for slot, s in enumerate(SEASONAL_PERIODS)]


def varma_round(seed, index):
    return [varma_model(_rng(seed, 3, index, slot), n)
            for slot, n in enumerate(VARMA_DIMS)]


def warmup_model(workload):
    """Smallest member of a workload's family; fixed, so set-up time does
    not depend on the seed."""
    if workload == "roundtrip-small":
        return random_outer(_rng(0, 9), 2)
    if workload == "seasonal-large":
        return seasonal_model(_rng(0, 9), SEASONAL_PERIODS[0])
    return varma_model(_rng(0, 9), VARMA_DIMS[0])


# ---------------------------------------------------------- library ops

def roundtrip_op(sf, w, config):
    """One model's full family: conjugate phase, divisor enumeration, then a
    factor and its extracted divisor for every divisor."""
    cp = sf.conjugate_phase(w, config)
    out = []
    for div in sf.enumerate_divisors(cp, config):
        w_fac, _ = sf.minimal_factor(w, div, config)
        t_back, _ = sf.extract_left_divisor(
            w, w_fac, config, w_bar_plus=cp.extremals.w_bar_plus)
        out.append((div, w_fac, t_back))
    return cp, out, []


def session_op(sf, w, config):
    """One analyze-and-factor session: validate, conjugate phase, Gramian
    check and block tables, then a fixed spec set (empty, all gamma, all a,
    one block on each side), each generated and extracted."""
    sf.validate_outer(w, config)
    cp = sf.conjugate_phase(w, config)
    gramian = sf.check_gramian_identities(cp, config)
    g_blocks = sf.eigen_blocks(cp.gamma, config)
    a_blocks = sf.eigen_blocks(cp.a_inv_t, config)
    specs = [
        sf.SubspaceSpec(),
        sf.SubspaceSpec(gamma_select=range(cp.n_gamma)),
        sf.SubspaceSpec(a_select=range(cp.n_a)),
        sf.SubspaceSpec(gamma_select=g_blocks[0].indices,
                        a_select=a_blocks[0].indices),
    ]
    out = []
    for spec in specs:
        pi = sf.projector_from_spec(cp, spec, config)
        div = sf.divisor_from_projector(cp, pi, config)
        w_fac, _ = sf.minimal_factor(w, div, config)
        t_back, _ = sf.extract_left_divisor(
            w, w_fac, config, w_bar_plus=cp.extremals.w_bar_plus)
        out.append((div, w_fac, t_back))
    return cp, out, [] if gramian.passed else ["Gramian identities fail"]


# ---------------------------------------------------------------- checks

def _circle():
    k = CHECK_POINTS
    return np.exp(1j * (0.1234567 + 2.0 * np.pi * np.arange(k) / k))


def transfer(a, b, c, d, zs):
    """G(z) = D + C (zI - A)^{-1} B at each point, shape (k, p, m)."""
    a, b, c, d = (np.asarray(x, dtype=float) for x in (a, b, c, d))
    if a.shape[0] == 0:
        return np.broadcast_to(d.astype(complex), (len(zs),) + d.shape)
    lhs = zs[:, None, None] * np.eye(a.shape[0]) - a
    return c @ np.linalg.solve(lhs, np.broadcast_to(b + 0j, (len(zs),) + b.shape)) + d


def _abcd(r):
    return r.a, r.b, r.c, r.d


def spectrum(abcd, zs):
    g = transfer(*abcd, zs)
    return g @ np.conj(np.swapaxes(g, -1, -2))


def spectrum_relgap(abcd_factor, phi_ref, zs):
    """Largest entrywise gap to the reference spectrum, relative to the
    reference's largest entry."""
    gap = np.max(np.abs(spectrum(abcd_factor, zs) - phi_ref))
    return float(gap / np.max(np.abs(phi_ref)))


def equivalence_gap(r1, r2, zs):
    """Distance of G1^{-1} G2 from one constant real orthogonal matrix."""
    o = np.linalg.solve(transfer(*_abcd(r1), zs), transfer(*_abcd(r2), zs))
    o_ref = np.real(o[0])
    gap = float(np.max(np.abs(o - o_ref)))
    return max(gap, float(np.linalg.norm(o_ref.T @ o_ref - np.eye(len(o_ref)))))


def check_family(w_abcd, n, cp, results, residual_tol, additivity):
    """Check every (divisor, factor, extracted divisor) triple of an op.

    With ``additivity`` each divisor must carry its right complement T_r:
    degrees add up to 2n and T_l T_r matches the conjugate phase T on the
    circle.  Returns (worst relative spectrum residual, failure reasons).
    """
    zs = _circle()
    phi_ref = spectrum(w_abcd, zs)
    scale = float(np.max(np.abs(phi_ref)))
    t_ref = transfer(*_abcd(cp.t), zs) if additivity else None
    worst, reasons = 0.0, []
    for div, w_fac, t_back in results:
        if w_fac.n != n:
            reasons.append(f"factor degree {w_fac.n} != {n}")
        rel = spectrum_relgap(_abcd(w_fac), phi_ref, zs)
        worst = max(worst, rel)
        if not rel * scale <= residual_tol * max(1.0, scale):
            reasons.append(f"factor spectrum residual {rel * scale:.2e}")
        rank = int(sum(div.subspace_dims))
        if div.degree != rank:
            reasons.append(f"divisor degree {div.degree} != rank {rank}")
        if t_back.n != div.degree:
            reasons.append(f"extracted degree {t_back.n} != {div.degree}")
        elif div.degree and equivalence_gap(div.t_ell, t_back, zs) > EQUIV_TOL:
            reasons.append("extracted divisor not orthogonally equivalent")
        if additivity:
            reasons += _complement_reasons(div, n, t_ref, zs)
    return worst, reasons


def _complement_reasons(div, n, t_ref, zs):
    t_r = div.right_complement
    if t_r is None:
        return ["divisor has no right complement"]
    if div.degree + t_r.n != 2 * n:
        return ["degree additivity fails"]
    prod = transfer(*_abcd(div.t_ell), zs) @ transfer(*_abcd(t_r), zs)
    gap = float(np.max(np.abs(prod - t_ref)) / np.max(np.abs(t_ref)))
    return [f"T_l T_r differs from T by {gap:.2e}"] if gap > EQUIV_TOL else []


# ------------------------------------------------------------------- CLI

CLI_SPECS = {"specs": [
    {},
    {"a_select": [0, 1]},
    {"a_select": [0, 1], "theta_grid": 4},
    {"gamma_select": [0]},
]}
CLI_FACTORS = 7      # theta_grid expands to four specs
CLI_SPECTRUM_ROWS = 512
# Relative spectrum residual a CLI factor or spectrum sample must meet.
CLI_RESIDUAL_TOL = 1e-8
CLI_LABELS = ("example", "analyze", "analyze_moebius", "factors",
              "factors_moebius", "verify_factor", "verify_nonfactor",
              "spectrum")


def _cli_channels(seed, index):
    """Two first-order channels (z - zeta_i)/(z - rho) sharing the pole rho,
    so A^{-T} has the repeated eigenvalue a theta_grid samples."""
    rng = _rng(seed, 4, index)
    rho = rng.uniform(0.35, 0.7)
    zeta = np.sort(rng.uniform(0.1, 0.3, size=2)) + np.array([0.0, 0.05])
    return rho, zeta, _orthogonal(rng, 2), _orthogonal(rng, 2)


def _cli_realization(rho, zeta, q_in, q_out, flip=False, zeta_scale=1.0):
    """Mixed outer model, or with ``flip`` the factor whose first zero is
    reflected to 1/zeta_1 (same spectrum, same degree)."""
    z = zeta * np.array([zeta_scale, 1.0])
    c = np.diag(rho - z)
    d = np.eye(2)
    if flip:
        c[0, 0], d[0, 0] = 1.0 - z[0] * rho, -z[0]
    return rho * np.eye(2), q_in, q_out @ c, q_out @ d @ q_in


def _write_model(path, abcd, name):
    doc = {"name": name}
    for key, mat in zip("ABCD", abcd):
        doc[key] = np.asarray(mat, dtype=float).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def cli_inputs(seed, index, workdir):
    """Write the model, the spec file, a true factor and a non-factor."""
    rho, zeta, q_in, q_out = _cli_channels(seed, index)
    w = _cli_realization(rho, zeta, q_in, q_out)
    files = {
        "model": os.path.join(workdir, "model.json"),
        "specs": os.path.join(workdir, "specs.json"),
        "factor": os.path.join(workdir, "factor.json"),
        "nonfactor": os.path.join(workdir, "nonfactor.json"),
    }
    _write_model(files["model"], w, "two_channel")
    _write_model(files["factor"],
                 _cli_realization(rho, zeta, q_in, q_out, flip=True), "flip")
    _write_model(files["nonfactor"],
                 _cli_realization(rho, zeta, q_in, q_out, zeta_scale=0.8),
                 "moved_zero")
    with open(files["specs"], "w", encoding="utf-8") as fh:
        json.dump(CLI_SPECS, fh)
    return w, files


def cli_mix(files, workdir):
    """(label, argv, expected exit code) for each command of the mix."""
    m, s = files["model"], files["specs"]
    return [
        ("example", ["example"], 0),
        ("analyze", ["analyze", m], 0),
        ("analyze_moebius", ["analyze", m, "--moebius"], 0),
        ("factors", ["factors", m, s, "-d", os.path.join(workdir, "fam")], 0),
        ("factors_moebius", ["factors", m, s, "--moebius", "-d",
                             os.path.join(workdir, "fam_m")], 0),
        ("verify_factor", ["verify", m, files["factor"]], 0),
        ("verify_nonfactor", ["verify", m, files["nonfactor"]], 1),
        ("spectrum", ["spectrum", m, "-n", str(CLI_SPECTRUM_ROWS)], 0),
    ]


def _read_abcd(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return tuple(np.asarray(doc[k], dtype=float) for k in "ABCD")


def check_cli(label, stdout, w, workdir):
    """Check one command's output beyond its exit code.

    Returns (worst relative residual or None, certified factors, reasons).
    """
    reasons = []
    if label == "example":
        last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
        parts = last.split()[0].split("/") if last.endswith("checks passed") else []
        if len(parts) != 2 or parts[0] != parts[1]:
            reasons.append(f"example summary {last!r}")
        return None, 0, reasons
    if label.startswith("analyze"):
        rep = json.loads(stdout)
        if not rep["gramian_pass"]:
            reasons.append("Gramian identities fail")
        if len(rep["conjugate_phase"]["A"]) != 4:
            reasons.append("conjugate phase is not of degree 2n")
        if (rep["moebius_a"] is None) == label.endswith("moebius"):
            reasons.append("Moebius parameter missing or unexpected")
        return None, 0, reasons
    if label.startswith("factors"):
        outdir = os.path.join(workdir, "fam_m" if label.endswith("moebius") else "fam")
        with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
            rows = json.load(fh)["factors"]
        if len(rows) != CLI_FACTORS:
            reasons.append(f"{len(rows)} factors, expected {CLI_FACTORS}")
        zs = _circle()
        phi_ref = spectrum(w, zs)
        scale = float(np.max(np.abs(phi_ref)))
        worst = 0.0
        for row in rows:
            abcd = _read_abcd(os.path.join(outdir, row["file"]))
            rel = spectrum_relgap(abcd, phi_ref, zs)
            worst = max(worst, rel)
            if abcd[0].shape[0] != 2 or not row["passed"]:
                reasons.append(f"{row['file']} not a degree-2 factor")
            if not rel * scale <= CLI_RESIDUAL_TOL * max(1.0, scale):
                reasons.append(f"{row['file']} spectrum residual {rel * scale:.2e}")
        return worst, len(rows), reasons
    if label == "spectrum":
        lines = stdout.strip().splitlines()
        if len(lines) != CLI_SPECTRUM_ROWS + 1:
            reasons.append(f"{len(lines) - 1} spectrum rows")
            return None, 0, reasons
        data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        phi = spectrum(w, np.exp(1j * data[:, 0]))
        got = np.stack([data[:, 1], data[:, 2], data[:, 3] + 1j * data[:, 4]], 1)
        want = np.stack([phi[:, 0, 0], phi[:, 1, 1], phi[:, 0, 1]], 1)
        rel = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        if rel > CLI_RESIDUAL_TOL:
            reasons.append(f"spectrum samples off by {rel:.2e}")
        return rel, 0, reasons
    return None, 0, reasons
