"""Bundled worked example: a two-channel first-order model.

The model below is simple enough that the whole pipeline can be written in
closed form, which makes it a useful end-to-end self check.  ``run_demo``
recomputes everything and compares against the closed-form values; the CLI
``example`` command prints one line per comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divisors import SubspaceSpec, divisor_from_projector
from .factors import extract_left_divisor, family_member, minimal_factor
from .matnum import DEFAULT_TOL, ToleranceConfig
from .spectral import conjugate_phase, spectrum_samples
from .statespace import Realization, eval_gap, series

__all__ = ["reference_model", "reference_values", "run_demo", "DemoCheck"]


def reference_model() -> Realization:
    """Outer factor of the reference density: two decoupled channels
    (z - 1/4)/(z - 1/2) and (z - 1/3)/(z - 1/2)."""
    return Realization(
        0.5 * np.eye(2), np.eye(2), np.diag([0.25, 1.0 / 6.0]), np.eye(2)
    )


def reference_values() -> dict:
    """Closed-form pipeline quantities for the reference model.

    All entries are exact rationals evaluated in double precision; the test
    suite re-derives them independently with rational arithmetic.
    """
    t_a = np.diag([0.25, 1.0 / 3.0, 2.0, 2.0])
    t_b = np.array([
        [-15.0 / 14.0, 0.0],
        [0.0, -16.0 / 15.0],
        [-3.0 / 7.0, 0.0],
        [0.0, -3.0 / 10.0],
    ])
    t_c = np.array([
        [0.25, 0.0, 2.0, 0.0],
        [0.0, 1.0 / 6.0, 0.0, 2.0],
    ])
    t_d = np.diag([0.5, 2.0 / 3.0])
    p0_inv = np.array([
        [-1.0 / 15.0, 0.0, -1.0, 0.0],
        [0.0, -1.0 / 32.0, 0.0, -1.0],
        [-1.0, 0.0, 4.0 / 3.0, 0.0],
        [0.0, -1.0, 0.0, 4.0 / 3.0],
    ])
    w_bar_minus = Realization(
        2.0 * np.eye(2),
        np.array([[-4.0 / 5.0, 8.0 / 5.0], [-8.0 / 5.0, -4.0 / 5.0]]),
        np.array([[-7.0 / 8.0, -7.0 / 4.0], [5.0 / 3.0, -5.0 / 6.0]]),
        2.0 * np.eye(2),
    )
    return {
        "x": np.diag([-1.0 / 15.0, -1.0 / 32.0]),
        "y": np.diag([49.0 / 3.0, 100.0 / 3.0]),
        "z": (4.0 / 3.0) * np.eye(2),
        "b_plus": np.diag([-3.5, -5.0]),
        "d_plus": np.diag([0.25, 1.0 / 3.0]),
        "t_a": t_a, "t_b": t_b, "t_c": t_c, "t_d": t_d,
        "p0_inv": p0_inv,
        "pi_2": np.diag([0.0, 0.0, 1.0, 1.0]),
        "divisor_2": Realization(2.0 * np.eye(2), 1.5 * np.eye(2),
                                 2.0 * np.eye(2), 2.0 * np.eye(2)),
        "w_bar_minus": w_bar_minus,
        "phi_at_one": np.diag([2.25, 16.0 / 9.0]),
        "phi22_num": (2.0 / 3.0, -20.0 / 9.0, 2.0 / 3.0),
        "phi22_den": (1.0, -2.5, 1.0),
    }


def theta_feedthrough(theta: float) -> np.ndarray:
    """Closed-form feedthrough of the angle-family divisor."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[1.0 + c * c, c * s], [c * s, 1.0 + s * s]])


@dataclass(frozen=True)
class DemoCheck:
    label: str
    residual: float
    tol: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def _gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) if np.size(a) else 0.0


def run_demo(config: ToleranceConfig = DEFAULT_TOL) -> list[DemoCheck]:
    """Run the full pipeline on the reference model against the closed-form
    values.  Returns one check per comparison."""
    tol = 1e-10
    w_minus = reference_model()
    ref = reference_values()
    cp = conjugate_phase(w_minus, config)
    ext = cp.extremals
    t_gamma = divisor_from_projector(cp, np.eye(4) - ref["pi_2"], config)

    checks = [
        DemoCheck("Stein solution X (zero direction)", _gap(ext.x, ref["x"]), tol,
                  note="negative definite by construction; the sign of the "
                       "top-left Gramian block follows from the defining "
                       "Stein equation"),
        DemoCheck("Stein solution Y (pole direction)", _gap(ext.y, ref["y"]), tol),
        DemoCheck("Stein solution Z = A Z A^T + B B^T", _gap(ext.z, ref["z"]),
                  tol),
        DemoCheck("W+ = W- T_Gamma (divisor of the full Gamma block)",
                  eval_gap(ext.w_plus, series(w_minus, t_gamma.t_ell),
                           config=config), tol),
        DemoCheck("Wbar+ = W- T",
                  eval_gap(ext.w_bar_plus, series(w_minus, cp.t),
                           config=config), tol),
        DemoCheck("maximum-phase factor B+, D+",
                  max(_gap(ext.w_plus.b, ref["b_plus"]),
                      _gap(ext.w_plus.d, ref["d_plus"])), tol),
        DemoCheck("conjugate phase state matrix", _gap(cp.t.a, ref["t_a"]), tol),
        DemoCheck("conjugate phase input matrix", _gap(cp.t.b, ref["t_b"]), tol),
        DemoCheck("conjugate phase output matrix", _gap(cp.t.c, ref["t_c"]), tol),
        DemoCheck("conjugate phase feedthrough", _gap(cp.t.d, ref["t_d"]), tol),
        DemoCheck("Gramian inverse [[X, -I], [-I, Z]]",
                  _gap(cp.p0_inv, ref["p0_inv"]), tol),
    ]

    div2 = divisor_from_projector(cp, ref["pi_2"], config)
    d2 = ref["divisor_2"]
    checks.append(DemoCheck(
        "divisor of the outside-block projector (2I, 1.5I, 2I, 2I)",
        max(_gap(div2.t_ell.a, d2.a), _gap(div2.t_ell.b, d2.b),
            _gap(div2.t_ell.c, d2.c), _gap(div2.t_ell.d, d2.d)), tol))

    w2, rep2 = minimal_factor(w_minus, div2, config)
    checks.append(DemoCheck("unstable minimum-phase factor: degree 2",
                            abs(rep2.degree - 2), 0.5))
    checks.append(DemoCheck("unstable minimum-phase factor: spectrum residual",
                            rep2.spectrum_residual, 1e-8))

    t_min, rep_c = extract_left_divisor(w_minus, ref["w_bar_minus"], config,
                                        w_bar_plus=ext.w_bar_plus)
    checks.append(DemoCheck("closed-form candidate passes verification",
                            rep_c.spectrum_residual, 1e-8))
    checks.append(DemoCheck("candidate divisor degree 2",
                            abs(t_min.n - 2), 0.5))

    for theta in (0.0, np.pi / 4):
        spec = SubspaceSpec(a_basis=np.array([[np.cos(theta)], [np.sin(theta)]]))
        div, _, rep_theta = family_member(cp, spec)
        checks.append(DemoCheck(
            f"angle-family divisor feedthrough (theta={theta:.3f})",
            _gap(div.t_ell.d, theta_feedthrough(theta)), tol))
        checks.append(DemoCheck(
            f"angle-family factor degree 2, spectrum match (theta={theta:.3f})",
            max(float(abs(rep_theta.degree - 2)), rep_theta.spectrum_residual),
            1e-8))

    checks.append(DemoCheck("density at z = 1 is diag(9/4, 16/9)",
                            _gap(spectrum_samples(w_minus, [1.0], config)[0],
                                 ref["phi_at_one"]), 1e-12))
    return checks
