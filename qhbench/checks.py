"""Checks computed apart from qhkit.

Every function here works from closed forms and the plain numbers a qhkit
call returned (coordinates, weights, distances, node paths); none of them
imports qhkit, so a fault in the program cannot hide in the check.  Each
`*_problems` function returns a list of messages, empty when the output
passes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

# |mesh - oracle| / oracle allowed at each grading, as the qhkit README states
# it ("Accuracy model": 2% at grading 0.05, 5% at grading 0.1).
ORACLE_TOL = {0.05: 0.02, 0.1: 0.05}
# A returned distance against the trapezoid sum recomputed along node_path.
# The two sums differ only in accumulation order, so 1e-9 is generous; one
# hop removed or a distance scaled by 1.05 moves the sum by far more.
PATH_RTOL = 1e-9
# Stored edge weights and boundary distances against their closed forms.
WEIGHT_RTOL = 1e-12
# An envelope estimate may sit on the exact bound up to floating rounding.
BOUND_RTOL = 1e-12


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def halfplane_k(x: complex, y: complex) -> float:
    """Hyperbolic distance in the upper half-plane, in its stable asinh form."""
    return 2.0 * math.asinh(abs(x - y) / (2.0 * math.sqrt(x.imag * y.imag)))


def punctured_k(x: complex, y: complex) -> float:
    """Flat distance on the log-cylinder: hypot(log|y|/|x|, angle in [0, pi])."""
    du = math.log(abs(y) / abs(x))
    dth = abs(math.atan2(x.imag, x.real) - math.atan2(y.imag, y.real))
    if dth > math.pi:
        dth = 2.0 * math.pi - dth
    return math.hypot(du, dth)


# The frame complex is the boundary of [-2, 2] x [0, 1]; frame-omega removes
# the closed top middle [-1, 1] x {1}, so its boundary is {(-1, 1), (1, 1)}.
_FRAME_BOUNDARY = (complex(-1.0, 1.0), complex(1.0, 1.0))
_FRAME_PERIMETER = 10.0


def _frame_arclength(z: np.ndarray) -> np.ndarray:
    """Counter-clockwise arclength from (-2, 0) around the frame rectangle."""
    x, y = z.real, z.imag
    return np.select(
        [np.isclose(y, 0.0), np.isclose(x, 2.0), np.isclose(y, 1.0)],
        [x + 2.0, 4.0 + y, 5.0 + (2.0 - x)],
        9.0 + (1.0 - y))


def _on_frame_omega(z: np.ndarray) -> np.ndarray:
    x, y = z.real, z.imag
    tol = 1e-9
    bottom = (np.abs(y) <= tol) & (np.abs(x) <= 2.0 + tol)
    sides = (np.abs(np.abs(x) - 2.0) <= tol) & (y >= -tol) & (y <= 1.0 + tol)
    stubs = (np.abs(y - 1.0) <= tol) & (np.abs(x) >= 1.0 - tol) & (np.abs(x) <= 2.0 + tol)
    gap = np.min([np.abs(z - b) for b in _FRAME_BOUNDARY], axis=0)
    return (bottom | sides | stubs) & (gap > tol)


def _frame_delta(z: np.ndarray) -> np.ndarray:
    return np.min([np.abs(z - b) for b in _FRAME_BOUNDARY], axis=0)


def _frame_length_delta(z: np.ndarray) -> np.ndarray:
    s = _frame_arclength(z)
    out = []
    for b in _FRAME_BOUNDARY:
        d = np.abs(s - _frame_arclength(np.array([b]))[0])
        out.append(np.minimum(d, _FRAME_PERIMETER - d))
    return np.min(out, axis=0)


@dataclass(frozen=True)
class Domain:
    """Closed-form membership and boundary distance of one meshed domain."""

    inside: Callable[[np.ndarray], np.ndarray]
    delta: Callable[[np.ndarray], np.ndarray]
    plane: bool
    k: Optional[Callable[[complex, complex], float]] = None


DOMAINS = {
    "halfplane": Domain(lambda z: z.imag > 0.0, lambda z: z.imag, True, halfplane_k),
    "punctured": Domain(lambda z: np.abs(z) > 0.0, np.abs, True, punctured_k),
    "disk": Domain(lambda z: np.abs(z) < 1.0, lambda z: 1.0 - np.abs(z), True),
    "frame-omega": Domain(_on_frame_omega, _frame_delta, False),
    "frame-omega-length": Domain(_on_frame_omega, _frame_length_delta, False),
}


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def trapezoid_length(path: Sequence[complex], delta: Callable[[complex], float]) -> float:
    """Trapezoid rule for the integral of 1/delta along the polyline path."""
    total = 0.0
    for p, q in zip(path, path[1:]):
        total += abs(p - q) * (1.0 / delta(p) + 1.0 / delta(q)) / 2.0
    return float(total)


def path_problems(distance: float, node_path: Sequence[complex], x: complex, y: complex,
                  delta: Callable[[complex], float]) -> list[str]:
    """The path must run from x to y and its trapezoid sum must equal distance."""
    if not node_path or node_path[0] != x or node_path[-1] != y:
        return [f"node_path does not run from {x} to {y}"]
    total = trapezoid_length(node_path, delta)
    if abs(total - distance) > PATH_RTOL * max(abs(total), 1.0):
        return [f"distance {distance!r} differs from the trapezoid sum {total!r} "
                f"along node_path ({x} -> {y})"]
    return []


def relerr(distance: float, exact: float) -> float:
    return abs(distance - exact) / exact


# ---------------------------------------------------------------------------
# Meshes
# ---------------------------------------------------------------------------

def mesh_problems(coords: np.ndarray, delta: np.ndarray, spacing: np.ndarray, graph,
                  domain: Domain, grading: Optional[float]) -> list[str]:
    """Nodes inside the domain, delta and edge weights equal to the closed
    forms, a symmetric graph and, on plane quadtrees, cells no larger than
    grading * delta at their centres."""
    problems = []
    if not np.all(domain.inside(coords)):
        problems.append("mesh node outside the region")
    exact = domain.delta(coords)
    if not np.allclose(delta, exact, rtol=WEIGHT_RTOL, atol=0.0):
        problems.append("node delta differs from the closed-form boundary distance")
    if domain.plane and grading is not None and \
            np.any(spacing > grading * exact * (1.0 + WEIGHT_RTOL)):
        problems.append("mesh cell larger than grading * delta")
    coo = graph.tocoo()
    if abs(graph - graph.T).max() != 0.0:
        problems.append("mesh graph is not symmetric")
    a, b = coords[coo.row], coords[coo.col]
    w = np.abs(a - b) * (1.0 / exact[coo.row] + 1.0 / exact[coo.col]) / 2.0
    if not np.allclose(coo.data, w, rtol=WEIGHT_RTOL, atol=0.0):
        problems.append("edge weight differs from the closed-form trapezoid weight")
    return problems


# ---------------------------------------------------------------------------
# Estimators, witnesses and constants
# ---------------------------------------------------------------------------

def affine_distortion(matrix) -> float:
    """sigma_max / sigma_min: the exact qc and weak-QS coefficient of z -> Az + b."""
    s = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    return float(s[0] / s[-1])


def bound_problems(label: str, estimate: float, bound: float) -> list[str]:
    if estimate > bound * (1.0 + BOUND_RTOL):
        return [f"{label} estimate {estimate!r} exceeds the bound {bound!r}"]
    return []


def inversion_witness_ratio(t: float) -> float:
    """|f(1) - f(1/t)| / |f(1) - f(t)| for the inversion f(z) = z/|z|^2."""
    return t


def shear_witness_ratio(n: float) -> float:
    """The shear's local witness ratio at base (n, 1/2): (2 sqrt 5 / 5)(n + 1)."""
    return 2.0 * math.sqrt(5.0) / 5.0 * (n + 1.0)


def witness_problems(label: str, ratio: float, expected: float) -> list[str]:
    if abs(ratio - expected) > 1e-12 * max(1.0, abs(expected)):
        return [f"{label} witness ratio {ratio!r} != {expected!r}"]
    return []


def chain_constant_problems(c: dict) -> list[str]:
    """The closed-form members of chain_constants, recomputed from (H, q, c)."""
    H, q, cc = c["H"], c["q"], c["c"]
    c0 = (1.0 + math.sqrt(3.0)) / 2.0
    alpha = 3.0
    beta = 6.0 * cc / q
    expected = {
        "ring_M": 2.0 * H * H * (H + 1.0),
        "alpha_ring": alpha,
        "beta": beta,
        "t0": 1.0 / (2.0 * cc * (2.0 * cc * alpha) ** 3 * beta),
        "k0": math.log(2.0) / (math.log(1.0 + 2.0 * cc) - math.log(2.0 * cc)) + 1.0,
        "q_prime": 1.0 / (2.0 + cc) ** 3,
        "c0": c0,
        "q_lemma42": 1.0 / ((2.0 + c0) ** 3 * cc),
    }
    return [f"chain_constants {name} = {c[name]!r}, closed form {value!r}"
            for name, value in expected.items()
            if abs(c[name] - value) > 1e-12 * max(1.0, abs(value))]
