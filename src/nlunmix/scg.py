"""Scaled conjugate gradient minimizer.

Works on any smooth objective supplied as a value-and-gradient callable.
Curvature along the search direction is probed with one extra gradient
evaluation, through a gradient-only callable when the caller has one; a
multiplicative Levenberg-Marquardt scale keeps the local quadratic model
trustworthy, so no line search is needed.  Accepted steps never increase
the objective.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

FG = Callable[[np.ndarray], tuple[float, np.ndarray]]
Gradient = Callable[[np.ndarray], np.ndarray]

MAX_CONSECUTIVE_FAILURES = 20
SCALE_MAX = 1e20
SCALE_MIN = 1e-15
# first Levenberg-Marquardt scale, and the length of the curvature probe
# along a unit search direction
SCALE0 = 1e-4
SIGMA0 = 1e-4


class ScgError(RuntimeError):
    """Optimization aborted (repeated non-finite or rejected steps)."""


class ScgStartError(ScgError, ValueError):
    """The objective or its gradient is not finite at the starting point."""


@dataclass(frozen=True)
class ScgResult:
    """Objective trace, termination info and work counts of one run; the
    latent fit reports it as ``nlunmix.FitReport``."""

    trace: np.ndarray  # accepted objective values, initial value first
    iterations: int
    converged: bool
    grad_norm: float
    evaluations: int = 0  # value-and-gradient calls of fg, the start included
    probes: int = 0  # calls of the gradient-only entry
    rejected: int = 0  # iterations that took no step


def scg(
    fg: FG,
    w0: np.ndarray,
    max_iter: int = 2000,
    tol: float = 1e-8,
    gradient: Gradient | None = None,
) -> tuple[np.ndarray, ScgResult]:
    """Minimize ``fg`` starting at ``w0``.

    Each iteration evaluates value and gradient at one trial point; after
    an accepted step it also probes the curvature along the new direction
    with one gradient, whose value SCG never reads.  ``gradient``, when
    given, must return exactly ``fg(w)[1]``: the probes then call it instead
    of ``fg``, and the run takes the same path at less cost.  Every gradient
    returned must be a fresh array, because the previous one is kept.

    Stops at ``max_iter`` iterations, or as converged once
    |delta f| < tol * (1 + |f|) holds on three consecutive accepted steps
    (immediately for an infinite tol), or when the gradient vanishes.
    Non-finite trial objectives are treated as rejected steps, which grow
    the scale and shrink the next step; after 20 consecutive rejections the
    run aborts with a diagnostic.  A non-finite start raises
    :class:`ScgStartError`; a negative ``max_iter`` or a NaN or negative
    ``tol`` raises ``ValueError`` before ``fg`` is called.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0 (inf allowed), got {tol}")
    w = np.array(w0, float)
    f, g = fg(w)
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        raise ScgStartError("objective or gradient not finite at the starting point")
    trace = [f]
    if np.isinf(tol):
        return w, ScgResult(np.asarray(trace), 0, True, float(np.linalg.norm(g)), evaluations=1)

    n = w.size
    d = -g
    scale = SCALE0
    success = True
    theta = 1.0
    mu = kappa = 0.0
    n_success = 0
    small_steps = 0
    failures = 0
    converged = False
    k = 0
    evaluations, probes = 1, 0

    while k < max_iter:
        k += 1
        if success:
            mu = float(d @ g)
            if mu >= 0:  # not a descent direction: restart on the gradient
                d = -g
                mu = float(d @ g)
            kappa = float(d @ d)
            if kappa == 0.0:
                converged = True
                break
            # directional second derivative from one extra gradient; shrink
            # the probe a few times if it lands on a rejected point
            step = SIGMA0 / np.sqrt(kappa)
            probed = None
            for _ in range(4):
                if gradient is None:
                    evaluations += 1
                    g_probe = fg(w + step * d)[1]
                else:
                    probes += 1
                    g_probe = gradient(w + step * d)
                if np.all(np.isfinite(g_probe)):
                    probed = float(d @ (g_probe - g)) / step
                    break
                step /= 100.0
            if probed is None:
                success = False
                failures += 1
                if failures >= MAX_CONSECUTIVE_FAILURES:
                    raise ScgError(
                        f"aborted at iteration {k}: curvature probe kept leaving "
                        f"the feasible region (f={f:.6g})"
                    )
                scale = min(4.0 * scale, SCALE_MAX)
                continue
            theta = probed

        delta = theta + scale * kappa
        if delta <= 0:  # raise the scale until the local model is convex
            delta = scale * kappa
            scale = scale - theta / kappa
        alpha = -mu / delta

        evaluations += 1
        w_trial = w + alpha * d
        f_trial, g_trial = fg(w_trial)
        if np.isfinite(f_trial):
            comparison = 2.0 * (f_trial - f) / (alpha * mu)
        else:
            comparison = -np.inf
            failures += 1
            if failures >= MAX_CONSECUTIVE_FAILURES:
                raise ScgError(
                    f"aborted at iteration {k}: {failures} consecutive "
                    f"non-finite trial objectives (f={f:.6g}, scale={scale:.3g})"
                )

        if comparison >= 0:
            failures = 0
            n_success += 1
            df = f - f_trial
            w = w_trial
            g_old = g
            f, g = f_trial, g_trial
            trace.append(f)
            success = True
            if abs(df) < tol * (1.0 + abs(f)):
                small_steps += 1
                if small_steps >= 3:
                    converged = True
                    break
            else:
                small_steps = 0
            if n_success == n:  # periodic restart
                d = -g
                n_success = 0
            else:
                beta = float((g_old - g) @ g) / mu
                d = beta * d - g
        else:
            success = False
            if scale >= SCALE_MAX:
                # steps are already vanishingly small and still rejected:
                # numerical stagnation at a minimum
                converged = True
                break

        if comparison < 0.25:
            scale = min(4.0 * scale, SCALE_MAX)
        elif comparison > 0.75:
            scale = max(0.25 * scale, SCALE_MIN)

    return w, ScgResult(
        trace=np.asarray(trace),
        iterations=k,
        converged=converged,
        grad_norm=float(np.linalg.norm(g)),
        evaluations=evaluations,
        probes=probes,
        rejected=k - (len(trace) - 1),
    )
