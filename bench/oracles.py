"""Checks of nlunmix outputs that do not reuse nlunmix code.

Everything here is written from the file formats and the model as the
package README states them: the stage files are parsed by a reader of its
own, the negative log posterior is recomputed by the determinant lemma and
a D x D Cholesky factor, the FCLS optimality system, the K-nearest
neighbours and the LLE weights are recomputed by brute force, and the error
metrics and the endmember alignment are computed here.

Every ``*_problems`` function returns a list of messages, empty when the
output passes.
"""
from __future__ import annotations

import struct
from itertools import combinations, permutations
from pathlib import Path

import numpy as np

NLM_MAGIC = b"NLUNMIX1"


# ---------------------------------------------------------------- readers


def read_nlm(path) -> np.ndarray:
    """Binary matrix: 8-byte magic, rows and cols as <u8, row-major <f8."""
    raw = Path(path).read_bytes()
    if raw[:8] != NLM_MAGIC:
        raise ValueError(f"{path}: not a binary nlunmix matrix")
    rows, cols = struct.unpack("<QQ", raw[8:24])
    payload = raw[24:]
    if len(payload) != rows * cols * 8:
        raise ValueError(f"{path}: payload is {len(payload)} bytes for {rows}x{cols}")
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()


def read_kv(path) -> dict:
    out = {}
    for line in Path(path).read_text().splitlines():
        if "=" in line and not line.lstrip().startswith("#"):
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def read_lambda_csv(path, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate list ``i,j,weight`` into N x K neighbour and weight arrays,
    in file order within each row."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (n * k, 3):
        raise ValueError(f"{path}: {rows.shape[0]} weights, expected {n * k}")
    i = rows[:, 0].astype(np.int64)
    order = np.argsort(i, kind="stable")
    if not np.array_equal(i[order], np.repeat(np.arange(n), k)):
        raise ValueError(f"{path}: not exactly {k} weights per pixel")
    return (
        rows[order, 1].astype(np.int64).reshape(n, k),
        rows[order, 2].reshape(n, k),
    )


def read_trace_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1]


def read_report_csv(path) -> dict:
    """``report.csv`` rows keyed by method name; numeric cells as floats."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    out = {}
    for line in lines[1:]:
        cells = line.split(",")
        row = {}
        for key, cell in zip(header[1:], cells[1:]):
            if cell and key != "permutation":
                row[key] = float(cell)
        out[cells[0]] = row
    return out


# ---------------------------------------------------------------- metrics


def rnmse(A: np.ndarray, Ahat: np.ndarray) -> float:
    return float(np.sqrt(np.mean((np.asarray(Ahat) - np.asarray(A)) ** 2)))


def sam(m: np.ndarray, mhat: np.ndarray) -> float:
    """Spectral angle in radians (arccos of the normalised inner product,
    clipped into its domain)."""
    c = float(m @ mhat) / (np.linalg.norm(m) * np.linalg.norm(mhat))
    return float(np.arccos(min(1.0, max(-1.0, c))))


def align(M_true: np.ndarray, M_est: np.ndarray) -> tuple[int, ...]:
    """Column permutation p of M_est minimising the total angle to M_true."""
    R = M_true.shape[1]
    return min(
        permutations(range(R)),
        key=lambda p: sum(sam(M_true[:, r], M_est[:, p[r]]) for r in range(R)),
    )


def score(A_true, M_true, A_est, M_est) -> dict:
    """RNMSE and per-endmember SAM after aligning the estimate to truth."""
    p = list(align(M_true, M_est))
    return {
        "rnmse": rnmse(A_true, A_est[:, p]),
        "sam": [sam(M_true[:, r], M_est[:, p[r]]) for r in range(M_true.shape[1])],
    }


# ------------------------------------------------------------ properties


def trace_problems(trace) -> list[str]:
    """The accepted objective values of the fit never increase."""
    t = np.asarray(trace, float)
    if t.size == 0 or not np.all(np.isfinite(t)):
        return ["objective trace is empty or not finite"]
    rises = np.flatnonzero(np.diff(t) > 0)
    if rises.size:
        i = int(rises[0])
        return [
            f"objective trace rises {rises.size} time(s), first at step {i + 1}: "
            f"{t[i]!r} -> {t[i + 1]!r}"
        ]
    return []


def simplex_problems(name: str, A, tol: float = 1e-9) -> list[str]:
    """Every abundance row is nonnegative and sums to one."""
    A = np.asarray(A, float)
    out = []
    if not np.all(np.isfinite(A)):
        return [f"{name}: non-finite abundances"]
    worst_sum = float(np.max(np.abs(A.sum(axis=1) - 1.0)))
    if worst_sum > tol:
        out.append(f"{name}: a row sums to 1 {worst_sum:+.3g}")
    if float(A.min()) < -tol:
        out.append(f"{name}: negative abundance {float(A.min()):.3g}")
    return out


def upper_problems(name: str, value: float, limit: float) -> list[str]:
    if not (np.isfinite(value) and value <= limit):
        return [f"{name} = {value:.6g} exceeds {limit:.6g}"]
    return []


# --------------------------------------------------------- model oracle


def features(X: np.ndarray) -> np.ndarray:
    """[x_1..x_R, x_i x_j for i < j in lexicographic order], row-wise."""
    R = X.shape[1]
    return np.hstack([X] + [X[:, [i]] * X[:, [j]] for i, j in combinations(range(R), 2)])


def neg_log_posterior(Yc, P, neighbors, weights, gamma, X, U, s2, sigma2) -> float:
    """0.5 L log|S| + 0.5 tr(Ybar' S^-1 Ybar) + 0.5 gamma ||(I - Lambda) X||^2
    with S = s2 C C' + sigma2 I_N, C = features(X) U and Ybar = Yc - C P'.

    log|S| = N log sigma2 + log|I_D + (s2 / sigma2) C'C| (determinant lemma);
    the quadratic term goes through the Cholesky factor of
    sigma2 / s2 I_D + C'C (Woodbury).  Neither touches an N x N matrix.
    """
    N, L = Yc.shape
    C = features(X) @ U
    D = C.shape[1]
    Ybar = Yc - C @ P.T
    G = C.T @ C
    logdet = N * np.log(sigma2) + 2.0 * np.sum(
        np.log(np.diag(np.linalg.cholesky(np.eye(D) + (s2 / sigma2) * G)))
    )
    Lc = np.linalg.cholesky((sigma2 / s2) * np.eye(D) + G)
    B = np.linalg.solve(Lc, C.T @ Ybar)
    quad = (np.sum(Ybar * Ybar) - np.sum(B * B)) / sigma2
    resid = X - np.einsum("nk,nkr->nr", weights, X[neighbors])
    return float(0.5 * L * logdet + 0.5 * quad + 0.5 * gamma * np.sum(resid * resid))


def objective_problems(reported: float, recomputed: float, rtol: float = 1e-9) -> list[str]:
    gap = abs(reported - recomputed) / max(abs(recomputed), 1.0)
    if not gap <= rtol:
        return [
            f"reported objective {reported!r} differs from the recomputed "
            f"{recomputed!r} by {gap:.3g} relative"
        ]
    return []


# ------------------------------------------------------------ FCLS oracle


def fcls_kkt(M: np.ndarray, Y: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Per-pixel worst violation of the optimality system of
    min ||y - M a||^2 s.t. a >= 0, sum(a) = 1, at each row of A.

    With g = M'(M a - y) and nu the mean of -g over the support, the
    conditions are g_i + nu = 0 on the support, g_i + nu >= 0 off it,
    sum(a) = 1 and a >= 0.
    """
    g = A @ (M.T @ M) - Y @ M
    support = A > 0
    count = support.sum(axis=1)
    nu = -np.where(support, g, 0.0).sum(axis=1) / np.maximum(count, 1)
    r = g + nu[:, None]
    stationary = np.where(support, np.abs(r), 0.0).max(axis=1)
    dual = np.where(support, 0.0, np.maximum(-r, 0.0)).max(axis=1)
    primal = np.abs(A.sum(axis=1) - 1.0)
    negative = np.maximum(-A.min(axis=1), 0.0)
    return np.maximum.reduce([stationary, dual, primal, negative])


def fcls_problems(M, Y, A, tol: float = 1e-9) -> list[str]:
    kkt = fcls_kkt(np.asarray(M, float), np.asarray(Y, float), np.asarray(A, float))
    bad = np.flatnonzero(~(kkt <= tol))
    if bad.size:
        i = int(bad[np.argmax(kkt[bad])])
        return [f"FCLS KKT residual above {tol:g} at {bad.size} pixel(s), worst {kkt[i]:.3g} (pixel {i})"]
    return []


# ------------------------------------------------------------- LLE oracle


def lle_problems(Y, neighbors, weights, sample, dist_rtol: float = 1e-9, w_tol: float = 1e-6) -> list[str]:
    """At each sampled pixel: the stored neighbours are K nearest by a
    brute-force distance scan (self excluded), and the stored weights equal
    a least-squares solve of y_i ~ sum_k w_k y_{n_k} done by SVD.

    Distances within ``dist_rtol`` of the K-th smallest count as ties, since
    the program's distance formula rounds differently.
    """
    Y = np.asarray(Y, float)
    neighbors = np.asarray(neighbors)
    weights = np.asarray(weights, float)
    n, K = neighbors.shape
    out = []
    for i in np.asarray(sample, int):
        d2 = np.sum((Y - Y[i]) ** 2, axis=1)
        d2[i] = np.inf
        kth = np.partition(d2, K - 1)[K - 1]
        nb = neighbors[i]
        if len(set(nb.tolist())) != K or np.any(nb == i) or np.any(nb < 0) or np.any(nb >= n):
            out.append(f"pixel {i}: malformed neighbour set {nb.tolist()}")
            continue
        if np.any(d2[nb] > kth * (1.0 + dist_rtol)):
            out.append(
                f"pixel {i}: neighbours {nb.tolist()} are not the {K} nearest "
                f"({np.sort(np.argpartition(d2, K - 1)[:K]).tolist()})"
            )
            continue
        w_ref, *_ = np.linalg.lstsq(Y[nb].T, Y[i], rcond=None)
        gap = float(np.max(np.abs(weights[i] - w_ref)))
        if not gap <= w_tol * max(1.0, float(np.max(np.abs(w_ref)))):
            out.append(f"pixel {i}: weights {weights[i].tolist()} differ from {w_ref.tolist()}")
    return out
