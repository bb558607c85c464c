"""The plane-mesh pair stage that qhgraph._build_plane_mesh replaced, kept as
a reference: one _find pass per stencil offset, the cross-depth ancestor
search, and _unique_pairs over every pair by one sorted int64 key
lo * n + hi."""
import numpy as np

_BASE_OFFSETS = [(di, dj) for di in range(-3, 4) for dj in range(-3, 4)
                 if (di > 0 or (di == 0 and dj > 0))]
_RAY_OFFSETS = [(4, 1), (4, -1), (4, 3), (4, -3), (3, 4), (3, -4), (1, 4), (1, -4)]
_TOUCH_DIRS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def _find(keys: np.ndarray, d: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Index of each cell (d, i, j) in the sorted keys, or -1 for non-leaves."""
    size = 1 << d
    k = (d << 50) | (j << 25) | i
    pos = np.minimum(np.searchsorted(keys, k), len(keys) - 1)
    hit = (i >= 0) & (i < size) & (j >= 0) & (j < size) & (keys[pos] == k)
    return np.where(hit, pos, -1)


def unique_pairs(u: np.ndarray, v: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct unordered pairs of u, v as int32 (lo, hi), sorted."""
    key = np.multiply(np.minimum(u, v), n, dtype=np.int64)
    key += np.maximum(u, v)
    key.sort()
    lo, hi = np.divmod(key[np.diff(key, prepend=-1) != 0], n)
    return lo.astype(np.int32), hi.astype(np.int32)


def plane_pairs(keys: np.ndarray, D: np.ndarray, I: np.ndarray,
                J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct (lo, hi) pairs of the sorted leaves (keys, D, I, J)."""
    ids = np.arange(len(keys), dtype=np.int32)
    same = np.zeros((len(keys), 3, 3), dtype=bool)
    us, vs = [], []
    for di, dj in _BASE_OFFSETS + _RAY_OFFSETS:
        v = _find(keys, D, I + di, J + dj)
        hit = v >= 0
        us.append(ids[hit])
        vs.append(v[hit])
        if max(abs(di), abs(dj)) == 1:
            same[:, 1 + di, 1 + dj] = hit
            same[vs[-1], 1 - di, 1 - dj] = True
    u, t = np.divmod(np.flatnonzero(~np.delete(same.reshape(-1, 9), 4, axis=1)),
                     len(_TOUCH_DIRS))
    u = u.astype(np.int32)
    dx, dy = np.array(_TOUCH_DIRS)[t].T
    ni, nj, du = I[u] + dx, J[u] + dy, D[u]
    open_ = np.ones(len(u), dtype=bool)
    for k in range(1, int(D.max()) + 1):
        open_ &= du >= k
        u, ni, nj, du = u[open_], ni[open_], nj[open_], du[open_]
        v = _find(keys, du - k, ni >> k, nj >> k)
        open_ = v < 0
        us.append(u[~open_])
        vs.append(v[~open_])
    return unique_pairs(np.concatenate(us, dtype=np.int32),
                        np.concatenate(vs, dtype=np.int32), len(keys))
