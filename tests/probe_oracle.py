"""Scalar reference for the independent probe: one probe, one start, one lane at a time.

``analysis._ascend_mixture`` steps every probe of a grid in lockstep; this is
the per-probe loop it replaced, kept so tests can require the batched result
to equal it exactly.
"""

import numpy as np


def mix(corners, etas):
    """corners: (2,)*n + (K+1,) corner rows of one probe; etas: (n,) activation probabilities."""
    for eta in etas:
        corners = (1.0 - eta) * corners[0] + eta * corners[1]
    return corners


def ascend_mixture(spec, corners, tol=1e-9):
    """Best feasible expected-penalty vector of one probe; None when no start is feasible."""
    c = np.asarray(spec.constraints, dtype=float)
    k = spec.n_constraints
    best = None
    for start in (0.0, 1.0):
        etas = np.full(spec.n_users, start)
        r = mix(corners, etas)
        if k and np.any(r[1:] > c + tol):
            continue
        for _ in range(40):
            changed = False
            for i in range(spec.n_users):
                save = etas[i]
                etas[i] = 0.0
                r0 = mix(corners, etas)
                etas[i] = 1.0
                r1 = mix(corners, etas)
                slope = r1 - r0
                lo, hi = 0.0, 1.0
                ok = True
                for j in range(k):
                    b = slope[1 + j]
                    a = r0[1 + j]
                    if b > tol:
                        hi = min(hi, (c[j] - a) / b)
                    elif b < -tol:
                        lo = max(lo, (c[j] - a) / b)
                    elif a > c[j] + tol:
                        ok = False
                if not ok or lo > hi + tol:
                    etas[i] = save
                    continue
                hi = min(hi, 1.0)
                lo = max(lo, 0.0)
                new = hi if slope[0] < 0 else lo
                new = min(max(new, lo), hi)
                if abs(new - save) > 1e-12:
                    changed = True
                etas[i] = new
            if not changed:
                break
        r = mix(corners, etas)
        if k and np.any(r[1:] > c + 1e-9):
            continue
        if best is None or r[0] < best[0]:
            best = r
    return best
