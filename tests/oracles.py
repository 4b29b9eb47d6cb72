"""Slow reference implementations kept as test oracles.

These are the hand-written n = 2 and n = 3 symmetric reductions the
package used before ``symmetric_blocks`` replaced them with one
reduction for any n.  The tests hold the new reduction to them bit for
bit.
"""

import numpy as np

from bergproj.quadrature import _check_finite


def _integrate_symmetric_2(f, nodes, weights):
    size = len(nodes)
    j_idx, k_idx = np.triu_indices(size)
    pts = np.stack([nodes[j_idx], nodes[k_idx]], axis=1)
    w = weights[j_idx] * weights[k_idx]
    mult = np.where(j_idx == k_idx, 1.0, 2.0)
    vals = np.asarray(f(pts))
    _check_finite(vals, "symmetric n=2")
    return complex(np.sum(mult * w * vals))


def _integrate_symmetric_3(f, nodes, weights, chunk):
    size = len(nodes)
    acc = 0.0 + 0.0j
    for i in range(size):
        sub = size - i
        j_rel, k_rel = np.triu_indices(sub)
        j_idx, k_idx = j_rel + i, k_rel + i
        for start in range(0, len(j_idx), chunk):
            j_c = j_idx[start : start + chunk]
            k_c = k_idx[start : start + chunk]
            pts = np.stack(
                [np.full(len(j_c), nodes[i]), nodes[j_c], nodes[k_c]], axis=1
            )
            w = weights[i] * weights[j_c] * weights[k_c]
            mult = np.where(
                (i == j_c) & (j_c == k_c),
                1.0,
                np.where((i == j_c) | (j_c == k_c), 3.0, 6.0),
            )
            vals = np.asarray(f(pts))
            _check_finite(vals, f"symmetric n=3, i={i}")
            acc += np.sum(mult * w * vals)
    return complex(acc)
