#!/usr/bin/env python3
"""Near-diagonal scaling of the projective reproducing kernel.

The level-N kernel evaluated at u/sqrt(N), v/sqrt(N) and rescaled by
N^-m approaches the flat-model kernel
pi^-m exp(i Im u.conj(v) - |u - v|^2 / 2) uniformly on compact windows.
This prints the sup deviation over a grid with |u|, |v| <= 2 as the level
grows, along with the fitted decay exponent.
"""

import numpy as np

from zerocorr import fs_scaled_szego, heisenberg_limit_kernel

grid = np.linspace(-1.4, 1.4, 5)
points = (grid[:, None] + 1j * grid).reshape(-1, 1)
levels = [100, 400, 1600, 6400]

deviations = []
for N in levels:
    worst = max(np.abs(fs_scaled_szego(N, 1, u, points)
                       - heisenberg_limit_kernel(u, 0.0, points, 0.0)).max() for u in points)
    deviations.append(worst)
    print(f"N = {N:5d}  sup |scaled kernel - limit| = {worst:.3e}")

slope = np.polyfit(np.log(levels), np.log(deviations), 1)[0]
print(f"fitted decay exponent: {-slope:.3f}")
