"""Shared independent oracles and hypothesis settings for the test suite."""

import numpy as np
from hypothesis import settings

# every property runs the same examples on each run, keeps no example
# database and has no deadline; each test sets its own max_examples and phases
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


def ssim_oracle(a, b, data_range=1.0):
    """Naive sliding-window SSIM with explicit gaussian weights.

    Deliberately structured differently from the library implementation:
    per-window loops and centered-moment accumulation instead of separable
    filtering, so the two can cross-check each other.
    """
    win, sigma = 11, 1.5
    r = np.arange(win) - (win - 1) / 2
    g1 = np.exp(-(r ** 2) / (2 * sigma ** 2))
    g1 /= g1.sum()
    w = np.outer(g1, g1)
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    h_px, w_px = a.shape
    vals = []
    for i in range(h_px - win + 1):
        for j in range(w_px - win + 1):
            pa = a[i: i + win, j: j + win]
            pb = b[i: i + win, j: j + win]
            mu_a = (w * pa).sum()
            mu_b = (w * pb).sum()
            var_a = (w * (pa - mu_a) ** 2).sum()
            var_b = (w * (pb - mu_b) ** 2).sum()
            cov = (w * (pa - mu_a) * (pb - mu_b)).sum()
            vals.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2))
            )
    return float(np.mean(vals))
