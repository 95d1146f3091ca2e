"""Independent reference implementations used to cross-check the library.

Everything here is written from first principles with plain numpy (direct
mode loops, textbook formulas) and deliberately avoids the library's own
helper paths, so agreement is meaningful.
"""

import itertools

import numpy as np


def mode_numbers(n: int) -> np.ndarray:
    """Integer mode number per FFT axis index: 0..n/2-1, -n/2..-1."""
    return np.fft.fftfreq(n, d=1.0 / n).astype(int)


def convolution_divergence(lattice, u_coeffs, v_coeffs) -> np.ndarray:
    """Exact truncated-convolution evaluation of div(u (x) v).

    For inputs supported on the 2/3 keep-set the pseudo-spectral product
    has no aliasing, so the dealiased FFT result must equal this direct
    sum over mode pairs: w_i(k) = sum_j i k_j sum_a u_j(a) v_i(k-a),
    restricted to the keep-set.
    """
    n = lattice.n
    m = mode_numbers(n)
    keep = [i for i in range(n) if abs(m[i]) <= n // 3]
    cut = n // 3
    scale = 2.0 * np.pi / lattice.L

    support = [idx for idx in itertools.product(keep, repeat=3)]
    b_idx = np.array(support)  # (M, 3) axis indices
    b_modes = m[b_idx]         # (M, 3) integer modes

    out = np.zeros((3, n, n, n), dtype=complex)
    for i in range(3):
        conv = [np.zeros((n, n, n), dtype=complex) for _ in range(3)]
        vi = v_coeffs[i][b_idx[:, 0], b_idx[:, 1], b_idx[:, 2]]
        for j in range(3):
            cj = conv[j]
            for a in support:
                ua = u_coeffs[j][a]
                if ua == 0.0:
                    continue
                k_modes = b_modes + m[list(a)]
                inside = np.all(np.abs(k_modes) <= cut, axis=1)
                tm = k_modes[inside] % n
                np.add.at(cj, (tm[:, 0], tm[:, 1], tm[:, 2]),
                          ua * vi[inside])
        for j in range(3):
            kj = scale * m.reshape([-1 if ax == j else 1 for ax in range(3)])
            out[i] += 1j * kj * conv[j]
    return out


def leray_matrix_apply(lattice, coeffs) -> np.ndarray:
    """Projection I - k k^T/|k|^2 applied mode by mode via explicit 3x3."""
    n = lattice.n
    m = mode_numbers(n)
    scale = 2.0 * np.pi / lattice.L
    out = np.array(coeffs, dtype=complex)
    for a1 in range(n):
        for a2 in range(n):
            for a3 in range(n):
                k = scale * np.array([m[a1], m[a2], m[a3]], dtype=float)
                k2 = float(k @ k)
                if k2 == 0.0:
                    continue
                proj = np.eye(3) - np.outer(k, k) / k2
                out[:, a1, a2, a3] = proj @ coeffs[:, a1, a2, a3]
    return out


def one_step(coeffs, lattice, nu, dt, pre=None, post=None):
    """Textbook restatement of one integrating-factor SSP-RK3 step.

    Uses its own FFT calls, dealias mask, and projection; symbols pre/post
    are plain per-mode arrays (None = identity).
    """
    n = lattice.n
    m = mode_numbers(n)
    scale = 2.0 * np.pi / lattice.L
    k = [scale * m.reshape([-1 if ax == j else 1 for ax in range(3)])
         for j in range(3)]
    k2 = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
    keep_axis = np.abs(m) <= n // 3
    mask = (keep_axis.reshape(-1, 1, 1) & keep_axis.reshape(1, -1, 1)
            & keep_axis.reshape(1, 1, -1)).astype(float)

    def project(c):
        kd = k[0] * c[0] + k[1] * c[1] + k[2] * c[2]
        kd = np.where(k2 > 0, kd / np.where(k2 > 0, k2, 1.0), 0.0)
        return np.stack([c[j] - k[j] * kd for j in range(3)])

    def F(c):
        q = c if pre is None else pre * c
        grid = np.stack([np.real(np.fft.ifftn(q[j]) * n ** 3)
                         for j in range(3)])
        out = np.empty_like(c)
        for i in range(3):
            div = np.zeros((n, n, n), dtype=complex)
            for j in range(3):
                prod = np.fft.fftn(grid[j] * grid[i]) / n ** 3
                div += 1j * k[j] * (prod * mask)
            out[i] = -div
        if post is not None:
            out = post * out
        return project(out)

    e1 = np.exp(-nu * k2 * dt)
    eh = np.exp(-nu * k2 * dt / 2.0)
    c = np.array(coeffs, dtype=complex)
    q1 = e1 * (c + dt * F(c))
    q2 = 0.75 * eh * c + 0.25 * (1.0 / eh) * (q1 + dt * F(q1))
    return (1.0 / 3.0) * e1 * c + (2.0 / 3.0) * eh * (q2 + dt * F(q2))


def grid_tensor_norm(u_grid, d_grid) -> float:
    """Plain quadrature Frobenius L2 norm of u (x) u - d (x) d.

    Valid as a cross-check when the products are unaliased on the grid;
    the mean-square over collocation points matches the coefficient sum
    by the discrete Parseval identity.
    """
    total = 0.0
    for i in range(3):
        for j in range(3):
            t = u_grid[i] * u_grid[j] - d_grid[i] * d_grid[j]
            total += float(np.mean(t ** 2))
    return float(np.sqrt(total))


def taylor_green_2d(lattice, amplitude=1.0):
    """(sin x cos y, -cos x sin y, 0): solenoidal, with gradient-only
    nonlinearity, so the projected transport term vanishes exactly."""
    from admles.spectral import PhysicalField, from_physical

    x, y, _ = lattice.grid()
    samples = np.stack([
        amplitude * np.sin(x) * np.cos(y),
        -amplitude * np.cos(x) * np.sin(y),
        np.zeros_like(x),
    ])
    return from_physical(PhysicalField(lattice, samples))


def residual_stress_norm_full(lattice, u_coeffs, d_coeffs) -> float:
    """Frobenius coefficient norm of u (x) u - d (x) d over the full
    spectrum: all nine components, each transformed on its own with
    complex FFTs and masked by the 2/3 rule, mean mode kept."""
    n = lattice.n
    m = mode_numbers(n)
    keep_axis = np.abs(m) <= n // 3
    mask = (keep_axis.reshape(-1, 1, 1) & keep_axis.reshape(1, -1, 1)
            & keep_axis.reshape(1, 1, -1))
    u = [np.real(np.fft.ifftn(u_coeffs[j])) * n ** 3 for j in range(3)]
    d = [np.real(np.fft.ifftn(d_coeffs[j])) * n ** 3 for j in range(3)]
    total = 0.0
    for i in range(3):
        for j in range(3):
            t = np.fft.fftn(u[i] * u[j] - d[i] * d[j]) / n ** 3
            total += float(np.sum(np.abs(t[mask]) ** 2))
    return float(np.sqrt(total))
