"""Independent checks of holowdm's four CSVs.

Every reference value here is computed from the config the benchmark wrote,
with scipy and numpy only, never with holowdm:

- psf: a von Mises mixture from ``scipy.stats.vonmises.pdf``; 1/pi when
  isotropic.
- eigs: partition masses from fixed-order Gauss-Legendre over
  ``vonmises.pdf``, split at the cluster means (``vonmises.cdf`` is a normal
  approximation for kappa >= 50 and is off by 8e-8 on the default clusters);
  ``eigvalsh`` of the J0 Toeplitz matrix for Jakes; 1/n for iid.
- dof: min(n_s, n_r) when isotropic, otherwise the 1 - epsilon prefix count
  of the oracle masses.
- capacity: strict growth in power, non_isotropic < isotropic, isotropic and
  Jakes within 5% at the top power, and every mean within 5 combined
  standard errors of a Monte Carlo drawn from the benchmark's own RNG
  stream, with oracle correlations, SVD gains and bisection water-filling.

Each ``check_*`` returns a list of problems; an empty list means the CSV
passed.  :func:`corruptions` makes the negative-control copies.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy import linalg, optimize, special, stats

GL_ORDER = 64
PSF_GRID_POINTS = 1024
PSF_RTOL = 1e-9
PSF_ATOL = 1e-12
MASS_ATOL = 1e-12
JAKES_ATOL = 1e-12
Z_LIMIT = 5.0
TOP_POWER_GAP = 0.05
SCATTERING_MODELS = ("isotropic", "non_isotropic")


def _rows(text: str, columns: tuple[str, ...]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != columns:
        raise ValueError(f"header is {rows[0] if rows else None}, expected {list(columns)}")
    return rows[1:]


def _by_model(rows, key_col: int, value_col: int) -> dict[str, list[tuple[float, float]]]:
    out: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        out.setdefault(row[1], []).append((float(row[key_col]), float(row[value_col])))
    return out


# --------------------------------------------------------------------------
# Reference quantities
# --------------------------------------------------------------------------


def concentration(circ_var: float) -> float:
    """kappa with 1 - (I1(kappa)/I0(kappa))^2 = circ_var."""
    if circ_var >= 1.0:
        return 0.0
    target = math.sqrt(1.0 - circ_var)
    return optimize.brentq(
        lambda k: special.i1e(k) / special.i0e(k) - target,
        0.0, 10.0 / circ_var + 10.0, xtol=1e-14, rtol=4 * np.finfo(float).eps, maxiter=500,
    )


def mixture_pdf(clusters, theta: np.ndarray) -> np.ndarray:
    total = np.zeros_like(theta, dtype=float)
    for c in clusters:
        kappa = concentration(c["circ_var"])
        if kappa == 0.0:
            total += c["weight"] / (2.0 * np.pi)
        else:
            total += c["weight"] * stats.vonmises.pdf(theta, kappa, loc=math.radians(c["mean_deg"]))
    return total


def _modes(cfg: dict, side: str) -> int:
    ratio = cfg["L_s_over_lambda"] if side == "source" else cfg["L_r_over_lambda"]
    if ratio != int(ratio):
        raise ValueError("the oracle covers integer L/lambda only")
    return 2 * int(ratio)


def jakes_matrix(n: int) -> np.ndarray:
    """Half-wavelength-sampled Jakes correlation: J0(pi |i - j|)."""
    return linalg.toeplitz(special.j0(np.pi * np.arange(n)))


def prefix_count(masses: np.ndarray, epsilon: float) -> int:
    cum = np.cumsum(np.sort(masses)[::-1])
    return int(min(np.searchsorted(cum, 1.0 - epsilon) + 1, masses.size))


def waterfill_capacity(gains: np.ndarray, powers: np.ndarray, noise: float) -> np.ndarray:
    """Bisection water-filling capacity (bit/s/Hz); gains (c, k) -> (c, len(powers))."""
    floor = np.full(gains.shape, np.inf)
    np.divide(noise, gains, out=floor, where=gains > 0.0)
    floor = floor[:, None, :]
    budget = powers[None, :, None]
    hi = budget + floor.min(axis=2, keepdims=True)
    lo = np.zeros_like(hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        over = np.maximum(mid - floor, 0.0).sum(axis=2, keepdims=True) > budget
        hi = np.where(over, mid, hi)
        lo = np.where(over, lo, mid)
    alloc = np.maximum(0.5 * (lo + hi) - floor, 0.0)
    return np.log2(1.0 + alloc / floor).sum(axis=2)


def _apply(root_r, w: np.ndarray, root_s) -> np.ndarray:
    h = root_r[:, None] * w if root_r.ndim == 1 else root_r @ w
    return h * root_s[None, :] if root_s.ndim == 1 else h @ root_s


class Reference:
    """Reference values for one config, each computed once."""

    def __init__(self, cfg: dict, rng: np.random.Generator, mc_realizations: int) -> None:
        self.cfg = cfg
        self.rng = rng
        self.mc_realizations = mc_realizations
        self._masses: dict[tuple[str, str], np.ndarray] = {}
        self._capacity = None

    def masses(self, model: str, side: str) -> np.ndarray:
        """Unit-sum scattering mass of each wavenumber partition, by grid index."""
        key = (model, side)
        if key not in self._masses:
            self._masses[key] = self._partition_masses(model, side)
        return self._masses[key]

    def _partition_masses(self, model: str, side: str) -> np.ndarray:
        half = _modes(self.cfg, side) // 2
        m = np.arange(-half, half)
        lo = np.arccos(np.clip((m + 1) / half, -1.0, 1.0))
        hi = np.arccos(np.clip(m / half, -1.0, 1.0))
        if model == "isotropic":
            masses = (hi - lo) / np.pi
        else:
            clusters = self.cfg["clusters"]
            # split each partition at the cluster means that fall inside it
            cuts = [lo, hi]
            for c in clusters:
                mu = math.radians(c["mean_deg"])
                cuts.append(np.where((lo < mu) & (mu < hi), mu, lo))
            cuts = np.sort(np.vstack(cuts), axis=0)
            a, b = cuts[:-1], cuts[1:]
            nodes, weights = np.polynomial.legendre.leggauss(GL_ORDER)
            theta = 0.5 * (a + b)[..., None] + 0.5 * (b - a)[..., None] * nodes
            density = mixture_pdf(clusters, theta)
            masses = (0.5 * (b - a) * (density @ weights)).sum(axis=0)
        return masses / masses.sum()

    def spectrum(self, model: str) -> np.ndarray:
        """Receive-side eigenvalues normalized by the trace, descending."""
        n = _modes(self.cfg, "receiver")
        if model == "iid":
            return np.full(n, 1.0 / n)
        if model == "jakes":
            return np.sort(linalg.eigvalsh(jakes_matrix(n)))[::-1] / n
        return np.sort(self.masses(model, "receiver"))[::-1]

    def _root(self, model: str, side: str):
        """Square root of the trace-normalized correlation: a vector if diagonal."""
        n = _modes(self.cfg, side)
        if model == "iid":
            return np.ones(n)
        if model == "jakes":
            w, v = linalg.eigh(jakes_matrix(n))
            return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
        return np.sqrt(n * self.masses(model, side))

    def capacity(self) -> dict:
        """Per model: (mean, sample std, count) of the Monte Carlo capacity at each power.

        Draws ``mc_realizations`` channels per model from the benchmark's own RNG.
        """
        if self._capacity is not None:
            return self._capacity
        cfg = self.cfg
        realizations = self.mc_realizations
        powers = 10.0 ** (np.asarray(cfg["power_grid_dbw"], dtype=float) / 10.0)
        noise = 10.0 ** (cfg["noise_var_dbw"] / 10.0)
        n_s, n_r = _modes(cfg, "source"), _modes(cfg, "receiver")
        chunk = max(1, 2**20 // (n_s * n_r))
        out = {}
        for model in cfg["models"]:
            root_s, root_r = self._root(model, "source"), self._root(model, "receiver")
            caps = []
            for start in range(0, realizations, chunk):
                count = min(chunk, realizations - start)
                shape = (count, n_r, n_s)
                w = (self.rng.standard_normal(shape) + 1j * self.rng.standard_normal(shape)) * math.sqrt(0.5)
                gains = np.linalg.svd(_apply(root_r, w, root_s), compute_uv=False) ** 2
                caps.append(waterfill_capacity(gains, powers, noise))
            caps = np.vstack(caps)
            out[model] = (caps.mean(axis=0), caps.std(axis=0, ddof=1), realizations)
        self._capacity = out
        return out


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------


def check_psf(text: str, ref: Reference) -> list[str]:
    cfg = ref.cfg
    rows = _rows(text, ("theta_rad", "model", "psf_density"))
    expected = [m for m in cfg["models"] if m in SCATTERING_MODELS]
    tables = _by_model(rows, 0, 2)
    if list(tables) != expected:
        return [f"psf models {list(tables)}, expected {expected}"]
    grid = np.linspace(0.0, np.pi, PSF_GRID_POINTS, endpoint=False)
    problems = []
    for model, pairs in tables.items():
        theta, value = np.array(pairs).T
        if theta.size != grid.size or np.max(np.abs(theta - grid)) > 1e-15:
            problems.append(f"psf {model}: theta grid differs")
            continue
        if model == "isotropic":
            want = np.full(grid.size, 1.0 / np.pi)
        else:
            want = mixture_pdf(cfg["clusters"], grid)
        bad = np.abs(value - want) > PSF_ATOL + PSF_RTOL * np.abs(want)
        if bad.any():
            problems.append(f"psf {model}: {int(bad.sum())} densities off, worst "
                            f"{np.max(np.abs(value - want)):.3e}")
    return problems


def check_eigs(text: str, ref: Reference) -> list[str]:
    cfg = ref.cfg
    rows = _rows(text, ("index", "model", "normalized_eigenvalue"))
    tables = _by_model(rows, 0, 2)
    if list(tables) != list(cfg["models"]):
        return [f"eigs models {list(tables)}, expected {list(cfg['models'])}"]
    problems = []
    for model, pairs in tables.items():
        index, value = np.array(pairs).T
        want = ref.spectrum(model)
        if index.size != want.size or np.any(index != np.arange(want.size)):
            problems.append(f"eigs {model}: index column is not 0..{want.size - 1}")
            continue
        tol = JAKES_ATOL if model == "jakes" else MASS_ATOL
        worst = float(np.max(np.abs(value - want)))
        if worst > tol:
            problems.append(f"eigs {model}: worst eigenvalue error {worst:.3e} > {tol:g}")
    return problems


def check_dof(text: str, ref: Reference) -> list[str]:
    cfg = ref.cfg
    rows = _rows(text, ("model", "dof", "n_s_prime", "n_r_prime", "epsilon"))
    expected = [m for m in cfg["models"] if m in SCATTERING_MODELS]
    if [r[0] for r in rows] != expected:
        return [f"dof models {[r[0] for r in rows]}, expected {expected}"]
    n_s, n_r = _modes(cfg, "source"), _modes(cfg, "receiver")
    problems = []
    for model, dof, side_s, side_r, epsilon in rows:
        if model == "isotropic":
            want = (min(n_s, n_r), n_s, n_r)
        else:
            k_s = prefix_count(ref.masses(model, "source"), cfg["epsilon"])
            k_r = prefix_count(ref.masses(model, "receiver"), cfg["epsilon"])
            want = (min(k_s, k_r), k_s, k_r)
        got = (int(dof), int(side_s), int(side_r))
        if got != want:
            problems.append(f"dof {model}: (dof, n_s', n_r') = {got}, expected {want}")
        if float(epsilon) != cfg["epsilon"]:
            problems.append(f"dof {model}: epsilon {epsilon}, expected {cfg['epsilon']}")
    return problems


def _z_scores(model: str, values: np.ndarray, ref: Reference) -> np.ndarray:
    """Program mean minus oracle mean, in combined standard errors.

    The program's CSV carries no spread, so the oracle's sample deviation
    stands for both.
    """
    mean, std, count = ref.capacity()[model]
    se = std * math.sqrt(1.0 / ref.cfg["realizations"] + 1.0 / count)
    return (values - mean) / np.maximum(se, 1e-12 * np.abs(mean))


def check_capacity(text: str, ref: Reference) -> list[str]:
    cfg = ref.cfg
    rows = _rows(text, ("p_dbw", "model", "capacity_bits_per_s_per_hz"))
    tables = _by_model(rows, 0, 2)
    grid = [float(p) for p in cfg["power_grid_dbw"]]
    if list(tables) != list(cfg["models"]):
        return [f"capacity models {list(tables)}, expected {list(cfg['models'])}"]
    problems = []
    caps = {}
    for model, pairs in tables.items():
        powers, values = np.array(pairs).T
        if list(powers) != grid:
            problems.append(f"capacity {model}: power column {list(powers)}, expected {grid}")
            continue
        caps[model] = values
        if not np.all(np.diff(values) > 0.0):
            problems.append(f"capacity {model}: not strictly increasing in power")
        z = _z_scores(model, values, ref)
        if np.any(np.abs(z) > Z_LIMIT):
            problems.append(f"capacity {model}: |z| up to {np.max(np.abs(z)):.2f} against the "
                            f"independent Monte Carlo (limit {Z_LIMIT:g})")
    if "isotropic" in caps and "non_isotropic" in caps:
        if not np.all(caps["non_isotropic"] < caps["isotropic"]):
            problems.append("capacity: non_isotropic is not below isotropic at every power")
    if "isotropic" in caps and "jakes" in caps:
        iso, jakes = caps["isotropic"][-1], caps["jakes"][-1]
        if abs(iso - jakes) > TOP_POWER_GAP * jakes:
            problems.append(f"capacity: isotropic {iso:.4f} and jakes {jakes:.4f} differ by more "
                            f"than {TOP_POWER_GAP:.0%} at the top power")
    return problems


CHECKS = {"psf": check_psf, "eigs": check_eigs, "dof": check_dof, "capacity": check_capacity}


def max_abs_z(text: str, ref: Reference) -> float:
    """Largest |z| of a capacity CSV against the independent Monte Carlo."""
    rows = _rows(text, ("p_dbw", "model", "capacity_bits_per_s_per_hz"))
    return max(float(np.max(np.abs(_z_scores(model, np.array(pairs)[:, 1], ref))))
               for model, pairs in _by_model(rows, 0, 2).items())


# --------------------------------------------------------------------------
# Negative control
# --------------------------------------------------------------------------


def _swap_labels(text: str, a: str, b: str) -> str:
    """Swap two model labels, keeping the models in their original row order.

    The row order stays right, so only the value checks can catch the swap.
    """
    header, *rows = list(csv.reader(io.StringIO(text)))
    order = list(dict.fromkeys(row[1] for row in rows))
    for row in rows:
        if row[1] in (a, b):
            row[1] = b if row[1] == a else a
    rows.sort(key=lambda row: order.index(row[1]))
    rows.insert(0, header)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _edit_cell(text: str, model: str, column: int, edit) -> str:
    """Apply ``edit`` to the largest cell of ``column`` among ``model``'s rows."""
    rows = list(csv.reader(io.StringIO(text)))
    mine = [r for r in rows[1:] if model in r]
    target = max(mine, key=lambda r: float(r[column]))
    target[column] = edit(target[column])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _scale(factor: float):
    return lambda cell: format(float(cell) * factor, ".17g")


def corruptions(experiment: str, text: str, cfg: dict) -> list[tuple[str, str]]:
    """Corrupted copies of a CSV that the checks must reject."""
    models = list(cfg["models"])
    out = []
    if experiment == "psf":
        out.append(("densest psf value x1.01", _edit_cell(text, "non_isotropic", 2, _scale(1.01))))
        out.append(("isotropic and non_isotropic labels swapped",
                    _swap_labels(text, "isotropic", "non_isotropic")))
    elif experiment == "eigs":
        out.append(("top non_isotropic eigenvalue x1.01",
                    _edit_cell(text, "non_isotropic", 2, _scale(1.01))))
        out.append(("iid and jakes labels swapped", _swap_labels(text, "iid", "jakes")))
    elif experiment == "dof":
        out.append(("non_isotropic dof + 1",
                    _edit_cell(text, "non_isotropic", 1, lambda c: str(int(c) + 1))))
    elif experiment == "capacity":
        for model in models:
            out.append((f"top-power {model} capacity x1.01", _edit_cell(text, model, 2, _scale(1.01))))
        out.append((f"{models[0]} and {models[-1]} labels swapped",
                    _swap_labels(text, models[0], models[-1])))
    return out
