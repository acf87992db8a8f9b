"""Spans around the public functions of holowdm's layers, recorded from outside.

The tracer wraps each layer function wherever the package binds it (the
defining module, the modules that import it by name, and the (name, runner)
tables the CLI dispatches through), so no code under ``src/`` changes.  Spans
stay in memory; :meth:`Tracer.layers` turns them into the per-layer metrics
when the program process ends.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _profile_size(args, result) -> float:
    return float(result.variances.size)


def _correlation_bytes(args, result) -> float:
    return float(sum(a.nbytes for a in (result.R_s, result.R_r, result.R_s_sqrt, result.R_r_sqrt)))


def _eig_gn3(args, result) -> float:
    return np.shape(args[0])[0] ** 3 / 1e9


def _csv_bytes(args, result) -> float:
    return float(os.path.getsize(args[1]))


# (span name, module that binds the function, attribute, work measure or None)
TARGETS = (
    ("wavenumber.variance_profile", "holowdm.harness", "variance_profile", _profile_size),
    ("channel.build_wdm_correlation", "holowdm.harness", "build_wdm_correlation", _correlation_bytes),
    ("channel.build_jakes_correlation", "holowdm.harness", "build_jakes_correlation", _correlation_bytes),
    ("channel.build_iid_correlation", "holowdm.harness", "build_iid_correlation", _correlation_bytes),
    ("channel.draw_channel", "holowdm.metrics", "draw_channel", None),
    ("metrics.hermitian_eigs", "holowdm.metrics", "hermitian_eigs", _eig_gn3),
    ("metrics.waterfill", "holowdm.metrics", "waterfill", None),
    ("metrics.ergodic_capacity", "holowdm.harness", "ergodic_capacity", None),
    ("harness.run_psf_profile", "holowdm.harness", "run_psf_profile", None),
    ("harness.run_eigen_spectrum", "holowdm.harness", "run_eigen_spectrum", None),
    ("harness.run_dof", "holowdm.harness", "run_dof", None),
    ("harness.run_capacity", "holowdm.harness", "run_capacity", None),
    ("cli.parse_config", "holowdm.cli", "parse_config", None),
    ("cli.emit_csv", "holowdm.cli", "emit_csv", _csv_bytes),
    ("scattering.psf_density", "holowdm.scattering", "psf_density", None),
)

_BUILDERS = (
    "channel.build_wdm_correlation",
    "channel.build_jakes_correlation",
    "channel.build_iid_correlation",
)
_CAPACITY_CHILDREN = ("channel.draw_channel", "metrics.hermitian_eigs", "metrics.waterfill")
_RUNNERS = ("run_psf_profile", "run_eigen_spectrum", "run_dof", "run_capacity")


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == "holowdm" or n.startswith("holowdm.")]


def _rebind(orig, wrapped) -> None:
    """Replace every binding of ``orig`` in the package by ``wrapped``."""
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapped)
            elif isinstance(value, tuple) and any(
                    isinstance(e, tuple) and any(x is orig for x in e) for e in value):
                setattr(module, attr, tuple(
                    tuple(wrapped if x is orig else x for x in e) if isinstance(e, tuple) else e
                    for e in value
                ))


class Tracer:
    """Records (name, thread id, start, end, work) for every traced call."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float, float]] = []

    def _wrap(self, name, fn, work):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            end = time.perf_counter()
            amount = work(args, result) if work is not None else 0.0
            # list.append is atomic under the GIL, so pool threads need no lock
            spans.append((name, threading.get_ident(), start, end, amount))
            return result

        return traced

    def install(self) -> None:
        for name, module_name, attr, work in TARGETS:
            orig = getattr(sys.modules[module_name], attr)
            _rebind(orig, self._wrap(name, orig, work))

    def layers(self) -> dict[str, float]:
        """Per-layer metrics: call counts, busy ms summed over threads, work."""
        by_name = defaultdict(list)
        for span in self.spans:
            by_name[span[0]].append(span)

        def calls(*names):
            return float(sum(len(by_name[n]) for n in names))

        def ms(*names):
            return 1e3 * sum(end - start for n in names for _, _, start, end, _ in by_name[n])

        def work(*names):
            return sum(w for n in names for *_, w in by_name[n])

        from holowdm import metrics

        out = {
            "wavenumber.variance_profile.calls": calls("wavenumber.variance_profile"),
            "wavenumber.variance_profile.ms": ms("wavenumber.variance_profile"),
            "wavenumber.partitions": work("wavenumber.variance_profile"),
            "channel.build_correlation.calls": calls(*_BUILDERS),
            "channel.build_correlation.ms": ms(*_BUILDERS),
            "channel.build_jakes_correlation.ms": ms("channel.build_jakes_correlation"),
            "channel.correlation_bytes": work(*_BUILDERS),
            "channel.draw_channel.calls": calls("channel.draw_channel"),
            "channel.draw_channel.ms": ms("channel.draw_channel"),
            "metrics.hermitian_eigs.calls": calls("metrics.hermitian_eigs"),
            "metrics.hermitian_eigs.ms": ms("metrics.hermitian_eigs"),
            "metrics.hermitian_eigs.gn3": work("metrics.hermitian_eigs"),
            "metrics.waterfill.calls": calls("metrics.waterfill"),
            "metrics.waterfill.ms": ms("metrics.waterfill"),
            "metrics.ergodic_capacity.ms": ms("metrics.ergodic_capacity"),
            "metrics.ergodic_capacity.self_ms": self._self_ms(
                by_name["metrics.ergodic_capacity"],
                [s for n in _CAPACITY_CHILDREN for s in by_name[n]],
            ),
            "metrics.workers": float(metrics.worker_count()),
        }
        for runner in _RUNNERS:
            out[f"harness.{runner}.ms"] = ms(f"harness.{runner}")
        out["cli.parse_config.ms"] = ms("cli.parse_config")
        out["cli.emit_csv.ms"] = ms("cli.emit_csv")
        out["cli.emit_csv.bytes"] = work("cli.emit_csv")
        out["scattering.psf_density.ms"] = ms("scattering.psf_density")
        return out

    def threads(self) -> dict[str, int]:
        """Distinct threads each span name ran on."""
        seen = defaultdict(set)
        for name, tid, *_ in self.spans:
            seen[name].add(tid)
        return {name: len(tids) for name, tids in sorted(seen.items())}

    @staticmethod
    def _self_ms(parents, children) -> float:
        """Parent durations minus the union of the child spans inside them.

        Children run on pool threads, so their intervals overlap; only the
        union of their coverage is taken off the parent.
        """
        total = 0.0
        for _, _, p_start, p_end, _ in parents:
            covered = 0.0
            reach = p_start
            inside = sorted(
                (max(s, p_start), min(e, p_end))
                for _, _, s, e, _ in children
                if s < p_end and e > p_start
            )
            for start, end in inside:
                if end > reach:
                    covered += end - max(start, reach)
                    reach = end
            total += (p_end - p_start) - covered
        return 1e3 * total
