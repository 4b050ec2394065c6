"""Span tracing of the library's layers, done from outside the library.

`Tracer.install` replaces public functions and methods of `mirrorvi` with
wrappers, in the namespace each one is called from, so that the library's own
code runs unchanged. Each wrapper records a span (layer, start, end, parent,
pass) in memory; `Tracer.write` saves all spans once, at the end of a run.

A call into a layer from inside a span of the same layer (for example
`ExchangeEconomy.excess` calling `ExchangeEconomy.demand`, or
`auto_step_size` calling `probe_modulus`) is part of the outer span and is
not recorded again, so a layer's count stays the same if one entry point
starts or stops going through the other.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

from workloads import cli, economy, gen, tatonnement, vi

#: (owner, attribute, layer): every name the tracer replaces.
PATCHES = (
    (cli, "main", "cli"),
    (cli, "_write_csv", "cli.write_csv"),
    (cli, "_write_json", "cli.write_json"),
    (cli, "_price_report", "cli.price_report"),
    (cli, "pathwise_modulus", "vi.pathwise_modulus"),
    (cli, "generate_economy", "gen.generate_economy"),
    (gen, "generate_economy", "gen.generate_economy"),
    (cli, "mirror_extratatonnement", "tatonnement.run"),
    (cli, "mirror_tatonnement", "tatonnement.run"),
    (tatonnement, "mirror_extratatonnement", "tatonnement.run"),
    (tatonnement, "mirror_tatonnement", "tatonnement.run"),
    (tatonnement, "auto_step_size", "tatonnement.auto_step_size"),
    (tatonnement, "probe_modulus", "tatonnement.auto_step_size"),
    (tatonnement, "equilibrium_certificate", "tatonnement.equilibrium_certificate"),
    (tatonnement, "minty_certificate", "vi.minty_certificate"),
    (vi, "minty_certificate", "vi.minty_certificate"),
    (tatonnement, "mirror_extragradient_solve", "vi.solve"),
    (tatonnement, "mirror_gradient_solve", "vi.solve"),
    (tatonnement, "bregman_divergence", "kernels.bregman_divergence"),
    (vi, "bregman_divergence", "kernels.bregman_divergence"),
    (vi, "mirror_step", "kernels.mirror_step"),
    (vi.VIProblem, "evaluate", "vi.evaluate"),
    (economy.ExchangeEconomy, "excess", "economy.excess"),
    (economy.ExchangeEconomy, "demand", "economy.excess"),
    (economy.ScarfEconomy, "excess", "economy.excess"),
    (economy.ScarfEconomy, "demand", "economy.excess"),
    (economy, "check_warp_sample", "economy.diagnostics"),
    (economy, "check_wgs_sample", "economy.diagnostics"),
    (economy, "elasticity_bound_estimate", "economy.diagnostics"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in PATCHES))
SETUP_PASS = -1


def _bytes_per_excess(econ) -> float:
    """Bytes one operator call reads and writes, computed from array sizes.

    An exchange economy reads each consumer group's valuation and endowment
    matrices and writes one demand matrix of the same shape per group, plus a
    few price-length vectors; the Scarf operator touches six floats.
    """
    groups = getattr(econ, "_groups", None)
    if groups is None:
        return 6 * 8.0
    matrices = sum(g.valuations.nbytes + g.endowments.nbytes + g.valuations.nbytes
                   for g in groups)
    return float(matrices + 4 * econ.n_goods * 8)


class Tracer:
    """Spans of one benchmark run, kept in flat arrays until `write`."""

    def __init__(self) -> None:
        self.active = False
        self.pass_id = SETUP_PASS
        self.layer = array("i")
        self.parent = array("q")
        self.pass_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = array("i")
        self.stack: list[int] = []
        #: Per-span values some layers report: iterations, backoffs, points, bytes.
        self.notes: dict[int, dict] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._bytes_cache: dict[int, tuple[object, float]] = {}
        self.excess_bytes = array("d")

    def install(self) -> None:
        for owner, name, layer in PATCHES:
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(LAYERS.index(layer), original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _wrap(self, layer_id: int, fn):
        tracer = self
        stack = self.stack
        clock = time.perf_counter
        note = _NOTES.get(LAYERS[layer_id])

        def traced(*args, **kwargs):
            if not tracer.active or (stack and tracer.layer[stack[-1]] == layer_id):
                return fn(*args, **kwargs)
            idx = len(tracer.layer)
            tracer.layer.append(layer_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.pass_of.append(tracer.pass_id)
            tracer.errors.append(0)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[idx] = 1
                raise
            finally:
                end = clock()
                stack.pop()
                tracer.start[idx] = start
                tracer.end[idx] = end
            if note is not None:
                note(tracer, idx, args, kwargs, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        """Save every span: layer names, then one column per span field."""
        np.savez_compressed(
            path,
            layers=np.array(LAYERS),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            pass_id=np.frombuffer(self.pass_of, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            error=np.frombuffer(self.errors, dtype=np.int32),
        )

    def layer_metrics(self, pass_id: int) -> dict[str, float]:
        """Per-layer counts and times of one pass, computed from its spans."""
        layer = np.frombuffer(self.layer, dtype=np.int32)
        sel = np.frombuffer(self.pass_of, dtype=np.int32) == pass_id
        idx = np.nonzero(sel)[0]
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(len(layer))
        has_parent = idx[parent[idx] >= 0]
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        def ids(name):
            return idx[layer[idx] == LAYERS.index(name)]

        def total(name, values=dur):
            """Summed time of a layer's spans; None when the pass never reached it."""
            spans = ids(name)
            return float(values[spans].sum()) if len(spans) else None

        def under(spans, name):
            """Which of `spans` have an ancestor in layer `name`."""
            target = LAYERS.index(name)
            found = np.zeros(len(spans), dtype=bool)
            cur = parent[spans]
            while np.any(cur >= 0):
                live = cur >= 0
                found[live] |= layer[cur[live]] == target
                cur = np.where(live, parent[np.maximum(cur, 0)], -1)
            return found

        def noted(name, key):
            return sum(self.notes[i].get(key, 0) for i in ids(name) if i in self.notes)

        excess = ids("economy.excess")
        calls = len(excess)
        in_run = under(excess, "tatonnement.run")
        post = in_run & ~under(excess, "vi.solve") & ~under(excess, "tatonnement.auto_step_size")
        mirror_calls = len(ids("kernels.mirror_step"))
        mirror_self = total("kernels.mirror_step", self_time)
        excess_self = total("economy.excess", self_time)
        needed = noted("vi.solve", "needed_evals")
        # A call that raised has no size note; it counts as zero bytes.
        sizes = np.zeros(len(layer))
        sizes[:len(self.excess_bytes)] = np.frombuffer(self.excess_bytes)
        excess_bytes = float(sizes[excess].sum())
        return {
            "vi.loop.self_s": total("vi.solve", self_time),
            "vi.evaluate.self_s": total("vi.evaluate", self_time),
            "kernels.mirror_step.calls": mirror_calls,
            "kernels.mirror_step.self_s": mirror_self,
            "kernels.mirror_step.us_per_call": (
                mirror_self / mirror_calls * 1e6 if mirror_calls else None),
            "kernels.bregman_divergence.calls": len(ids("kernels.bregman_divergence")),
            "kernels.bregman_divergence.self_s": total("kernels.bregman_divergence", self_time),
            "economy.excess.calls": calls,
            "economy.excess.useful_frac": needed / calls if calls and needed else None,
            "tatonnement.run.self_s": total("tatonnement.run", self_time),
            "tatonnement.post_solve.evals": int(post.sum()),
            "economy.excess.self_s": excess_self,
            "economy.excess.us_per_call": excess_self / calls * 1e6 if calls else None,
            "economy.excess.mb_computed_per_call": excess_bytes / calls / 1e6 if calls else None,
            "economy.excess.errors": int(np.frombuffer(self.errors, dtype=np.int32)[excess].sum()),
            "tatonnement.auto_step_size.s": total("tatonnement.auto_step_size"),
            "tatonnement.auto_step_size.evals": int(
                under(excess, "tatonnement.auto_step_size").sum()),
            "vi.minty_certificate.s": total("vi.minty_certificate"),
            "vi.minty_certificate.points": noted("vi.minty_certificate", "points"),
            "economy.diagnostics.s": total("economy.diagnostics"),
            "tatonnement.backoffs": noted("vi.solve", "backoffs"),
            "vi.iters": noted("vi.solve", "iters"),
            "vi.solve.s": total("vi.solve"),
            "tatonnement.equilibrium_certificate.s": total("tatonnement.equilibrium_certificate"),
            "cli.write_csv.s": total("cli.write_csv"),
            "cli.write_json.s": total("cli.write_json"),
            "cli.price_report.s": total("cli.price_report"),
            "vi.pathwise_modulus.s": total("vi.pathwise_modulus"),
            "cli.self_s": total("cli", self_time),
            "cli.bytes_written": noted("cli.write_csv", "bytes") + noted("cli.write_json", "bytes"),
            "gen.generate_economy.s": total("gen.generate_economy"),
            "spans": len(idx),
        }


def _note_solve(tracer, idx, args, kwargs, trace) -> None:
    config = args[1]
    iters = int(trace.indices[-1]) + 1 if trace.converged else config.horizon
    halvings = int(round(np.log2(config.eta / trace.final_eta)))
    per_iter = 2 if trace.method == vi.MIRROR_EXTRAGRADIENT else 1
    tracer.notes[idx] = {"iters": iters, "backoffs": halvings, "needed_evals": per_iter * iters}


def _note_minty(tracer, idx, args, kwargs, result) -> None:
    tracer.notes[idx] = {"points": int(args[2])}


def _note_written(tracer, idx, args, kwargs, result) -> None:
    tracer.notes[idx] = {"bytes": Path(args[0]).stat().st_size}


def _note_excess(tracer, idx, args, kwargs, result) -> None:
    econ = args[0]
    key = id(econ)
    if key not in tracer._bytes_cache:
        # The economy is kept with its size so that its id is not reused.
        tracer._bytes_cache[key] = (econ, _bytes_per_excess(econ))
    # excess_bytes is indexed by span, so pad it up to this span first.
    pad = idx + 1 - len(tracer.excess_bytes)
    if pad > 0:
        tracer.excess_bytes.extend([0.0] * pad)
    tracer.excess_bytes[idx] = tracer._bytes_cache[key][1]


_NOTES = {
    "vi.solve": _note_solve,
    "vi.minty_certificate": _note_minty,
    "cli.write_csv": _note_written,
    "cli.write_json": _note_written,
    "economy.excess": _note_excess,
}
