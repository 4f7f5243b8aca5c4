"""Bench-side tracing of the blockselect pipeline.

``Tracer.install`` replaces the public functions each layer calls with
wrappers that record a span (name, start, end, parent span, operation id,
and a few counts) and then call the original. A function is replaced in
every ``blockselect`` module that binds it, so calls that go through
``modelselect.ase`` or ``simharness.minimize_q_subspace`` are seen as well.
Nothing in the library changes, and an untraced run installs nothing.

Span names start with their layer, the ``src/blockselect`` module whose
public function the span wraps.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("netcore", "spectral", "blockmodels", "cluster", "modelselect",
          "simharness", "cli")

# span names that count as one minimizer solution
_MINIMIZERS = ("cluster.minimize_q1", "cluster.minimize_q_subspace_r1",
               "cluster.minimize_q_subspace_rK")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int | None = None
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name, on_result=None):
        """``name`` is a string or a callable(args, kwargs) -> string;
        ``on_result(span, args, kwargs, result)`` adds counts to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = Span(span_name, 0.0, parent=parent, op=self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = time.perf_counter()
                span.info["raised"] = 1
                raise
            finally:
                self._stack.pop()
            span.end = time.perf_counter()
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def _patch_everywhere(self, module, attr: str, name, on_result=None) -> None:
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "blockselect" or mod is None:
                continue
            if getattr(mod, attr, None) is original:
                self._restore.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def install(self) -> None:
        from blockselect import (
            blockmodels, cli, cluster, modelselect, netcore, simharness, spectral,
        )

        # netcore: the CSR adjacency is a cached property of Graph
        prop = netcore.Graph.__dict__["adjacency"]
        traced_prop = type(prop)(self.wrap(prop.func, "netcore.adjacency"))
        traced_prop.__set_name__(netcore.Graph, "adjacency")
        self._restore.append((netcore.Graph, "adjacency", prop))
        netcore.Graph.adjacency = traced_prop
        self._patch_everywhere(netcore, "load_edge_list", "netcore.load_edge_list")

        self._patch_everywhere(spectral, "ase", "spectral.ase")
        self._patch_everywhere(spectral, "top_eigenpairs", "spectral.dense_eigh")
        self._patch_everywhere(spectral, "eigsh", "spectral.lanczos")

        def edges(span, args, kwargs, g):
            span.info["edges"] = g.edge_count

        def dense(span, args, kwargs, p):
            span.info["dense_bytes"] = 8 * p.n * p.n

        self._patch_everywhere(blockmodels, "sample_graph", "blockmodels.sample_graph", edges)
        self._patch_everywhere(blockmodels, "prob_matrix", "blockmodels.prob_matrix", dense)
        for fit in ("fit_sbm", "fit_dcbm"):
            self._patch_everywhere(blockmodels, fit, "blockmodels.fit", dense)
        for gen in ("gen_sbm", "gen_dcbm", "gen_pabm"):
            self._patch_everywhere(blockmodels, gen, "blockmodels.gen")

        def solution(span, args, kwargs, sol):
            span.info["restarts"] = sol.n_restarts_used
            span.info["degenerate"] = int(sol.degenerate)

        def subspace_name(args, kwargs):
            r = kwargs["r"] if "r" in kwargs else args[2]
            return "cluster.minimize_q_subspace_r1" if r == 1 else "cluster.minimize_q_subspace_rK"

        self._patch_everywhere(cluster, "minimize_q1", "cluster.minimize_q1", solution)
        self._patch_everywhere(cluster, "minimize_q_subspace", subspace_name, solution)
        self._patch_everywhere(cluster, "mislabel_rate", "cluster.mislabel_rate")

        def replicates(span, args, kwargs, stats):
            span.info["replicates"] = int(stats.size)

        for test in ("test_sbm_vs_dcbm", "test_dcbm_vs_pabm"):
            self._patch_everywhere(modelselect, test, "modelselect.test")
        self._patch_everywhere(modelselect, "_bootstrap_statistics",
                               "modelselect.bootstrap", replicates)
        self._patch_everywhere(modelselect, "run_workflow", "modelselect.workflow")

        self._patch_everywhere(simharness, "run_experiment", "simharness.experiment")
        self._patch_everywhere(simharness, "run_single_replicate", "simharness.replicate")

        self._patch_everywhere(cli, "main", "cli.main")
        self._patch_everywhere(cli, "cmd_select", "cli.select")
        for io_fn in ("_load_graph", "_write_json", "_write_labels_csv"):
            self._patch_everywhere(cli, io_fn, "cli.io")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def dump(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.op, s.info] for s in self.spans]

    def layer_metrics(self, ops: list[int], traced_op_s: float) -> dict[str, float]:
        """Per-operation layer metrics over the spans of ``ops``.

        ``traced_op_s`` is the traced wall time of those operations (input
        build plus run); layer self times plus ``bench.residual_s`` add up
        to it.
        """
        wanted = set(ops)
        n_ops = len(ops)
        spans = [(i, s) for i, s in enumerate(self.spans) if s.op in wanted]
        child_s: dict[int, float] = defaultdict(float)
        boot_child_s: dict[int, float] = defaultdict(float)
        for _, s in spans:
            if s.parent >= 0:
                child_s[s.parent] += s.seconds
                if s.name == "modelselect.bootstrap":
                    boot_child_s[s.parent] += s.seconds
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        info: dict[str, float] = defaultdict(float)
        self_by_name: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        observed = root_s = 0.0
        attempts = 0
        for i, s in spans:
            total[s.name] += s.seconds
            calls[s.name] += 1
            for key, value in s.info.items():
                info[key] += value
            self_s = s.seconds - child_s[i]
            self_by_name[s.name] += self_s
            layer_self[s.name.split(".")[0]] += self_s
            if s.parent < 0:
                root_s += s.seconds
            if s.name == "modelselect.test":
                observed += s.seconds - boot_child_s[i]
            elif (s.name == "blockmodels.sample_graph" and s.parent >= 0
                  and self.spans[s.parent].name == "modelselect.bootstrap"):
                attempts += 1
        solutions = sum(calls[n] for n in _MINIMIZERS)
        replicates = info["replicates"]
        fails = sum(s.info.get("raised", 0) for _, s in spans
                    if s.name == "simharness.replicate")

        m: dict[str, float] = {
            "netcore.adjacency.s": total["netcore.adjacency"],
            "netcore.adjacency.calls": calls["netcore.adjacency"],
            "netcore.load_edge_list.s": total["netcore.load_edge_list"],
            "spectral.ase.s": total["spectral.ase"],
            "spectral.ase.calls": calls["spectral.ase"],
            "spectral.dense_eigh.calls": calls["spectral.dense_eigh"],
            "spectral.lanczos.s": total["spectral.lanczos"],
            "blockmodels.sample_graph.s": total["blockmodels.sample_graph"],
            "blockmodels.sample_graph.calls": calls["blockmodels.sample_graph"],
            "blockmodels.edges_sampled": info["edges"],
            "blockmodels.fit.s": total["blockmodels.fit"],
            "blockmodels.gen.s": total["blockmodels.gen"],
            "blockmodels.dense_bytes": info["dense_bytes"],
            "cluster.minimize_q1.s": total["cluster.minimize_q1"],
            "cluster.minimize_q1.calls": calls["cluster.minimize_q1"],
            "cluster.minimize_q_subspace_r1.s": total["cluster.minimize_q_subspace_r1"],
            "cluster.minimize_q_subspace_r1.calls": calls["cluster.minimize_q_subspace_r1"],
            "cluster.minimize_q_subspace_rK.s": total["cluster.minimize_q_subspace_rK"],
            "cluster.minimize_q_subspace_rK.calls": calls["cluster.minimize_q_subspace_rK"],
            "cluster.restarts": info["restarts"],
            "cluster.mislabel_rate.s": total["cluster.mislabel_rate"],
            "modelselect.observed.s": observed,
            "modelselect.bootstrap.self_s": self_by_name["modelselect.bootstrap"],
            "modelselect.replicates": replicates,
            "modelselect.attempts": attempts,
            "simharness.replicate.s": total["simharness.replicate"],
            "simharness.failed": fails,
            "cli.select.s": total["cli.select"],
            "cli.io.self_s": self_by_name["cli.io"],
        }
        per_op = {k: v / n_ops for k, v in m.items()}
        # ratios keep their own base and are not divided by the op count
        per_op["spectral.lanczos_share"] = (
            calls["spectral.lanczos"] / calls["spectral.ase"] if calls["spectral.ase"] else 0.0
        )
        per_op["cluster.degenerate_ratio"] = info["degenerate"] / solutions if solutions else 0.0
        per_op["modelselect.retry_ratio"] = (
            (attempts - replicates) / replicates if replicates else 0.0
        )
        for layer in LAYERS:
            per_op[f"{layer}.self_s"] = layer_self[layer] / n_ops
        per_op["bench.traced_op_s"] = traced_op_s / n_ops
        per_op["bench.residual_s"] = (traced_op_s - root_s) / n_ops
        per_op["trace.spans"] = len(spans) / n_ops
        return per_op
