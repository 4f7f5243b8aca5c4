"""Command-line front end.

Subcommands: ``select`` (sequential model selection on an edge list),
``cluster`` (single-model community detection), ``simulate`` (grid studies
from a config file), ``generate`` (write a sampled network to disk). The
``generate`` flags are the ``[grid.N]`` keys of a ``simulate`` config, and
the network is drawn by the same generator as a simulation replicate.

Exit codes: 0 success, 2 usage or I/O or parse error, 3 infeasible model
or parameters, 4 internal numerical failure.

Every run follows the one thread policy stated in ``_pool``: ``main``
sets the BLAS thread variables before any handler loads numpy, which is
why the heavy imports happen inside the handlers. The parallel work of a
run goes to the process's warm worker pool, forked by its first pooled
call, whose workers end with the process.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from . import _pool
from .errors import (
    ConfigError,
    EdgeListParseError,
    InfeasibleModelError,
    NumericalError,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockselect",
        description="Community detection and blockmodel selection "
        "(SBM / DCBM / PABM) on simple undirected networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_select = sub.add_parser(
        "select", help="run the sequential SBM -> DCBM -> PABM selection workflow"
    )
    p_select.add_argument("edges", type=Path, help="edge-list file (u v per line)")
    p_select.add_argument("--k", type=int, required=True, help="community count")
    p_select.add_argument("--alpha", type=float, default=0.05)
    p_select.add_argument("--boot", type=int, default=200, help="bootstrap replicates")
    p_select.add_argument("--restarts", type=int, default=None)
    p_select.add_argument("--seed", type=int, default=0)
    p_select.add_argument("--out", type=Path, default=Path("blockselect_out"))
    p_select.add_argument(
        "--lcc", action="store_true", help="restrict to the largest connected component"
    )
    p_select.set_defaults(func=cmd_select)

    p_cluster = sub.add_parser("cluster", help="community detection under one model")
    p_cluster.add_argument("edges", type=Path)
    p_cluster.add_argument("--k", type=int, required=True)
    p_cluster.add_argument(
        "--model", choices=("sbm", "dcbm", "pabm"), required=True,
        help="which loss to minimize (centroid / rank-1 / rank-K)",
    )
    p_cluster.add_argument("--restarts", type=int, default=None)
    p_cluster.add_argument("--seed", type=int, default=0)
    p_cluster.add_argument("--out", type=Path, default=Path("blockselect_out"))
    p_cluster.add_argument("--truth", type=Path, default=None,
                           help="ground-truth labels file (node_id label)")
    p_cluster.add_argument("--lcc", action="store_true")
    p_cluster.set_defaults(func=cmd_cluster)

    p_sim = sub.add_parser("simulate", help="run a grid study from a config file")
    p_sim.add_argument("config", type=Path)
    p_sim.add_argument("--out", type=Path, default=Path("blockselect_out"))
    p_sim.add_argument("--quiet", action="store_true")
    p_sim.set_defaults(func=cmd_simulate)

    p_gen = sub.add_parser("generate", help="sample a network and write it to disk")
    p_gen.add_argument("model", choices=("sbm", "dcbm", "pabm"))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--omega", type=str, default=None,
                       help="base block matrix, rows ; separated: '4,2;2,4'")
    p_gen.add_argument("--beta", type=float, default=None,
                       help="between/within probability ratio (alternative to --omega)")
    p_gen.add_argument("--fractions", type=str, default=None,
                       help="block fractions, e.g. '0.25,0.25,0.5' (default equal)")
    p_gen.add_argument("--density", type=float, default=None)
    p_gen.add_argument("--avg-degree", type=float, default=None)
    p_gen.add_argument("--theta-law", type=str, default=None,
                       help="dcbm degree law: beta:a,b | powerlaw:xmin,alpha | "
                       "constant:v (default beta:1,5)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", type=Path, default=Path("blockselect_out"))
    p_gen.set_defaults(func=cmd_generate)
    return parser


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _load_graph(path: Path, use_lcc: bool):
    from .netcore import largest_connected_component, load_edge_list

    with open(path, "r", encoding="utf-8") as fh:
        graph, ids = load_edge_list(fh)
    if use_lcc:
        graph, mapping = largest_connected_component(graph)
        ids = {
            name: mapping[idx] for name, idx in ids.items() if idx in mapping
        }
    return graph, ids


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_labels_csv(path: Path, labels, ids: dict[str, int], config: dict) -> None:
    rev = {idx: name for name, idx in ids.items()}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
        # node ids are any non-blank token, so one may hold a comma or a quote
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["node", "label"])
        writer.writerows([rev.get(idx, idx), int(labels[idx])] for idx in range(len(labels)))


def _summary_line(result) -> str:
    t1 = result.test_sbm_dcbm
    parts = [
        f"SBM {'rejected' if t1.rejected else 'not rejected'} (p={t1.p_value:.2f})"
    ]
    t2 = result.test_dcbm_pabm
    if t2 is not None:
        parts.append(
            f"DCBM {'rejected' if t2.rejected else 'not rejected'} (p={t2.p_value:.2f})"
        )
    parts.append(f"model: {result.selected_model.value}")
    return "; ".join(parts)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_select(args) -> int:
    from .modelselect import run_workflow, workflow_report

    graph, ids = _load_graph(args.edges, args.lcc)
    config = {
        "command": "select",
        "edges": str(args.edges),
        "n": graph.n,
        "k": args.k,
        "alpha": args.alpha,
        "boot": args.boot,
        "restarts": args.restarts,
        "seed": args.seed,
        "lcc": args.lcc,
    }
    result = run_workflow(
        graph, args.k, alpha=args.alpha, n_boot=args.boot,
        restarts=args.restarts, seed=args.seed,
    )
    args.out.mkdir(parents=True, exist_ok=True)
    report = workflow_report(result)
    report["config"] = config
    report["labels_file"] = "labels.csv"
    _write_json(args.out / "report.json", report)
    _write_labels_csv(args.out / "labels.csv", result.labels, ids, config)
    _write_json(args.out / "timings.json", {"config": config, "seconds": result.timing})
    print(_summary_line(result))
    return 0


def cmd_cluster(args) -> int:
    from .cluster import _require_k, mislabel_rate
    from .modelselect import ModelKind, detect
    from .netcore import load_labels

    graph, ids = _load_graph(args.edges, args.lcc)
    config = {
        "command": "cluster",
        "edges": str(args.edges),
        "n": graph.n,
        "k": args.k,
        "model": args.model,
        "restarts": args.restarts,
        "seed": args.seed,
        "lcc": args.lcc,
    }
    truth = None
    if args.truth is not None:
        # a truth file that cannot be read or scored fails before detection,
        # and its label range is only checked against a valid k
        _require_k(graph.n, args.k)
        with open(args.truth, "r", encoding="utf-8") as fh:
            truth = load_labels(fh, ids, graph.n)
        if not ((truth >= 1) & (truth <= args.k)).all():
            raise ValueError(f"true labels must lie in [1, {args.k}]")
    sol = detect(
        graph, args.k, ModelKind(args.model.upper()), args.restarts, seed=args.seed
    )
    args.out.mkdir(parents=True, exist_ok=True)
    _write_labels_csv(args.out / "labels.csv", sol.labels, ids, config)
    meta = {
        "config": config,
        "objective": sol.objective,
        "n_iters": sol.n_iters,
        "n_restarts_used": sol.n_restarts_used,
        "degenerate": sol.degenerate,
        "labels_file": "labels.csv",
    }
    print(f"objective: {sol.objective:.6g}")
    if truth is not None:
        rate = mislabel_rate(sol.labels, truth, args.k)
        meta["mislabel_rate"] = rate
        print(f"mislabel rate: {rate:.4f}")
    _write_json(args.out / "cluster.json", meta)
    return 0


def cmd_simulate(args) -> int:
    from .simharness import (
        emit_table,
        load_experiment_config,
        report_provenance,
        run_experiment,
    )

    with open(args.config, "r", encoding="utf-8") as fh:
        spec = load_experiment_config(fh)

    def progress(point_idx, method, rep_idx):
        if not args.quiet:
            print(
                f"\r[grid {point_idx + 1}/{len(spec.grid)}] {method} "
                f"replicate {rep_idx + 1}/{spec.n_replicates}  ",
                end="", file=sys.stderr, flush=True,
            )

    report = run_experiment(spec, progress=progress)
    if not args.quiet:
        print(file=sys.stderr)
    csv_text, table_text = emit_table(report)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "table.csv").write_text(csv_text, encoding="utf-8")
    header = (
        f"# study: {spec.study.value}  replicates: {spec.n_replicates}  "
        f"base_seed: {spec.base_seed}  config: {args.config}\n"
    )
    (args.out / "table.txt").write_text(header + table_text, encoding="utf-8")
    _write_json(args.out / "provenance.json", report_provenance(report))
    print(table_text, end="")
    return 0


def cmd_generate(args) -> int:
    from .blockmodels import write_params
    from .netcore import density as graph_density
    from .netcore import write_edge_list
    from .simharness import _DEFAULT_THETA_LAW, _generate, _grid_point, _refuse_unread

    # the flags are the [grid.N] keys of a simulation config, and the
    # network is one draw of its generator
    keys = {
        key: getattr(args, key)
        for key in ("n", "k", "omega", "beta", "fractions", "density", "avg_degree", "theta_law")
    }
    if args.model == "dcbm" and args.theta_law is None:
        keys["theta_law"] = _DEFAULT_THETA_LAW
    config = {"command": "generate", "model": args.model, **keys, "seed": args.seed}
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    point = _grid_point(dict(keys, true_model=args.model), where="")
    _refuse_unread(args.model, point, where="")
    g, params = _generate(None, point, args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "edges.txt", "w", encoding="utf-8") as fh:
        fh.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
        write_edge_list(g, fh)
    with open(args.out / "params.txt", "w", encoding="utf-8") as fh:
        fh.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
        write_params(params, fh)
    ids = {str(i): i for i in range(g.n)}
    _write_labels_csv(args.out / "labels.csv", params.labels, ids, config)
    realized = graph_density(g) if g.n >= 2 else 0.0
    print(
        f"wrote {args.model} network: n={g.n}, edges={g.edge_count}, "
        f"density={realized:.4f} -> {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _exit_code_for(exc: BaseException) -> int | None:
    # InfeasibleModelError is a ValueError subclass; test it first
    if isinstance(exc, InfeasibleModelError):
        return 3
    if isinstance(exc, NumericalError):
        return 4
    if exc.__class__.__name__ in ("LinAlgError", "ArpackError", "ArpackNoConvergence"):
        return 4
    if isinstance(exc, (EdgeListParseError, ConfigError, OSError, ValueError)):
        return 2
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    os.environ.update(dict.fromkeys(_pool.THREAD_VARS, "1"))
    try:
        return args.func(args)
    except Exception as exc:  # map known failures onto exit codes
        code = _exit_code_for(exc)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
