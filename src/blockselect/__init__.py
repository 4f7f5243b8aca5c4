"""Community detection and model selection for the blockmodel hierarchy.

Given a simple undirected network and a community count K, this package
estimates community labels under the stochastic, degree-corrected, and
popularity-adjusted blockmodels, and selects among them with two
sequential parametric-bootstrap tests whose statistics are the minimized
clustering losses themselves.
"""

from __future__ import annotations

import importlib

# Public names resolve on first use (PEP 562), so importing the package, or
# ``blockselect.cli`` before it sets the BLAS thread variables (see
# ``_pool``), does not load numpy.
_EXPORTS = {
    "blockmodels": (
        "Beta", "Constant", "DcbmParams", "FactoredProb", "PabmParams",
        "PowerLaw", "ProbMatrix", "SbmParams", "beta_ratio_omega",
        "edge_probs", "fit_dcbm", "fit_sbm", "gen_dcbm", "gen_pabm", "gen_sbm",
        "prob_matrix", "sample_graph",
    ),
    "cluster": (
        "ClusterSolution", "minimize_q1", "minimize_q_subspace",
        "mislabel_rate", "osc", "q1_value", "q_subspace_value", "rsc_l",
        "sc_l",
    ),
    "errors": (
        "BlockselectError", "ConfigError", "DegenerateModelError",
        "EdgeListParseError", "InfeasibleModelError", "NumericalError",
    ),
    "modelselect": (
        "ModelKind", "TestResult", "WorkflowResult", "detect", "run_workflow",
        "test_dcbm_vs_pabm", "test_sbm_vs_dcbm", "workflow_report",
    ),
    "netcore": (
        "Graph", "avg_degree", "degrees", "density",
        "largest_connected_component", "load_edge_list", "load_labels",
        "write_edge_list",
    ),
    "spectral": (
        "Embedding", "ase", "laplacian_embedding", "top_eigenpairs",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
