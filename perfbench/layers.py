"""Which infosep functions the traced run wraps, and the per-layer metrics
computed from their spans.

The metrics and their units are the ``per_layer`` list of
``BENCHMARK.json``.  Each is a sum over one pass unless its name says
otherwise.  The layers are the package's modules: ``cli``, ``dist``,
``_grouping``, ``modal``, ``finfo``, ``common_info``, ``ib`` and ``harness``.
"""

from __future__ import annotations

from .tracing import Target


def _rows_in(counts, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    counts["grouping.rows_in"] += len(rows)


def _wyner_result(counts, args, kwargs, result):
    counts["common_info.card_w_max"] = max(counts.get("common_info.card_w_max", 0),
                                           result.card_w)
    counts["common_info.wyner_residual_bits_max"] = max(
        counts.get("common_info.wyner_residual_bits_max", 0.0),
        result.markov_residual.to("bits").value)


def _ib_iterations(counts, args, kwargs, result):
    counts["ib.iterations"] += len(result[2]) - 1


TARGETS = (
    Target("cli.main", "infosep.cli", "main"),
    Target("dist.validate_and_trim", "infosep.dist", "validate_and_trim"),
    Target("dist.pushforward", "infosep.dist", "pushforward"),
    Target("grouping.group_rows", "infosep._grouping", "group_rows",
           on_result=_rows_in),
    Target("modal.modal_decompose", "infosep.modal", "modal_decompose"),
    Target("modal.minimal_sufficient_maps", "infosep.modal",
           "minimal_sufficient_maps"),
    Target("modal.check_sufficiency", "infosep.modal", "check_sufficiency"),
    Target("finfo.f_information", "infosep.finfo", "f_information"),
    Target("common_info.wyner_solve", "infosep.common_info", "wyner_solve",
           on_result=_wyner_result),
    Target("common_info.wyner_stage", "infosep.common_info", "_wyner_stage"),
    Target("common_info.wyner_eval", "infosep.common_info", "_wyner_eval"),
    Target("common_info.logsumexp", "infosep.common_info", "logsumexp",
           only=("infosep.common_info",)),
    Target("common_info.gacs_korner", "infosep.common_info", "gacs_korner"),
    Target("common_info.gk_via_components", "infosep.common_info",
           "gk_via_components"),
    Target("ib.ib_fixed_point", "infosep.ib", "ib_fixed_point"),
    Target("ib.ib_run", "infosep.ib", "_ib_run", on_result=_ib_iterations),
    Target("ib.logsumexp", "infosep.ib", "logsumexp", only=("infosep.ib",)),
    Target("harness.verify_separability", "infosep.harness",
           "verify_separability"),
)

def layer_metrics(names, summary: dict, counts: dict, notes: dict) -> dict:
    """Per-layer values of one traced pass for the metrics ``names``.

    ``notes`` holds the quality figures the output checks recorded.  The
    process metrics (``process.*``, ``trace.*``) come from the pass timings
    and are left out here.
    """
    def field(span, key):
        return summary.get(span, {}).get(key, 0)

    stages = field("common_info.wyner_stage", "calls")
    evals = field("common_info.wyner_eval", "calls")
    out = {
        "cli.self_s": field("cli.main", "self_s"),
        "harness.verify_separability_self_s":
            field("harness.verify_separability", "self_s"),
        "common_info.evals_per_stage": evals / stages if stages else 0.0,
    }
    for metric in names:
        if metric in out or metric.startswith(("process.", "trace.")):
            continue
        if metric in counts or metric in notes:
            out[metric] = counts.get(metric, notes.get(metric))
            continue
        span, _, kind = metric.rpartition("_")
        if kind == "s":
            out[metric] = field(span, "total_s")
        elif kind == "calls":
            out[metric] = field(span, "calls")
        else:
            out[metric] = 0
    return out
