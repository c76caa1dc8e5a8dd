"""Spans and counts around rumornet's layers, recorded from outside ``src/``.

``Tracer.install`` replaces each layer's public functions at the names their
callers look them up by (a module global or a class attribute) with a wrapper
that records a span ``{name, start, end, parent, error, counts}`` in memory.
Nothing inside the package is edited; the spans are handed back to the caller,
which writes them out when the run ends.  ``layer_metrics`` turns one run's
spans into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import inspect
import json
import os
import time


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``count(bound_args, result)`` returns the counts to attach to a span
        whose call returned normally.
        """
        original = getattr(owner, attr)
        signature = inspect.signature(original)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = {"name": name, "start": 0.0, "end": 0.0,
                    "parent": stack[-1] if stack else None, "error": None, "counts": {}}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = count(bound.arguments, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from rumornet import meanfield, montecarlo, netgen
        from rumornet.expcli import cli, scenario

        self.wrap(cli, "main", "expcli.main")
        self.wrap(cli, "parse_scenario", "expcli.parse")
        self.wrap(cli, "_cmd_simulate", "expcli.verb", _count_outputs)
        self.wrap(scenario, "line_plot", "expcli.svg")
        self.wrap(scenario, "build_ba_network", "netgen.build")
        self.wrap(scenario, "build_configuration_network", "netgen.build")
        self.wrap(scenario, "sample_powerlaw_distribution", "netgen.dist")
        self.wrap(netgen.Network, "empirical_distribution", "netgen.dist")
        self.wrap(netgen.Network, "__init__", "netgen.network_init", _count_network)
        self.wrap(scenario, "integrate", "meanfield.integrate", _count_integrate)
        self.wrap(scenario, "final_rumor_size", "meanfield.final_size")
        self.wrap(meanfield, "psi_fixed_point", "meanfield.fixed_point")
        self.wrap(scenario, "make_random_plan", "inoculation.plan")
        self.wrap(scenario, "make_targeted_plan", "inoculation.plan")
        self.wrap(montecarlo, "apply_plan", "inoculation.apply")
        self.wrap(montecarlo, "ensemble", "montecarlo.ensemble")
        self.wrap(montecarlo, "run", "montecarlo.run", _count_run)


def _count_network(args, _result) -> dict:
    net = args["self"]
    return {"edges": net.edge_count, "erased_edges": net.erased_edges}


def _count_integrate(args, _result) -> dict:
    steps = int(round(args["t_end"] / args["dt"]))
    return {"class_steps": steps * int(args["initial"].rho_i.size)}


def _count_run(args, trace) -> dict:
    return {"steps": int(trace.times.size) - 1, "informed": trace.final_r * args["network"].n}


def _count_outputs(args, _result) -> dict:
    out_dir = args["scenario"].out_dir
    with open(os.path.join(out_dir, "manifest.json"), encoding="ascii") as fh:
        points = json.load(fh)["points"]
    written = sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
    return {"bytes_written": written, "points": points}


# ---------------------------------------------------------------------------
# analysis

def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for idx, span in enumerate(spans):
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children.get(idx, [])):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(span["end"] - span["start"] - covered)
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer times (inclusive of callees unless named ``self``) and counts."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for span in spans:
        name = span["name"]
        total[name] = total.get(name, 0.0) + span["end"] - span["start"]
        calls[name] = calls.get(name, 0) + 1
        for key, value in span["counts"].items():
            counts[key] = counts.get(key, 0.0) + value
    selfs = self_times(spans)
    verb_self = sum(s for span, s in zip(spans, selfs) if span["name"] == "expcli.verb")
    integrate_ok = [s for s in spans if s["name"] == "meanfield.integrate" and s["error"] is None]
    integrate_ok_s = sum(s["end"] - s["start"] for s in integrate_ok)
    edges = counts.get("edges", 0.0)
    erased = counts.get("erased_edges", 0.0)
    steps = counts.get("steps", 0.0)
    class_steps = counts.get("class_steps", 0.0)
    return {
        "netgen.build_s": total.get("netgen.build", 0.0),
        "netgen.network_init_s": total.get("netgen.network_init", 0.0),
        "netgen.dist_s": total.get("netgen.dist", 0.0),
        "netgen.edges": edges,
        "netgen.erased_edges": erased,
        "netgen.erased_ratio": erased / (edges + erased) if edges + erased else 0.0,
        "meanfield.integrate_s": total.get("meanfield.integrate", 0.0),
        "meanfield.integrate_calls": calls.get("meanfield.integrate", 0),
        "meanfield.integrate_failures": calls.get("meanfield.integrate", 0) - len(integrate_ok),
        "meanfield.class_steps": class_steps,
        "meanfield.ns_per_class_step": 1e9 * integrate_ok_s / class_steps if class_steps else 0.0,
        "meanfield.fixed_point_s": total.get("meanfield.fixed_point", 0.0),
        "meanfield.fixed_point_calls": calls.get("meanfield.fixed_point", 0),
        "meanfield.final_size_s": total.get("meanfield.final_size", 0.0),
        "montecarlo.ensemble_s": total.get("montecarlo.ensemble", 0.0),
        "montecarlo.run_s": total.get("montecarlo.run", 0.0),
        "montecarlo.runs": calls.get("montecarlo.run", 0),
        "montecarlo.steps": steps,
        "montecarlo.informed": counts.get("informed", 0.0),
        "montecarlo.s_per_step": total.get("montecarlo.run", 0.0) / steps if steps else 0.0,
        "inoculation.plan_s": total.get("inoculation.plan", 0.0),
        "inoculation.apply_s": total.get("inoculation.apply", 0.0),
        "expcli.parse_s": total.get("expcli.parse", 0.0),
        "expcli.verb_s": total.get("expcli.verb", 0.0),
        "expcli.self_s": verb_self,
        "expcli.svg_s": total.get("expcli.svg", 0.0),
        "expcli.bytes_written": counts.get("bytes_written", 0.0),
        "expcli.points": counts.get("points", 0.0),
    }
