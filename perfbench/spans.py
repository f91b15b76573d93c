"""Outside-in spans around glaw's public functions, for the traced pass.

`Tracer.install` replaces each function in LAYERS under every name a glaw
module binds it to (so `glaw.exactla.rref` is caught when `rank` calls it,
and `glaw.tower.image_basis` when `grow` calls it).  Each call records a span
(name, start, end, parent, job); spans stay in memory until the pass ends.
The untraced pass never creates a Tracer, so it runs glaw unwrapped.
"""

from __future__ import annotations

import functools
import sys
import time

# Span name -> (module, function names).  Several functions may share a span.
LAYERS = {
    "exactla.rref": ("glaw.exactla", ["rref"]),
    "tower.grow": ("glaw.tower", ["grow"]),
    "tower.pn_check": ("glaw.tower", ["pn_check"]),
    "tower.pn_evaluate": ("glaw.tower", ["pn_evaluate"]),
    "tower.assemble": ("glaw.tower", ["assemble"]),
    "tower.pairing_table": ("glaw.tower", ["pairing_table"]),
    "tower.centralizer_graded": ("glaw.tower", ["centralizer_graded"]),
    "liecore.killing_form": ("glaw.liecore", ["killing_form"]),
    "liecore.center": ("glaw.liecore", ["center"]),
    "liecore.grading_element": ("glaw.liecore", ["grading_element"]),
    "liecore.validate": ("glaw.liecore", ["validate"]),
    "localg.build_local": ("glaw.localg", ["build_local"]),
    "localg.transitivity_check": ("glaw.localg", ["transitivity_check"]),
    "localg.reduce_triplet": ("glaw.localg", ["reduce_triplet"]),
    "sl2.complete_triple": ("glaw.sl2", ["complete_triple"]),
    "sl2.property_p_test": ("glaw.sl2", ["property_p_test"]),
    "cli.load_spec": ("glaw.cli", ["load_spec"]),
    "cli.parse_triplet_spec": ("glaw.cli", ["parse_triplet_spec"]),
    "cli.triplet_hash": ("glaw.cli", ["triplet_hash"]),
    "cli.main": ("glaw.cli", ["main"]),
    "generators.gen": (
        "glaw.generators",
        ["gen_symplectic", "gen_glblock", "gen_principal", "gen_with_trivial_summand"],
    ),
}


def _rref_cells(args, result) -> dict:
    m = args[0]
    return {"cells": m.rows * m.cols}


def _grow_kept(args, result) -> dict:
    """Kept dims over candidate columns, for every degree the call grew."""
    kept = sum(c.dim for c in result.components[1 : len(result.phis) + 1])
    return {"kept": kept, "candidates": sum(phi.cols for phi in result.phis)}


def _main_refusal(args, result) -> dict:
    return {"refusals": int(result in (2, 3))}


SIZES = {"exactla.rref": _rref_cells, "tower.grow": _grow_kept, "cli.main": _main_refusal}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.job: int | None = None
        self._stack: list[int] = []

    def install(self, layers):
        """Wrap the named layers' functions under every name glaw binds them to."""
        glaw_modules = [m for name, m in sys.modules.items() if name == "glaw" or name.startswith("glaw.")]
        for span_name in layers:
            module_name, functions = LAYERS[span_name]
            home = sys.modules[module_name]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(span_name, original)
                for module in glaw_modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, name, fn):
        sizes = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None, "job": self.job}
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if sizes:
                span.update(sizes(args, result))
            return result

        return traced


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer self seconds, call counts and sizes, summed over spans."""
    out = {}
    for name in LAYERS:
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    extra = {"cells": 0, "kept": 0, "candidates": 0, "refusals": 0}
    for span, own in zip(spans, self_times(spans)):
        out[f"{span['name']}.self_s"] += own
        out[f"{span['name']}.calls"] += 1
        for key in extra:
            extra[key] += span.get(key, 0)
    out["exactla.rref.cells"] = extra["cells"]
    out["tower.grow.kept_ratio"] = extra["kept"] / extra["candidates"] if extra["candidates"] else 0.0
    out["cli.main.refusals"] = extra["refusals"]
    return out
