"""Span tracing of the grmahler layers, installed from outside the library.

`Tracer.install()` replaces each public function of each layer module with
a wrapper that records a span: name, start, end, parent span and request
id.  A function is replaced under every module attribute that holds it, so
names bound by `from ... import` (cli's `parse_group`, `parse_poly` and
`to_ring_element`) are traced where the caller resolves them.  The groups
layer gets count-only wrappers, because `groups.multiply` runs millions of
times per request; its time shows as self time of its callers.

Spans stay in memory; `write_jsonl` saves them when the run ends.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("cli", "parsing", "groups", "ring", "mahler", "spectra", "genfun", "experiments")

# functions whose span gets a name other than <layer>.<function>
SPAN_NAMES = {
    ("cli", "render_json"): "cli.render",
    ("cli", "render_csv"): "cli.render",
    ("cli", "format_number"): "cli.render",
    ("ring", "power_constant_coeffs"): "ring.power",
    ("mahler", "mahler_series"): "mahler.series",
    ("mahler", "u_series"): "mahler.u",
    ("mahler", "mahler_general"): "mahler.general",
    ("mahler", "mahler_finite"): "mahler.finite",
    ("mahler", "mahler_torus"): "mahler.torus",
    ("spectra", "cayley_adjacency"): "spectra.adjacency",
    ("spectra", "hermitian_eigenvalues"): "spectra.eigen",
    ("spectra", "det_i_minus_lambda"): "spectra.det_float",
    ("spectra", "det_i_minus_lambda_exact"): "spectra.det_exact",
    ("spectra", "abelian_character_values"): "spectra.characters",
    ("spectra", "abelian_spectrum"): "spectra.characters",
    ("spectra", "dihedral_trace_via_characters"): "spectra.characters",
}


class Deadline(BaseException):
    """Raised by the per-request timer; not an error of any layer."""


# span record fields
NAME, START, END, PARENT, REQUEST, LAYER = range(6)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, request id, layer]
        self.stack = []
        self.request = None
        self.counts = {}  # count-only wrappers: name -> [calls]
        self.errors = dict.fromkeys(LAYERS, 0)
        self.extra = {"ring.power.terms": 0, "spectra.adjacency.order_sum": 0}
        self._groups_depth = [0]
        self._patched = []  # (owner, attribute, original)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, layer, name, fn):
        spans, stack, errors, extra = self.spans, self.stack, self.errors, self.extra
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            rec = [name, perf_counter(), 0.0, parent, tracer.request, layer]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if parent is None or spans[parent][LAYER] != layer:
                    errors[layer] += 1
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if name == "spectra.det_hermitian":
                # exact inputs give an int or Fraction, float inputs a float
                rec[NAME] = "spectra.det_float" if isinstance(result, float) else "spectra.det_exact"
            elif name == "ring.power":
                extra["ring.power.terms"] += len(result.values)
            elif name == "spectra.adjacency":
                extra["spectra.adjacency.order_sum"] += result.n
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name, fn):
        cell = self.counts.setdefault(name, [0])
        depth, errors = self._groups_depth, self.errors

        def counted(*args, **kwargs):
            cell[0] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                if depth[0] == 1:  # leaving the groups layer, not a nested groups call
                    errors["groups"] += 1
                raise
            finally:
                depth[0] -= 1

        counted.__wrapped__ = fn
        return counted

    # -- installation -------------------------------------------------------

    def install(self):
        modules = {name: importlib.import_module(f"grmahler.{name}") for name in LAYERS}
        replace = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                if layer == "groups":
                    replace[fn] = self._count_wrapper(f"groups.{attr}", fn)
                else:
                    name = SPAN_NAMES.get((layer, attr), f"{layer}.{attr}")
                    replace[fn] = self._span_wrapper(layer, name, fn)
        owners = [m for n, m in sys.modules.items() if n == "grmahler" or n.startswith("grmahler.")]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if inspect.isfunction(value) and value in replace:
                    self._patched.append((owner, attr, value))
                    setattr(owner, attr, replace[value])
        # AlgebraicSeries.coeffs does the closed-form series arithmetic
        series_cls = modules["genfun"].AlgebraicSeries
        original = series_cls.coeffs
        self._patched.append((series_cls, "coeffs", original))
        series_cls.coeffs = self._span_wrapper("genfun", "genfun.coeffs", original)

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def reset_stack(self):
        """Drop spans left open by a request the deadline cut short."""
        for i in self.stack:
            if not self.spans[i][END]:
                self.spans[i][END] = perf_counter()
        self.stack.clear()
        self._groups_depth[0] = 0

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, request, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


def self_times(spans) -> list[float]:
    """Self time per span: its duration minus the part of it that child
    spans cover (child intervals are merged and clipped to the parent)."""
    children = {}
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0.0
        cur_start = cur_end = None
        for lo, hi in sorted((max(spans[c][START], start), min(spans[c][END], end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(end - start - covered)
    return out
