"""Spans around hdshapes' public functions, recorded from outside the package.

The tracer replaces a function at the module attribute (or dispatch-table
entry) where its callers look it up, records one span per call in memory,
and puts the original back afterwards. A span is
[name, start, end, parent index, attributes]. Self time is a span's duration
minus the durations of its direct children; children never overlap because
hdshapes is single-threaded.
"""

from __future__ import annotations

import operator
import os
from functools import partial
from time import perf_counter

# The shape kinds whose generators return labeled Datasets. Pinned here
# rather than read from each result's labels, which a lazily materialised
# label array would have to build just for the tracer.
LABELED_KINDS = frozenset({
    "expbranches", "linearbranches", "curvybranches",
    "orglinearbranches", "orgcurvybranches", "clusteredspheres",
})


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self._open = []
        self._saved = []

    def wrap(self, owner, key, name, attrs=None) -> None:
        """Record a span `name` for every call through `owner[key]` / `owner.key`."""
        if isinstance(owner, dict):
            original, put = owner.get(key), partial(operator.setitem, owner)
        else:
            original, put = getattr(owner, key, None), partial(setattr, owner)
        if original is None:
            self.missing.append(f"{name} ({key})")
            return
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        put(key, traced)
        self._saved.append((put, key, original))

    def restore(self) -> None:
        for put, key, original in reversed(self._saved):
            put(key, original)
        self._saved.clear()


def _rows(args, kwargs, result):
    return {"rows": result.n}


def _generated(args, kwargs, result):
    return {"rows": result.n, "kind": args[0] if args else kwargs["kind"]}


def _written(args, kwargs, result):
    ds, path = args[0], args[1]
    return {"values": ds.n * (ds.p + (ds.labels is not None)), "bytes": os.path.getsize(path)}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark measures."""
    from hdshapes import cli, composer, core, noise, shapes, topology

    tracer.wrap(cli, "main", "cli.main")
    writers = getattr(cli, "_WRITERS", {})
    tracer.wrap(writers, "csv", "cli.write_csv", _written)
    tracer.wrap(writers, "ndjson", "cli.write_ndjson", _written)
    tracer.wrap(cli, "write_manifest", "cli.write_manifest")
    for module in (cli, composer, shapes):
        tracer.wrap(module, "generate", "shapes.generate", _generated)
    for module in (cli, composer):
        tracer.wrap(module, "gen_multicluster", "composer.gen_multicluster", _rows)
        tracer.wrap(module, "make_preset", "composer.make_preset", _rows)
    for fn in ("gen_hole", "gen_scurvehole", "gen_unifcubehole"):
        tracer.wrap(topology, fn, f"topology.{fn}", _rows)
    # The holed wrappers sample through these names; their rows are the
    # denominator of topology.useful_row_frac.
    for fn in ("gen_scurve", "gen_unifcube"):
        tracer.wrap(topology, fn, "topology.sample", _rows)
    for fn in ("gen_noisedims", "gen_wavydims1", "gen_wavydims2", "gen_wavydims3", "append_dims"):
        tracer.wrap(noise, fn, f"noise.{fn}")
    tracer.wrap(core.Dataset, "__init__", "core.Dataset")
    tracer.wrap(core.Dataset, "take", "core.take")


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer figures of one traced pass (every per_layer metric except
    cli.import_s and trace.overhead_s, which run.py measures)."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def total(name, where=lambda i: True):
        return sum(dur[i] for i, s in enumerate(spans) if s[0] == name and where(i))

    def self_time(name):
        return sum(dur[i] - child[i] for i, s in enumerate(spans) if s[0] == name)

    def attr_sum(name, key):
        return sum(s[4][key] for s in spans if s[0] == name and s[4])

    def count(name):
        return sum(1 for s in spans if s[0] == name)

    def kind_is(pred):
        return lambda i: spans[i][4] is not None and pred(spans[i][4]["kind"])

    csv_s, ndjson_s = total("cli.write_csv"), total("cli.write_ndjson")
    values = attr_sum("cli.write_csv", "values") + attr_sum("cli.write_ndjson", "values")
    generate_rows = attr_sum("shapes.generate", "rows")
    sampled = attr_sum("topology.sample", "rows")
    kept = attr_sum("topology.gen_scurvehole", "rows") + attr_sum("topology.gen_unifcubehole", "rows")
    return {
        "cli.write_csv.busy_s": csv_s,
        "cli.write_ndjson.busy_s": ndjson_s,
        "cli.format.ns_per_value": (csv_s + ndjson_s) / values * 1e9 if values else 0.0,
        "cli.bytes_out": attr_sum("cli.write_csv", "bytes") + attr_sum("cli.write_ndjson", "bytes"),
        "cli.write_manifest.busy_s": total("cli.write_manifest"),
        "composer.gen_multicluster.self_s": self_time("composer.gen_multicluster"),
        "composer.rows": attr_sum("composer.gen_multicluster", "rows"),
        "shapes.generate.self_s": self_time("shapes.generate"),
        "shapes.generate.calls": count("shapes.generate"),
        "shapes.ns_per_row": total("shapes.generate") / generate_rows * 1e9 if generate_rows else 0.0,
        "shapes.pyrfrac.busy_s": total("shapes.generate", kind_is(lambda k: k == "pyrfrac")),
        "shapes.labeled.busy_s": total("shapes.generate", kind_is(lambda k: k in LABELED_KINDS)),
        "topology.gen_hole.busy_s": total("topology.gen_hole"),
        "topology.useful_row_frac": kept / sampled if sampled else 0.0,
        "noise.busy_s": sum(
            dur[i] for i, s in enumerate(spans)
            if s[0].startswith("noise.") and not (s[3] >= 0 and spans[s[3]][0].startswith("noise."))
        ),
        "core.Dataset.busy_s": total("core.Dataset"),
        "core.Dataset.calls": count("core.Dataset"),
        "core.take.busy_s": total("core.take"),
    }
