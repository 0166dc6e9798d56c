"""Outside-in tracer: spans and counts at the boundaries between dynarace modules.

The tracer patches, from outside the package, each name a module looks up
in another module (``dynarace.engine.hnf``, not ``dynarace.hnf.hnf``), so
every call across a module boundary becomes a span and its arguments and
result feed the work counts.  Self time is a span's duration minus the time
of the traced spans it called.  A boundary whose name no longer exists is
reported as absent (``None``) instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

# (module the caller lives in, name it calls, span name)
BOUNDARIES = (
    ("dynarace.cli", "load_model", "model.load"),
    ("dynarace.cli", "infer_domains", "model.infer_domains"),
    ("dynarace.cli", "build_tree", "engine.build_tree"),
    ("dynarace.cli", "extract_witnesses", "races.extract"),
    ("dynarace.cli", "render_traces", "render.traces"),
    ("dynarace.cli", "emit_dot", "render.dot"),
    ("dynarace.engine", "successors", "engine.successors"),
    ("dynarace.engine", "hnf", "hnf"),
    ("dynarace.engine", "message_key", "hnf.message_key"),
    ("dynarace.engine", "first_concurrent_pair", "clocks.race_check"),
    ("dynarace.hnf", "normal_form", "netkat.normal_form"),
)

ROOT_SPAN = "cli.run"
CLI_SPANS = tuple(span for module, _, span in BOUNDARIES if module == "dynarace.cli")


def _on_infer_domains(t, args, dom):
    t.counts["domains.packets"] += dom.packet_count


def _on_build_tree(t, args, tree):
    t.counts["engine.nodes_kept"] += len(tree.nodes)
    t.counts["engine.nodes_built"] += 1  # the root; successors count the rest
    t.seen["engine.distinct_states"].add(tree.root.state)


def _on_successors(t, args, succ):
    state = args[0]
    t.counts["engine.nodes_built"] += len(succ)
    t.seen["engine.successors.distinct_keys"].add(
        (tuple(term for term, _ in state.components), state.depth_remaining)
    )
    t.seen["engine.distinct_states"].update(child for _, child in succ)


def _on_hnf(t, args, result):
    t.seen["hnf.distinct_terms"].add(args[0])


def _on_normal_form(t, args, result):
    t.seen["netkat.normal_form.distinct"].add(args[0])


def _on_extract(t, args, witnesses):
    t.counts["races.witnesses"] += len(witnesses)


def _on_dot(t, args, text):
    t.counts["render.dot_bytes"] += len(text.encode("utf-8"))


OBSERVERS = {
    "model.infer_domains": _on_infer_domains,
    "engine.build_tree": _on_build_tree,
    "engine.successors": _on_successors,
    "hnf": _on_hnf,
    "netkat.normal_form": _on_normal_form,
    "races.extract": _on_extract,
    "render.dot": _on_dot,
}

# metric -> (spans it needs, how it is computed from the tracer)
METRICS = {
    "hnf.calls": (("hnf",), lambda t: t.calls["hnf"]),
    "hnf.distinct_terms": (("hnf",), lambda t: t.counts["hnf.distinct_terms"]),
    "hnf.useful_ratio": (("hnf",), lambda t: _ratio(t.counts["hnf.distinct_terms"], t.calls["hnf"])),
    "hnf.self_s": (("hnf",), lambda t: t.self_s["hnf"]),
    "hnf.message_key.calls": (("hnf.message_key",), lambda t: t.calls["hnf.message_key"]),
    "netkat.normal_form.calls": (("netkat.normal_form",), lambda t: t.calls["netkat.normal_form"]),
    "netkat.normal_form.distinct": (("netkat.normal_form",), lambda t: t.counts["netkat.normal_form.distinct"]),
    "netkat.normal_form.self_s": (("netkat.normal_form",), lambda t: t.self_s["netkat.normal_form"]),
    "domains.packets": (("model.infer_domains",), lambda t: t.counts["domains.packets"]),
    "engine.nodes_built": (("engine.build_tree", "engine.successors"), lambda t: t.counts["engine.nodes_built"]),
    "engine.nodes_kept": (("engine.build_tree",), lambda t: t.counts["engine.nodes_kept"]),
    "engine.kept_ratio": (
        ("engine.build_tree", "engine.successors"),
        lambda t: _ratio(t.counts["engine.nodes_kept"], t.counts["engine.nodes_built"]),
    ),
    "engine.successors.calls": (("engine.successors",), lambda t: t.calls["engine.successors"]),
    "engine.successors.distinct_keys": (
        ("engine.successors",),
        lambda t: t.counts["engine.successors.distinct_keys"],
    ),
    "engine.successors.self_s": (("engine.successors",), lambda t: t.self_s["engine.successors"]),
    "engine.distinct_states": (
        ("engine.build_tree", "engine.successors"),
        lambda t: t.counts["engine.distinct_states"],
    ),
    "engine.build_tree_s": (("engine.build_tree",), lambda t: t.total_s["engine.build_tree"]),
    "clocks.race_check.calls": (("clocks.race_check",), lambda t: t.calls["clocks.race_check"]),
    "clocks.race_check.self_s": (("clocks.race_check",), lambda t: t.self_s["clocks.race_check"]),
    "races.extract_s": (("races.extract",), lambda t: t.total_s["races.extract"]),
    "races.witnesses": (("races.extract",), lambda t: t.counts["races.witnesses"]),
    "render.traces_s": (("render.traces",), lambda t: t.total_s["render.traces"]),
    "render.traces.calls": (("render.traces",), lambda t: t.calls["render.traces"]),
    "render.dot_s": (("render.dot",), lambda t: t.total_s["render.dot"]),
    "render.dot_bytes": (("render.dot",), lambda t: t.counts["render.dot_bytes"]),
    "model.load_s": (("model.load",), lambda t: t.total_s["model.load"]),
    "model.infer_domains_s": (("model.infer_domains",), lambda t: t.total_s["model.infer_domains"]),
    "cli.other_s": (CLI_SPANS, lambda t: t.self_s[ROOT_SPAN]),
}


def _ratio(part, whole):
    return part / whole if whole else None


class Tracer:
    """Spans and counts of the analyses run while it is installed.

    Times and counts add up over analyses; the distinct-value sets are
    per analysis, so ``hnf.distinct_terms`` on a corpus is the sum of each
    model's distinct terms.
    """

    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.seen = defaultdict(set)
        self.present: set = set()
        self.broken: set = set()
        self._child_s: list = []  # per open span: time spent in traced callees
        self._patched: list = []

    def install(self) -> None:
        for module_name, attr, span in BOUNDARIES:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                print(f"trace: {module_name}.{attr} is gone; {span} is absent", file=sys.stderr)
                continue
            setattr(module, attr, self.wrap(span, original))
            self._patched.append((module, attr, original))
            self.present.add(span)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def wrap(self, span: str, fn):
        observe = OBSERVERS.get(span)
        stack = self._child_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                self.calls[span] += 1
                self.total_s[span] += elapsed
                self.self_s[span] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            if observe is not None and span not in self.broken:
                begin = clock()
                try:
                    observe(self, args, result)
                except Exception as exc:  # the traced API changed shape
                    print(f"trace: observer of {span} failed ({exc!r}); its counts are absent", file=sys.stderr)
                    self.broken.add(span)
                if stack:
                    # Observer time is not the caller's own work.
                    stack[-1] += clock() - begin
            return result

        return traced

    def analysis(self, fn, *args, **kwargs):
        """Run one analysis as the root span and fold its distinct sets."""
        try:
            return self.wrap(ROOT_SPAN, fn)(*args, **kwargs)
        finally:
            for name, values in self.seen.items():
                self.counts[name] += len(values)
            self.seen.clear()

    def metrics(self) -> dict:
        """Every per-layer metric; ``None`` where a boundary it needs is absent."""
        out = {}
        for name, (spans, compute) in METRICS.items():
            ok = all(s in self.present and s not in self.broken for s in spans)
            out[name] = compute(self) if ok else None
        return out
