"""Replay a workload's CLI invocations in one process, optionally traced.

Usage: python trace_child.py PLAN_JSON RESULT_JSON  (with the package on
PYTHONPATH). The plan lists passes, each a directory and the argument lists
to hand to ``crsbench.cli.main`` there, in order.

With tracing on, spans are recorded from outside the package: the public
functions of each module are replaced, in every ``crsbench`` namespace that
resolves them, by wrappers that time the call. Spans stay in memory and are
written when the process ends. A span's self time is its duration minus the
time its child spans cover; the root span of each invocation belongs to the
``cli`` layer, so the layers' self times add up to the invocation's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
import traceback
from collections import Counter, defaultdict

perf = time.perf_counter

# (module, attribute, span name, only these namespaces or None for all).
# Narrowed namespaces keep per-record helpers used inside another layer (the
# synthesizer's own heuristic calls, the trial loop's proxy scores) in the
# caller's self time rather than paying a span per call.
FUNCTION_SPANS = (
    ("crsbench.schema", "load_schema", "schema.load", None),
    ("crsbench.synthetic", "generate_synthetic", "synthetic.generate", None),
    ("crsbench.cohort", "serialize_cohort", "cohort.serialize", None),
    ("crsbench.cohort", "parse_cohort", "cohort.parse", None),
    ("crsbench.cohort", "label_records", "cohort.label", None),
    ("crsbench.cohort", "stratified_split", "cohort.split", None),
    ("crsbench.cohort", "fit_scaler", "cohort.scale", None),
    ("crsbench.cohort", "encode_matrix", "cohort.encode", None),
    ("crsbench.models", "train_logreg", "models.train_logreg", None),
    ("crsbench.models", "train_gnb", "models.train_gnb", None),
    ("crsbench.models", "train_mlp", "models.train_mlp", None),
    ("crsbench.models", "inverse_prevalence_weights", "models.weights", None),
    ("crsbench.models", "predict_proba", "models.predict", None),
    ("crsbench.models", "predict_hard", "models.predict", None),
    ("crsbench.models", "save_model", "models.save_load", None),
    ("crsbench.models", "load_model", "models.save_load", None),
    ("crsbench.heuristic", "predict_heuristic", "heuristic.predict", ("crsbench.cli",)),
    ("crsbench.protocol", "run_trial", "protocol.trial", None),
    ("crsbench.protocol", "load_prompt_template", "protocol.template", None),
    ("crsbench.protocol", "proxy_score", "protocol.proxy_score", ("crsbench.cli",)),
    ("crsbench.rag", "load_corpus", "rag.load_corpus", None),
    ("crsbench.metrics", "evaluate", "metrics.evaluate", None),
    ("crsbench.metrics", "compare", "metrics.compare", None),
    ("crsbench.metrics", "bootstrap_ci", "metrics.bootstrap", None),
    ("crsbench.metrics", "permutation_importance", "metrics.importance", None),
    ("crsbench.metrics", "write_report_json", "metrics.write", None),
    ("crsbench.metrics", "write_curve_csvs", "metrics.write", None),
)
METHOD_SPANS = (
    ("crsbench.protocol", "ReplayClient", "complete", "protocol.replay_read"),
    ("crsbench.protocol", "AuditLog", "append", "protocol.audit_append"),
    ("crsbench.rag", "Bm25Index", "__init__", "rag.index_build"),
    ("crsbench.rag", "Bm25Index", "retrieve", "rag.retrieve"),
)
# Called per row, per epoch or per replicate: counted, not spanned.
COUNTERS = (
    ("crsbench.cohort", "leakage_guard", "cohort.leakage_guard_calls"),
    ("crsbench.models", "sigmoid", "models.sigmoid_calls"),
    ("crsbench.models", "mlp_loss_and_grads", "models.mlp_steps"),
    ("crsbench.protocol", "parse_response", "protocol.parses"),
)


class Tracer:
    def __init__(self):
        self.missing: list[str] = []
        # span: [name, parent index, start, end, time covered by children]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.prompts: set[int] = set()
        self.mlp_useful: list[float] = []

    def reset(self):
        """Start a new pass; cleared in place because the wrappers hold these."""
        for state in (self.spans, self.stack, self.counts, self.prompts, self.mlp_useful):
            state.clear()

    def _enter(self, name):
        rec = [name, self.stack[-1] if self.stack else -1, perf(), 0.0, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _exit(self, rec):
        rec[3] = end = perf()
        self.stack.pop()
        if rec[1] >= 0:
            self.spans[rec[1]][4] += end - rec[2]

    def span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(rec)
            if after is not None:
                after(rec, args, result)
            return result
        return wrapper

    def counter(self, key, fn, after=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += 1
            if after is not None:
                after(args, result)
            return result
        return wrapper

    # -- what each wrapped call adds beyond its span ---------------------------

    def _after(self, name):
        c = self.counts
        if name == "cohort.parse":
            def after(rec, args, result):
                c["cohort.rows_parsed"] += result[1].rows_total
                c["cohort.rows_rejected"] += result[1].rejected
        elif name == "cohort.encode":
            def after(rec, args, result):
                c["cohort.rows_encoded"] += len(args[0])
        elif name == "heuristic.predict":
            def after(rec, args, result):
                c["heuristic.cases"] += 1
        elif name == "models.train_mlp":
            def after(rec, args, result):
                meta = result.metadata
                self.mlp_useful.append((meta["best_epoch"] + 1) / meta["epochs_run"])
        elif name == "models.train_logreg":
            def after(rec, args, result):
                c["models.logreg_fits"] += 1
        elif name == "protocol.trial":
            def after(rec, args, result):
                c["protocol.trials"] += 1
                c[f"protocol.flag.{result.aggregate.flag}"] += 1
        elif name == "protocol.replay_read":
            def after(rec, args, result):
                c["protocol.replay_reads"] += 1
                self.prompts.add(hash(args[1]))
        elif name == "rag.retrieve":
            def after(rec, args, result):
                c["rag.queries"] += 1
        elif name == "metrics.evaluate":
            import numpy as np

            def after(rec, args, result):
                scores = args[0].scores
                tied = 2 * np.unique(scores).size < scores.size
                rec[0] = "metrics.evaluate_tied" if tied else "metrics.evaluate_continuous"
                c["metrics.curve_points"] += len(result.roc) + len(result.pr)
        elif name == "metrics.bootstrap":
            def after(rec, args, result):
                c["metrics.bootstrap_resamples"] += result["n_resamples"]
                c["metrics.bootstrap_redraws"] += result["redraws"]
        else:
            after = None
        return after

    def _count_after(self, key):
        c = self.counts
        if key == "models.sigmoid_calls":
            spans, stack = self.spans, self.stack

            def after(args, result):
                if stack and spans[stack[-1]][0] == "models.train_logreg":
                    c["models.logreg_sigmoid_calls"] += 1
            return after
        if key == "protocol.parses":
            def after(args, result):
                c[f"protocol.status.{result.parser_status.value}"] += 1
            return after
        return None

    def install(self):
        import crsbench.cli  # noqa: F401  (loads every module the CLI resolves)

        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "crsbench" or n.startswith("crsbench.")]

        def rebind(module_name, attr, wrapper_for, only):
            home = importlib.import_module(module_name)
            original = getattr(home, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                return
            wrapper = wrapper_for(original)
            targets = namespaces if only is None else [sys.modules[n] for n in only]
            for ns in targets:
                for name, value in list(vars(ns).items()):
                    if value is original:  # also catches aliases (compare as compare_sets)
                        setattr(ns, name, wrapper)

        for module_name, attr, name, only in FUNCTION_SPANS:
            rebind(module_name, attr, lambda fn, n=name: self.span(n, fn, self._after(n)), only)
        for module_name, attr, key in COUNTERS:
            rebind(module_name, attr, lambda fn, k=key: self.counter(k, fn, self._count_after(k)), None)
        for module_name, cls_name, attr, name in METHOD_SPANS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            if cls is None or not hasattr(cls, attr):
                self.missing.append(f"{module_name}.{cls_name}.{attr}")
                continue
            setattr(cls, attr, self.span(name, getattr(cls, attr), self._after(name)))

    def summary(self) -> dict:
        """Per span name: calls, self time, and inclusive time of the
        outermost spans of that name (a nested span of the same name is not
        counted twice)."""
        spans = self.spans
        by_name = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for rec in spans:
            name, parent, start, end, covered = rec
            agg = by_name[name]
            agg["calls"] += 1
            agg["self_s"] += (end - start) - covered
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][1]
            if p < 0:
                agg["incl_s"] += end - start
        layers = Counter()
        for name, agg in by_name.items():
            layers[name.split(".", 1)[0]] += agg["self_s"]
        counts = dict(self.counts)
        counts["protocol.distinct_prompts"] = len(self.prompts)
        return {"spans": dict(by_name), "layers_self_s": dict(layers), "counts": counts,
                "mlp_useful_epoch_ratio": self.mlp_useful, "missing": self.missing}

    def dump_spans(self, path: str):
        rows = [[name, parent, round(start * 1e6), round((end - start) * 1e6)]
                for name, parent, start, end, _ in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, separators=(",", ":"))


def _invoke(main, argv, log_stem):
    with open(log_stem + ".out", "w", encoding="utf-8") as out, \
            open(log_stem + ".err", "w", encoding="utf-8") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(list(argv))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the benchmark counts a crash as a failed operation
            traceback.print_exc(file=err)
            return 1


def main():
    plan_path, result_path = sys.argv[1], sys.argv[2]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    t0 = perf()
    import crsbench.cli as cli
    import_s = perf() - t0

    tracer = Tracer() if plan["trace"] else None
    clamp_count = None
    if tracer is not None:
        tracer.install()
        import crsbench.models as models
        clamp_count = getattr(models, "clamp_count", None)

    result = {"import_s": import_s, "passes": []}
    for p in plan["passes"]:
        os.chdir(p["dir"])
        if tracer is not None:
            tracer.reset()
        clamps_before = clamp_count() if clamp_count else 0
        walls, codes = [], []
        for i, argv in enumerate(p["argv"]):
            log_stem = os.path.join(p["dir"], f"invocation{i}")
            if tracer is None:
                t = perf()
                codes.append(_invoke(cli.main, argv, log_stem))
            else:
                t = perf()
                root = tracer._enter("cli.main")
                try:
                    codes.append(_invoke(cli.main, argv, log_stem))
                finally:
                    tracer._exit(root)
            walls.append(perf() - t)
        entry = {"label": p["label"], "walls": walls, "exit_codes": codes}
        if tracer is not None:
            entry["trace"] = tracer.summary()
            entry["trace"]["counts"]["models.clamp_events"] = (
                clamp_count() - clamps_before if clamp_count else 0)
            if p.get("spans_out"):
                tracer.dump_spans(p["spans_out"])
        result["passes"].append(entry)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
