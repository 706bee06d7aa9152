"""Run the twosquares CLI in this process, with spans around its layers.

    python3 bench/traced_cli.py SPANS_OUT CLI_ARG...

The report goes to stdout and the exit status is the CLI's, as with
`python -m twosquares CLI_ARG...`.  The spans go to SPANS_OUT as JSON.

Each span wraps a module attribute that a caller resolves at call time,
e.g. `twosquares.analysis.mark_segment`, so the program itself is not
edited.  Tracing is meant for `--workers 1`: worker processes import the
package afresh and are not traced.
"""

import inspect
import json
import sys
import time

clock = time.perf_counter

AGGREGATE = "aggregate"


class Tracer:
    """Spans kept in memory, with the tracer's own bookkeeping left out.

    A span is `[name, start, end, parent, attrs]`, where parent is the index
    of the enclosing span or None.  Times run on a clock that stands still
    while the tracer does its bookkeeping, so a span's duration excludes the
    bookkeeping of the spans nested in it.  Calls traced as aggregates (hot
    leaves, one call per integer) only add to a count and a total, and
    charge their time to the enclosing span under `attrs["inner"]`.
    """

    def __init__(self, clock=clock):
        self.clock = clock
        self.spans = []
        self.totals = {}
        self._stack = []
        self._overhead = 0.0

    def span(self, name, fn, describe=None):
        """Wrap fn so each call records a span; describe(bound_args, result)
        returns extra attributes and runs outside the span's time."""
        signature = inspect.signature(fn) if describe else None

        def traced(*args, **kwargs):
            t = self.clock()
            parent = self._stack[-1] if self._stack else None
            record = [name, 0.0, 0.0, parent, {}]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            now = self.clock()
            self._overhead += now - t
            record[1] = now - self._overhead
            try:
                result = fn(*args, **kwargs)
            finally:
                t = self.clock()
                record[2] = t - self._overhead
                self._stack.pop()
            if describe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record[4].update(describe(bound.arguments, result))
            self._overhead += self.clock() - t
            return result

        return traced

    def aggregate(self, name, fn):
        """Wrap a hot leaf: count its calls and sum their time."""

        def traced(*args, **kwargs):
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = self.clock()
                total = self.totals.setdefault(name, [0, 0.0])
                total[0] += 1
                total[1] += t1 - t0
                if self._stack:
                    inner = self.spans[self._stack[-1]][4].setdefault("inner", {})
                    inner[name] = inner.get(name, 0.0) + (t1 - t0)
                self._overhead += self.clock() - t1

        return traced


def _describe_segment(arguments, segment):
    import numpy as np

    return {
        "lo": arguments["lo"],
        "hi": arguments["hi"],
        "allow_zero": bool(arguments["allow_zero"]),
        "set_bits": int(np.count_nonzero(segment.bits)),
    }


def _describe_report(arguments, text):
    return {"bytes": len(text.encode("utf-8"))}


# attribute -> (span name, describe or AGGREGATE); attributes a refactor has
# removed are skipped, and their metrics are reported as absent
TARGETS = {
    "mark_segment": ("sieve.mark_segment", _describe_segment),
    "_summarize_window": ("analysis.summary", None),
    "verify": ("analysis.scan", None),
    "cross_check": ("analysis.scan", None),
    "read_checkpoint": ("analysis.checkpoint.read", None),
    "write_checkpoint": ("analysis.checkpoint.write", None),
    "emit_report": ("cli.emit_report", _describe_report),
    "is_sum_of_two_squares": ("representability.is_sum_of_two_squares", AGGREGATE),
}


def install(tracer, modules, targets=TARGETS):
    """Replace each target attribute of each module by a traced wrapper.

    Modules that import the same function share one wrapper.  Returns the
    sorted names of the wrapped attributes.
    """
    wrappers = {}
    wrapped = set()
    for module in modules:
        for attr, (name, describe) in targets.items():
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            if id(fn) not in wrappers:
                if describe == AGGREGATE:
                    wrappers[id(fn)] = tracer.aggregate(name, fn)
                else:
                    wrappers[id(fn)] = tracer.span(name, fn, describe)
            setattr(module, attr, wrappers[id(fn)])
            wrapped.add(attr)
    return sorted(wrapped)


def main(argv):
    spans_out, cli_args = argv[0], argv[1:]
    t0 = clock()
    from twosquares import analysis, cli, representability, sieve

    import_s = clock() - t0
    tracer = Tracer()
    wrapped = install(tracer, (sieve, representability, analysis, cli))
    try:
        cli.main(cli_args)
        code = 0
    except SystemExit as exc:
        code = exc.code
    doc = {
        "import_s": import_s,
        "wrapped": wrapped,
        "spans": tracer.spans,
        "totals": tracer.totals,
    }
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
