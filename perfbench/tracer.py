"""Run one `fatdiag` command with spans around the package's public functions.

    PYTHONPATH=src python3 perfbench/tracer.py --spans OUT.json --cmd ID -- chi bd ...

The command runs exactly as `python -m fatdiag.cli ...` would, with the
same stdout, stderr and exit code.  Before it runs, every public function
of every `fatdiag` module is replaced by a wrapper, and the wrapper is
rebound under every name any `fatdiag` module imported it as (including
aliases such as `strata_depth` and the check table of `selfcheck`).

* Most functions get a span: name, start, end, parent, self time.  Spans
  stay in memory and are written to OUT.json when the command ends.
* Generators (`set_partitions`) get one span per generator whose busy time
  is the sum of its `next()` calls; the time between calls is the
  consumer's.
* Leaf functions called per vector or per partition only get a call
  count, because a span per call would cost more than the call.
* `errors.check_guard` records, per guard, the largest value / (limit *
  scale) it was asked about.

Only the standard library is imported before `fatdiag.cli`, so the import
time reported is the package's own.
"""

import sys
import time


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []   # [id, parent, name, start, end, self_s, items]
        self.stack = []   # open frames: [id, start, child_s]
        self.counts = {}
        self.guards = {}
        self._next_id = 0

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    def parent_id(self):
        return self.stack[-1][0] if self.stack else 0

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def enter(self):
        frame = [self._new_id(), time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def leave(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame[1]
        if self.stack:
            self.stack[-1][2] += duration
        return end, duration, duration - frame[2]

    def span(self, name, fn, *args, **kwargs):
        parent = self.parent_id()
        frame = self.enter()
        try:
            return fn(*args, **kwargs)
        finally:
            end, _, self_s = self.leave(frame)
            self.spans.append([frame[0], parent, name, frame[1] - self.t0,
                               end - self.t0, self_s, 0])


class TracedGenerator:
    """Iterator proxy that charges each next() to one span record."""

    def __init__(self, tracer, name, gen):
        self.tracer = tracer
        self.gen = gen
        self.record = [tracer._new_id(), tracer.parent_id(), name, None, None, 0.0, 0]
        tracer.spans.append(self.record)

    def __iter__(self):
        return self

    def __next__(self):
        tracer, record = self.tracer, self.record
        frame = tracer.enter()
        if record[3] is None:
            record[3] = frame[1] - tracer.t0
        try:
            item = next(self.gen)
        finally:
            end, _, self_s = tracer.leave(frame)
            record[4] = end - tracer.t0
            record[5] += self_s
        record[6] += 1
        return item


def _bell(n):
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


# Called per multiplicity vector, per set partition or per product: count only.
COUNT_ONLY = {
    "algebra.falling_factorial",
    "algebra.binomial_gen",
    "errors.guard_scale",
    "combinatorics.count_set_partitions_of_type",
    "combinatorics.bell_number",
    "eulerchar.chi_stratum",
    "permgroup.centralizer_order_sn",
    "permgroup.format_cycles",
}


def install(tracer):
    """Wrap the public functions of every loaded fatdiag module."""
    import functools
    import inspect

    from fatdiag import (algebra, combinatorics, errors, graphconf, permgroup,
                         selfcheck, strata)

    modules = {name: mod for name, mod in sys.modules.items()
               if name == "fatdiag" or name.startswith("fatdiag.")}
    replaced = {}

    def span_wrapper(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.span(name, fn, *args, **kwargs)
        return wrapper

    def count_wrapper(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name + ".calls")
            return fn(*args, **kwargs)
        return wrapper

    def generator_wrapper(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return TracedGenerator(tracer, name, fn(*args, **kwargs))
        return wrapper

    for modname, mod in sorted(modules.items()):
        short = modname.rpartition(".")[2]
        if short in ("fatdiag", "cli"):
            continue
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                continue
            if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                continue
            name = f"{short}.{attr}"
            if name in COUNT_ONLY:
                replaced[obj] = count_wrapper(name, obj)
            elif inspect.isgeneratorfunction(obj):
                replaced[obj] = generator_wrapper(name, obj)
            else:
                replaced[obj] = span_wrapper(name, obj)

    # Counters that need the arguments or the result.
    def alpha_sequences(n, max_part, _fn=combinatorics.alpha_sequences):
        out = tracer.span("combinatorics.alpha_sequences", _fn, n, max_part)
        tracer.count("combinatorics.alpha_sequences.vectors", len(out))
        return out

    cached = combinatorics.set_partitions_cached

    def set_partitions_cached(n):
        hits = cached.cache_info().hits
        out = tracer.span("combinatorics.set_partitions_cached", cached, n)
        tracer.count("combinatorics.set_partitions_cached.calls")
        tracer.count("combinatorics.set_partitions_cached.hits",
                     cached.cache_info().hits - hits)
        return out

    def depth(group, _fn=strata.depth):
        out = tracer.span("strata.depth", _fn, group)
        tracer.count("strata.depth.pattern_tests", _bell(group.degree) * group.order())
        return out

    def all_subgroups(group, _fn=strata.all_subgroups):
        out = tracer.span("strata.all_subgroups", _fn, group)
        tracer.count("strata.all_subgroups.subgroups", len(out))
        return out

    def check_guard(value, limit, what, _fn=errors.check_guard, _scale=errors.guard_scale):
        try:
            ratio = value / (limit * _scale())
            tracer.guards[what] = max(tracer.guards.get(what, 0.0), ratio)
        except errors.FatdiagError:
            pass  # a bad FATDIAG_GUARD_SCALE: the guard itself reports it
        return _fn(value, limit, what)

    cell_pair_count = graphconf._cell_pair_count

    def _cell_pair_count(graph):
        tracer.count("graphconf.cell_pairs", (graph.num_vertices + graph.num_edges) ** 2)
        return cell_pair_count(graph)

    replaced[combinatorics.alpha_sequences] = alpha_sequences
    replaced[cached] = set_partitions_cached
    replaced[strata.depth] = depth
    replaced[strata.all_subgroups] = all_subgroups
    replaced[errors.check_guard] = check_guard
    replaced[cell_pair_count] = _cell_pair_count

    by_id = {id(orig): wrapper for orig, wrapper in replaced.items()}
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in by_id:
                setattr(mod, attr, by_id[id(obj)])
    selfcheck.CHECKS[:] = [(name, by_id.get(id(fn), fn)) for name, fn in selfcheck.CHECKS]

    # Methods.
    model = permgroup.PermutationGroupModel
    elements = model.elements

    def traced_elements(self):
        if self._elements is not None:
            return elements(self)
        out = tracer.span("permgroup.elements", elements, self)
        tracer.count("permgroup.elements.enumerated", len(out))
        return out

    model.elements = traced_elements
    for meth in ("cycle_count_histogram", "cycle_type_histogram"):
        model_fn = getattr(model, meth)
        setattr(model, meth, span_wrapper(f"permgroup.{meth}", model_fn))
    mul = algebra.GradedPolynomial.__mul__
    algebra.GradedPolynomial.__mul__ = count_wrapper("algebra.GradedPolynomial.mul", mul)


def main(argv):
    if len(argv) < 5 or argv[0] != "--spans" or argv[2] != "--cmd" or argv[4] != "--":
        sys.stderr.write("usage: tracer.py --spans OUT.json --cmd ID -- ARGS...\n")
        return 2
    spans_path, cmd_id, args = argv[1], argv[3], argv[5:]

    start = time.perf_counter()
    import fatdiag.cli as cli
    import_s = time.perf_counter() - start

    import json

    tracer = Tracer()
    install(tracer)
    try:
        return tracer.span("cli", cli.main, args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"cmd": cmd_id, "import_s": import_s, "spans": tracer.spans,
                       "counts": tracer.counts, "guards": tracer.guards}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
