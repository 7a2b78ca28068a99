"""Span and count wrappers installed on matchlab's public functions from
outside the package.

A `Tracer` replaces each traced function on its defining module and on every
other matchlab module that re-imported it, so calls made between layers are
seen too.  Each spanned call records (span id, parent span id, unit id, name,
start ns, end ns) in memory; the benchmark writes them out when it ends.  A
span's self time is its duration minus the time covered by its child spans.
Per-matching calls (`multiplicity`, `GroupCtx.add`) are only counted, because
a span each would cost more than the call itself.

Generator functions (`enumerate_matchings`, `iter_valid_pairs`) get one span
per call whose busy time is the time spent inside the generator's own
`next()` calls, so work the consumer does between items is not charged to it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

_now = time.perf_counter_ns


def _term_count(poly) -> int:
    # GenPoly keeps its terms in a dict; `items()` would sort them on every
    # product, which costs more than many of the products themselves.
    terms = getattr(poly, "_terms", None)
    return len(terms) if isinstance(terms, dict) else len(poly.items())


class _Frame:
    __slots__ = ("sid", "parent", "unit", "child")

    def __init__(self, sid: int, parent: int, unit: int):
        self.sid = sid
        self.parent = parent
        self.unit = unit
        self.child = 0


class Tracer:
    """Counters and spans of one traced pass.  Use as a context manager:
    entering patches the loaded matchlab modules, leaving restores them."""

    def __init__(self, ml):
        self.ml = ml
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.coeff_bits_max = 0
        self.unit = -1
        self._stack: list[_Frame] = []
        self._next_sid = 0
        self._sym_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    def mark(self, unit: int):
        """Start a new unit of work: spans opened from here carry its id."""
        self.unit = unit

    # -- recording -------------------------------------------------------

    def _open(self) -> _Frame:
        self._next_sid += 1
        parent = self._stack[-1].sid if self._stack else 0
        return _Frame(self._next_sid, parent, self.unit)

    def _close(self, name: str, name_id: int, frame: _Frame,
               start: int, end: int, busy: int):
        self.self_ns[name] += busy - frame.child
        self.counts[name] += 1
        self.spans.append((frame.sid, frame.parent, frame.unit, name_id, start, end))

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _span(self, name: str, fn):
        name_id = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open()
            stack.append(frame)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                if stack:
                    stack[-1].child += end - start
                self._close(name, name_id, frame, start, end, end - start)

        return wrapper

    def _generator_span(self, name: str, fn, item_counter: str):
        name_id = self._name_id(name)
        stack = self._stack
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open()
            it = fn(*args, **kwargs)
            start = end = _now()
            busy = 0
            try:
                while True:
                    stack.append(frame)
                    t0 = _now()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end = _now()
                        stack.pop()
                        busy += end - t0
                        if stack:
                            stack[-1].child += end - t0
                    counts[item_counter] += 1
                    yield item
            finally:
                self._close(name, name_id, frame, start, end, busy)

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- observers: wrap a spanned function and read its arguments or result

    def _observe_report(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._sym_depth:
                counts["orbit.reports"] += 1
            report = fn(*args, **kwargs)
            counts["matching.classes"] += len(report.classes)
            counts["matching.singleton_classes"] += sum(
                1 for _, size, _ in report.classes if size == 1
            )
            return report

        return wrapper

    def _observe_verify(self, fn):
        signature = inspect.signature(fn)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            symmetric = bool(bound.arguments["use_symmetry"])
            self._sym_depth += symmetric
            try:
                result = fn(*args, **kwargs)
            finally:
                self._sym_depth -= symmetric
            if symmetric:
                counts["orbit.pairs_checked"] += result.pairs_checked
            return result

        return wrapper

    def _observe_poly(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            poly = fn(*args, **kwargs)
            bits = max((c.bit_length() for c in poly.coefficients()), default=0)
            self.coeff_bits_max = max(self.coeff_bits_max, bits)
            return poly

        return wrapper

    def _observe_mul(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(p, q):
            counts["genfun.mul.term_products"] += _term_count(p) * _term_count(q)
            return fn(p, q)

        return wrapper

    def _observe_exit(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            code = "exception"
            try:
                code = fn(*args, **kwargs)
                return code
            except SystemExit as exc:
                code = exc.code
                raise
            finally:
                counts[f"cli.exit_codes.{code}"] += 1

        return wrapper

    # -- patching --------------------------------------------------------

    def _replace_function(self, module, attr: str, make):
        """Replace `module.attr` in every matchlab module that holds it.  A
        function the program no longer has is skipped; its metrics read 0."""
        orig = getattr(module, attr, None)
        if orig is None:
            return
        new = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "matchlab" and not mod_name.startswith("matchlab."):
                continue
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, name, orig))
                    setattr(mod, name, new)

    def _replace_method(self, cls, attr: str, make):
        orig = cls.__dict__.get(attr)
        if orig is None:
            return
        self._patches.append((cls, attr, orig))
        setattr(cls, attr, make(orig))

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self):
        ml = self.ml
        m, gf, cert = ml.matching, ml.genfun, ml.certify
        span, gen = self._span, self._generator_span
        fn, method = self._replace_function, self._replace_method

        method(ml.groups.GroupCtx, "add", lambda f: self._counted("groups.add", f))
        fn(ml.groups, "units", lambda f: self._counted("groups.units", f))

        fn(m, "multiplicity", lambda f: self._counted("matching.multiplicity", f))
        fn(m, "matching_exists", lambda f: span("matching.matching_exists", f))
        fn(m, "enumerate_matchings",
           lambda f: gen("matching.enumerate_matchings", f, "matching.matchings"))
        fn(m, "iter_valid_pairs",
           lambda f: gen("matching.iter_valid_pairs", f, "matching.iter_valid_pairs.pairs"))
        fn(m, "acyclicity_report",
           lambda f: self._observe_report(span("matching.acyclicity_report", f)))
        fn(m, "verify_group_amp",
           lambda f: self._observe_verify(span("matching.verify_group_amp", f)))

        method(gf.GenPoly, "__mul__", lambda f: self._observe_mul(span("genfun.mul", f)))
        fn(gf, "transfer_genfun",
           lambda f: self._observe_poly(span("genfun.transfer_genfun", f)))
        for attr in ("closed_form_m2", "closed_form_m6"):
            fn(gf, attr, lambda f: self._observe_poly(span("genfun.closed_form", f)))
        fn(gf, "brute_genfun", lambda f: span("genfun.brute_genfun", f))

        for attr in ("certify_coprime6", "nonprime_counterexample", "classify"):
            fn(cert, attr, lambda f, a=attr: span(f"certify.{a}", f))

        fn(ml.cli, "main", lambda f: self._observe_exit(span("cli.main", f)))

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        return False

    # -- results ---------------------------------------------------------

    def self_s(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def work_counts(self) -> dict[str, int]:
        """The pass's deterministic counts, without times."""
        out = dict(self.counts)
        out["genfun.coeff_bits_max"] = self.coeff_bits_max
        return dict(sorted(out.items()))

    def write_spans(self, path: str):
        """One CSV line per span: id, parent id, unit, name, start, end (ns)."""
        names = self.names
        with open(path, "w") as fh:
            fh.write("span,parent,unit,name,start_ns,end_ns\n")
            for sid, parent, unit, name_id, start, end in self.spans:
                fh.write(f"{sid},{parent},{unit},{names[name_id]},{start},{end}\n")
