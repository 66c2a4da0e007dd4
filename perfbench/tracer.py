"""Layer tracing installed from outside the package.

`Tracer.install` replaces the module attributes through which callers
reach each layer of `distribq` with timing wrappers, and `uninstall` puts
the originals back. Nothing under `src/` is edited: the package looks
these names up at call time (`oracle.check`, `cli.catalog.generate`, ...),
so the wrappers see every call made through them.

Calls made once per triple (`check`, `member`, `family_union_member`) are
aggregated in memory as a count, busy time and self time. `cli.run` and
the `oracle` entry points also get one span each, with start, end, parent
span and request id, so a run can be replayed layer by layer afterwards.
A frame's self time is its duration minus the time of the wrapped calls
made directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

# (module path, attribute, layer, stat name, keeps spans)
WRAP_POINTS = (
    ("distribq.oracle", "search_solutions", "oracle", "oracle.search_solutions", True),
    ("distribq.oracle", "verify_characterization", "oracle", "oracle.verify_characterization", True),
    ("distribq.oracle", "enumerate_rationals", "oracle", "oracle.enumerate_rationals", True),
    ("distribq.oracle", "check", "identity", "identity.check", False),
    ("distribq.oracle", "member", "catalog", "catalog.member", False),
    ("distribq.oracle", "family_union_member", "catalog", "catalog.family_union_member", False),
    ("distribq.cli", "check", "identity", "identity.check", False),
    ("distribq.catalog", "member", "catalog", "catalog.member", False),
    ("distribq.catalog", "solve_r2", "catalog", "catalog.solve_r2", False),
    ("distribq.catalog", "generate", "catalog", "catalog.generate", False),
    ("distribq.number_theory", "solve_linear_diophantine", "number_theory", "number_theory.solve_linear_diophantine", False),
    ("distribq.number_theory", "case12_construct", "number_theory", "number_theory.case12_construct", False),
    ("distribq.number_theory", "case12_enumerate", "number_theory", "number_theory.case12_enumerate", False),
    ("distribq.number_theory", "case13_family5", "number_theory", "number_theory.case13_family5", False),
)


@dataclass(slots=True)
class Stat:
    calls: int = 0
    errors: int = 0
    busy: float = 0.0  # inclusive time of every call
    layer_busy: float = 0.0  # inclusive time of calls not nested in the same layer
    self_time: float = 0.0
    holds: int = 0
    undefined: int = 0


@dataclass
class Span:
    id: int
    parent: int | None
    request: int | None
    name: str
    start: float
    end: float = 0.0


@dataclass(slots=True)
class _Frame:
    layer: str
    span: int | None
    child: float = 0.0


@dataclass
class Tracer:
    stats: dict[str, Stat] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    request: int | None = None
    _stack: list[_Frame] = field(default_factory=lambda: [_Frame("", None)])
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    # -- frames -------------------------------------------------------------

    def _enter(self, layer: str, name: str, keep_span: bool) -> None:
        span = None
        if keep_span:
            span = len(self.spans)
            parent = next((f.span for f in reversed(self._stack) if f.span is not None), None)
            self.spans.append(Span(span, parent, self.request, name, time.perf_counter()))
        self._stack.append(_Frame(layer, span))

    def _leave(self, stat: Stat, elapsed: float) -> None:
        frame = self._stack.pop()
        parent = self._stack[-1]
        parent.child += elapsed
        stat.busy += elapsed
        stat.self_time += elapsed - frame.child
        if parent.layer != frame.layer:
            stat.layer_busy += elapsed
        if frame.span is not None:
            self.spans[frame.span].end = time.perf_counter()

    def wrap(self, fn, layer: str, name: str, keep_span: bool = False):
        """Return `fn` wrapped so that each call is counted and timed."""
        stat = self.stats.setdefault(name, Stat())
        observe = _OBSERVERS.get(name)

        if inspect.isgeneratorfunction(fn):
            # Time each step of the generator, since that is where its work runs.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stat.calls += 1
                it = fn(*args, **kwargs)
                while True:
                    self._enter(layer, name, keep_span)
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        self._leave(stat, time.perf_counter() - t0)
                        return
                    except BaseException:
                        stat.errors += 1
                        self._leave(stat, time.perf_counter() - t0)
                        raise
                    self._leave(stat, time.perf_counter() - t0)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            self._enter(layer, name, keep_span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                self._leave(stat, time.perf_counter() - t0)
            if observe is not None:
                observe(stat, result)
            return result

        return wrapper

    # -- install ------------------------------------------------------------

    def install(self) -> None:
        for module_path, attr, layer, name, keep_span in WRAP_POINTS:
            module = importlib.import_module(module_path)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, layer, name, keep_span))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())

    def layer(self, prefix: str) -> Stat:
        """Sum of the stats whose name starts with `prefix`."""
        out = Stat()
        for name, s in self.stats.items():
            if name.startswith(prefix):
                out.calls += s.calls
                out.errors += s.errors
                out.busy += s.busy
                out.layer_busy += s.layer_busy
                out.self_time += s.self_time
        return out

    def span_dicts(self) -> list[dict]:
        return [vars(s) for s in self.spans]


def _observe_check(stat: Stat, result) -> None:
    verdict = result.verdict.value
    if verdict == "HOLDS":
        stat.holds += 1
    elif verdict == "UNDEFINED":
        stat.undefined += 1


_OBSERVERS = {"identity.check": _observe_check}
