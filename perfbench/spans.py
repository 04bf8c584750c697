"""Spans recorded from outside the program, around calls into its layers.

A span is (id, name, start_ns, end_ns, parent_id, op_id, error). Spans stay
in memory and are written once, when the run ends. Layers reached only from
inside another are traced by replacing the module-level name the caller looks
up; ``Tracer.restore`` puts every original back.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

_now = time.perf_counter_ns

# (module, the name its callers look up, span name). Wrapping the name in
# the caller's module catches calls made from inside another layer.
WRAP_POINTS = (
    ("liftwing.cli", "load_config", "config.load_config"),
    ("liftwing.cli", "sweep", "sweep.sweep"),
    ("liftwing.cli", "cells_to_csv", "sweep.cells_to_csv"),
    ("liftwing.cli", "curve_to_csv", "sweep.curve_to_csv"),
    ("liftwing.cli", "summary_to_json", "sweep.summary_to_json"),
    ("liftwing.cli", "_write_text", "cli.write_text"),
    ("liftwing.cli", "solve_trim", "trim.solve_trim"),
    ("liftwing.cli", "trim_at_speed", "trim.trim_at_speed"),
    ("liftwing.cli", "wingless_trim_at_speed", "trim.wingless_trim_at_speed"),
    ("liftwing.cli", "parse_propeller_table", "fitting.parse_propeller_table"),
    ("liftwing.cli", "fit_poly_surrogate", "fitting.fit_poly_surrogate"),
    ("liftwing.sweep", "solve_trim", "trim.solve_trim"),
    ("liftwing.trim", "trim_airspeed", "trim.trim_airspeed"),
    ("liftwing.trim", "required_rpm", "propulsion.required_rpm"),
    ("liftwing.trim", "torque", "propulsion.torque"),
    ("liftwing.trim", "esc_current", "propulsion.esc_current"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op: int | None = None
        self.missing: dict[str, str] = {}
        self._stack: list[int] = []
        self._patched: list = []

    def _enter(self) -> tuple[int, int | None]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _leave(self, sid, parent, name, start, error) -> None:
        end = _now()
        self._stack.pop()
        self.spans[sid] = (sid, name, start, end, parent, self.op, error)

    @contextmanager
    def span(self, name: str):
        sid, parent = self._enter()
        start = _now()
        error = None
        try:
            yield
        except BaseException as err:
            error = type(err).__name__
            raise
        finally:
            self._leave(sid, parent, name, start, error)

    def wrap(self, module, attr: str, name: str, capture: list | None = None) -> bool:
        """Replace ``module.attr`` by a span-recording wrapper until ``restore``.

        A name that no longer exists is recorded in ``missing``, keyed by its
        dotted path, and left alone.
        """
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing[f"{module.__name__}.{attr}"] = "does not exist"
            return False

        def traced(*args, **kwargs):
            sid, parent = self._enter()
            start = _now()
            error = None
            try:
                result = original(*args, **kwargs)
            except BaseException as err:
                error = type(err).__name__
                raise
            finally:
                self._leave(sid, parent, name, start, error)
            if capture is not None:
                capture.append(result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))
        return True

    def install(self, capture: dict[str, list] | None = None) -> None:
        """Wrap every WRAP_POINTS name; ``capture`` keeps chosen spans' results."""
        capture = capture or {}
        for module_name, attr, name in WRAP_POINTS:
            self.wrap(importlib.import_module(module_name), attr, name, capture.get(name))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def children_index(spans: list) -> dict[int, list]:
    index: dict[int, list] = {}
    for span in spans:
        if span[4] is not None:
            index.setdefault(span[4], []).append(span)
    return index


def self_time_ns(span, children) -> int:
    """Span duration minus the part of its interval that child spans cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so no instant is subtracted twice.
    """
    start, end = span[2], span[3]
    pieces = sorted((max(c[2], start), min(c[3], end)) for c in children)
    covered = 0
    cur_lo = cur_hi = None
    for lo, hi in pieces:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (end - start) - covered
