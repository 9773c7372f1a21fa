"""In-memory span recorder for the traced benchmark run.

The recorder wraps the public functions of each freqsel module listed in
``TRACED`` from the outside: no freqsel source changes. A function is
replaced under every name a freqsel module looks it up by (for example
``freqsel.spectral.fft2`` and ``freqsel.spectral.pairwise_sum``), because a
module that did ``from .fft import fft2`` holds its own binding. Every
binding is restored by :meth:`SpanRecorder.uninstall`.

Metric names are ``<module>.<function>.<kind>`` with the defining module:

  * ``calls``  number of spans
  * ``s``      self seconds: span time minus the time of child spans on the
               same thread, so worker threads never subtract from the caller
  * ``mb``, ``points``, ``elements``  sizes computed from the call's
               arguments or result, never measured
  * ``<module>.errors``  FreqselErrors that left a span, each counted once,
               against the module whose code raised it; an error raised
               afresh while handling a counted one is not counted again

``cli.main`` catches every FreqselError, so the ``cmd_*`` functions it
dispatches to are traced too: an error raised in cli code leaves their span.

A module or function that no longer exists reports ``calls = 0``.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from time import perf_counter

MB = float(1 << 20)

# defining module -> public functions that get a span
TRACED = {
    "cli": (
        "main",
        "cmd_hfr",
        "cmd_select",
        "cmd_decompose",
        "cmd_fisher",
        "cmd_simulate",
        "cmd_oracle",
        "cmd_correlate",
    ),
    "tensor_io": ("load_manifest", "read_tensor", "write_tensor", "atomic_write_bytes"),
    "fft": ("fft2",),
    "spectral": ("hfr",),
    "reduction": ("pairwise_sum",),
    "selection": (
        "average_hfr",
        "select_timestep",
        "read_curve_csv",
        "write_curve_csv",
        "write_report_json",
    ),
    "diffusion": ("sample_noise", "forward_noise", "simulate_forward"),
}


def _elements(values) -> int:
    size = getattr(values, "size", None)
    return len(values) if size is None else int(size)


def _itemsize(dtype: str) -> int:
    return 4 if dtype == "f32" else 8


def _read_mb(args, kwargs, result) -> float:
    return result.values.size * _itemsize(result.meta.dtype) / MB


def _write_mb(args, kwargs, result) -> float:
    fmap = args[0]
    dtype = args[2] if len(args) > 2 else kwargs.get("dtype")
    return fmap.values.size * _itemsize(dtype or fmap.meta.dtype) / MB


# span name -> (kind, size of one call)
SIZES = {
    "fft.fft2": ("points", lambda args, kwargs, result: int(args[0].size)),
    "reduction.pairwise_sum": ("elements", lambda args, kwargs, result: _elements(args[0])),
    "tensor_io.read_tensor": ("mb", _read_mb),
    "tensor_io.write_tensor": ("mb", _write_mb),
}

# per-map work that average_hfr hands to its workers
_PER_MAP = ("tensor_io.read_tensor", "spectral.hfr")


class SpanRecorder:
    """Records one span per call of a traced function while installed.

    A span is ``[id, parent_id, name, thread_id, start, end, self_s, size]``.
    Spans stay in ``self.spans`` until :meth:`reset`; nothing is written
    while recording.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.errors: dict[str, int] = {module: 0 for module in TRACED}
        self._errors_lock = threading.Lock()  # spans on pool workers raise too
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple] = []
        from freqsel.errors import FreqselError

        self._error_type = FreqselError

    def reset(self) -> None:
        self.spans = []
        self.errors = {module: 0 for module in TRACED}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, module: str, name: str, fn):
        size_of = SIZES.get(name, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [next(self._ids), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self._error_type as exc:
                self._count_error(exc, module)
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                span = [frame[0], parent, name, threading.get_ident(), t0, t1, t1 - t0 - frame[1], 0]
                self.spans.append(span)
            if size_of is not None:
                span[7] = size_of(args, kwargs, result)
            return result

        return traced

    def _count_error(self, exc: BaseException, module: str) -> None:
        """Count `exc` once, against the traced module whose code raised it.

        `module` is the span's own module, used when the raising frame
        belongs to no traced module.
        """
        with self._errors_lock:
            seen = exc
            while seen is not None and not getattr(seen, "_counted_by_span", False):
                seen = seen.__cause__ or seen.__context__
            exc._counted_by_span = True
            if seen is not None:
                return  # exc itself, or the error it was raised from, is counted
            tb = exc.__traceback__
            while tb.tb_next is not None:
                tb = tb.tb_next
            raiser = tb.tb_frame.f_globals.get("__name__", "").removeprefix("freqsel.")
            self.errors[raiser if raiser in self.errors else module] += 1

    def install(self) -> None:
        """Wrap every traced function under each name freqsel binds it to."""
        wrappers = {}
        for module, functions in TRACED.items():
            try:
                mod = importlib.import_module(f"freqsel.{module}")
            except ModuleNotFoundError:
                continue
            for function in functions:
                fn = getattr(mod, function, None)
                if callable(fn):
                    wrappers[id(fn)] = (fn, self._wrap(module, f"{module}.{function}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "freqsel" or mod_name.startswith("freqsel.")):
                continue
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, value = self._patched.pop()
            setattr(mod, attr, value)

    def summary(self, threads: int) -> dict[str, float]:
        """Per-layer figures for the spans recorded since the last reset."""
        out: dict[str, float] = {}
        for module, functions in TRACED.items():
            for function in functions:
                name = f"{module}.{function}"
                out[f"{name}.calls"] = 0
                out[f"{name}.s"] = 0.0
                if name in SIZES:
                    out[f"{name}.{SIZES[name][0]}"] = 0
            out[f"{module}.errors"] = self.errors[module]
        for _, _, name, _, _, _, self_s, size in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += self_s
            if name in SIZES:
                out[f"{name}.{SIZES[name][0]}"] += size
        out["selection.average_hfr.pool_util"] = self._pool_util(threads)
        return out

    def _pool_util(self, threads: int) -> float:
        """Per-map time summed over threads / (threads x average_hfr wall)."""
        windows = [(s[4], s[5]) for s in self.spans if s[2] == "selection.average_hfr"]
        wall = sum(t1 - t0 for t0, t1 in windows)
        if wall == 0.0:
            return 0.0
        busy = sum(
            s[5] - s[4]
            for s in self.spans
            if s[2] in _PER_MAP and any(t0 <= s[4] and s[5] <= t1 for t0, t1 in windows)
        )
        return busy / (threads * wall)
