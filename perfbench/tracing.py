"""In-memory spans recorded around calls into the program's layers.

The benchmark measures each layer from the outside: it replaces public
functions and methods of the layer's module with thin wrappers that time
every call, keep the span in memory and restore the original on
``uninstall``.  Nothing in the program changes; a wrapper whose target no
longer exists is skipped and named in ``Recorder.missing``.

A span is ``(name, thread_id, start, end, self_s, attrs)``.  Self time is
the span's duration minus the time its child spans on the same thread
covered, so the self times of one thread add up to its busy time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time


class Recorder:
    """Holds spans in memory and the patches that produce them."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        #: Wrappers record only while this is set; see launch_server.py.
        self.active = True
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def _close(self, frame: list, attrs: dict | None) -> None:
        end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        self.spans.append(
            (frame[0], threading.get_ident(), frame[1], end,
             duration - frame[2], attrs)
        )

    def wrap(self, name: str, fn, observe=None, before=None):
        """``fn`` timed as span ``name``.

        ``before(args, kwargs)`` runs at entry and ``observe(args, kwargs,
        result)`` at exit; each may return a dict of span attributes.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            attrs = before(args, kwargs) if before is not None else None
            frame = recorder._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                recorder._close(frame, attrs)
                raise
            if observe is not None:
                extra = observe(args, kwargs, result)
                if extra:
                    attrs = {**(attrs or {}), **extra}
            recorder._close(frame, attrs)
            return result

        return wrapper

    def wrap_iter(self, name: str, fn):
        """``fn`` returns an iterator; each ``next`` is timed as a span."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            return recorder._timed_iter(name, fn(*args, **kwargs))

        return wrapper

    def _timed_iter(self, name: str, iterator):
        iterator = iter(iterator)
        try:
            while True:
                frame = self._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    self._close(frame, None)
                    return
                except BaseException:
                    self._close(frame, None)
                    raise
                self._close(frame, None)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, target: str, name: str, **hooks) -> None:
        """Wrap module function ``pkg.mod:func`` wherever it is bound.

        Every loaded ``repro`` module holding the same function object
        under any name gets the wrapper, so ``from x import f`` copies
        are covered too.
        """
        original = _resolve(target)
        if original is None:
            self.missing.append(target)
            return
        wrapper = self.wrap(name, original, **hooks)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def patch_in(self, target: str, name: str, **hooks) -> None:
        """Wrap ``pkg.mod:func`` only in that module's own namespace."""
        module_name, _, attr = target.partition(":")
        module = _import(module_name)
        if module is None or attr not in vars(module):
            self.missing.append(target)
            return
        self._set(module, attr, self.wrap(name, vars(module)[attr], **hooks))

    def patch_method(self, target: str, name: str, **hooks) -> None:
        """Wrap method ``pkg.mod:Class.method`` on the class."""
        module_name, _, qual = target.partition(":")
        cls_name, _, attr = qual.partition(".")
        module = _import(module_name)
        cls = getattr(module, cls_name, None) if module is not None else None
        if cls is None or attr not in vars(cls):
            self.missing.append(target)
            return
        original = vars(cls)[attr]
        if hooks.pop("iterator", False):
            wrapper = self.wrap_iter(name, original)
        else:
            wrapper = self.wrap(name, original, **hooks)
        self._set(cls, attr, wrapper)

    def patch_json(self, module_name: str, loads_name: str, dumps_name: str) -> None:
        """Time ``json.loads``/``json.dumps`` as called from one module."""
        module = _import(module_name)
        if module is None or vars(module).get("json") is not json:
            self.missing.append(f"{module_name}:json")
            return
        proxy = _JsonProxy(
            self.wrap(loads_name, json.loads), self.wrap(dumps_name, json.dumps)
        )
        self._set(module, "json", proxy)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class _JsonProxy:
    """Stands in for the ``json`` module inside one program module."""

    def __init__(self, loads, dumps) -> None:
        self.loads = loads
        self.dumps = dumps

    def __getattr__(self, attr: str):
        return getattr(json, attr)


def _import(module_name: str):
    try:
        return importlib.import_module(module_name)
    except ImportError:
        return None


def _resolve(target: str):
    module_name, _, attr = target.partition(":")
    module = _import(module_name)
    return getattr(module, attr, None) if module is not None else None


def write_spans(spans: list[tuple], path: str) -> None:
    """Write spans as JSON lines (one span per line)."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, tid, start, end, self_s, attrs in spans:
            fh.write(json.dumps({
                "name": name, "thread": tid, "start": start, "end": end,
                "self_s": self_s, "attrs": attrs,
            }) + "\n")


def read_spans(path: str) -> list[tuple]:
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            d = json.loads(line)
            spans.append((d["name"], d["thread"], d["start"], d["end"],
                          d["self_s"], d["attrs"]))
    return spans
