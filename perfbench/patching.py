"""Reversible monkey-patching of repro's public functions from outside ``src/``.

The benchmark measures the simulator without editing it: it replaces a
function or method with a wrapper for the length of a run and puts the
original back afterwards.  Wrappers must be installed before a scenario is
built, because hot paths bind methods once at construction time (the medium
caches ``mobility.position_xy``, for example).
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable, Iterator, List, Tuple

Wrap = Callable[[Callable], Callable]


def class_tree(base: type) -> Iterator[type]:
    """``base`` and every subclass of it that has been imported."""
    seen = set()
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        yield cls
        pending.extend(cls.__subclasses__())


class Patches:
    """A stack of replaced attributes, undone in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def _set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def method(self, cls: type, name: str, wrap: Wrap) -> None:
        """Wrap ``cls.name`` as defined in ``cls`` itself (static methods too)."""
        raw = cls.__dict__[name]
        if isinstance(raw, staticmethod):
            self._set(cls, name, staticmethod(wrap(raw.__func__)))
        else:
            self._set(cls, name, wrap(raw))

    def methods(self, base: type, names: Iterable[str], wrap: Wrap) -> None:
        """Wrap every definition of ``names`` in ``base``'s class tree."""
        names = tuple(names)
        for cls in class_tree(base):
            for name in names:
                if name in cls.__dict__:
                    self.method(cls, name, wrap)

    def function(self, module: object, name: str, wrap: Wrap) -> None:
        """Wrap a module-level function and every ``from ... import`` alias of it.

        Modules that imported the function by name hold their own reference,
        so every loaded ``repro`` module whose attribute *is* the original is
        repointed at the wrapper.
        """
        original = getattr(module, name)
        wrapped = wrap(original)
        for module_name, loaded in list(sys.modules.items()):
            if not module_name.startswith("repro") or loaded is None:
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, attr, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
