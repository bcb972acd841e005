"""Module thinning.

Section 5.1 of the paper: "We have thinned the signature of the modules to be
accessed by switchlets to exclude those functions that might allow security
violations.  This leaves the switchlet with no way of naming the excluded
function and thus, no way of accessing it."

A :class:`ThinnedModule` is a facade that exposes *only* an explicit
allow-list of names.  Attribute access outside the allow-list raises
:class:`ThinningViolation` — the excluded members simply do not exist from
the switchlet's point of view.

Each module interface (module name plus export names) gets one shared facade
class whose ``__slots__`` are exactly the exports; a node's facade is an
instance of that class holding the node's bound exports, so a permitted
lookup is a plain slot read.  The instance has no ``__dict__`` and no export
table: the only attributes it answers are the exports themselves plus the
class-level ``__exports__`` and ``__module_name__``.  The facade refuses every
attribute assignment and deletion.

What thinning buys in Python is narrower than in Caml.  The paper gets
isolation from the type system: an excluded function cannot be named, so it
cannot be reached.  Here an exported bound method still carries its
``__self__``, so a switchlet that wants to can reach the implementation
object through an export it was given.  Thinning limits which *names* a
switchlet can use; it does not isolate the implementation behind them.

The companion :data:`SAFE_BUILTINS` dictionary plays the role the *language*
plays in Caml: it is the restricted set of built-in operations a switchlet's
code executes with.  ``open``, ``__import__``, ``eval``, ``exec`` and other
escape hatches are absent, so a switchlet cannot reach the file system or the
Python module space at all — only what the environment names.
"""

from __future__ import annotations

import builtins
from typing import Dict, Iterable, Mapping, Tuple

from repro.exceptions import ThinningViolation


class ThinnedModule:
    """A facade exposing only an allow-list of names from an implementation.

    ``ThinnedModule(name, exports)`` returns an instance of the shared facade
    class for that interface (see :func:`_facade_class`), filled with
    ``exports``.

    Args:
        name: the module name a switchlet sees (e.g. ``"Safestd"``).
        exports: mapping of exported name to value — typically bound methods
            of the implementation object.
    """

    __slots__ = ()

    def __new__(cls, name: str, exports: Mapping[str, object]) -> "ThinnedModule":
        exports = dict(exports)
        facade = object.__new__(_facade_class(str(name), tuple(exports)))
        for attr, value in exports.items():
            object.__setattr__(facade, attr, value)
        return facade

    def __getattr__(self, name: str):
        # Reached only when normal lookup misses: exports are slots, so a
        # name that gets here is not exported.
        raise ThinningViolation(
            f"module {self.__module_name__!r} does not export {name!r} "
            "(excluded by module thinning)"
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise ThinningViolation(
            f"module {self.__module_name__!r} is immutable: cannot set {name!r}"
        )

    def __delattr__(self, name: str) -> None:
        raise ThinningViolation(
            f"module {self.__module_name__!r} is immutable: cannot delete {name!r}"
        )

    def __dir__(self) -> list:
        return list(self.__exports__)

    def __repr__(self) -> str:
        return f"<thinned module {self.__module_name__!r} ({len(self.__exports__)} exports)>"


#: Facade classes by (module name, export names); every node's facade for
#: one module interface is an instance of the same class.
_FACADE_CLASSES: Dict[Tuple[str, Tuple[str, ...]], type] = {}


def _facade_class(name: str, export_names: Tuple[str, ...]) -> type:
    """The shared facade class for one module interface.

    Its ``__slots__`` are exactly the exports.  The module name
    (``__module_name__``) and the sorted export list (``__exports__``, what
    signature digests hash) are class attributes, not instance state.
    """
    key = (name, export_names)
    facade_class = _FACADE_CLASSES.get(key)
    if facade_class is None:
        facade_class = type(
            f"Thinned{name}",
            (ThinnedModule,),
            {
                "__slots__": export_names,
                "__module_name__": name,
                "__exports__": tuple(sorted(export_names)),
            },
        )
        _FACADE_CLASSES[key] = facade_class
    return facade_class


def thin(name: str, implementation: object, allowed: Iterable[str]) -> ThinnedModule:
    """Build a :class:`ThinnedModule` exposing ``allowed`` names of ``implementation``.

    Raises:
        ThinningViolation: if an allowed name does not exist on the
            implementation (a thinning list referring to a non-existent
            member is almost certainly a bug in the environment).
    """
    exports: Dict[str, object] = {}
    for attr in allowed:
        if not hasattr(implementation, attr):
            raise ThinningViolation(
                f"cannot thin {name!r}: implementation has no member {attr!r}"
            )
        exports[attr] = getattr(implementation, attr)
    return ThinnedModule(name, exports)


#: Names of builtin functions and types a switchlet may use.  Everything not
#: listed here is unavailable inside switchlet code — notably ``open``,
#: ``__import__``, ``eval``, ``exec``, ``compile``, ``globals``, ``locals``,
#: ``vars``, ``input`` and ``breakpoint``.
_SAFE_BUILTIN_NAMES = (
    # Types and constructors
    "bool",
    "bytearray",
    "bytes",
    "dict",
    "float",
    "frozenset",
    "int",
    "list",
    "object",
    "set",
    "str",
    "tuple",
    "type",
    # Functions
    "abs",
    "all",
    "any",
    "callable",
    "chr",
    "divmod",
    "enumerate",
    "filter",
    "format",
    "getattr",
    "hasattr",
    "hash",
    "hex",
    "id",
    "isinstance",
    "issubclass",
    "iter",
    "len",
    "map",
    "max",
    "min",
    "next",
    "ord",
    "pow",
    "print",
    "range",
    "repr",
    "reversed",
    "round",
    "sorted",
    "sum",
    "zip",
    # Decorators / class machinery
    "classmethod",
    "property",
    "staticmethod",
    "super",
    # Exceptions a switchlet may reasonably raise or handle
    "ArithmeticError",
    "AssertionError",
    "AttributeError",
    "BaseException",
    "Exception",
    "ImportError",
    "IndexError",
    "KeyError",
    "LookupError",
    "NameError",
    "NotImplementedError",
    "OSError",
    "OverflowError",
    "RuntimeError",
    "StopIteration",
    "TypeError",
    "ValueError",
    "ZeroDivisionError",
)


def safe_builtins() -> Dict[str, object]:
    """Return a fresh restricted ``__builtins__`` dictionary for switchlet code.

    ``__build_class__`` is included because switchlet source may define
    classes; it does not grant any ambient authority.
    """
    table: Dict[str, object] = {}
    for name in _SAFE_BUILTIN_NAMES:
        table[name] = getattr(builtins, name)
    table["__build_class__"] = builtins.__build_class__
    table["__name__"] = "switchlet"
    return table


#: A ready-made safe builtins table (callers should copy it before mutating).
SAFE_BUILTINS: Dict[str, object] = safe_builtins()

#: Builtin names that must never appear in the safe table; the test suite
#: asserts this stays true as the allow-list evolves.
FORBIDDEN_BUILTIN_NAMES = (
    "open",
    "__import__",
    "eval",
    "exec",
    "compile",
    "globals",
    "locals",
    "vars",
    "input",
    "breakpoint",
    "exit",
    "quit",
    "memoryview",
)
