"""The package defines four exception classes, all in ``dcqe.errors``.

``dcqe`` maps them to its exit codes: ``ConfigError`` to 2, ``IngestionError``
to 3, and ``InvalidDataError`` and any other ``DcqeError`` to 4. A new class
anywhere in the package would be a kind of outcome that no caller tells apart.
"""

import importlib
import inspect
import pkgutil

import dcqe

MODULES = [importlib.import_module(f"dcqe.{info.name}")
           for info in pkgutil.iter_modules(dcqe.__path__) if not info.name.startswith("_")]


def test_the_only_exception_classes_are_the_four_in_errors():
    defined = {(value.__module__, value.__qualname__)
               for module in MODULES for value in vars(module).values()
               if inspect.isclass(value) and issubclass(value, BaseException)
               and value.__module__.startswith("dcqe")}
    assert defined == {("dcqe.errors", name) for name in
                       ("DcqeError", "InvalidDataError", "ConfigError", "IngestionError")}
