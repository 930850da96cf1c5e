"""Package surface: everything advertised in __all__ resolves, and every
error the library raises is one of its own three classes."""

import ast
import builtins
import inspect
from pathlib import Path

import divga
from divga import ConfigError, DivgaError, FitnessEvaluationError

SOURCE = Path(divga.__file__).parent

# Builtin exceptions a module may raise on purpose: the elitism check
# in run and the abstract DistanceMeasure.to_point.
ALLOWED_BUILTIN_RAISES = {
    ("engine.py", "RuntimeError"),
    ("distance.py", "NotImplementedError"),
}


def test_all_names_resolve():
    for name in divga.__all__:
        assert getattr(divga, name, None) is not None, name


def test_all_is_sorted_and_unique():
    assert list(divga.__all__) == sorted(set(divga.__all__))


def test_version_string():
    parts = divga.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_three_exception_classes():
    exported = {name for name in divga.__all__
                if inspect.isclass(getattr(divga, name))
                and issubclass(getattr(divga, name), BaseException)}
    assert exported == {"DivgaError", "ConfigError", "FitnessEvaluationError"}
    defined = {name for name, obj in vars(divga.errors).items()
               if inspect.isclass(obj) and issubclass(obj, BaseException)
               and obj.__module__ == "divga.errors"}
    assert defined == exported
    assert DivgaError.__bases__ == (Exception,)
    assert ConfigError.__bases__ == (DivgaError, ValueError)
    assert FitnessEvaluationError.__bases__ == (DivgaError, RuntimeError)


def _raised_builtins(path):
    """(line, name) of every raise of a builtin exception class in path;
    bare re-raises name nothing and are skipped."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = exc.id if isinstance(exc, ast.Name) else None
        if (name is not None
                and isinstance(getattr(builtins, name, None), type)
                and issubclass(getattr(builtins, name), BaseException)):
            yield node.lineno, name


def test_no_builtin_exceptions_raised():
    """Bad input raises ConfigError, never a bare ValueError, TypeError or
    KeyError, so one except clause catches every library error."""
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    offenders = [f"{path.name}:{line} raises {name}"
                 for path in modules
                 for line, name in _raised_builtins(path)
                 if (path.name, name) not in ALLOWED_BUILTIN_RAISES]
    assert offenders == []
