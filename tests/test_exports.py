"""The package surface: every declared export exists where it is declared, and the knobs stay few."""
import argparse
import ast
import dataclasses
import io
import tokenize
from pathlib import Path

import linemarket as lm
from linemarket import cli, multi_pool, network, oracle, scenarios, single_pool, utility

import report

MODULES = (network, utility, single_pool, multi_pool, oracle, scenarios, cli)


def test_every_declared_name_exists():
    """No name outlives its deletion in an __all__ or in the package's re-exports."""
    for module in MODULES:
        # no re-export shadows a module: linemarket.<name> is the module
        assert getattr(lm, module.__name__.rpartition(".")[2]) is module, module.__name__
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
        for name in module.__all__:
            if hasattr(lm, name) and getattr(lm, name) not in MODULES:
                assert getattr(lm, name) is getattr(module, name), name
        # what the package re-exports from a module, the module declares
        taken = {
            name for name, obj in vars(lm).items()
            if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
        }
        assert taken <= set(module.__all__), (module.__name__, sorted(taken - set(module.__all__)))


def test_settable_values_stay_within_the_ceiling():
    """A new knob retires an old one or raises the ceiling of 6 in the same change.

    The settable values are the DynamicsConfig fields, the MechanismConfig
    fields besides inner, the scenario's engine keys and the options of
    linemarket solve; the failure names each count.
    """
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = [s for a in sub.choices["solve"]._actions
               if not isinstance(a, argparse._HelpAction) for s in a.option_strings]
    outer = [f.name for f in dataclasses.fields(multi_pool.MechanismConfig) if f.name != "inner"]
    counts = {"DynamicsConfig fields": len(dataclasses.fields(single_pool.DynamicsConfig)),
              "MechanismConfig fields besides inner": len(outer),
              "engine keys": len(cli._ENGINE),
              "linemarket solve options": len(options)}
    assert sum(counts.values()) <= 6, counts


def _code_lines(text: str) -> int:
    """The lines of a source file that hold a token, less comments, and lie in no docstring."""
    doc = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)):
            doc.update(range(body[0].lineno, body[0].end_lineno + 1))
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - doc)


def test_source_lines_are_counted():
    """Each module's lines and code lines, and their totals, in the measurements section.

    They are the figures a change's net line count cites.  A code line is
    one that is neither blank, a comment nor part of a docstring.
    """
    package = Path(lm.__file__).parent
    counts = {}
    for path in sorted(package.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        counts[path.relative_to(package).with_suffix("").as_posix()] = (text.count("\n"), _code_lines(text))
    assert set(counts) >= {module.__name__.rpartition(".")[2] for module in MODULES}
    lines, code = (sum(c[i] for c in counts.values()) for i in (0, 1))
    assert 0 < code < lines
    per_module = ", ".join(f"{name} {n:,} / {c:,}" for name, (n, c) in counts.items())
    report.note(f"source lines / code lines: {per_module}; total {lines:,} / {code:,}")
