"""Every module-qualified API name the README cites resolves, so a renamed
or deleted function cannot stay in its prose. A name is a backtick span
outside code fences that starts with ``mvgdp.`` or with one of the
package's module names, such as ``harness.read_csv_gram``; the test
imports the module and reads each attribute after it."""

import importlib
import pkgutil
import re
from pathlib import Path

import mvgdp

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(mvgdp.__path__)}


def cited_names(text: str) -> list[str]:
    """The module-qualified names in the backtick spans of ``text`` that lie
    outside code fences, each without the call or text that follows it."""
    prose = re.sub(r"^```.*?^```", "", text, flags=re.MULTILINE | re.DOTALL)
    names = []
    for span in re.findall(r"`([^`]+)`", prose):
        name = re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*", span)
        if name is None:
            continue
        parts = name.group().split(".")
        if parts[0] == "mvgdp":
            parts = parts[1:]
        if parts and parts[0] in MODULES and len(parts) > 1:
            names.append(".".join(parts))
    return names


def resolves(name: str) -> bool:
    module, *attributes = name.split(".")
    obj = importlib.import_module(f"mvgdp.{module}")
    for attribute in attributes:
        if not hasattr(obj, attribute):
            return False
        obj = getattr(obj, attribute)
    return True


def test_the_readme_cites_module_qualified_names():
    names = cited_names(README.read_text(encoding="utf-8"))
    assert "harness.read_csv_gram" in names
    assert "mechanisms.plan_directions_dp" in names


def test_every_cited_name_resolves():
    names = cited_names(README.read_text(encoding="utf-8"))
    unresolved = sorted({name for name in names if not resolves(name)})
    assert not unresolved, f"README.md cites names that do not resolve: {unresolved}"


def test_a_name_that_does_not_resolve_is_named():
    text = ("See `harness.no_such_function(x)` and `mvgdp.budget.exact_delta`.\n"
            "```python\nharness.in_a_fence\n```\n")
    names = cited_names(text)
    assert names == ["harness.no_such_function", "budget.exact_delta"]
    assert [name for name in names if not resolves(name)] == ["harness.no_such_function"]
