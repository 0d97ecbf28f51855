"""Meta-tests keeping the documentation honest.

DESIGN.md's module map and the README's example table are promises;
these tests fail when a rename or deletion would silently break them.
"""

from __future__ import annotations

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

DESIGN = (ROOT / "DESIGN.md").read_text()
README = (ROOT / "README.md").read_text()
EXPERIMENTS = (ROOT / "EXPERIMENTS.md").read_text()

#: `repro.foo.bar` references in DESIGN.md's inventory tables.
#: `repro.__main__` is excluded: importing it runs the CLI by design.
MODULE_REFS = sorted(
    {
        match.rstrip(".")
        for match in re.findall(r"`(repro(?:\.\w+)+)`", DESIGN)
        if "__main__" not in match
        # attribute references like repro.dom.xpath.TokenPredicate are
        # checked by importing their module prefix
    }
)


def importable_prefix(ref: str) -> str:
    """The longest importable module prefix of a dotted reference."""
    parts = ref.split(".")
    for cut in range(len(parts), 0, -1):
        candidate = ".".join(parts[:cut])
        try:
            importlib.import_module(candidate)
            return candidate
        except ModuleNotFoundError:
            continue
    return ""


class TestDesignDoc:
    @pytest.mark.parametrize("ref", MODULE_REFS)
    def test_module_reference_resolves(self, ref):
        prefix = importable_prefix(ref)
        assert prefix, f"DESIGN.md references {ref}, which does not import"
        # anything after the module prefix must be an attribute chain
        remainder = ref[len(prefix) :].lstrip(".")
        obj = importlib.import_module(prefix)
        for attr in filter(None, remainder.split(".")):
            assert hasattr(obj, attr), f"{prefix} has no attribute {attr}"
            obj = getattr(obj, attr)

    def test_referenced_bench_files_exist(self):
        for name in re.findall(r"`benchmarks/(bench_\w+\.py)`", DESIGN + EXPERIMENTS):
            assert (ROOT / "benchmarks" / name).exists(), name

    def test_referenced_test_files_exist(self):
        for name in re.findall(r"`tests/(test_\w+\.py)`", DESIGN + EXPERIMENTS):
            assert (ROOT / "tests" / name).exists(), name


class TestReadme:
    def test_example_table_matches_directory(self):
        listed = set(re.findall(r"`examples/(\w+\.py)`", README))
        actual = {path.name for path in (ROOT / "examples").glob("*.py")}
        assert listed == actual

    def test_docs_directory_references_exist(self):
        for name in re.findall(r"`docs/(\w+\.md)`", README):
            assert (ROOT / "docs" / name).exists(), name

    def test_env_knobs_mentioned_in_readme_are_honoured(self):
        # every REPRO_* knob the README names must appear in the code
        knobs = set(re.findall(r"REPRO_\w+", README))
        source = "".join(
            path.read_text()
            for path in (ROOT / "src").rglob("*.py")
        ) + "".join(path.read_text() for path in (ROOT / "benchmarks").glob("*.py"))
        for knob in knobs:
            assert knob in source, f"README names {knob} but nothing reads it"

    def test_env_knobs_read_by_the_code_are_documented(self):
        # every REPRO_* name under src/ must have a README row
        documented = set(re.findall(r"REPRO_\w+", README))
        for path in (ROOT / "src").rglob("*.py"):
            for knob in set(re.findall(r"REPRO_\w+", path.read_text())):
                assert knob in documented, (
                    f"{path.relative_to(ROOT)} reads {knob}, which README does not document"
                )
