"""The package's modules are plain ASCII.

A non-ASCII character in a docstring changes the size of the compiled
module and with it the memory of a process that compiles from source,
so one stray symbol shows up as a memory cost on every workload.
"""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "extensor"


def test_every_module_is_ascii():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [f"{path.name}:{number}: {line.decode('utf-8', 'replace').strip()}"
             for path in modules
             for number, line in enumerate(path.read_bytes().splitlines(), start=1)
             if not line.isascii()]
    assert found == []
