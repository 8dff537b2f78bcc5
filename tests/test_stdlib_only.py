"""The package needs nothing beyond the standard library at run time."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_runtime_imports_only_the_standard_library():
    # -I ignores the environment and the user site; -S also skips the
    # site-packages .pth hooks, which import third-party modules at start-up
    code = (f"import sys; sys.path.insert(0, {SRC!r}); "
            "import extensor, extensor.cli; "
            "print(' '.join(sorted({n.partition('.')[0] for n in sys.modules})))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    names = out.stdout.split()
    assert "extensor" in names
    foreign = [n for n in names
               if n not in ("extensor", "__main__") and n not in sys.stdlib_module_names]
    assert foreign == []
