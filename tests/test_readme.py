"""The README's Python example must still run and converge."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def python_blocks():
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)


def test_library_example_converges(capsys):
    (example,) = python_blocks()
    namespace = {}
    exec(compile(example, README, "exec"), namespace)
    record = namespace["record"]
    assert record.outcome == "Converged"
    assert record.residual <= 1e-13
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("Converged ")
