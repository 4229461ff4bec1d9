"""The README's Python example must still run and converge, and its CLI
block's ``lanswitch`` lines must run with the exit codes they have."""

import os
import re
import shlex

from lanswitch.cli import cli_main
from lanswitch.problems import BaheuxSpec, gen_baheux, write_matrix_market

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def _readme():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", _readme(), re.M | re.S)


def test_library_example_converges(capsys):
    (example,) = python_blocks()
    namespace = {}
    exec(compile(example, README, "exec"), namespace)
    record = namespace["record"]
    assert record.outcome == "Converged"
    assert record.residual <= 1e-13
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("Converged ")


def test_cli_block_runs(tmp_path, capsys):
    # The block's file names stand for a real matrix file and a report in
    # tmp_path. The solo A12 run breaks down (exit 2); the others converge.
    block = re.search(r"^## CLI\n\n```\n(.*?)^```$", _readme(), re.M | re.S).group(1)
    matrix, report = tmp_path / "matrix.mtx", tmp_path / "report.md"
    write_matrix_market(str(matrix), gen_baheux(BaheuxSpec(n=100, delta=0.2)).A)
    stand_ins = {"mm:path/to/matrix.mtx": f"mm:{matrix}", "report.md": str(report)}
    codes = [cli_main([stand_ins.get(arg, arg) for arg in shlex.split(line)[1:]])
             for line in block.splitlines() if line.startswith("lanswitch ")]
    assert codes == [2, 0, 0, 0]
    assert report.read_text(encoding="utf-8").strip()
