"""The README's python examples run as printed and hold what their comments claim."""

import ast
import pathlib
import re
import shlex

import numpy as np
import pytest

from eggmetrics import RegionLabel, cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _run_block(index):
    # run the index-th ```python block of the README statement by statement;
    # returns its namespace and each top-level expression's value by its source
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 2
    namespace, values = {}, {}
    for stmt in ast.parse(blocks[index]).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.unparse(stmt.value)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return namespace, values


def test_library_quickstart():
    _, values = _run_block(0)
    assert values["classify_region(egg, z)"] is RegionLabel.M_MINUS
    assert values["wu_norm(egg, z, v)"] <= values["kobayashi(egg, z, v)"]
    assert values["containment_violation(egg, 0.5, fit_reference(egg, 0.5))"] <= 0.0
    assert values["holomorphic_curvature(egg, np.array([0.9, 0.0]), v)"] == pytest.approx(
        -2.0, rel=1e-12)


def test_array_api():
    namespace, values = _run_block(1)
    k, w, H = namespace["k"], namespace["w"], namespace["H"]
    assert k.shape == w.shape == (300,) and H.shape == (300, 2, 2)
    assert not H.flags.writeable
    assert np.all(w <= k)
    assert type(values["kobayashi(egg, z[0], v[0])"]) is float
    # every row agrees with its one-point call to 4 ulp, the README's one contract
    egg, z, v = namespace["egg"], namespace["z"], namespace["v"]
    for rows, one in ((k, namespace["kobayashi"]), (w, namespace["wu_norm"])):
        points = np.array([one(egg, a, b) for a, b in zip(z, v)])
        assert np.all(np.abs(rows - points) <= 4 * np.spacing(rows))


def _cli_lines():
    # the egg-metrics lines of the README's sh blocks, split as a shell would
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    lines = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()]
    return [words[1:] for words in lines if words and words[0] == "egg-metrics"]


def test_cli_block_shows_each_subcommand_once():
    names = [argv[0] for argv in _cli_lines()]
    assert len(names) == len(set(names)) == 8


@pytest.mark.parametrize("argv", _cli_lines(), ids=lambda argv: argv[0])
def test_cli_example_exits_zero(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # kcurve writes curve.csv here
    assert cli.main(argv) == 0, capsys.readouterr().err
