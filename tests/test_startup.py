"""predict and classify run on the standard library alone: numpy loads with
the first simulation, and the numpy-backed names resolve on first access."""

import os
import subprocess
import sys
import textwrap

import pytest

import lyapzeros
from lyapzeros import matrices, realforms, simulate

NUMPY_FREE = textwrap.dedent("""
    import io
    import sys

    import lyapzeros
    from lyapzeros import cli

    for argv in (["predict", "--group", "su", "--p", "5", "--q", "2", "--rep", "ext:3"],
                 ["predict", "--group", "so-split", "--m", "9", "--rep", "spin"],
                 ["predict", "--group", "so-star", "--n", "10", "--rep", "ext:5"],
                 ["classify", "--max-dim", "24"], ["classify", "--max-dim", "120"]):
        assert cli.main(argv, out=io.StringIO()) == 0, argv
    print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
""")


def test_predict_and_classify_never_import_numpy():
    src = os.path.dirname(os.path.dirname(lyapzeros.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", NUMPY_FREE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_numpy_backed_names_still_resolve():
    assert lyapzeros.SimConfig is simulate.SimConfig
    assert lyapzeros.lie_algebra_basis is matrices.lie_algebra_basis
    assert lyapzeros.simulate is simulate and lyapzeros.matrices is matrices
    for name in ("GroupSampler", "lie_algebra_basis", "sample_group_elements",
                 "form_preservation_errors", "exterior_power_matrix"):
        assert getattr(realforms, name) is getattr(matrices, name)
    star: dict = {}
    exec("from lyapzeros import *", star)
    assert {"SimConfig", "lyapunov_spectrum", "lie_algebra_basis", "predict", "su"} <= set(star)
    assert star["SimConfig"] is simulate.SimConfig
    assert {"SimConfig", "GroupSampler", "predict"} <= set(dir(lyapzeros))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'sample'"):
        lyapzeros.sample
    with pytest.raises(AttributeError, match="no attribute 'sample'"):
        realforms.sample
