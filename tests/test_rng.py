"""The lanes of ``shormps.rng.uniforms`` are the streams of
``numpy.random.default_rng``, and ``sample`` draws them without importing
``numpy.random``, nor the dense reference that lives with the tests."""

import importlib
import json
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from _helpers import package_env, record_dict, reference_sample_runs

from shormps import cli
from shormps.numtheory import SemiprimeInstance
from shormps.rng import uniforms

# seeds of five or more 32-bit words (from 2^128) mix their words past the
# fourth into the pool; the block from 2^128 - 2 holds seeds of four and of
# five words
SEEDS = [*range(3000), *range(901000, 901200), *range(2**128 - 2, 2**128 + 2),
         2**32 - 1, 2**32, 2**64 + 3, 10**30, 2**128 - 1, 2**128, 2**128 + 5,
         2**160 + 12345, 3**150]


def test_same_draws_as_numpy():
    ours = np.concatenate([uniforms(0, 3000, 64), uniforms(901000, 200, 64),
                           uniforms(2**128 - 2, 4, 64)]
                          + [uniforms(seed, 1, 64) for seed in SEEDS[3204:]])
    for seed, row in zip(SEEDS, ours, strict=True):
        theirs = np.random.default_rng(seed)
        for draw in range(64):
            assert row[draw] == theirs.random(), (seed, draw)


def test_negative_seed_is_refused():
    with pytest.raises(ValueError):
        uniforms(-1, 1, 1)


def test_sample_records_equal_numpy_generators(tmp_path):
    out = tmp_path / "r.json"
    assert cli.main(["sample", "--n", "247", "--a", "2", "--layout", "both", "--seed", "5",
                     "--samples", "20", "--out", str(out)]) == 0
    layouts = json.loads(out.read_text())["layouts"]
    inst = SemiprimeInstance(247, 2)
    for layout in ("static", "dynamic"):
        run = reference_sample_runs(inst, layout,
                                    [np.random.default_rng(5 + k) for k in range(20)])
        expected = json.loads(json.dumps([record_dict(run, layout, k) for k in range(20)]))
        got = layouts[layout]["records"]
        for rec in expected + got:
            del rec["stage_seconds"]
        assert got == expected


def _run_fresh(body: str) -> str:
    code = "import sys\nfrom shormps import cli\n" + textwrap.dedent(body)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=package_env())
    return proc.stdout


def test_sample_and_profile_leave_numpy_random_unimported(tmp_path):
    out = tmp_path / "r.json"
    stdout = _run_fresh(f"""
        out = {str(out)!r}
        assert cli.main(["sample", "--n", "21", "--a", "2", "--samples", "5",
                         "--layout", "both", "--out", out]) == 0
        assert cli.main(["profile", "--n", "247", "--a", "2", "--layout", "both",
                         "--out", out]) == 0
        # nor argparse and the locale module its gettext calls import
        print([name in sys.modules for name in ("numpy.random", "argparse", "locale")])
        # nor the SVD module, and mps holds no MPS container
        print("shormps.tensor" in sys.modules, hasattr(sys.modules["shormps.mps"], "MpsState"))
    """)
    assert stdout == "[False, False, False]\nFalse False\n"


def test_traced_modules_stay_importable():
    # the benchmark's tracer (perfbench/tracing.py) imports these modules by
    # name to wrap their functions, and fails every traced run if one is
    # missing, so each stays in the package even where no command uses it
    for name in ("cli", "shor", "mps", "tensor", "oracle", "numtheory"):
        importlib.import_module(f"shormps.{name}")


def test_drawn_base_still_comes_from_numpy(tmp_path):
    out = tmp_path / "r.json"
    _run_fresh(f"""
        assert cli.main(["sample", "--n", "21", "--samples", "3",
                         "--out", {str(out)!r}]) == 0
    """)
    report = json.loads(out.read_text())
    # Generator.integers under default_rng(0) draws 11, which shares 7 with 21
    assert report["instance"]["a"] == 11
    assert report["lucky_factors_from_draw"] == [3, 7]
