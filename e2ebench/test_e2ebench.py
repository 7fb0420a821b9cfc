"""Self-test of the benchmark: every workload at toy size, plus the checks.

Run from the repository root::

    python -m pytest -q e2ebench
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in _declared()["workloads"]])
def test_toy_run_passes_its_checks(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert any(line.startswith("# machine: cpus=") for line in lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1


def test_run_refuses_without_the_program(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "bank-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _gotoh_reference(a: str, b: str) -> int:
    """Cell-by-cell global affine DP, the textbook three-matrix form."""
    o, e, neg = checks.GAP_OPEN, checks.GAP_EXTEND, -(10**9)
    m, n = len(a), len(b)
    H = [[neg] * (n + 1) for _ in range(m + 1)]
    E = [[neg] * (n + 1) for _ in range(m + 1)]
    F = [[neg] * (n + 1) for _ in range(m + 1)]
    H[0][0] = 0
    for i in range(m + 1):
        for j in range(n + 1):
            if i == 0 and j == 0:
                continue
            if j > 0:
                E[i][j] = max(E[i][j - 1] - e, H[i][j - 1] - o - e)
            if i > 0:
                F[i][j] = max(F[i - 1][j] - e, H[i - 1][j] - o - e)
            diag = H[i - 1][j - 1] + checks.BLOSUM62[a[i - 1], b[j - 1]] if i and j else neg
            H[i][j] = max(diag, E[i][j], F[i][j])
    return H[m][n]


def test_affine_global_matches_textbook_dp() -> None:
    rng = random.Random(7)
    for _ in range(40):
        a = "".join(rng.choice(inputs.AA) for _ in range(rng.randint(1, 30)))
        b = "".join(rng.choice(inputs.AA) for _ in range(rng.randint(1, 30)))
        assert checks.affine_global(a, b) == _gotoh_reference(a, b), (a, b)


def test_window_score_is_the_running_local_maximum() -> None:
    text = "--" + "WWWW" + "--"
    assert checks.window_score(text, 2, text, 2, 0, 4) == 44
    # The padding letter scores -16 and resets the running score.
    assert checks.window_score("W-W", 0, "W-W", 0, 0, 3) == 11


def test_inputs_repeat_for_a_seed() -> None:
    assert inputs.bank_scan(4, toy=True) == inputs.bank_scan(4, toy=True)
    assert inputs.bank_scan(4, toy=True) != inputs.bank_scan(5, toy=True)
    assert inputs.translate_frame("ATGGCCTAA", 1) == "MA*"
    assert inputs.translate_frame("TTAGGCCAT", -1) == "MA*"
