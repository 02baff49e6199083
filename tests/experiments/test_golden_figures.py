"""Figures pinned to committed bytes.

Fig. 3 runs PV with preemption on a penalty bounded at 0; Fig. 4 sweeps
FirstReward's α on bounded penalties — the two figures on the bounded
Eq. 4 kernel and the single-score preemption pass.  Fig. 7 sweeps the
slack threshold down to −200, so its admission probes straddle the
eight-row limit of the scalar quote path; the consolidation market
admits everything on bounded penalties, so its deep pools keep the
vector path.  ``golden/`` holds their ``--out`` files at 300 jobs,
seed 0, as written by::

    repro fig3 --n-jobs 300 --seeds 0 --out tests/experiments/golden/fig3_n300_s0.json
    repro fig4 --n-jobs 300 --seeds 0 --out tests/experiments/golden/fig4_n300_s0.json
    repro fig7 --n-jobs 300 --seeds 0 --out tests/experiments/golden/fig7_n300_s0.json
    repro consolidation --n-jobs 300 --seeds 0 \
        --out tests/experiments/golden/consolidation_n300_s0.json

Each test reruns its command through the CLI and compares bytes.  CI's
``perf-smoke`` job compares the same files with ``--workers 2`` output.
"""

import pathlib

import pytest

from repro.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("figure", ["fig3", "fig4", "fig7", "consolidation"])
def test_bytes_equal_the_golden(figure, tmp_path, capsys):
    out = tmp_path / f"{figure}.json"
    assert main([figure, "--n-jobs", "300", "--seeds", "0", "--out", str(out)]) == 0
    capsys.readouterr()  # the printed table is not what is pinned
    assert out.read_bytes() == (GOLDEN / f"{figure}_n300_s0.json").read_bytes()
