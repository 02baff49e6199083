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

and the seed fold at two seeds — fig4's improvement over a baseline
shared by its row group, fig6's plain scalar means, resilience's
per-key means of dict cells, consolidation's dict cells — as written
by::

    repro fig4 --n-jobs 300 --seeds 0 1 --out tests/experiments/golden/fig4_n300_s01.json
    repro fig6 --n-jobs 300 --seeds 0 1 --out tests/experiments/golden/fig6_n300_s01.json
    repro resilience --n-jobs 300 --seeds 0 1 \
        --out tests/experiments/golden/resilience_n300_s01.json
    repro consolidation --n-jobs 300 --seeds 0 1 \
        --out tests/experiments/golden/consolidation_n300_s01.json

Each test reruns its command through the CLI and compares bytes.  CI's
``perf-smoke`` job compares the same files with ``--workers 2`` output.
"""

import pathlib

import pytest

from repro.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

ONE_SEED = ["fig3", "fig4", "fig7", "consolidation"]
TWO_SEEDS = ["fig4", "fig6", "resilience", "consolidation"]


@pytest.mark.parametrize(
    "figure, seeds",
    [pytest.param(f, ["0"], id=f) for f in ONE_SEED]
    + [pytest.param(f, ["0", "1"], id=f"{f}-s01") for f in TWO_SEEDS],
)
def test_bytes_equal_the_golden(figure, seeds, tmp_path, capsys):
    out = tmp_path / f"{figure}.json"
    argv = [figure, "--n-jobs", "300", "--seeds", *seeds, "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()  # the printed table is not what is pinned
    golden = GOLDEN / f"{figure}_n300_s{''.join(seeds)}.json"
    assert out.read_bytes() == golden.read_bytes()
