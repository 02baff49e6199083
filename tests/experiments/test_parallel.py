"""Tests for the parallel cell engine and its determinism contract."""

import json
import os
import pickle
from concurrent.futures import wait
from functools import partial

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments.parallel import (
    WORKERS_ENV,
    CellExecutor,
    build_admission,
    build_heuristic,
    resolve_workers,
    sweep,
)
from repro.experiments.runner import EXPERIMENTS, run_experiment

#: Small enough to keep the process-pool tests in seconds.
TINY_FIG6 = dict(
    n_jobs=120, seeds=(0, 1), load_factors=(0.5, 3.0), alphas=(0.0,)
)
TINY_RESILIENCE = dict(n_jobs=60, seeds=(0, 1), mttfs=(500.0,), budgets=(1,))


def payload_bytes(result) -> str:
    """Exactly the CLI's --out serialization."""
    payload = {
        "figure": result.figure,
        "title": result.title,
        "rows": result.rows,
        "notes": result.notes,
    }
    return json.dumps(payload, sort_keys=True, indent=1)


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert resolve_workers(None) == 4

    def test_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ExperimentError, match="must be an integer"):
            resolve_workers(None)

    def test_zero_rejected(self):
        with pytest.raises(ExperimentError, match=">= 1"):
            resolve_workers(0)


class TestHandles:
    def test_inline_submit_runs_immediately(self):
        order = []
        with CellExecutor(1) as ex:
            handle = ex.submit(lambda: order.append("ran") or 41)
            assert order == ["ran"]  # inline mode preserves program order
            assert handle.result() == 41


def _scalar_cell(base: float, seed: int) -> float:
    return base + seed


def _dict_cell(base: float, seed: int) -> dict:
    return {"a": base + seed, "b": 10.0 * (base + seed)}


def _rows(values: dict) -> list[dict]:
    return [{"key": key, "value": value} for key, value in values.items()]


class TestSweep:
    """The one seed fold: cells submitted key by key, seeds innermost,
    each key's values averaged in seed order."""

    def test_scalar_cells_fold_to_their_mean(self):
        cells = {"x": partial(_scalar_cell, 1.0), "y": partial(_scalar_cell, 5.0)}
        rows, per_seed = sweep(cells, _rows, seeds=(0, 1, 2), workers=1)
        assert rows == [{"key": "x", "value": 2.0}, {"key": "y", "value": 6.0}]
        assert [r[0]["value"] for r in per_seed] == [1.0, 2.0, 3.0]
        assert [r[1]["value"] for r in per_seed] == [5.0, 6.0, 7.0]

    def test_dict_cells_fold_per_key(self):
        rows, per_seed = sweep(
            {"x": partial(_dict_cell, 1.0)}, _rows, seeds=(0, 2), workers=1
        )
        assert rows == [{"key": "x", "value": {"a": 2.0, "b": 20.0}}]
        assert list(rows[0]["value"]) == ["a", "b"]  # first seed's key order
        assert [r[0]["value"] for r in per_seed] == [
            {"a": 1.0, "b": 10.0},
            {"a": 3.0, "b": 30.0},
        ]

    def test_cells_run_key_by_key_seeds_innermost(self):
        calls = []

        def cell(key):
            return lambda seed: calls.append((key, seed)) or 0.0

        sweep({"x": cell("x"), "y": cell("y")}, _rows, seeds=(3, 1), workers=1)
        assert calls == [("x", 3), ("x", 1), ("y", 3), ("y", 1)]

    def test_seed_order_is_the_fold_order(self):
        values = [0.1, 0.2, 0.7]
        rows, per_seed = sweep(
            {"x": lambda seed: values[seed]}, _rows, seeds=(2, 0, 1), workers=1
        )
        assert rows[0]["value"] == float(np.mean([0.7, 0.1, 0.2]))
        assert [r[0]["value"] for r in per_seed] == [0.7, 0.1, 0.2]

    def test_workers2_equals_serial(self):
        cells = {
            "x": partial(_scalar_cell, 0.1),
            "y": partial(_dict_cell, 0.3),
        }
        serial = sweep(cells, _rows, seeds=(0, 1, 2), workers=1)
        assert sweep(cells, _rows, seeds=(0, 1, 2), workers=2) == serial

    def test_empty_seed_list_refused(self):
        with pytest.raises(ExperimentError, match="at least one seed"):
            sweep({"x": partial(_scalar_cell, 1.0)}, _rows, seeds=(), workers=1)


class TestDescriptors:
    def test_heuristic_roundtrip(self):
        h = build_heuristic(("firstreward", {"alpha": 0.4, "discount_rate": 0.02}))
        assert h.alpha == 0.4
        assert h.discount_rate == 0.02

    def test_admission_none(self):
        assert build_admission(None) is None

    def test_admission_slack(self):
        adm = build_admission(("slack", {"threshold": 50.0, "discount_rate": 0.01}))
        assert adm.threshold == 50.0

    def test_admission_unknown_rejected(self):
        with pytest.raises(ExperimentError, match="unknown admission"):
            build_admission(("vip-queue", {}))

    def test_survival_descriptor_wraps_the_inner_heuristic(self):
        from repro.scheduling import SurvivalDiscount

        h = build_heuristic(
            ("survival", {"inner": ("firstreward", {"alpha": 0.2}), "mttf": 500.0})
        )
        assert isinstance(h, SurvivalDiscount)
        assert h.inner.alpha == 0.2 and h.survival.mttf == 500.0


class TestByteIdentity:
    """--workers N must be invisible in the output JSON."""

    def test_fig6_workers4_identical_to_serial(self):
        serial = run_experiment("fig6", **TINY_FIG6)
        parallel = run_experiment("fig6", workers=4, **TINY_FIG6)
        assert payload_bytes(parallel) == payload_bytes(serial)

    def test_resilience_workers4_identical_to_serial(self):
        serial = run_experiment("resilience", **TINY_RESILIENCE)
        parallel = run_experiment("resilience", workers=4, **TINY_RESILIENCE)
        assert payload_bytes(parallel) == payload_bytes(serial)

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_every_experiment_workers2_identical_to_serial(self, name):
        """Every registered experiment crosses the process boundary: a
        cell that does not pickle fails here, whatever it closes over."""
        tiny = dict(n_jobs=60, seeds=(0,))
        serial = run_experiment(name, **tiny)
        parallel = run_experiment(name, workers=2, **tiny)
        assert payload_bytes(parallel) == payload_bytes(serial)

    def test_workers_env_is_honoured(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "2")
        via_env = run_experiment("fig6", **TINY_FIG6)
        monkeypatch.delenv(WORKERS_ENV)
        serial = run_experiment("fig6", **TINY_FIG6)
        assert payload_bytes(via_env) == payload_bytes(serial)


class TestUnpicklableCells:
    """At workers > 1 a cell that cannot pickle raises — callable or
    argument — instead of running inline or hanging the pool."""

    @pytest.mark.parametrize(
        "cell",
        [
            pytest.param(lambda ex: ex.submit(lambda: 41), id="lambda-callable"),
            pytest.param(
                lambda ex: ex.submit(sorted, [2, 1], key=lambda v: v),
                id="lambda-argument",
            ),
        ],
    )
    def test_raises_rather_than_hangs(self, cell):
        with CellExecutor(2) as ex:
            handle = cell(ex)
            done, _pending = wait([handle._future], timeout=60)
            assert done, "unpicklable cell hung the pool"
            with pytest.raises((pickle.PicklingError, AttributeError), match="pickle"):
                handle.result()


class TestObservabilityGuard:
    def test_workers_with_ambient_obs_fails_fast(self):
        from repro.obs import Observability, observing

        obs = Observability(spans=True)
        with observing(obs), pytest.raises(ExperimentError, match="observability"):
            CellExecutor(2)

    def test_run_experiment_obs_plus_workers_fails_fast(self):
        from repro.obs import Observability

        obs = Observability(spans=True)
        with pytest.raises(ExperimentError, match="observability"):
            run_experiment("fig6", obs=obs, workers=2, **TINY_FIG6)

    def test_serial_obs_still_works(self):
        from repro.obs import Observability

        obs = Observability(spans=True)
        result = run_experiment("fig6", obs=obs, workers=1, **TINY_FIG6)
        assert any("observability" in note for note in result.notes)

    def test_cell_errors_propagate(self):
        with CellExecutor(2) as ex:
            handle = ex.submit(os.path.join)  # TypeError in the worker
            with pytest.raises(TypeError):
                handle.result()
