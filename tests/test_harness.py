import dataclasses

import numpy as np
import pytest

from roprec import harness, linalg
from roprec.harness import ExperimentConfig
from roprec.measure import NoiseSpec


def test_derive_seed_deterministic_and_distinct():
    a = harness.derive_seed(42, 0, 1, 2)
    assert a == harness.derive_seed(42, 0, 1, 2)
    seen = {harness.derive_seed(42, i, j, t)
            for i in range(3) for j in range(3) for t in range(5)}
    assert len(seen) == 45


def test_plant_truth_rank_and_norms():
    X = harness.plant_truth(6, 5, 2, seed=3)
    assert np.linalg.norm(X) == pytest.approx(1.0)
    assert np.linalg.matrix_rank(X) == 2
    Y = harness.plant_truth(6, 5, 2, seed=3, norm="sp", p=0.5)
    assert linalg.schatten_norm(Y, 0.5) == pytest.approx(1.0)


def test_phase_transition_zero_L_never_succeeds():
    cfg = ExperimentConfig(kind="phase_transition", m=4, n=4, ranks=(1,),
                           Ls=(0,), trials=3, seed=1)
    header, rows = harness.run_experiment(cfg)
    assert rows[0][header.index("successes")] == 0


def test_phase_transition_easy_cell_succeeds():
    cfg = ExperimentConfig(kind="phase_transition", m=5, n=5, ranks=(1,),
                           Ls=(60,), trials=3, method="nuclear", seed=2,
                           max_iterations=300)
    header, (row,) = harness.run_experiment(cfg)
    assert row[header.index("successes")] == 3
    assert 0 <= row[header.index("successes")] <= row[header.index("trials")]


def test_phase_transition_least_q_below_p1_succeeds():
    # recover's least-q branch at p = q = 0.5: the nuclear-ball ADMM's point,
    # retracted onto the Schatten-0.5 sphere, starts the descent
    cfg = ExperimentConfig(kind="phase_transition", m=8, n=8, ranks=(1,), Ls=(60,),
                           trials=3, method="least-q", p=0.5, q=0.5, seed=0)
    header, (row,) = harness.run_experiment(cfg)
    assert row[header.index("success_rate")] == 1.0


def test_phase_transition_rows_carry_seed():
    cfg = ExperimentConfig(kind="phase_transition", m=4, n=4, ranks=(1,),
                           Ls=(0,), trials=2, seed=9)
    header, rows = harness.run_experiment(cfg)
    assert "trial_seed" in header
    assert rows[0][header.index("trial_seed")] == harness.derive_seed(9, 0, 0, 0)


def test_phase_transition_csv_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        cfg = ExperimentConfig(kind="phase_transition", m=4, n=4, ranks=(1,),
                               Ls=(30,), trials=2, seed=5, out=str(out),
                               max_iterations=200)
        harness.run_experiment(cfg)
    assert out1.read_bytes() == out2.read_bytes()


def test_bound_check_columns_and_recomputation():
    from roprec import certify
    cfg = ExperimentConfig(kind="bound_check", m=6, n=6, ranks=(1,), Ls=(80,),
                           trials=2, eta1_values=(0.01,), rub_trials=40,
                           k=5.0, seed=3, max_iterations=300)
    header, rows = harness.run_experiment(cfg)
    assert header[:3] == ["eta1", "trial", "certified"]
    for row in rows:
        if row[header.index("certified")] == 1:
            # bound column must equal the certification-module recomputation
            bound = certify.stability_bound_schatten(
                row[header.index("C1_hat")], row[header.index("C2_hat")],
                5.0, 1.0, 1.0, 80, 1, NoiseSpec(kind="lq_bounded", q=1.0, eta1=row[0]),
                tail_norm=0.0)
            assert row[header.index("bound")] == pytest.approx(bound, rel=1e-12)
            assert row[header.index("observed_error_q")] >= 0.0


def test_bound_check_violation_rate_counts():
    rows = [[0.01, 0, 1, 0.5, 0.6, 0.1, 0.2, 0, 7],
            [0.01, 1, 0, 0.5, 0.6, 0.1, float("nan"), 0, 8],
            [0.01, 2, 1, 0.5, 0.6, 0.3, 0.2, 1, 9]]
    violations, certified = harness.bound_check_violation_rate(rows)
    assert (violations, certified) == (1, 2)


def test_lad_robustness_zero_corruption_parity():
    cfg = ExperimentConfig(kind="lad_robustness", m=4, n=4, ranks=(1,),
                           Ls=(40,), trials=3, corrupt_fraction=0.0,
                           seed=4, max_iterations=300)
    header, rows = harness.run_experiment(cfg)
    lad = np.median([row[3] for row in rows])
    lsq = np.median([row[4] for row in rows])
    assert lad <= 2.0 * max(lsq, 1e-6) + 1e-6
    assert lsq <= 2.0 * max(lad, 1e-6) + 1e-6


def test_phaselift_demo_rows(tmp_path):
    cfg = ExperimentConfig(kind="phaselift_demo", m=6, Ls=(60,), trials=2,
                           corrupt_fraction=0.0, seed=6, max_iterations=400,
                           out=str(tmp_path / "pl.csv"))
    header, rows = harness.run_experiment(cfg)
    assert header[2] == "leading_eig_cosine"
    for row in rows:
        assert 0.0 <= row[2] <= 1.0 + 1e-12
    assert (tmp_path / "pl.csv").exists()


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(kind="phase_transition", trials=0)
    cfg = ExperimentConfig(kind="bound_check", ranks=(1,), Ls=(50,), trials=1,
                           eta1_values=())
    with pytest.raises(ValueError):
        harness.run_experiment(cfg)


def test_trial_exchangeability():
    # per-trial seeds depend only on (master, cell, trial index), so a cell's
    # success count is invariant to how many other cells the sweep contains
    cfg_a = ExperimentConfig(kind="phase_transition", m=4, n=4, ranks=(1,),
                             Ls=(30,), trials=3, seed=8, max_iterations=200)
    cfg_b = ExperimentConfig(kind="phase_transition", m=4, n=4, ranks=(1,),
                             Ls=(30, 35), trials=3, seed=8, max_iterations=200)
    header, a = harness.run_experiment(cfg_a)
    _, b = harness.run_experiment(cfg_b)
    for column in ("successes", "median_error"):
        assert a[0][header.index(column)] == b[0][header.index(column)]


@pytest.mark.parametrize("kind, grid", [
    ("bound_check", dict(ranks=(1, 2), Ls=(30,))),
    ("bound_check", dict(Ls=(30, 40))),
    ("lad_robustness", dict(ranks=(1, 2), Ls=(30, 40))),
    ("lad_robustness", dict()),  # six default ratios
    ("phaselift_demo", dict(Ls=(30, 40))),
    ("phaselift_demo", dict(ranks=(2,))),
], ids=["bc-ranks", "bc-Ls", "lad-grid", "lad-ratios", "pl-Ls", "pl-rank"])
def test_one_cell_kinds_reject_a_wider_grid(monkeypatch, kind, grid):
    # rows of these kinds carry neither r nor L, so a second cell could not be told apart
    monkeypatch.setitem(harness.KINDS, kind, dataclasses.replace(
        harness.KINDS[kind], trial=lambda *args: pytest.fail("a trial ran")))
    cfg = ExperimentConfig(kind=kind, m=4, n=4, trials=1, eta1_values=(0.01,), **grid)
    with pytest.raises(ValueError, match="use --"):
        harness.run_experiment(cfg)


def test_one_cell_kinds_take_one_cell():
    cells = {kind: harness.KINDS[kind].cells(ExperimentConfig(
        kind=kind, m=4, n=4, ranks=(1,), ratios=(3,), eta1_values=(0.01, 0.02)))
        for kind in ("bound_check", "lad_robustness", "phaselift_demo")}
    assert cells["bound_check"] == [((0,), (1, 24, 0.01)), ((1,), (1, 24, 0.02))]
    assert cells["lad_robustness"] == [((0,), (1, 24))]
    assert cells["phaselift_demo"] == [((0,), 40)]  # 10 m when Ls is unset
