"""The claims table: every check on recorded seed-0 rows and on rows one step
past its bound, and the runner's collect-then-judge contract.

``fixtures/claims_seed0.json`` holds every study's rows from
``python -m repro claims --seeds 0`` (regenerated table text dropped except
Table 1's, which a check reads) and each check's ``[op, value, bound]`` on
them, which pins every bound.  Checks are pure functions of rows, so no
study runs here.
"""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.exceptions import ConfigError
from repro.experiments import claims
from repro.experiments.claims import CLAIMS, E1_KG, UNIFIED, Check, Claim, judge

SEED0 = json.loads((Path(__file__).parent / "fixtures" / "claims_seed0.json").read_text())
ALL_CHECKS = [(claim, check) for claim in CLAIMS for check in claim.checks]


def cells(field, **where):
    """The ``field`` cell of every row whose ``where`` fields are among the
    given values (a single value or a tuple)."""
    def pick(rows):
        return [(r, field) for r in rows if all(
            r[k] in (v if isinstance(v, tuple) else (v,)) for k, v in where.items())]
    return pick


def first(field):
    return lambda rows: [(rows[0], field)]


def argmax(key, field):
    return lambda rows: [(max(rows, key=key), field)]


def second(model):
    return lambda rows: [[(r, "us_per_interaction") for r in rows
                          if r["model"] == model][1]]


def sparsest_kgcn(rows):
    level = min(r["mean_interactions"] for r in rows)
    return cells("value", model="KGCN", mean_interactions=level)(rows)


def drop_last(rows):
    rows.pop()


def unname_yago(rows):
    rows[0]["text"] = rows[0]["text"].replace("YAGO", "")


def copy_signal0_to_signal1(rows):
    auc0 = {r["model"]: r["AUC"] for r in rows if r["kg_signal"] == 0.0}
    for r in rows:
        r["AUC"] = auc0[r["model"]]


def lambda0_everywhere(rows):
    base = {r["model"][:3]: r["AUC"] for r in rows if r["lambda"] == 0.0}
    for r in rows:
        r["AUC"] = base[r["model"][:3]]


#: (claim, check) -> the (row, field) cells to move one step past the
#: check's own bound, or a function breaking the rows itself (returns None).
BREAK = {
    **{("T1", f): first(f) for f in ("kgs", "cross_domain")},
    ("T1", "named_kgs_printed"): unname_yago,
    ("T2", "rows"): first("rows"),
    ("T2", "every_row_resolves"): first("resolved"),
    **{("T3", f): first(f) for f, __ in claims.TABLE3_COUNTS},
    **{("T4", f): first(f) for f in ("datasets", "scenarios")},
    ("T4", "standins_generated"): drop_last,
    **{("fig1", f): first(f) for f in claims.FIGURE1_FLAGS},
    ("e1", "kg_methods_personalized"): cells("AUC", model="KTUP"),
    ("e1", "best_kg_vs_best_cf"): cells("AUC", model=E1_KG),
    ("e1b", "gap_shrinks_without_signal"): copy_signal0_to_signal1,
    ("e2", "heterec_vs_bpr"): cells("AUC", model="HeteRec"),
    ("e2", "heterec_vs_popularity"): cells("AUC", model="HeteRec"),
    ("e2", "path_models_personalized"): cells("AUC", model="PGPR"),
    ("e2b", "best_uses_several_metapaths"): argmax(lambda r: r["AUC"], "num_metapaths"),
    **{("e3", f): cells("AUC", model=UNIFIED) for f in
       ("unified_above_chance", "unified_vs_embedding", "unified_vs_cf")},
    ("e3b", "every_depth_personalized"): cells("AUC"),
    ("e4", "kg_vs_cf_on_cold_items"): cells("value", model=claims.COLD_KG),
    ("e4", "kg_keeps_cold_signal"): cells("value", model=claims.COLD_KG),
    ("e4b", "kg_leads_at_sparsest"): sparsest_kgcn,
    ("e5", "every_kge_mrr"): cells("MRR", model="TransE"),
    ("e5", "best_hits_at_10"): cells("Hits@10"),
    ("e5b", "six_rows"): drop_last,
    ("e5b", "cke_backbones_personalized"): cells("AUC", model="CKE[TransR]"),
    ("e5b", "cfkg_transe_personalized"): cells("AUC", model="CFKG[TransE]"),
    ("e5b", "cfkg_transr_personalized"): cells("AUC", model="CFKG[TransR]"),
    ("e5b", "distmult_below_transe"): cells("AUC", model="CFKG[DistMult]"),
    ("e6", "four_aggregators"): drop_last,
    ("e6", "every_aggregator_personalized"): cells("AUC", model="KGCN[concat]"),
    **{("e7", f"{m.lower()}_validity"): cells("validity", model=m)
       for m in ("PGPR", "RKGE", "KPRN")},
    ("e7", "validity_within_coverage"):
        argmax(lambda r: r["validity"] - r["coverage"], "validity"),
    ("e8", "joint_training_helps"): lambda0_everywhere,
    ("e9", "ppgn_vs_target_only"): cells("AUC", model="PPGN (source + target)"),
    ("e10", "demographics_do_not_hurt"): cells("AUC", model="KGAT (+demographics)"),
    ("e11", "recency_vs_static"): cells("AUC", model="RecencyKNN (decay=0.3)"),
    ("dkn", "two_channels_vs_best_single"): cells("AUC", channels="word + entities"),
    ("dkn", "every_channel_set_personalized"): cells("AUC", channels="word only"),
    ("scaling", "kgcn_cost_growth"): second("KGCN"),
    ("scaling", "ripplenet_cost_growth"): second("RippleNet"),
    ("scenarios", "every_panel_ok"): first("failures"),
    ("scenarios", "seven_scenarios"): drop_last,
    ("scenarios", "kgcn_personalized_everywhere"): cells("KGCN"),
    ("scenarios", "mean_kgcn_vs_bpr"): cells("delta"),
}


def one_step_past(op, bound):
    if op in (">", "<"):
        return bound
    if op == ">=":
        return bound - 1
    if op == "<=":
        return float(np.nextafter(bound, np.inf))
    return (not bound) if isinstance(bound, bool) else bound + 1


def test_fixture_and_break_table_cover_every_check():
    assert set(SEED0) == {claim.id for claim in CLAIMS}
    assert set(BREAK) == {(claim.id, check.name) for claim, check in ALL_CHECKS}
    assert len(ALL_CHECKS) == 55


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.id)
def test_seed0_rows_pass_every_check_at_its_recorded_bound(claim):
    verdicts = judge(claim, 0, SEED0[claim.id]["rows"])
    assert all(v.ok for v in verdicts), [v.line() for v in verdicts]
    assert {v.check: [v.op, v.value, v.bound] for v in verdicts} == (
        SEED0[claim.id]["verdicts"])


@pytest.mark.parametrize(
    "claim, check", ALL_CHECKS, ids=[f"{c.id}.{k.name}" for c, k in ALL_CHECKS]
)
def test_one_step_past_the_bound_fails_with_value_and_bound(claim, check):
    rows = copy.deepcopy(SEED0[claim.id]["rows"])
    __, bound = check.measure(rows)
    for row, field in BREAK[(claim.id, check.name)](rows) or ():
        row[field] = one_step_past(check.op, bound)
    verdict = check.judge(claim.id, 0, rows)
    assert not verdict.ok and not verdict.error
    assert verdict.line() == (
        f"FAIL {claim.id}.{check.name} seed=0: "
        f"{claims._fmt(verdict.value)} {check.op} {claims._fmt(verdict.bound)}"
    )


CELL_CHECKS = [(claim, check) for claim, check in ALL_CHECKS  # breaks naming cells
               if BREAK[(claim.id, check.name)](copy.deepcopy(SEED0[claim.id]["rows"]))]


@pytest.mark.parametrize(
    "claim, check", CELL_CHECKS, ids=[f"{c.id}.{k.name}" for c, k in CELL_CHECKS]
)
def test_a_nan_in_the_last_cell_a_check_reads_fails_it(claim, check):
    """``min``/``max`` skip a NaN anywhere but first; the readers must not."""
    rows = copy.deepcopy(SEED0[claim.id]["rows"])
    row, field = BREAK[(claim.id, check.name)](rows)[-1]
    row[field] = float("nan")
    assert not check.judge(claim.id, 0, rows).ok


def test_nan_and_unreadable_rows_fail():
    check = Check("c", ">", lambda r: (r[0]["AUC"], 0.5))
    assert not check.judge("x", 0, [{"AUC": float("nan")}]).ok
    verdict = check.judge("x", 0, [{}])
    assert not verdict.ok and verdict.error == "raised KeyError: 'AUC'"


def test_every_study_runs_before_anything_is_judged(monkeypatch):
    ran = []

    def study(seed=0):
        ran.append(seed)
        return [{"x": seed}]

    def boom(seed=0):
        raise RuntimeError(f"exploded at {seed}")

    monkeypatch.setattr(claims, "CLAIMS", (
        Claim("boom", "raises", boom, (Check("a", "==", lambda r: (0, 0)),)),
        Claim("ok", "counts", study, (Check("small", "<", lambda r: (r[0]["x"], 3)),
                                      Check("zero", "==", lambda r: (r[0]["x"], 0)))),
    ))
    report, verdicts, seconds = claims.run_claims((0, 4))
    assert ran == [0, 4]
    assert list(seconds) == [("boom", 0), ("ok", 0), ("boom", 4), ("ok", 4)]
    assert all(s >= 0 for s in seconds.values())
    assert [v.line() for v in verdicts if not v.ok] == [
        "FAIL boom.a seed=0: study raised RuntimeError: exploded at 0",
        "FAIL boom.a seed=4: study raised RuntimeError: exploded at 4",
        "FAIL ok.small seed=4: 4 < 3",
        "FAIL ok.zero seed=4: 4 == 0",
    ]
    assert "| ok | small | 0 < 3 | 4 < 3 **FAIL** |" in report
    assert report.endswith("claims FAILED: 4 of 6 check(s)")
    with pytest.raises(ConfigError, match="distinct"):
        claims.run_claims((2, 2))


def test_wall_table_has_a_row_per_entry_and_a_total():
    table = claims.wall_table({("e1", 0): 1.0, ("e5", 0): 2.5,
                               ("e1", 3): 0.5, ("e5", 3): 4.0})
    assert table.splitlines() == [
        "wall s    seed 0   seed 3    total",
        "e1          1.00     0.50     1.50",
        "e5          2.50     4.00     6.50",
        "total       3.50     4.50     8.00",
    ]
