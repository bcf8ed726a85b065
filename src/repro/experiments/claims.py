"""The survey's claims as one table: every asserted study and its bounds.

The survey (Guo et al.) publishes tables and qualitative claims, not
numbers.  :data:`CLAIMS` holds one :class:`Claim` per regenerated artifact
(:data:`ARTIFACTS`) and per asserted study (:data:`STUDIES`): the survey
section or claim (C1-C6 in DESIGN.md) it checks, the study it runs and its
named checks.  A study maps a seed to rows; a check maps the rows
to ``(measured value, bound)``, and its comparison of the two is the verdict.

:func:`run_claims` runs every entry at every seed and, like the fault
matrix, judges nothing until everything has run: a study that raises fails
each of its checks, a check that cannot read its rows fails, and a NaN fails
its check (the readers that take a least or greatest value raise on one,
since ``min``/``max`` skip a NaN anywhere but first).  ``python -m repro
claims`` runs the whole table; ``python -m repro study NAME`` runs one entry
of :data:`STUDIES` (the tables and Figure 1 print through ``table N`` and
``figure1``).
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.notation import TABLE2, resolve
from repro.core.registry import SURVEY_TABLE3, Usage, is_implemented
from repro.core.rng import check_seeds
from repro.data.catalog import TABLE4, scenarios_list
from repro.data.kg_catalog import TABLE1, cross_domain

from . import comparative as cmp
from . import tables
from .figure1 import render_figure1, run_figure1
from .harness import PanelResult, results_table

__all__ = ["ARTIFACTS", "CLAIMS", "STUDIES", "Check", "Claim", "Verdict", "judge",
           "render", "run_claims", "wall_table"]

OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
       "<=": operator.le, "==": operator.eq}
CHANCE = 0.5


def _fmt(value) -> str:
    return f"{value:.4f}" if isinstance(value, (float, np.floating)) else str(value)


@dataclass(frozen=True)
class Verdict:
    """One check's outcome at one seed."""

    claim: str
    check: str
    seed: int
    op: str
    value: object = None
    bound: object = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and bool(OPS[self.op](self.value, self.bound))

    @property
    def text(self) -> str:
        return self.error or f"{_fmt(self.value)} {self.op} {_fmt(self.bound)}"

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.claim}.{self.check} seed={self.seed}: {self.text}"


@dataclass(frozen=True)
class Check:
    """A named bound: ``measure(rows) -> (value, bound)``, judged by ``op``."""

    name: str
    op: str
    measure: Callable[[Sequence[dict]], tuple]

    def judge(self, claim: str, seed: int, rows: Sequence[dict]) -> Verdict:
        try:
            value, bound = self.measure(rows)
        except Exception as exc:  # an unreadable row is a failed check
            return Verdict(claim, self.name, seed, self.op,
                           error=f"raised {type(exc).__name__}: {exc}")
        return Verdict(claim, self.name, seed, self.op, value, bound)


@dataclass(frozen=True)
class Claim:
    """One asserted study: its id, the survey section or claim it checks,
    the study (``study(seed=s)`` -> rows or a panel result) and its checks."""

    id: str
    survey: str
    study: Callable[..., object]
    checks: tuple[Check, ...]


def judge(claim: Claim, seed: int, result) -> list[Verdict]:
    """Every check of ``claim`` on a result of its study; panel results are
    read as ``{"model": name, **metrics}`` rows."""
    if isinstance(result, PanelResult):
        result = [{"model": r.model, **r.values} for r in result]
    return [check.judge(claim.id, seed, result) for check in claim.checks]


def render(result) -> str:
    """A results table for panels, else one line per row; multi-line values
    (regenerated tables, Figure 1) print as blocks above their row."""
    if isinstance(result, PanelResult):
        return results_table(result)
    lines = []
    for row in result:
        block = [k for k, v in row.items() if isinstance(v, str) and "\n" in v]
        lines += [row[k] for k in block]
        lines.append("  " + "  ".join(
            f"{k}={_fmt(v)}" for k, v in row.items() if k not in block))
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# the artifacts: regenerated tables and Figure 1, with what they count
# ---------------------------------------------------------------------- #
def _table1(seed: int = 0):
    return [{"text": tables.table1(), "kgs": len(TABLE1),
             "cross_domain": len(cross_domain())}]


def _table2(seed: int = 0):
    return [{"text": tables.table2(resolve=True), "rows": len(TABLE2),
             "resolved": sum(resolve(row) is not None for row in TABLE2)}]


def _table3(seed: int = 0):
    import repro.models  # noqa: F401 - populate the registry

    return [{"text": tables.table3(), "papers": len(SURVEY_TABLE3),
             "implemented": sum(is_implemented(c.name) for c in SURVEY_TABLE3),
             **{u.name.lower(): sum(c.usage is u for c in SURVEY_TABLE3)
                for u in (Usage.EMBEDDING, Usage.PATH, Usage.UNIFIED)}}]


def _table4(seed: int = 0):
    return [{"text": tables.table4(), "datasets": len(TABLE4),
             "scenarios": len(scenarios_list())},
            *cmp.study_table4_standins(seed=seed)]


def _figure1(seed: int = 0):
    result = run_figure1()
    return [{"text": render_figure1(), **{k: result[k] for k in FIGURE1_FLAGS}}]


# ---------------------------------------------------------------------- #
# row readers shared by the checks
# ---------------------------------------------------------------------- #
def _finite(values: Iterable) -> list:
    """``values`` as a list; ValueError on a NaN, which ``min`` and ``max``
    would skip unless it came first."""
    values = list(values)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"non-finite value among {[_fmt(v) for v in values]}")
    return values


def _least(values: Iterable) -> float:
    return min(_finite(values))


def _most(values: Iterable) -> float:
    return max(_finite(values))


def _top(rows, key: Callable[[dict], float]) -> dict:
    """The first row with the greatest ``key``."""
    return rows[int(np.argmax(_finite(key(r) for r in rows)))]


def _by(rows, value: str = "AUC", key: str = "model") -> dict:
    return {r[key]: r[value] for r in rows}


def _best(rows, names: Iterable[str], value: str = "AUC", key: str = "model"):
    return _most(_by(rows, value, key)[n] for n in names)


def _worst(rows, names: Iterable[str]):
    return _least(_by(rows)[n] for n in names)


def _kg_gap(rows, signal: float) -> float:
    level = [r for r in rows if r["kg_signal"] == signal]
    return _best(level, ("KGCN", "RCF")) - _by(level)["BPR-MF"]


def _at_sparsest(rows, model: str) -> float:
    level = min(r["mean_interactions"] for r in rows)
    return _by([r for r in rows if r["mean_interactions"] == level], "value")[model]


def _validity_slack(rows) -> tuple:
    row = _top(rows, lambda r: r["validity"] - r["coverage"])
    return row["validity"], row["coverage"] + 1e-9


def _joint_training_gain(rows) -> float:
    def best_for(prefix, lam):
        return _most(r["AUC"] for r in rows
                     if r["model"].startswith(prefix) and r["lambda"] == lam)

    return max(max(best_for(p, 0.5), best_for(p, 1.0)) - best_for(p, 0.0)
               for p in ("KTUP", "MKR"))


def _cost_growth(rows, model: str) -> tuple:
    costs = [r["us_per_interaction"] for r in rows if r["model"] == model]
    return costs[1], costs[0] * 4.0


E1_KG = ("CKE", "CFKG", "MKR", "KTUP", "RCF")
E1_CF = ("MostPopular", "ItemKNN", "BPR-MF")
UNIFIED = ("RippleNet", "KGCN", "KGAT", "AKUPM")
COLD_KG = ("CKE", "KGCN", "CFKG")
TABLE1_KGS = ("YAGO", "Freebase", "DBpedia", "Satori", "CN-DBPedia")
TABLE3_COUNTS = (("papers", 39), ("implemented", 39), ("embedding", 14),
                 ("path", 15), ("unified", 10))
FIGURE1_FLAGS = ("top2_matches_figure", "avatar_path_ok", "blood_diamond_path_ok")
C = Check

#: The regenerated survey artifacts and what they count.
ARTIFACTS: tuple[Claim, ...] = (
    Claim("T1", "Table 1: 11 public KGs, 9 cross-domain", _table1, (
        C("kgs", "==", lambda r: (r[0]["kgs"], 11)),
        C("cross_domain", "==", lambda r: (r[0]["cross_domain"], 9)),
        C("named_kgs_printed", "==", lambda r: (
            sum(name in r[0]["text"] for name in TABLE1_KGS), len(TABLE1_KGS))))),
    Claim("T2", "Table 2: 19 notation rows, each a live API object", _table2, (
        C("rows", "==", lambda r: (r[0]["rows"], 19)),
        C("every_row_resolves", "==", lambda r: (r[0]["resolved"], r[0]["rows"])))),
    Claim("T3", "Table 3: 39 papers (14 Emb., 15 Path, 10 Uni.), all implemented",
          _table3, tuple(C(f, "==", lambda r, f=f, n=n: (r[0][f], n))
                         for f, n in TABLE3_COUNTS)),
    Claim("T4", "Table 4: 20 datasets in 7 scenarios, each with a stand-in",
          _table4, (
        C("datasets", "==", lambda r: (r[0]["datasets"], 20)),
        C("scenarios", "==", lambda r: (r[0]["scenarios"], 7)),
        C("standins_generated", "==", lambda r: (len(r[1:]), 7)))),
    Claim("fig1", "Figure 1: Bob gets Avatar and Blood Diamond via the cited paths",
          _figure1, tuple(C(f, "==", lambda r, f=f: (r[0][f], True))
                          for f in FIGURE1_FLAGS)),
)
#: Every asserted study.  The bounds are the survey-shape thresholds behind
#: DESIGN.md's claims, unchanged since they were first set.
STUDIES: tuple[Claim, ...] = (
    Claim("e1", "C1, §4.1: embedding-based methods vs pure CF",
          cmp.study_embedding_methods, (
        C("kg_methods_personalized", ">", lambda r: (_worst(r, E1_KG), CHANCE + 0.03)),
        C("best_kg_vs_best_cf", ">",
          lambda r: (_best(r, E1_KG), _best(r, E1_CF) - 0.02)))),
    Claim("e1b", "C1: the KG-vs-CF gap needs an informative KG",
          cmp.study_kg_signal_sweep, (
        C("gap_shrinks_without_signal", ">",
          lambda r: (_kg_gap(r, 1.0), _kg_gap(r, 0.0))),)),
    Claim("e2", "C1, §4.2: path-based methods", cmp.study_path_methods, (
        C("heterec_vs_bpr", ">", lambda r: (_by(r)["HeteRec"], _by(r)["BPR-MF"])),
        C("heterec_vs_popularity", ">",
          lambda r: (_by(r)["HeteRec"], _by(r)["MostPopular"])),
        C("path_models_personalized", ">",
          lambda r: (_worst(r, ("RKGE", "KPRN", "PGPR", "Hete-MF")), 0.5)))),
    Claim("e2b", "§4.2: more meta-paths help HeteRec", cmp.study_metapath_count, (
        C("best_uses_several_metapaths", ">=",
          lambda r: (_top(r, lambda x: x["AUC"])["num_metapaths"], 2)),)),
    Claim("e3", "C3, §4.3: unified methods", cmp.study_unified_methods, (
        C("unified_above_chance", ">", lambda r: (_best(r, UNIFIED), 0.55)),
        C("unified_vs_embedding", ">",
          lambda r: (_best(r, UNIFIED), _by(r)["CKE (best Emb.)"] - 0.05)),
        C("unified_vs_cf", ">",
          lambda r: (_best(r, UNIFIED), _by(r)["BPR-MF"] - 0.02)))),
    Claim("e3b", "C3: propagation depth H in (1, 2)", cmp.study_hop_depth, (
        C("every_depth_personalized", ">",
          lambda r: (_least(x["AUC"] for x in r), 0.45)),)),
    Claim("e4", "C2, §1/§2.2: cold-start items", cmp.study_cold_start, (
        C("kg_vs_cf_on_cold_items", ">", lambda r: (
            _best(r, COLD_KG, "value"), _best(r, ("BPR-MF", "ItemKNN"), "value"))),
        C("kg_keeps_cold_signal", ">", lambda r: (_best(r, COLD_KG, "value"), 0.55)))),
    Claim("e4b", "C2: sparsity sweep", cmp.study_sparsity, (
        C("kg_leads_at_sparsest", ">", lambda r: (
            _at_sparsest(r, "KGCN"), _at_sparsest(r, "BPR-MF") - 0.02)),)),
    Claim("e5", "§4.1/§6: KGE link prediction", cmp.study_kge_link_prediction, (
        C("every_kge_mrr", ">", lambda r: (_least(x["MRR"] for x in r), 0.05)),
        C("best_hits_at_10", ">", lambda r: (_most(x["Hits@10"] for x in r), 0.3)))),
    Claim("e5b", "§6: the KGE choice downstream (CKE / CFKG)",
          cmp.study_kge_downstream, (
        C("six_rows", "==", lambda r: (len(_by(r)), 6)),
        C("cke_backbones_personalized", ">", lambda r: (
            _least(v for n, v in _by(r).items() if n.startswith("CKE")), 0.5)),
        C("cfkg_transe_personalized", ">", lambda r: (_by(r)["CFKG[TransE]"], 0.5)),
        C("cfkg_transr_personalized", ">", lambda r: (_by(r)["CFKG[TransR]"], 0.5)),
        C("distmult_below_transe", "<",
          lambda r: (_by(r)["CFKG[DistMult]"], _by(r)["CFKG[TransE]"])))),
    Claim("e6", "Eq. 30-33: KGCN aggregators", cmp.study_aggregators, (
        C("four_aggregators", "==", lambda r: (len(_by(r)), 4)),
        C("every_aggregator_personalized", ">",
          lambda r: (_least(_by(r).values()), 0.5)))),
    Claim("e7", "C4: explanation validity", cmp.study_explainability, (
        *(C(f"{m.lower()}_validity", ">", lambda r, m=m: (_by(r, "validity")[m], 0.5))
          for m in ("PGPR", "RKGE", "KPRN")),
        C("validity_within_coverage", "<=", _validity_slack))),
    Claim("e8", "C5, Eq. 9: multi-task weight lambda in (0, 0.5, 1), 3-seed mean",
          cmp.study_multitask, (
        C("joint_training_helps", ">", lambda r: (_joint_training_gain(r), 0.0)),)),
    Claim("e9", "C6, §6: cross-domain transfer (PPGN)", cmp.study_cross_domain, (
        C("ppgn_vs_target_only", ">", lambda r: (
            _by(r)["PPGN (source + target)"], _by(r)["BPR-MF (target only)"])),)),
    Claim("e10", "C6, §6: user side information (KGAT)", cmp.study_user_side, (
        C("demographics_do_not_hurt", ">", lambda r: (
            _by(r)["KGAT (+demographics)"], _by(r)["KGAT (plain graph)"] - 0.02)),)),
    Claim("e11", "§6: dynamic preferences, 3-seed mean", cmp.study_dynamic, (
        C("recency_vs_static", ">", lambda r: (
            _by(r)["RecencyKNN (decay=0.3)"], _by(r)["ItemKNN (static)"])),)),
    Claim("dkn", "§5 news / §6: DKN word and entity channels",
          cmp.study_dkn_channels, (
        C("two_channels_vs_best_single", ">", lambda r: (
            _by(r, key="channels")["word + entities"],
            _best(r, ("word only", "entities only"), key="channels") - 0.03)),
        C("every_channel_set_personalized", ">",
          lambda r: (_least(_by(r, key="channels").values()), 0.5)))),
    Claim("scaling", "§4.3: training cost per interaction vs world size",
          cmp.study_scaling, (
        C("kgcn_cost_growth", "<", lambda r: _cost_growth(r, "KGCN")),
        C("ripplenet_cost_growth", "<", lambda r: _cost_growth(r, "RippleNet")))),
    Claim("scenarios", "Table 4 / §5: a KG model works in every scenario",
          cmp.study_scenario_quality, (
        C("every_panel_ok", "==", lambda r: (sum(x["failures"] for x in r), 0)),
        C("seven_scenarios", "==", lambda r: (len(r), 7)),
        C("kgcn_personalized_everywhere", ">",
          lambda r: (_least(x["KGCN"] for x in r), 0.5)),
        C("mean_kgcn_vs_bpr", ">",
          lambda r: (float(np.mean([x["delta"] for x in r])), -0.02)))),
)
#: The whole table, in report order.
CLAIMS = ARTIFACTS + STUDIES


def run_claims(seeds: Iterable[int]) -> tuple[str, list[Verdict], dict]:
    """Run every claim of :data:`CLAIMS` at every seed.

    Returns ``(report, verdicts, seconds)``: the report is each study's
    rows per seed, then the verdict table (one row per check, one column
    per seed) and a summary line; ``seconds`` maps ``(claim id, seed)``
    to the study's wall seconds (see :func:`wall_table`).  Seeds must
    pass :func:`~repro.core.rng.check_seeds`.
    """
    seeds, claims = check_seeds(seeds), CLAIMS
    lines = [f"# Survey claims: {len(claims)} entries, seeds {list(seeds)}"]
    verdicts: list[Verdict] = []
    seconds: dict[tuple[str, int], float] = {}
    for seed in seeds:
        for claim in claims:
            lines += ["", f"## {claim.id} seed={seed}: {claim.survey}"]
            start = time.perf_counter()
            try:
                result = claim.study(seed=seed)
            except Exception as exc:  # judged with the rest, not fatal
                error = f"study raised {type(exc).__name__}: {exc}"
                verdicts += [Verdict(claim.id, c.name, seed, c.op, error=error)
                             for c in claim.checks]
            else:
                lines.append(render(result))
                verdicts += judge(claim, seed, result)
            finally:
                seconds[claim.id, seed] = time.perf_counter() - start
    per_seed = len(verdicts) // len(seeds)
    lines += ["", "## Verdicts", "", "| claim | check | "
              + " | ".join(f"seed {s}" for s in seeds) + " |",
              "| --- | --- |" + " --- |" * len(seeds)]
    lines += [f"| {row[0].claim} | {row[0].check} | "
              + " | ".join(v.text + ("" if v.ok else " **FAIL**") for v in row) + " |"
              for row in (verdicts[i::per_seed] for i in range(per_seed))]
    failed = sum(not v.ok for v in verdicts)
    lines += ["", f"claims FAILED: {failed} of {len(verdicts)} check(s)" if failed
              else f"claims OK: {per_seed} checks x {len(seeds)} seed(s)"]
    return "\n".join(lines), verdicts, seconds


def wall_table(seconds: dict[tuple[str, int], float]) -> str:
    """Wall seconds per entry (rows, in run order) and seed (columns), with
    each entry's total and a total row: what each study costs a run."""
    claims = list(dict.fromkeys(claim for claim, __ in seconds))
    seeds = list(dict.fromkeys(seed for __, seed in seconds))
    width = max(len(c) for c in claims + ["wall s"])

    def row(name, values):
        return f"{name:<{width}} " + "".join(f"{v:>9.2f}" for v in values)

    lines = [f"{'wall s':<{width}} " + "".join(f"{'seed ' + str(s):>9}" for s in seeds)
             + f"{'total':>9}"]
    for claim in claims:
        values = [seconds[claim, s] for s in seeds]
        lines.append(row(claim, values + [sum(values)]))
    totals = [sum(seconds[c, s] for c in claims) for s in seeds]
    lines.append(row("total", totals + [sum(totals)]))
    return "\n".join(lines)
