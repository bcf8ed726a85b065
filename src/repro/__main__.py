"""Command-line interface: regenerate the survey's artifacts and studies.

Usage::

    python -m repro table 1            # print Table 1 (likewise 2, 3, 4)
    python -m repro figure1            # run and print Figure 1
    python -m repro study e1           # one claims-table study + its verdicts
    python -m repro study e3 --parallel --workers 4   # same rows, pool speed
    python -m repro claims --seeds 0,1 # every asserted claim at every seed
    python -m repro scenarios          # list dataset generators
    python -m repro models             # list implemented models by family
    python -m repro fault-matrix       # every subsystem x seed x fault kind
    python -m repro fault-matrix store online --seeds 0,1
    python -m repro trace-report f.jsonl   # render a --trace-out capture
    python -m repro store-verify DIR   # fsck an embedding store (--repair)

``study`` and ``fault-matrix`` accept ``--trace-out <path>`` to export a
run's telemetry (spans + metrics) as JSONL; ``trace-report`` renders such
a capture as a span tree with self/total times, hotspots, and outcome
summaries (``--check`` schema-validates instead, for CI).
"""

from __future__ import annotations

import argparse
import sys

#: The subsystems ``fault-matrix`` sweeps, in run order.
FAULT_SUBSYSTEMS = ("store", "online", "serving", "traffic", "retrieval")


def _cmd_table(number: int) -> str:
    from repro.experiments import tables

    return {1: tables.table1, 2: tables.table2, 3: tables.table3, 4: tables.table4}[
        number
    ]()


def _cmd_figure1() -> str:
    from repro.experiments.figure1 import render_figure1

    return render_figure1()


def _cmd_study(
    name: str,
    seed: int,
    trace_out: str | None = None,
    parallel: bool = False,
    workers: int | None = None,
) -> str:
    import inspect

    from repro.experiments.claims import STUDIES, judge, render

    claim = next((c for c in STUDIES if c.id == name), None)
    if claim is None:
        raise SystemExit(
            f"unknown study {name!r}; choose from {[c.id for c in STUDIES]}"
        )
    kwargs: dict = {"seed": seed}
    if parallel:
        # Panel-based studies expose executor/max_workers; the others
        # (cold-start, link prediction, explainability) have no panel to
        # parallelise, so --parallel is a clear error there, not a no-op.
        if "executor" not in inspect.signature(claim.study).parameters:
            raise SystemExit(f"study {name!r} does not support --parallel")
        kwargs.update(executor="process", max_workers=workers)
    trace_note = ""
    if trace_out:
        # Activating here is what routes run_panel, KGE fits, optimizer
        # steps, and negative sampling inside the study into one capture.
        from repro.telemetry import Telemetry, activated

        tel = Telemetry()
        with activated(tel):
            result = claim.study(**kwargs)
        trace_note = f"\ntrace capture written to {tel.export_jsonl(trace_out)}"
    else:
        result = claim.study(**kwargs)
    lines = [f"Study {name}: {claim.survey}", render(result)]
    lines += [v.line() for v in judge(claim, seed, result)]
    return "\n".join(lines) + trace_note


def _seeds(command: str, text: str) -> tuple[int, ...]:
    """``--seeds`` of a seed-sweeping command, parsed and checked."""
    from repro.core.exceptions import ConfigError
    from repro.core.rng import check_seeds

    try:
        return check_seeds(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise SystemExit(
            f"{command}: --seeds must be comma-separated integers, got {text!r}"
        )
    except ConfigError as exc:
        raise SystemExit(f"{command}: {exc}")


def _cmd_claims(args) -> None:
    from pathlib import Path

    from repro.experiments.claims import run_claims, wall_table

    report, verdicts, seconds = run_claims(_seeds("claims", args.seeds))
    summary = report.splitlines()[-1]
    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
        print(f"claims report written to {args.output}\n{summary}")
    else:
        print(report)
    # Costs go to stderr, after the report: stdout stays byte-identical.
    sys.stdout.flush()
    print(wall_table(seconds), file=sys.stderr, flush=True)
    failed = [v.line() for v in verdicts if not v.ok]
    if failed:
        raise SystemExit("\n".join(failed + [summary]))


def _cmd_scenarios() -> str:
    from repro.data import SCENARIO_SCHEMAS

    lines = ["Available scenario generators (repro.data.make_<name>_dataset):"]
    for name, schema in sorted(SCENARIO_SCHEMAS.items()):
        attrs = ", ".join(a.name for a in schema.attributes)
        lines.append(f"  {name:8s} item={schema.item_type:10s} attributes: {attrs}")
    return "\n".join(lines)


def _cmd_models() -> str:
    import repro.models  # noqa: F401 - populate registry
    from repro.core.registry import Usage, card_for, list_registered

    lines = []
    for usage in (Usage.EMBEDDING, Usage.PATH, Usage.UNIFIED, Usage.BASELINE):
        names = list_registered(usage)
        lines.append(f"{usage.value} ({len(names)}):")
        for name in names:
            card = card_for(name)
            venue = f"{card.venue} {card.year}" if card.year else "baseline"
            lines.append(f"  {name:14s} {venue}")
    return "\n".join(lines)


def _cmd_trace_report(args) -> str:
    from repro.telemetry import check_trace, trace_report

    if args.check:
        errors = check_trace(args.path)
        if errors:
            raise SystemExit(
                "trace schema check FAILED:\n" + "\n".join(f"  {e}" for e in errors)
            )
        return f"trace schema check OK: {args.path}"
    return trace_report(args.path, top=args.top)


def _cmd_store_verify(args) -> str:
    from repro.core.exceptions import StoreError
    from repro.store import inspect_store, render_report, repair_store

    if args.repair:
        try:
            report, actions = repair_store(args.path)
        except StoreError as exc:
            raise SystemExit(f"repair FAILED: {exc}")
        lines = [render_report(report), ""]
        lines.append(f"repair actions ({len(actions)}):")
        lines.extend(f"  {a}" for a in actions or ["(nothing to do)"])
        if report.current is None:  # pragma: no cover - repair_store raises first
            raise SystemExit("repair FAILED: no consistent generation")
        return "\n".join(lines)
    try:
        report = inspect_store(args.path)
    except StoreError as exc:
        raise SystemExit(f"store-verify FAILED: {exc}")
    out = render_report(report)
    if report.current is None:
        raise SystemExit(out + "\nstore-verify FAILED: no consistent generation")
    broken = [g.generation for g in report.generations if not g.ok]
    if broken or report.orphans:
        raise SystemExit(
            out + "\nstore-verify FAILED: "
            f"{len(broken)} broken generation(s), {len(report.orphans)} "
            "orphan shard(s); run with --repair to quarantine and fall back"
        )
    return out


def _cmd_fault_matrix(args) -> str:
    from functools import partial

    from repro.core.exceptions import ConfigError
    from repro.online.harness import churn_cells
    from repro.retrieval.demo import staleness_cells
    from repro.runtime.faults import (
        IO_FAULT_KINDS,
        ONLINE_FAULT_KINDS,
        SERVING_FAULT_KINDS,
        run_matrix,
    )
    from repro.serving.demo import chaos_cells
    from repro.store.harness import crash_cells, make_corrupted_store
    from repro.traffic.demo import load_cells

    unknown = sorted(set(args.subsystems) - set(FAULT_SUBSYSTEMS))
    if unknown:
        raise SystemExit(
            f"fault-matrix: unknown subsystem(s) {unknown}; choose from "
            f"{', '.join(FAULT_SUBSYSTEMS)}"
        )
    chosen = args.subsystems or FAULT_SUBSYSTEMS
    if args.trace_out and "serving" not in chosen:
        raise SystemExit(
            "fault-matrix: --trace-out needs the serving subsystem"
        )
    seeds = _seeds("fault-matrix", args.seeds)
    cell_fns = {
        "store": (IO_FAULT_KINDS, crash_cells),
        "online": (ONLINE_FAULT_KINDS, churn_cells),
        "serving": (
            SERVING_FAULT_KINDS, partial(chaos_cells, trace_out=args.trace_out)
        ),
        "traffic": (SERVING_FAULT_KINDS, load_cells),
        "retrieval": (("index_stale",), staleness_cells),
    }
    try:
        out = run_matrix(
            {name: fns for name, fns in cell_fns.items() if name in chosen},
            seeds,
            args.workdir,
        )
    except ConfigError as exc:
        raise SystemExit(f"fault-matrix: {exc}")
    except AssertionError as exc:
        raise SystemExit(str(exc))
    if args.trace_out:
        out += (
            f"\ntrace capture (seed {seeds[-1]}) written to {args.trace_out}"
        )
    if args.corrupt_store_out:
        store_dir = make_corrupted_store(args.corrupt_store_out, seed=seeds[0])
        out += f"\ndeliberately corrupted store left at {store_dir}"
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="KG-based recommender systems survey reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print a regenerated survey table")
    p_table.add_argument("number", type=int, choices=(1, 2, 3, 4))

    sub.add_parser("figure1", help="run the Figure 1 reproduction")

    p_study = sub.add_parser(
        "study", help="run one entry of the claims table and print its verdicts"
    )
    p_study.add_argument(
        "name", help="a claims-table study: e1, e1b, e2, ..., e11, dkn, scaling, "
        "scenarios",
    )
    p_study.add_argument("--seed", type=int, default=0)
    p_study.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="export the study's telemetry capture (spans + metrics) as JSONL",
    )
    p_study.add_argument(
        "--parallel", action="store_true",
        help="run the study's panels in a process pool (row-identical to "
        "sequential; panel-based studies only)",
    )
    p_study.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="process-pool size for --parallel (default: CPU count)",
    )

    sub.add_parser("scenarios", help="list synthetic dataset generators")
    sub.add_parser("models", help="list implemented models by family")

    p_matrix = sub.add_parser(
        "fault-matrix",
        help="replay every subsystem's faults over a seed matrix and assert "
        "its safety contract; reports every violation, then fails",
    )
    p_matrix.add_argument(
        "subsystems", nargs="*", metavar="SUBSYSTEM",
        help="subsystems to sweep (default: all of "
        f"{', '.join(FAULT_SUBSYSTEMS)})",
    )
    p_matrix.add_argument(
        "--seeds", default="0,1,2,3,4",
        help="comma-separated distinct non-negative seeds",
    )
    p_matrix.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="keep cell artifacts in DIR (must be empty) instead of a "
        "temp dir",
    )
    p_matrix.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the last seed's serving telemetry capture as JSONL",
    )
    p_matrix.add_argument(
        "--corrupt-store-out", default=None, metavar="DIR",
        help="also build a store with a deliberately rotted newest "
        "generation at DIR (for exercising store-verify --repair)",
    )

    p_trace = sub.add_parser(
        "trace-report",
        help="render a --trace-out JSONL capture: span tree, hotspots, outcomes",
    )
    p_trace.add_argument("path", help="capture file written by --trace-out")
    p_trace.add_argument("--top", type=int, default=10, help="hotspot rows")
    p_trace.add_argument(
        "--check", action="store_true",
        help="schema-validate the capture instead of rendering (CI mode)",
    )

    p_fsck = sub.add_parser(
        "store-verify",
        help="fsck an embedding store: verify every manifest and shard checksum",
    )
    p_fsck.add_argument("path", help="store directory (contains manifest-g*.json)")
    p_fsck.add_argument(
        "--repair", action="store_true",
        help="quarantine corrupt/orphaned files and restore the last "
        "consistent generation",
    )

    p_claims = sub.add_parser(
        "claims",
        help="regenerate the tables and Figure 1 and run every asserted "
        "study at every seed; reports every failing check, then fails",
    )
    p_claims.add_argument(
        "--seeds", default="0",
        help="comma-separated distinct non-negative seeds",
    )
    p_claims.add_argument(
        "--output", "-o", default=None, metavar="FILE",
        help="write the report to FILE instead of stdout",
    )

    args = parser.parse_args(argv)
    if args.command == "table":
        print(_cmd_table(args.number))
    elif args.command == "figure1":
        print(_cmd_figure1())
    elif args.command == "study":
        print(_cmd_study(args.name, args.seed, args.trace_out,
                         parallel=args.parallel, workers=args.workers))
    elif args.command == "scenarios":
        print(_cmd_scenarios())
    elif args.command == "models":
        print(_cmd_models())
    elif args.command == "fault-matrix":
        print(_cmd_fault_matrix(args))
    elif args.command == "trace-report":
        print(_cmd_trace_report(args))
    elif args.command == "store-verify":
        print(_cmd_store_verify(args))
    elif args.command == "claims":
        _cmd_claims(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
