"""The fault-matrix runner and the ``fault-matrix`` CLI entry point."""

import re

import pytest

from repro.__main__ import main
from repro.core.exceptions import ConfigError
from repro.runtime.faults import FaultCell, run_matrix


def _cells(subsystem, fired=("a", "b"), problems=()):
    """A fake cell function recording every (seed, directory) it saw."""
    calls = []

    def cell_fn(seed, directory):
        calls.append((seed, directory))
        return [FaultCell(subsystem, seed, "k", problems, fired, "summary")]

    return cell_fn, calls


class TestRunMatrix:
    def test_clean_matrix_gives_every_call_its_own_empty_dir(self, tmp_path):
        fn, calls = _cells("x")
        out = run_matrix({"x": (("a", "b"), fn)}, (0, 3), tmp_path / "w")
        assert out.endswith("every owned fault kind fired")
        assert [seed for seed, __ in calls] == [0, 3]
        assert [d for __, d in calls] == [
            tmp_path / "w" / "x" / "seed0", tmp_path / "w" / "x" / "seed3"
        ]

    def test_collects_every_violation_before_raising(self):
        bad, bad_calls = _cells("bad", problems=("broken invariant",))

        def boom(seed, directory):
            raise RuntimeError(f"exploded at {seed}")

        good, good_calls = _cells("good")
        with pytest.raises(AssertionError) as err:
            run_matrix(
                {"bad": (("a",), bad), "boom": ((), boom),
                 "good": (("a",), good)},
                (0, 1),
            )
        message = str(err.value)
        assert "bad seed=0 k: broken invariant" in message
        assert "bad seed=1 k: broken invariant" in message
        for seed in (0, 1):
            assert (
                f"boom seed={seed} error: raised RuntimeError: "
                f"exploded at {seed}"
            ) in message
        assert "fault matrix FAILED: 4 violation(s)" in message
        # Every subsystem still ran every seed after the first failure.
        assert len(bad_calls) == len(good_calls) == 2

    def test_owned_kind_that_never_fires_fails_the_run(self):
        fn, __ = _cells("x", fired=("a",))
        message = "x: owned fault kind 'b' fired in no cell"
        with pytest.raises(AssertionError, match=message):
            run_matrix({"x": (("a", "b"), fn)}, (0, 1))

    @pytest.mark.parametrize(
        "seeds, match",
        [
            ((), "at least one seed"),
            ((0, -2), ">= 0"),
            ((1, 0, 1), "distinct"),
        ],
    )
    def test_rejects_bad_seeds(self, seeds, match):
        fn, calls = _cells("x")
        with pytest.raises(ConfigError, match=match):
            run_matrix({"x": ((), fn)}, seeds)
        assert calls == []


class TestFaultMatrixCli:
    @pytest.mark.parametrize(
        "seeds, match",
        [
            ("", "at least one seed"),
            ("-1", "seeds must be >= 0"),
            ("0,0", "seeds must be distinct"),
            ("0,x", "comma-separated integers"),
        ],
    )
    def test_bad_seeds_exit_with_a_message(self, seeds, match):
        """Both seed-sweeping commands share one parser and one message."""
        for command in (["fault-matrix", "retrieval"], ["claims"]):
            with pytest.raises(SystemExit, match=f"^{command[0]}: .*{match}"):
                main(command + [f"--seeds={seeds}"])

    def test_reusing_a_workdir_is_refused_by_name(self, tmp_path, capsys):
        workdir = tmp_path / "matrix"
        argv = ["fault-matrix", "retrieval", "--seeds", "0",
                "--workdir", str(workdir)]
        assert main(argv) == 0
        assert "fault matrix OK" in capsys.readouterr().out
        with pytest.raises(SystemExit, match=re.escape(f"workdir {workdir} ")):
            main(argv)

    def test_unknown_subsystem_and_orphan_trace_out_exit(self):
        with pytest.raises(SystemExit, match="unknown subsystem"):
            main(["fault-matrix", "gremlins"])
        with pytest.raises(SystemExit, match="needs the serving subsystem"):
            main(["fault-matrix", "store", "--trace-out", "t.jsonl"])


def test_retrieval_cells_assert_each_episode():
    from repro.retrieval.demo import staleness_cells

    cells = staleness_cells(0, None)
    assert [c.kind for c in cells] == [
        "index_stale", "stale_embeddings", "re_promotion"
    ]
    assert all(c.ok for c in cells), [c.problems for c in cells]
    assert cells[0].fired == ("index_stale",)
    assert "degraded::exact=" in cells[0].summary
    assert cells[1].summary == "degraded::exact=30"
    assert cells[2].summary == "ok::ann=30"


class TestTrainingCells:
    def test_every_training_kind_fires_and_every_cell_passes(self, tmp_path):
        from repro.runtime.faults import TRAINING_FAULT_KINDS
        from repro.runtime.harness import resume_cells

        out = run_matrix(
            {"training": (TRAINING_FAULT_KINDS, resume_cells)}, (0, 1), tmp_path / "w"
        )
        assert out.endswith("every owned fault kind fired")
        lines = out.splitlines()
        assert [line.split()[2] for line in lines[:-1]] == [
            "raise", "nan_grad", "stall"
        ] * 2
        # The NaN on epoch 1's last batch is refused, so resume starts
        # from epoch 0's snapshot; the raise in epoch 2 resumes from epoch 1's.
        assert "TrainingDivergedError, fit resumed from ckpt-00000000" in lines[1]
        assert "InjectedFault, fit resumed from ckpt-00000001" in lines[0]
        assert "no error, clock +30 s" in lines[2]

    def test_a_resume_that_is_not_bitwise_is_a_violation(self, tmp_path, monkeypatch):
        from repro.runtime.checkpoint import Checkpoint
        from repro.runtime.harness import resume_cells

        restore = Checkpoint.restore

        def forget_rng(self, params, optimizer=None, rng=None, store=None):
            return restore(self, params, optimizer=optimizer, store=store)

        monkeypatch.setattr(Checkpoint, "restore", forget_rng)
        cells = {c.kind: c for c in resume_cells(0, tmp_path)}
        for kind in ("raise", "nan_grad"):
            assert not cells[kind].ok
            assert "is not bitwise the clean fit" in cells[kind].problems[0]
        assert cells["stall"].ok  # no resume, nothing to break
