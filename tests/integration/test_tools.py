"""CLI tools: opt / sizeit / mca / serve / profile."""

import io
import sys
import warnings

import pytest

from repro.tools import mca, opt, sizeit

DEMO = """
define i32 @entry(i32 %n) {
entry:
  %p = alloca i32, align 4
  store i32 %n, i32* %p, align 4
  %v = load i32, i32* %p, align 4
  %dead = mul i32 %v, 7
  %r = add i32 %v, 1
  ret i32 %r
}
"""


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.ll"
    path.write_text(DEMO)
    return str(path)


def run_tool(tool, argv, capsys):
    rc = tool.run(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestOpt:
    def test_oz_pipeline(self, demo_file, capsys):
        rc, out, _ = run_tool(opt, ["-Oz", demo_file], capsys)
        assert rc == 0
        assert "define i32 @entry" in out
        assert "alloca" not in out  # mem2reg promoted it

    def test_explicit_passes(self, demo_file, capsys):
        rc, out, _ = run_tool(
            opt, ["--passes", "-mem2reg -dce", demo_file], capsys
        )
        assert rc == 0
        assert "mul" not in out  # dead mul removed

    def test_stats_flag(self, demo_file, capsys):
        rc, out, err = run_tool(opt, ["-Oz", "--stats", demo_file], capsys)
        assert "instructions:" in err
        assert "changed the module" in err

    def test_output_file(self, demo_file, tmp_path, capsys):
        out_path = tmp_path / "out.ll"
        rc, out, _ = run_tool(
            opt, ["-O1", demo_file, "-o", str(out_path)], capsys
        )
        assert rc == 0
        assert out == ""
        assert "define" in out_path.read_text()

    def test_list_passes(self, capsys):
        rc, out, _ = run_tool(opt, ["--list-passes"], capsys)
        assert rc == 0
        assert "simplifycfg" in out.split()

    def test_verify_flag(self, demo_file, capsys):
        rc, _, _ = run_tool(opt, ["-Oz", "--verify", demo_file], capsys)
        assert rc == 0

    def test_roundtrips_through_itself(self, demo_file, tmp_path, capsys):
        mid = tmp_path / "mid.ll"
        run_tool(opt, ["-Oz", demo_file, "-o", str(mid)], capsys)
        rc, out, _ = run_tool(opt, [str(mid)], capsys)
        assert rc == 0 and "define" in out


class TestSizeit:
    def test_basic_report(self, demo_file, capsys):
        rc, out, _ = run_tool(sizeit, [demo_file], capsys)
        assert rc == 0
        assert "total" in out
        assert "x86-64" in out

    def test_closes_input_file(self, demo_file, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert sizeit.run([demo_file]) == 0
        capsys.readouterr()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

    def test_per_function_and_target(self, demo_file, capsys):
        rc, out, _ = run_tool(
            sizeit, ["--target", "aarch64", "--per-function", demo_file],
            capsys,
        )
        assert rc == 0
        assert "entry" in out

    def test_size_drops_with_optimization(self, demo_file, capsys):
        _, raw, _ = run_tool(sizeit, [demo_file], capsys)
        _, optimized, _ = run_tool(sizeit, ["-Oz", demo_file], capsys)

        def total(report):
            return int(report.splitlines()[2].split()[-1])

        assert total(optimized) < total(raw)


class TestMca:
    def test_summary(self, demo_file, capsys):
        rc, out, _ = run_tool(mca, [demo_file], capsys)
        assert rc == 0
        assert "total cycles" in out
        assert "IPC" in out

    def test_per_block(self, demo_file, capsys):
        rc, out, _ = run_tool(mca, ["--per-block", demo_file], capsys)
        assert "entry" in out

    def test_cycles_drop_with_optimization(self, demo_file, capsys):
        def cycles(argv):
            _, out, _ = run_tool(mca, argv, capsys)
            return float(
                next(l for l in out.splitlines() if "total cycles" in l)
                .split()[-1]
            )

        assert cycles(["-O3", demo_file]) <= cycles([demo_file])


class TestOptAgent:
    @pytest.fixture
    def checkpoint(self, tmp_path):
        from repro import PosetRL

        path = tmp_path / "model.npz"
        PosetRL(seed=0).save(str(path))
        return str(path)

    def test_agent_optimizes_through_serving_path(
        self, demo_file, checkpoint, capsys
    ):
        rc, out, err = run_tool(opt, ["--agent", checkpoint, demo_file], capsys)
        assert rc == 0
        assert "define i32 @entry" in out
        assert "rejected" not in err

    def test_agent_stats_report(self, demo_file, checkpoint, capsys):
        rc, _, err = run_tool(
            opt, ["--agent", checkpoint, "--stats", demo_file], capsys
        )
        assert rc == 0
        assert "model v1 (odg)" in err
        assert "status ok" in err
        assert "actions:" in err
        assert "size:" in err

    def test_agent_output_file(self, demo_file, checkpoint, tmp_path, capsys):
        out_path = tmp_path / "out.ll"
        rc, out, _ = run_tool(
            opt, ["--agent", checkpoint, demo_file, "-o", str(out_path)],
            capsys,
        )
        assert rc == 0
        assert out == ""
        assert "define i32 @entry" in out_path.read_text()

    def test_agent_excludes_passes_and_levels(
        self, demo_file, checkpoint, capsys
    ):
        with pytest.raises(SystemExit):
            run_tool(opt, ["--agent", checkpoint, "-Oz", demo_file], capsys)
        capsys.readouterr()
        with pytest.raises(SystemExit):
            run_tool(
                opt,
                ["--agent", checkpoint, "--passes", "-dce", demo_file],
                capsys,
            )


class TestServe:
    def test_load_smoke(self, capsys):
        from repro.tools import serve

        rc, out, _ = run_tool(
            serve,
            ["--suite", "mibench", "--requests", "6", "--concurrency", "2",
             "--fail-on-fallback"],
            capsys,
        )
        assert rc == 0
        assert "serving load report" in out
        assert "throughput=" in out
        assert "p50=" in out
        assert "no fallbacks" in out

    def test_json_report(self, tmp_path, capsys):
        import json

        from repro.tools import serve

        json_path = tmp_path / "report.json"
        rc, _, _ = run_tool(
            serve,
            ["--suite", "mibench", "--requests", "4", "--concurrency", "2",
             "--json", str(json_path)],
            capsys,
        )
        assert rc == 0
        payload = json.loads(json_path.read_text())
        assert payload["load"]["requests"] == 4
        assert payload["model"]["version"] == "v1"
        assert "p99" in payload["load"]["latency_ms"]

    def test_unknown_suite(self, capsys):
        from repro.tools import serve

        rc, _, err = run_tool(serve, ["--suite", "nope"], capsys)
        assert rc == 1

    def test_checkpoint_round_trip(self, tmp_path, capsys):
        from repro import PosetRL
        from repro.tools import serve

        path = tmp_path / "model.npz"
        PosetRL(action_space="manual", seed=1).save(str(path))
        rc, out, _ = run_tool(
            serve,
            ["--suite", "mibench", "--checkpoint", str(path),
             "--requests", "4", "--concurrency", "2"],
            capsys,
        )
        assert rc == 0
        assert "(manual)" in out


class TestProfile:
    def test_training_harness(self, capsys):
        """--train rounds the step budget up to whole episodes and the
        report shows the steps actually run."""
        from repro.tools import profile

        rc, out, _ = run_tool(
            profile,
            ["--suite", "mibench", "--train", "22", "--steps", "5"],
            capsys,
        )
        assert rc == 0
        lines = {line.split()[0]: line for line in out.splitlines() if line}
        assert "5 episode(s) x 5 steps, algo=ddqn" in out
        assert "steps=25 " in lines["train"]
        assert "episodes=5 " in lines["train"]

    @pytest.mark.parametrize("steps", ["0", "-5"])
    def test_training_harness_rejects_non_positive_steps(self, steps, capsys):
        from repro.tools import profile

        with pytest.raises(SystemExit) as exc:
            run_tool(profile, ["--suite", "mibench", "--train", steps], capsys)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--train takes a positive number of steps" in err

    def test_stage_table_counts_one_clone_per_episode(self, capsys):
        """The episode clones its input once; a repeat of the same actions
        is served by the transition cache and clones nothing. The
        fingerprint row counts the per-function hashing as well as the
        module digest of every applied miss."""
        from repro.tools import profile

        def stage_calls(episodes):
            rc, out, _ = run_tool(
                profile,
                ["--suite", "mibench", "--episodes", str(episodes)],
                capsys,
            )
            assert rc == 0
            rows = [line.split() for line in out.splitlines() if line]
            return {row[0]: int(row[2]) for row in rows
                    if len(row) == 5 and row[2].isdigit()}

        once = stage_calls(1)
        assert once["clone"] == 1
        assert once["fingerprint"] % 2 == 0
        assert once["fingerprint"] >= 2 * once["codegen"] > 0
        assert stage_calls(3) == once
