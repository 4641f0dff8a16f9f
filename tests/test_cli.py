"""Command-line behavior: pipelines, report schemas, exit codes."""

import json
import math
import subprocess
import sys
import tracemalloc

import pytest

from chshkit import RngSpec, write_subrun_csv
from chshkit.cli import _emit, main
from helpers import (
    CLI_DIGESTS,
    cli_digest_versions,
    cli_digests,
    exact_two_dataset,
    random_counterfactual,
    shared_run_dataset,
)


def run_proc(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "chshkit", *args], capture_output=True, text=True
    )


def read_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out)


@pytest.fixture
def cf_csv(tmp_path):
    path = tmp_path / "cf.csv"
    assert main(["simulate", "--mode", "lhv", "--n", "400", "--seed", "11", "--out", str(path)]) == 0
    return path


@pytest.fixture
def qm_csv(tmp_path):
    path = tmp_path / "qm.csv"
    code = main(["simulate", "--mode", "qm", "--n-per", "300", "--seed", "12", "--out", str(path)])
    assert code == 0
    return path


@pytest.fixture
def shared_csv(tmp_path):
    path = tmp_path / "shared.csv"
    data = shared_run_dataset(random_counterfactual(RngSpec(13), 12))
    write_subrun_csv(data, path)
    return path


class TestSimulate:
    def test_lhv_writes_counterfactual_rows(self, cf_csv):
        lines = cf_csv.read_text().splitlines()
        assert lines[0] == "j,a,d,b,c"
        assert len(lines) == 401
        assert lines[1].startswith("1,")

    def test_qm_writes_subrun_rows(self, qm_csv):
        lines = qm_csv.read_text().splitlines()
        assert lines[0] == "pair,outcome_a,outcome_b"
        assert len(lines) == 1 + 4 * 300

    def test_lhv_requires_n(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--mode", "lhv", "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_qm_requires_n_per(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--mode", "qm", "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_missing_seed_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--mode", "lhv", "--n", "10", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_zero_trials_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--mode", "lhv", "--n", "0", "--seed", "1",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("angles", ["1,2,3", "a,b,c,d", "0,0,10,20"])
    def test_bad_angles_are_usage_errors(self, tmp_path, angles):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--mode", "lhv", "--n", "10", "--seed", "1",
                  "--angles", angles, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2



class TestDigestManifest:
    """Every CLI case's stdout, stderr, exit code and written files, pinned.

    ``tests/data/cli_digests.json`` was computed at commit 95f8653 with
    ``helpers.regen_cli_digests()``.  Its qm, lhv and split files keep
    the digests first pinned at 8c57a30, whose writers built one Python
    string per row.  The digests pin numpy's Generator streams, which
    numpy does not promise to keep across releases, and argparse's usage
    text, so a failure names the versions the manifest was computed with.
    """

    def test_every_case_matches_the_manifest(self, tmp_path, capsys):
        manifest = json.loads(CLI_DIGESTS.read_text())
        got = cli_digests(tmp_path, capsys.readouterr)
        expected = manifest["cases"]
        changed = [name for name in expected if got.get(name) != expected[name]]
        now = cli_digest_versions()
        assert not changed and list(got) == list(expected), (
            f"cases changed: {changed}; added: {sorted(got.keys() - expected.keys())}. "
            f"The manifest was computed with numpy {manifest['numpy']} and Python "
            f"{manifest['python']}; this run has numpy {now['numpy']} and Python {now['python']}."
        )


class TestEstimate:
    def test_counterfactual_report(self, cf_csv, capsys):
        assert main(["estimate", "--in", str(cf_csv)]) == 0
        report = read_json(capsys)
        assert report["kind"] == "counterfactual"
        assert report["bound_satisfied"] is True
        assert abs(report["gamma"]) <= 2.0
        assert report["per_trial_max_abs"] == 2.0
        assert report["n_used"] == [400] * 4
        assert report["gamma"] == round(report["gamma"], 6)

    def test_subrun_report_at_strong_settings(self, tmp_path, capsys):
        path = tmp_path / "strong.csv"
        main(["simulate", "--mode", "qm", "--n-per", "20000", "--seed", "3",
              "--out", str(path)])
        assert main(["estimate", "--in", str(path)]) == 0
        report = read_json(capsys)
        assert report["kind"] == "subruns"
        assert report["gamma"] == pytest.approx(2 * math.sqrt(2), abs=0.05)
        assert report["bound_satisfied"] is False
        assert "per_trial_max_abs" not in report

    def test_writes_report_file(self, cf_csv, tmp_path):
        out = tmp_path / "report.json"
        assert main(["estimate", "--in", str(cf_csv), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["kind"] == "counterfactual"

    def test_bound_flag_is_exact(self, tmp_path, capsys):
        # Exact gamma is 2; the float sum of the four terms is an ulp above.
        path = tmp_path / "exact2.csv"
        write_subrun_csv(exact_two_dataset(), path)
        assert main(["estimate", "--in", str(path)]) == 0
        report = read_json(capsys)
        assert report["gamma"] == 2.0
        assert report["bound_satisfied"] is True

    def test_failed_report_write_keeps_the_earlier_file(self, tmp_path):
        out = tmp_path / "report.json"
        out.write_bytes(b"earlier report\n")
        with pytest.raises(UnicodeEncodeError):
            _emit("{\n  \"unencodable\": \"\ud800\"\n}\n", str(out))
        assert out.read_bytes() == b"earlier report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_out_dev_stdout_writes_to_the_pipe(self):
        proc = run_proc(
            "simulate", "--mode", "qm", "--n-per", "2", "--seed", "3", "--out", "/dev/stdout"
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "pair,outcome_a,outcome_b"
        assert len(lines) == 9

    def test_in_dev_stdin_reads_the_pipe(self, qm_csv):
        piped = subprocess.run(
            [sys.executable, "-m", "chshkit", "estimate", "--in", "/dev/stdin"],
            input=qm_csv.read_bytes(), capture_output=True,
        )
        assert piped.returncode == 0, piped.stderr
        assert piped.stdout.decode() == run_proc("estimate", "--in", str(qm_csv)).stdout

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert main(["estimate", "--in", str(tmp_path / "absent.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_header_only_file_reports_no_trials(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("pair,outcome_a,outcome_b\n")
        assert main(["estimate", "--in", str(path)]) == 1
        assert "no trials" in capsys.readouterr().err

    def test_quoted_header_is_recognized(self, tmp_path, capsys):
        path = tmp_path / "quoted.csv"
        path.write_text('"pair","outcome_a","outcome_b"\nab,+1,+1\nac,+1,+1\ndb,+1,+1\ndc,+1,-1\n')
        assert main(["estimate", "--in", str(path)]) == 0
        assert read_json(capsys)["gamma"] == 4.0

    def test_unrecognized_header(self, tmp_path, capsys):
        path = tmp_path / "odd.csv"
        path.write_text("x,y\n1,2\n")
        assert main(["estimate", "--in", str(path)]) == 1
        assert "unrecognized" in capsys.readouterr().err


class TestSplit:
    def test_pipeline_preserves_trial_count(self, cf_csv, tmp_path, capsys):
        out = tmp_path / "split.csv"
        assert main(["split", "--in", str(cf_csv), "--seed", "5", "--out", str(out)]) == 0
        assert main(["estimate", "--in", str(out)]) == 0
        report = read_json(capsys)
        assert report["kind"] == "subruns"
        assert sum(report["n_used"]) == 400

    def test_requires_seed(self, cf_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["split", "--in", str(cf_csv), "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 2


class TestResort:
    def test_identical_copies_close(self, shared_csv, capsys):
        assert main(["resort", "--in", str(shared_csv)]) == 0
        report = read_json(capsys)
        assert report["closure"] is True
        assert report["hamming_b"] == 0
        assert report["feasible"] == [True, True, True]
        assert report["gamma_resorted"] == report["gamma_subruns"]

    def test_open_cascade_is_still_exit_zero(self, qm_csv, capsys):
        assert main(["resort", "--in", str(qm_csv)]) == 0
        report = read_json(capsys)
        assert report["closure"] is False
        assert report["hamming_b"] > 0

    def test_unequal_lengths_need_trim(self, tmp_path, capsys):
        path = tmp_path / "uneven.csv"
        path.write_text(
            "pair,outcome_a,outcome_b\n"
            "ab,+1,+1\nab,-1,+1\nac,+1,-1\ndb,-1,-1\ndc,+1,+1\n"
        )
        assert main(["resort", "--in", str(path)]) == 1
        assert "equal sub-run lengths" in capsys.readouterr().err
        assert main(["resort", "--in", str(path), "--trim"]) == 0
        captured = capsys.readouterr()
        assert "trimming" in captured.err
        assert json.loads(captured.out)["feasible"] is not None

    def test_uniform_policy_requires_seed(self, qm_csv):
        with pytest.raises(SystemExit) as exc:
            main(["resort", "--in", str(qm_csv), "--policy", "uniform-random"])
        assert exc.value.code == 2

    def test_uniform_policy_deterministic(self, qm_csv):
        runs = [
            run_proc("resort", "--in", str(qm_csv), "--policy", "uniform-random", "--seed", "1")
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout


class TestSweep:
    def test_curve_matches_theory(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--steps", "4", "--n-per", "4000", "--seed", "6",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "offset_deg,gamma_theory,gamma_empirical"
        assert len(lines) == 6  # steps + 1 rows
        rows = [line.split(",") for line in lines[1:]]
        offsets = [float(r[0]) for r in rows]
        assert offsets == [0.0, 22.5, 45.0, 67.5, 90.0]
        theory = {r[0]: float(r[1]) for r in rows}
        assert theory["0.00"] == pytest.approx(2 * math.sqrt(2), abs=1e-6)
        assert theory["22.50"] == pytest.approx(2.0, abs=1e-6)
        assert theory["45.00"] == pytest.approx(0.0, abs=1e-6)
        assert theory["90.00"] == pytest.approx(-2 * math.sqrt(2), abs=1e-6)
        for r in rows:
            assert abs(float(r[2]) - float(r[1])) <= 0.15

    def test_offset_range_keeps_theory_in_band(self, tmp_path):
        # A quarter-turn offset on arm B walks gamma across [-2sqrt2, 2sqrt2];
        # the mid-band values stay inside the two-sided classical range.
        out = tmp_path / "sweep2.csv"
        main(["sweep", "--steps", "8", "--offset-min", "10", "--offset-max", "35",
              "--n-per", "1000", "--seed", "7", "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 9
        assert all(-2 <= float(r[1]) <= 2.83 for r in rows)

    @pytest.mark.parametrize("flag, value", [("--offset-min", "nan"), ("--offset-max", "inf"),
                                             ("--offset-min", "-inf")])
    def test_non_finite_offset_is_usage_error(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--steps", "1", "--n-per", "10", "--seed", "1",
                  f"{flag}={value}", "--out", str(tmp_path / "sweep.csv")])
        assert exc.value.code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_offset_span_beyond_float_range_is_usage_error(self, tmp_path):
        # Each bound is finite, but their difference overflows to inf.
        out = tmp_path / "sweep.csv"
        proc = run_proc("sweep", "--steps", "1", "--n-per", "10", "--seed", "1",
                        "--offset-min=-1e308", "--offset-max=1e308", "--out", str(out))
        assert proc.returncode == 2
        assert "must be finite" in proc.stderr
        assert "Warning" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("low, high, bad", [("0", "1e20", "5e+19"),
                                                ("-1e300", "1e300", "-1e+300")])
    def test_huge_finite_offset_is_usage_error(self, tmp_path, capsys, low, high, bad):
        # Added to the base angles, such an offset rounds b and c together.
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--steps", "2", f"--offset-min={low}", f"--offset-max={high}",
                  "--n-per", "10", "--seed", "1", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"offset {bad} degrees" in err and "b == c" in err
        assert not out.exists()

    def test_checking_every_row_keeps_no_settings(self, tmp_path, capsys):
        # Only the last 15 of 100,001 offsets round b and c together, so
        # the command checks 99,986 rows' settings and exits before any
        # draw.  Keeping each row's settings cost about 62 MB here.
        out = tmp_path / "sweep.csv"
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--steps", "100000", "--offset-max", "1.0324e18",
                      "--n-per", "10", "--seed", "1", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.code == 2
        assert "offset 1.03226e+18 degrees" in capsys.readouterr().err
        assert not out.exists()
        assert peak < 2_000_000


class TestAudit:
    def test_shared_fixture_verdict(self, shared_csv, capsys):
        assert main(["audit", "--in", str(shared_csv)]) == 0
        report = read_json(capsys)
        assert report["verdict"] == "re-sortable; Bell bound applies"
        assert report["resort"]["closure"] is True
        ctx = report["closure_context"]
        assert ctx["n"] == 12
        assert ctx["counts_match"] is True
        assert ctx["coincidence_probability"] == pytest.approx(
            1 / math.comb(12, ctx["plus_count_b1"])
        )

    def test_independent_fixture_verdict(self, qm_csv, capsys):
        assert main(["audit", "--in", str(qm_csv)]) == 0
        report = read_json(capsys)
        assert report["verdict"] == "not re-sortable; Bell bound inapplicable"
        assert report["estimate"]["kind"] == "subruns"
        assert len(report["resort"]["count_deficits"]) == 3

    def test_count_mismatch_reports_deficits(self, tmp_path, capsys):
        path = tmp_path / "mismatch.csv"
        path.write_text(
            "pair,outcome_a,outcome_b\n"
            "ab,+1,+1\nac,+1,-1\ndb,+1,+1\ndc,-1,+1\n"
        )
        assert main(["audit", "--in", str(path)]) == 0
        report = read_json(capsys)
        assert report["verdict"] == "not re-sortable; Bell bound inapplicable"
        assert report["resort"]["count_deficits"] == [0, -1, -1]
        assert report["resort"]["gamma_resorted"] is None


class TestMalformedInput:
    @pytest.mark.parametrize("quoted", [False, True])
    @pytest.mark.parametrize("command", ["estimate", "resort", "audit", "split"])
    def test_oversized_cell_is_a_one_line_error(self, tmp_path, capsys, command, quoted):
        # csv's field size limit is 131,072 characters.
        cell = "1" * 200_000
        if quoted:
            cell = f'"{cell}"'
        path = tmp_path / "huge.csv"
        if command == "split":
            path.write_text(f"j,a,d,b,c\n1,{cell},+1,+1,+1\n")
        else:
            path.write_text(f"pair,outcome_a,outcome_b\nab,{cell},+1\n")
        argv = [command, "--in", str(path)]
        if command == "split":
            argv += ["--seed", "1", "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(" at row 1\n")
        assert err.count("\n") == 1


class TestSeedRange:
    COMMANDS = {
        "simulate": ["simulate", "--mode", "qm", "--n-per", "2", "--out", "{out}"],
        "split": ["split", "--in", "{cf}", "--out", "{out}"],
        "sweep": ["sweep", "--steps", "1", "--n-per", "10", "--out", "{out}"],
        "resort": ["resort", "--in", "{qm}", "--policy", "uniform-random"],
    }

    def _argv(self, command, seed, tmp_path, cf_csv, qm_csv):
        paths = {"out": tmp_path / "out.csv", "cf": cf_csv, "qm": qm_csv}
        return [a.format(**paths) for a in self.COMMANDS[command]] + ["--seed", seed]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_seed_outside_64_bits_is_usage_error(
        self, tmp_path, cf_csv, qm_csv, capsys, command, seed
    ):
        with pytest.raises(SystemExit) as exc:
            main(self._argv(command, seed, tmp_path, cf_csv, qm_csv))
        assert exc.value.code == 2
        assert "2**64" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_largest_seed_is_accepted(self, tmp_path, cf_csv, qm_csv, command):
        assert main(self._argv(command, str(2**64 - 1), tmp_path, cf_csv, qm_csv)) == 0


class TestUsage:
    def test_no_command_is_usage_error(self):
        proc = run_proc()
        assert proc.returncode == 2

    def test_unknown_command_is_usage_error(self):
        proc = run_proc("frobnicate")
        assert proc.returncode == 2

    def test_help_exits_zero(self):
        proc = run_proc("--help")
        assert proc.returncode == 0
        assert "simulate" in proc.stdout
