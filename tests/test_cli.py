import argparse
import csv
import json
import math
import os
import subprocess
import sys

import pytest

import qpr
import qpr.asymptotics
import qpr.cli
from qpr.cli import build_parser, main


def run_cli(args):
    return main(args)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestEval:
    def test_theta(self, capsys):
        assert run_cli(["eval", "theta", "--z", "1", "--q", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "2.128936827211877" in out

    def test_ramanujan_at_zero(self, capsys):
        assert run_cli(["eval", "ramanujan_a", "--z", "0", "--q", "0.3"]) == 0
        assert "= 1.0" in capsys.readouterr().out

    def test_pochhammer(self, capsys):
        assert run_cli(["eval", "pochhammer", "--a", "0.5", "--q", "0.5", "--n", "2"]) == 0
        assert "0.375" in capsys.readouterr().out

    def test_normalized_laguerre(self, capsys):
        code = run_cli(["eval", "normalized_laguerre", "--q", "0.5", "--z", "1",
                        "--tau", "1", "--theta", "0", "--n", "3"])
        assert code == 0
        assert "2.7593665350051" in capsys.readouterr().out

    def test_subnormal_component_evaluates(self, capsys):
        assert run_cli(["eval", "theta", "--z=2+5e-324j", "--q", "0.5"]) == 0
        value = capsys.readouterr().out.splitlines()[0].split(" = ")[1]
        assert math.isfinite(complex(value).real)

    def test_subnormal_z_keeps_log_polar_line(self, capsys):
        # the left tail's ratio bound exp(-log|z| + ...) leaves double range here
        assert run_cli(["eval", "theta", "--z", "1e-310", "--q", "0.5"]) == 0
        out = capsys.readouterr().out
        assert float(out.split("log10|value| = ")[1].split()[0]) > 308

    def test_overflowing_value_keeps_log_polar_line(self, capsys):
        assert run_cli(["eval", "theta", "--z", "1e300", "--q", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "nan" not in out
        assert float(out.split("log10|value| = ")[1].split()[0]) > 308

    @pytest.mark.parametrize("fn", ["theta", "ramanujan_a", "b_function"])
    @pytest.mark.parametrize("z", ["nan", "inf", "1+infj"])
    def test_non_finite_z_is_usage_error(self, fn, z, capsys):
        assert run_cli(["eval", fn, f"--z={z}", "--q", "0.5"]) == 2
        assert "z must be finite" in capsys.readouterr().err

    def test_unknown_function_is_usage_error(self):
        with pytest.raises(SystemExit) as e:
            run_cli(["eval", "gamma", "--q", "0.5"])
        assert e.value.code == 2

    @pytest.mark.parametrize("fn", ["laguerre", "normalized_laguerre"])
    def test_degree_required(self, fn, capsys):
        assert run_cli(["eval", fn, "--q", "0.5", "--x", "1"]) == 2
        assert f"{fn} needs a degree: pass --n" in capsys.readouterr().err


class TestVerify:
    def test_case1_grid_exit_zero(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run_cli(["verify", "--case", "1", "--q", "0.5", "--alpha", "0",
                        "--z", "1", "--tau", "1", "--theta", "0",
                        "--n", "5..40", "--output", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 36
        assert all(r["bound_holds"] == "true" for r in rows)

    def test_eligible_violation_exits_1_and_names_the_worst_degree(self, monkeypatch,
                                                                    capsys):
        # real rows, two of them made eligible with a bound the observed error
        # exceeds twice (n = 6) and three times (n = 7)
        real = qpr.asymptotics.run_verify

        def violated(*args, **kw):
            rows = real(*args, **kw)
            for i, (n, k) in enumerate([(6, 2.0), (7, 3.0)], start=1):
                assert rows[i].n == n
                rows[i] = rows[i]._replace(eligible=True, bound_holds=False,
                                           bound=rows[i].observed_error / k)
            return rows

        monkeypatch.setattr(qpr.cli, "run_verify", violated)
        argv = ["verify", "--case", "1", "--q", "0.5", "--z", "1", "--tau", "1",
                "--theta", "0", "--n", "5..8"]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        rows = list(csv.DictReader(captured.out.splitlines()))
        assert [r["n"] for r in rows] == ["5", "6", "7", "8"]
        assert [r["bound_holds"] for r in rows] == ["true", "false", "false", "true"]
        worst = rows[2]
        assert captured.err == (f"BOUND VIOLATION at n=7: observed {worst['observed_error']} "
                                f"> bound {worst['bound']}\n")

    def test_case4_grid_exit_zero(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run_cli(["verify", "--case", "4", "--q", "0.5", "--z", "1",
                        "--tau", "-1", "--theta", "0", "--n", "8..64",
                        "--output", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 57

    def test_out_of_range_tau_advisory_exit3(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = run_cli(["verify", "--q", "0.5", "--z", "1", "--tau=-5/2",
                        "--theta", "0", "--n", "5..10", "--output", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "advisory" in err

    def test_case2_stepped_grid(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run_cli(["verify", "--case", "2", "--q", "0.5", "--z", "2",
                        "--tau", "0", "--theta", "1/3", "--n", "1..61",
                        "--n-step", "3", "--output", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert [int(r["n"]) for r in rows] == list(range(1, 62, 3))

    def test_grid_stays_a_range(self):
        from qpr.cli import _parse_n_range
        grid = _parse_n_range("5..40", 3)
        assert isinstance(grid, range) and grid == range(5, 41, 3)
        assert _parse_n_range("7", 1) == range(7, 8)

    def test_case3_witnesses_on_a_grid(self, tmp_path):
        # a witness case keeps the rows of the witnesses that lie on the grid
        full, on_grid = tmp_path / "full.csv", tmp_path / "grid.csv"
        argv = ["verify", "--case", "3", "--q", "0.5", "--z", "2", "--tau", "0",
                "--theta", "sqrt2", "--beta", "0", "--rho", "1", "--nmax", "10000"]
        assert run_cli(argv + ["--output", str(full)]) == 0
        assert run_cli(argv + ["--n", "1000..6000", "--output", str(on_grid)]) == 0
        want = [r for r in read_csv(full) if 1000 <= int(r["n"]) <= 6000]
        assert len(want) >= 2 and read_csv(on_grid) == want

    def test_case3_witness_driven(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(["verify", "--case", "3", "--q", "0.5", "--z", "2",
                        "--tau", "0", "--theta", "sqrt2", "--beta", "0",
                        "--rho", "1", "--nmax", "10000",
                        "--format", "json", "--output", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())
        assert any(r["n"] == 2378 for r in rows)

    @pytest.mark.parametrize("flags", [["--z=nan"], ["--z=inf"], ["--z=1+infj"],
                                       ["--z=1", "--alpha", "1e6"]])
    def test_context_outside_domain_usage_error(self, flags, capsys):
        code = run_cli(["verify", "--case", "1", "--q", "0.5", "--tau", "1",
                        "--theta", "0", "--n", "5..10", *flags])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_case1_out_of_range_compared_in_log_space(self, tmp_path, capsys):
        # the exact value (~1e984) and the bound (~1e33219) leave double range
        out = tmp_path / "v.csv"
        code = run_cli(["verify", "--case", "1", "--q", "0.5", "--z=1e-200", "--tau=1",
                        "--theta", "0", "--n", "5..10", "--output", str(out)])
        assert code in (0, 3)
        assert "BOUND VIOLATION" not in capsys.readouterr().err
        rows = read_csv(out)
        assert [int(r["n"]) for r in rows] == list(range(5, 11))
        assert all(r["bound_holds"] == "true" for r in rows)
        assert all("log space" in r["notes"] for r in rows)

    def test_case2_out_of_range_rows_ineligible(self, tmp_path, capsys):
        # exact value and main term overflow; without a log-form majorant the
        # rows cannot be certified, so none is eligible and none is violated
        out = tmp_path / "v.csv"
        code = run_cli(["verify", "--case", "2", "--q", "0.5", "--z=1e-200", "--tau", "0",
                        "--theta", "1/3", "--n", "5..8", "--output", str(out)])
        assert code == 3
        assert "BOUND VIOLATION" not in capsys.readouterr().err
        rows = read_csv(out)
        assert [int(r["n"]) for r in rows] == [5, 6, 7, 8]
        assert all(r["eligible"] == "false" for r in rows)
        assert all("within double range: FAIL" in r["notes"] for r in rows)

    def test_sign_of_zero_beta_gives_one_real_main_term(self, tmp_path):
        # at a real z and a zero target A_q's argument is real; the sign of
        # that zero used to set main_im to about -1.9e-10 or to 0.0
        mains = []
        for beta in ("0", "-0.0"):
            out = tmp_path / f"v{beta}.csv"
            run_cli(["verify", "--case", "3", "--q", "0.9", "--z=0.3", "--tau", "0",
                     "--theta", "sqrt2", "--beta", beta, "--rho", "1", "--nmax", "30",
                     "--output", str(out)])
            rows = read_csv(out)
            assert rows and all(r["main_im"] == "0.0" for r in rows)
            mains.append([(r["main_re"], r["main_im"]) for r in rows])
        assert mains[0] == mains[1]

    def test_undeclared_decimal_usage_error(self, capsys):
        code = run_cli(["verify", "--q", "0.5", "--z", "1", "--tau", "0",
                        "--theta", "0.123", "--n", "5..10"])
        assert code == 2

    @pytest.mark.parametrize("case_args", [
        ["--case", "3", "--tau", "0"], ["--case", "5", "--tau=-1"]])
    def test_far_negative_rho_reads_underflow_as_inf(self, case_args, capsys):
        # n^rho underflows to 0 from n = 7 on at rho = -400: those rows' bounds
        # leave double range, and the rows before them keep their bytes
        base = ["verify", "--q", "0.5", "--z", "2", "--theta", "sqrt2", "--rho=-400"]
        assert run_cli(base + case_args + ["--nmax", "5"]) == 3
        head = capsys.readouterr().out
        assert run_cli(base + case_args + ["--nmax", "10"]) == 3
        captured = capsys.readouterr()
        assert captured.out.startswith(head)
        assert "no eligible degree" in captured.err
        rows = list(csv.DictReader(captured.out.splitlines()))
        assert [int(r["n"]) for r in rows] == list(range(1, 11))
        for r in rows[6:]:
            assert r["bound"] == "inf" and r["eligible"] == "false"
            assert "observed error and bound within double range: FAIL" in r["notes"]

    @pytest.mark.parametrize("case_args", [
        ["--case", "3", "--tau", "0"], ["--case", "5", "--tau=-1"]])
    def test_large_rho_reads_overflow_as_inf(self, case_args, capsys):
        # n^rho overflows from n = 6 on (6^400): those rows' nu/(4 n^rho)
        # reads 0, so they are ineligible with a finite bound, and the rows
        # before them keep their bytes; 8 and 10 are witnesses, with a
        # residual of exactly 0, although n^-400 underflows there
        base = ["verify", "--q", "0.5", "--z", "2", "--theta", "0.5", "--assume-irrational",
                "--rho", "400"]
        assert run_cli(base + case_args + ["--nmax", "5"]) == 3
        head = capsys.readouterr().out
        assert run_cli(base + case_args + ["--nmax", "10"]) == 3
        captured = capsys.readouterr()
        assert "Numerical result out of range" not in captured.err
        assert captured.out.startswith(head)
        rows = list(csv.DictReader(captured.out.splitlines()))
        assert [int(r["n"]) for r in rows] == [1, 2, 4, 6, 8, 10]
        last = rows[-1]
        assert last["eligible"] == "false" and math.isfinite(float(last["bound"]))
        assert " n^rho): FAIL" in last["notes"]

    def test_byte_stability(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argsA = ["verify", "--case", "1", "--q", "0.5", "--z", "1", "--tau", "1",
                 "--theta", "0", "--n", "5..30", "--output", str(a)]
        argsB = argsA[:-1] + [str(b)]
        assert run_cli(argsA) == 0 and run_cli(argsB) == 0
        assert a.read_bytes() == b.read_bytes()


    def test_unparsable_beta_is_usage_error(self, capsys):
        # argparse prints the type function's ArgumentTypeError message as it is
        for token in ("1/0", "1.2.3"):
            with pytest.raises(SystemExit) as e:
                run_cli(["verify", "--q", "0.5", "--z=1", "--tau", "0", "--theta", "sqrt2",
                         "--beta", token])
            assert e.value.code == 2
            err = capsys.readouterr().err
            assert f"argument --beta: cannot parse beta '{token}'" in err
            assert "_beta_value" not in err


class TestWitness:
    def test_sqrt2_includes_n12(self, tmp_path):
        out = tmp_path / "w.csv"
        code = run_cli(["witness", "--theta", "sqrt2", "--beta", "0",
                        "--rho", "1", "--nmax", "100", "--output", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert any(int(r["n"]) == 12 and int(r["m"]) == 17 for r in rows)
        assert list(rows[0].keys()) == ["n", "m", "m1", "beta", "residual", "rho"]

    def test_rational_progression(self, tmp_path):
        out = tmp_path / "w.csv"
        code = run_cli(["witness", "--theta", "1/3", "--beta", "1/3",
                        "--rho", "9", "--nmax", "30", "--output", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert [int(r["n"]) for r in rows] == [1, 4, 7, 10, 13, 16, 19, 22, 25, 28]
        assert all(float(r["residual"]) == 0.0 for r in rows)

    def test_rational_progression_exact(self, tmp_path):
        out = tmp_path / "w.csv"
        code = run_cli(["witness", "--theta", "1/3", "--beta", "0", "--rho", "9",
                        "--nmax", "30", "--output", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert [int(r["n"]) for r in rows] == [1, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30]

    def test_joint_search_nonempty(self, tmp_path):
        out = tmp_path / "w.csv"
        code = run_cli(["witness", "--theta", "sqrt2", "--theta2", "sqrt3",
                        "--rho", "0.4", "--nmax", "10000", "--output", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows and all(r["m1"] != "" for r in rows)

    @pytest.mark.parametrize("rho", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("joint", [False, True])
    def test_non_finite_rho_is_usage_error(self, rho, joint, capsys):
        argv = ["witness", "--theta", "sqrt2", "--beta", "0.5", f"--rho={rho}",
                "--nmax", "10"]
        if joint:
            argv += ["--theta2", "sqrt3"]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert "rho must be finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("joint", [[], ["--theta2", "sqrt3"]])
    def test_far_negative_rho_takes_every_degree(self, joint, capsys):
        # |residual| <= 1/2 < 1 <= n^-rho, so no power is taken (10^400
        # would overflow) and the rows are those of rho = -1
        outs = []
        for rho in ("-400", "-1"):
            argv = ["witness", "--theta", "sqrt2", "--beta", "1/3", f"--rho={rho}",
                    "--nmax", "10"] + joint
            assert run_cli(argv) == 0
            outs.append(capsys.readouterr().out)
        rows = [[line.rsplit(",", 1) for line in out.splitlines()[1:]] for out in outs]
        assert [int(r[0].split(",")[0]) for r in rows[0]] == list(range(1, 11))
        assert [r[0] for r in rows[0]] == [r[0] for r in rows[1]]
        assert {r[1] for r in rows[0]} == {"-400.0"}

    @pytest.mark.parametrize("flag", ["--theta", "--theta2"])
    def test_undeclared_decimal_usage_error(self, flag, capsys):
        argv = ["witness", "--theta", "sqrt2", "--rho", "0.5", "--nmax", "10"]
        argv += [flag, "0.3"]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert run_cli(["verify", "--q", "0.5", "--tau", "0", "--theta", "0.3",
                        "--n", "5..10"]) == 2
        assert capsys.readouterr().err == captured.err

    def test_declaration_sets_the_residuals(self, capsys):
        argv = ["witness", "--theta", "0.3", "--rho", "0.5", "--nmax", "4"]
        assert run_cli(argv + ["--assume-rational"]) == 0
        assert "3,1,,0.0,-0.1,0.5\n" in capsys.readouterr().out
        assert run_cli(argv + ["--assume-irrational"]) == 0
        assert "3,1,,0.0,-0.10000000000000009,0.5\n" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, degrees", [
        (["--theta", "0.5", "--assume-irrational"], [1, 2, 4, 6, 8, 10, 12]),
        (["--theta", "1/2", "--theta2", "1/4"], [1, 4, 8, 12])])
    def test_zero_residual_passes_at_large_rho(self, argv, degrees, capsys):
        # n^-400 underflows to 0 from n = 7 on; |0| < n^-400 still holds
        assert run_cli(["witness", "--beta", "0", "--rho", "400", "--nmax", "12"]
                       + argv) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [int(r["n"]) for r in rows] == degrees

    def test_empty_exit3(self, tmp_path):
        out = tmp_path / "w.csv"
        code = run_cli(["witness", "--theta", "sqrt2", "--beta", "0.5",
                        "--rho", "3", "--nmax", "200", "--output", str(out)])
        rows = read_csv(out)
        onlytrivial = [r for r in rows if int(r["n"]) > 1]
        assert not onlytrivial
        # n=1 is always accepted, so the run is technically nonempty
        assert code in (0, 3)


class TestSweep:
    def test_case1_slopes(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run_cli(["sweep", "--q", "0.5", "--z", "1",
                        "--tau-grid", "1/4,1/2,1", "--theta", "0",
                        "--n", "10..40", "--output", str(out)])
        assert code == 0
        import math
        for row in read_csv(out):
            fitted = float(row["fitted_slope"])
            predicted = float(row["predicted_slope"])
            assert abs(fitted - predicted) <= 0.05 * abs(predicted), row

    def test_single_point_matches_verify(self, tmp_path):
        s_out = tmp_path / "s.csv"
        v_out = tmp_path / "v.csv"
        assert run_cli(["sweep", "--q", "0.5", "--z", "1", "--tau-grid", "1",
                        "--theta", "0", "--n", "12..12", "--output", str(s_out)]) == 0
        assert run_cli(["verify", "--case", "1", "--q", "0.5", "--z", "1",
                        "--tau", "1", "--theta", "0", "--n", "12..12",
                        "--output", str(v_out)]) == 0
        srow = read_csv(s_out)[0]
        vrow = read_csv(v_out)[0]
        assert srow["first_observed_error"] == vrow["observed_error"]
        assert srow["first_bound"] == vrow["bound"]

    def test_witness_case_decays_as_predicted(self, capsys):
        # case 3 over its witnesses up to 8000: the fitted power of n is
        # within 20 % of the predicted -rho
        assert run_cli(["sweep", "--q", "0.5", "--z", "2", "--tau-grid", "0", "--theta",
                        "sqrt2", "--rho", "1", "--nmax", "8000"]) == 0
        (row,) = csv.DictReader(capsys.readouterr().out.splitlines())
        assert (row["case_id"], row["predicted_kind"]) == ("3", "pow_n")
        assert float(row["predicted_slope"]) == -1.0
        assert 0.8 <= float(row["ratio"]) <= 1.2

    def test_theta_regime_point(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run_cli(["sweep", "--q", "0.5", "--z", "1", "--tau-grid", "-1",
                        "--theta", "0", "--n", "16..64", "--output", str(out)])
        assert code == 0
        row = read_csv(out)[0]
        assert row["case_id"] == "4"
        assert row["predicted_kind"] == "exp_n"


class TestJsonMirrorsCsv:
    def test_same_rows_same_values(self, tmp_path):
        c, j = tmp_path / "r.csv", tmp_path / "r.json"
        base = ["verify", "--case", "1", "--q", "0.5", "--z", "1", "--tau", "1",
                "--theta", "0", "--n", "5..9"]
        assert run_cli(base + ["--output", str(c)]) == 0
        assert run_cli(base + ["--format", "json", "--output", str(j)]) == 0
        crows = read_csv(c)
        jrows = json.loads(j.read_text())
        assert len(crows) == len(jrows)
        for cr, jr in zip(crows, jrows):
            assert list(cr.keys()) == list(jr.keys())
            assert cr["observed_error"] == repr(jr["observed_error"])
            assert int(cr["n"]) == jr["n"]


class TestAutoDispatch:
    def test_auto_routes_to_case1(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run_cli(["verify", "--q", "0.5", "--z", "1", "--tau", "1",
                        "--theta", "0", "--n", "5..10", "--output", str(out)])
        assert code == 0
        assert all(r["case_id"] == "1" for r in read_csv(out))

    def test_eval_range_guard_maps_to_runtime_exit(self, capsys):
        code = run_cli(["eval", "laguerre", "--q", "0.5", "--n", "50",
                        "--x", "1e30"])
        assert code == 1
        assert "normalized" in capsys.readouterr().err


class TestInstalledEntrypoint:
    def test_module_invocation(self):
        # the child imports the same qpr as this process, installed or not
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qpr.__file__))}
        p = subprocess.run([sys.executable, "-m", "qpr.cli", "eval", "theta",
                            "--z", "1", "--q", "0.5"],
                           capture_output=True, text=True, env=env)
        assert p.returncode == 0
        assert "2.1289368" in p.stdout

    def test_import_leaves_out_dataclasses_and_inspect(self):
        # a cold start pays for every module qpr imports; -S keeps site's own
        # imports out of the count
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qpr.__file__))}
        p = subprocess.run([sys.executable, "-S", "-c", "import sys, qpr.cli; "
                            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
                           capture_output=True, text=True, env=env)
        assert p.returncode == 0, p.stderr
        assert p.stdout == "[]\n"


class TestOneParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_output_flags_do_not_carry_over(self, tmp_path, capsys):
        base = ["verify", "--case", "1", "--q", "0.5", "--z", "1", "--tau", "1",
                "--theta", "0", "--n", "5..7"]
        out = tmp_path / "r.json"
        assert run_cli(base + ["--format", "json", "--output", str(out)]) == 0
        assert len(json.loads(out.read_text())) == 3
        capsys.readouterr()
        assert run_cli(base) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("case_id,n,")
        assert len(lines) == 4

    def test_assume_flag_does_not_carry_over(self, capsys):
        # auto dispatch between cases 2 and 3 needs theta's rationality
        base = ["verify", "--q", "0.5", "--z", "2", "--tau", "0", "--theta", "0.41",
                "--rho", "1", "--nmax", "200"]
        assert run_cli(base + ["--assume-irrational"]) == 3
        capsys.readouterr()
        assert run_cli(base) == 2
        assert "rationality of '0.41' is undeclared" in capsys.readouterr().err


# runs of the dense cases 1, 2 and 4, which take a degree grid and no search
DENSE_RUNS = [
    ["verify", "--case", "1", "--q", "0.5", "--z", "1", "--tau", "1", "--theta", "0",
     "--n", "5..7"],
    ["verify", "--case", "2", "--q", "0.5", "--z", "1", "--tau", "0", "--theta", "1/3",
     "--n", "5..7"],
    ["verify", "--case", "4", "--q", "0.5", "--z", "1", "--tau=-1", "--theta", "1/3",
     "--n", "8..9"],
    ["sweep", "--q", "0.5", "--z", "1", "--tau-grid", "1", "--theta", "0"],
]


class TestSearchLimit:
    def test_zero_is_usage_error_in_every_subcommand(self, capsys):
        # with or without a degree grid, --nmax 0 scans nothing: it neither
        # falls back to the default limit nor to the grid's top
        runs = [
            ["verify", "--case", "3", "--q", "0.5", "--tau", "0", "--theta", "sqrt2"],
            ["verify", "--case", "3", "--q", "0.5", "--tau", "0", "--theta", "sqrt2",
             "--n", "5..40"],
            ["sweep", "--q", "0.5", "--tau-grid", "0", "--theta", "sqrt2"],
            ["sweep", "--q", "0.5", "--tau-grid", "0", "--theta", "sqrt2", "--n", "5..40"],
            ["witness", "--theta", "sqrt2"],
            ["witness", "--theta", "sqrt2", "--theta2", "sqrt3"],
        ] + DENSE_RUNS
        for argv in runs:
            assert run_cli(argv + ["--nmax", "0"]) == 2, argv
            captured = capsys.readouterr()
            assert "n_max must be >= 1" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("argv, flags, message", [
        pytest.param(argv, flags, message, id=f"{' '.join(argv[:3])}-{flags[0]}")
        for argv in DENSE_RUNS for flags, message in [
            (["--nmax=-5"], "n_max must be >= 1"),
            (["--beta", "7"], "beta must lie in [0,1), got 7.0"),
            (["--beta2", "3/2"], "beta must lie in [0,1), got 1.5"),
            (["--rho", "nan"], "rho must be finite, got nan"),
        ] if argv[0] == "verify" or flags[0] != "--beta2"])  # sweep has no --beta2
    def test_dense_cases_check_the_search_settings(self, argv, flags, message, capsys):
        # cases 1, 2 and 4 search nothing, yet reject what a search would
        assert run_cli(argv + flags) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_single_witness_search_checks_the_second_target(self, capsys):
        # a single search has no use for --beta2, yet rejects it as verify does
        assert run_cli(["witness", "--theta", "sqrt2", "--beta2", "5", "--nmax", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: beta must lie in [0,1), got 5.0\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--q", "0.5", "--tau=-3", "--theta", "0", "--n", "5..7", "--nmax", "0"],
         "n_max must be >= 1"),
        (["sweep", "--q", "0.5", "--tau-grid=-3", "--theta", "0", "--beta", "7"],
         "beta must lie in [0,1), got 7.0"),
    ], ids=["verify", "sweep"])
    def test_out_of_range_tau_checks_the_search_settings(self, argv, message, capsys):
        # tau <= -2 has no regime and searches nothing, yet the settings are
        # checked before its advisory (verify) or out-of-range row (sweep)
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_default_is_10000(self, capsys):
        # rho = 0 takes every degree, so the last row is the limit
        argv = ["witness", "--theta", "sqrt2", "--beta", "0.3", "--rho", "0"]
        assert run_cli(argv) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1].startswith("10000,")
        assert run_cli(argv + ["--nmax", "10000"]) == 0
        assert capsys.readouterr().out == out


class TestSearchOptions:
    def test_one_help_text_per_option(self):
        top = build_parser()
        commands = next(a for a in top._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        for option in ("--beta", "--rho", "--nmax"):
            helps = set()
            for name in ("verify", "witness", "sweep"):
                sub = commands[name]
                action = next(a for a in sub._actions if option in a.option_strings)
                assert action.help
                assert " ".join(action.help.split()) in " ".join(sub.format_help().split())
                helps.add(action.help)
            assert len(helps) == 1, option


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [
        ["verify", "--case", "1", "--q", "0.5", "--tau", "1", "--theta", "0", "--n", "5..7"],
        ["witness", "--theta", "sqrt2", "--nmax", "5"],
        ["sweep", "--q", "0.5", "--tau-grid", "1", "--theta", "0"],
    ])
    def test_is_usage_error(self, argv, tmp_path, capsys):
        path = tmp_path / "missing" / "x.csv"
        assert run_cli(argv + ["--output", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write --output ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not path.parent.exists()


class TestContradictoryDeclarations:
    @pytest.mark.parametrize("argv", [
        ["eval", "theta", "--q", "0.5"],
        ["verify", "--q", "0.5", "--tau", "0", "--theta", "0.41", "--rho", "1",
         "--nmax", "20"],
        ["witness", "--theta", "0.3", "--rho", "0.5", "--nmax", "4"],
        ["sweep", "--q", "0.5", "--tau-grid", "0.5", "--theta", "0"],
    ])
    def test_both_assumptions_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as e:
            run_cli(argv + ["--assume-rational", "--assume-irrational"])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert "not allowed with argument" in captured.err
        assert captured.out == ""


class TestSeriesArgumentOutOfRange:
    # |z| = 1e-310 sends the A_q/B_q argument of the main term (case 2) or of
    # the case-1 majorant, q^(2-alpha)/|z|, past double range
    @pytest.mark.parametrize("argv", [
        ["verify", "--case", "2", "--q", "0.5", "--z=1e-310", "--tau", "0",
         "--theta", "1/3", "--n", "5..8"],
        ["verify", "--case", "1", "--q", "0.5", "--z=1e-310", "--tau=1", "--n", "5..8"],
    ], ids=["case2", "case1"])
    def test_is_usage_error(self, argv, capsys):
        assert run_cli(argv) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        (["verify", "--case", "2", "--q", "0.5", "--z=1e-310", "--tau", "0",
          "--theta", "1/3", "--n", "5..8"], "A_q argument e^(2 pi i lam)/(z q^alpha)"),
        (["verify", "--case", "1", "--q", "0.5", "--z=1e-310", "--tau=1", "--n", "5..8"],
         "B_q argument q^(2-alpha)/|z|"),
    ], ids=["case2", "case1"])
    def test_names_the_argument(self, argv, name, capsys):
        # the user's z is finite; the message names what left range and echoes z
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert f"{name} must be finite" in err and "z = (1e-310+0j)" in err
        assert "z must be finite, got" not in err

    # |z| = 5e-324 underflows z q^alpha to 0: the A_q argument of cases 2 and
    # 3 is refused before its division, the theta argument of case 4 as zero
    @pytest.mark.parametrize("argv, message", [
        (["--case", "2", "--tau", "0", "--theta", "1/3"],
         "A_q argument e^(2 pi i lam)/(z q^alpha) must be finite, got inf"),
        (["--case", "3", "--tau", "0", "--theta", "sqrt2", "--rho", "1", "--nmax", "50"],
         "A_q argument e^(2 pi i lam)/(z q^alpha) must be finite, got inf"),
        (["--case", "4", "--tau=-1/2", "--theta", "1/3"],
         "theta argument -z q^(alpha+chi+u) e^(-2 pi i v) underflows to 0"),
    ], ids=["case2", "case3", "case4"])
    def test_underflowing_argument_is_usage_error(self, argv, message, capsys):
        assert run_cli(["verify", "--q", "0.5", "--alpha", "1", "--z=5e-324", "--n", "5..8",
                        *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {message} at z = (5e-324+0j)"]
        assert captured.out == ""


class TestFixedTruncation:
    # the tolerance and the term cap are constants of the truncation kernel
    @pytest.mark.parametrize("flag", [["--tol", "1e-8"], ["--max-terms", "500"]],
                             ids=["tol", "max_terms"])
    @pytest.mark.parametrize("argv", [
        ["verify", "--case", "2", "--q", "0.6", "--z=0.9-0.7j", "--tau", "0",
         "--theta", "2/5", "--n", "36..40", "--n-step", "4"],
        ["eval", "theta", "--z", "1", "--q", "0.5"],
    ], ids=["verify", "eval"])
    def test_truncation_is_not_an_option(self, argv, flag):
        with pytest.raises(SystemExit) as e:
            run_cli(argv + flag)
        assert e.value.code == 2

    def test_term_cap_stops_a_series(self, capsys):
        assert run_cli(["eval", "theta", "--q", "0.999999", "--z", "1"]) == 1
        assert "not certified within 10000 terms" in capsys.readouterr().err

    def test_factor_cap_stops_a_table(self, capsys):
        assert run_cli(["verify", "--case", "2", "--q", "0.997", "--z=1", "--tau", "0",
                        "--theta", "1/3", "--n", "5..6"]) == 1
        assert "did not saturate within 10000 factors" in capsys.readouterr().err


class TestNonFiniteEvalArguments:
    # a nan printed as a value, or an inf run to the factor cap or a range
    # guard, is a domain error at the input
    @pytest.mark.parametrize("argv", [
        ["eval", "pochhammer", "--a=nan", "--q", "0.5", "--n", "3"],
        ["eval", "pochhammer", "--a=0.5", "--q", "nan", "--n", "3"],
        ["eval", "pochhammer", "--a=inf", "--q", "0.5", "--n", "inf"],
    ], ids=["a-nan", "q-nan", "a-inf"])
    def test_pochhammer(self, argv, capsys):
        assert run_cli(argv) == 2
        assert "a and q must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("x", ["nan", "inf"])
    def test_laguerre(self, x, capsys):
        assert run_cli(["eval", "laguerre", "--q", "0.5", "--n", "5", f"--x={x}"]) == 2
        assert "x must be finite" in capsys.readouterr().err


class TestNegativeDegrees:
    # a negative degree is a usage error before any row runs, in every case
    @pytest.mark.parametrize("argv", [
        ["verify", "--case", "1", "--q", "0.5", "--z=1", "--tau=1", "--n=-3..2"],
        ["verify", "--case", "2", "--q", "0.5", "--z=1", "--tau", "0", "--theta", "1/3",
         "--n=-3..2"],
        ["verify", "--case", "4", "--q", "0.5", "--z=1", "--tau=-1", "--theta", "1/3",
         "--n=-3..2"],
        ["sweep", "--q", "0.5", "--z", "1", "--tau-grid", "1/4,1/2", "--n=-3..2"],
    ], ids=["case1", "case2", "case4", "sweep"])
    def test_is_usage_error(self, argv, capsys):
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad degree range '-3..2'" in captured.err


class TestDegreeStep:
    # a step below 1 is a usage error naming the step, not the valid range
    @pytest.mark.parametrize("argv", [
        ["verify", "--case", "1", "--q", "0.5", "--z=1", "--tau=1", "--n", "5..7"],
        ["sweep", "--q", "0.5", "--z", "1", "--tau-grid", "1/4,1/2", "--n", "5..7"],
    ], ids=["verify", "sweep"])
    @pytest.mark.parametrize("step", ["0", "-2"])
    def test_is_usage_error(self, argv, step, capsys):
        assert run_cli(argv + ["--n-step", step]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad degree step {step} (need --n-step >= 1)\n"


class TestDegreeTokens:
    # a degree that is not an integer is a usage error naming the token,
    # not Python's int() message
    @pytest.mark.parametrize("argv, token", [
        (["verify", "--case", "1", "--q", "0.5", "--z=1", "--tau=1", "--n", "5..x"], "x"),
        (["sweep", "--q", "0.5", "--z", "1", "--tau-grid", "1/4,1/2", "--n", "1e3"], "1e3"),
        (["eval", "laguerre", "--q", "0.5", "--x", "1", "--n", "2.0"], "2.0"),
        (["eval", "normalized_laguerre", "--q", "0.5", "--z", "1", "--tau", "1",
          "--n", "three"], "three"),
        (["eval", "pochhammer", "--a", "0.5", "--q", "0.5", "--n=2.5"], "2.5"),
    ], ids=["verify", "sweep", "eval-laguerre", "eval-normalized", "eval-pochhammer"])
    def test_is_usage_error(self, argv, token, capsys):
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot parse degree '{token}'\n"


class TestCaseToken:
    # a --case that is not an integer names the token, as a degree does; a
    # case outside 1-7 keeps the case check's message
    @pytest.mark.parametrize("token, message", [
        ("x", "cannot parse case 'x'"),
        ("2.0", "cannot parse case '2.0'"),
        ("8", "expected one of cases (1, 2, 3, 4, 5, 6, 7), got 8"),
    ])
    def test_is_usage_error(self, token, message, capsys):
        assert run_cli(["verify", "--case", token, "--q", "0.5", "--z=1", "--tau=1",
                        "--n", "5..7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestNonFiniteScalingTokens:
    # nan, inf and a decimal past double range are usage errors naming the
    # token under either declaration, never a bound violation or nan rows
    ARGV = {
        "verify-tau": ["verify", "--q", "0.5", "--theta", "0", "--n", "5..7", "--tau={}"],
        "verify-theta": ["verify", "--q", "0.5", "--tau", "0", "--n", "5..7", "--theta={}"],
        "witness-theta": ["witness", "--nmax", "100", "--theta={}"],
        "witness-theta2": ["witness", "--nmax", "100", "--theta", "sqrt2", "--theta2={}"],
        "sweep-tau-grid": ["sweep", "--q", "0.5", "--theta", "0", "--tau-grid={}"],
    }

    @pytest.mark.parametrize("where", ARGV)
    @pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize("assume", ["--assume-rational", "--assume-irrational"])
    def test_is_usage_error(self, where, token, assume, capsys):
        assert run_cli([arg.format(token) for arg in self.ARGV[where]] + [assume]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: real parameter '{token}' must be finite\n"

    def test_exact_integer_past_double_range(self, capsys):
        token = "1" + "0" * 400
        assert run_cli(["verify", "--q", "0.5", "--theta", "0", "--n", "5..7",
                        f"--tau={token}"]) == 2
        assert capsys.readouterr().err == f"error: real parameter '{token}' must be finite\n"

    # a nonzero value whose double is +-0 would run as 0 (case 2 for tau), or
    # as case 4 with an exact tau that split_sums sees as 0
    @pytest.mark.parametrize("where", ARGV)
    @pytest.mark.parametrize("token", ["1e-400", "-1e-400", "1/1" + "0" * 400],
                             ids=["1e-400", "-1e-400", "1/10^400"])
    @pytest.mark.parametrize("assume", [[], ["--assume-rational"], ["--assume-irrational"]],
                             ids=["undeclared", "rational", "irrational"])
    def test_underflow_to_zero_is_usage_error(self, where, token, assume, capsys):
        assert run_cli([arg.format(token) for arg in self.ARGV[where]] + assume) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: real parameter '{token}' underflows to 0 as a double\n"

    @pytest.mark.parametrize("token", ["0", "-0", "0.0", "0/7"])
    @pytest.mark.parametrize("assume", ["--assume-rational", "--assume-irrational"])
    def test_zero_tokens_stay_accepted(self, token, assume, capsys):
        assert run_cli(["verify", "--q", "0.5", "--theta", "0", "--n", "5..7",
                        f"--tau={token}", assume]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 4


class TestNegativeTauNormalizedLaguerre:
    def test_is_usage_error(self, capsys):
        # a domain refusal, not an overflow: exit 2 and one error line that
        # names no internal function
        assert run_cli(["eval", "normalized_laguerre", "--tau=-1", "--q", "0.5", "--z", "1",
                        "--theta", "0", "--n", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "needs tau >= 0" in lines[0] and "split_sums" not in lines[0]


class TestMagnitudeBeyondDoubleRange:
    # both components are finite doubles, but |z| (or |x|) overflows: a domain
    # error at the input, never a runtime failure from abs()
    Z = "--z=1.5e308+1.5e308j"

    @pytest.mark.parametrize("argv", [
        ["verify", "--case", "4", "--q", "0.5", Z, "--tau=-1", "--theta", "1/3",
         "--n", "8..10"],
        ["sweep", "--q", "0.5", Z, "--tau-grid=-1", "--theta", "1/3", "--n", "8..10"],
        ["verify", "--case", "1", "--q", "0.5", Z, "--tau=1", "--n", "8..10"],
        ["verify", "--case", "2", "--q", "0.5", Z, "--tau", "0", "--theta", "1/3",
         "--n", "8..10"],
    ], ids=["verify-case4", "sweep", "verify-case1", "verify-case2"])
    def test_context_z(self, argv, capsys):
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "z must be finite and nonzero" in captured.err

    @pytest.mark.parametrize("fn", ["theta", "ramanujan_a", "b_function"])
    def test_series_z(self, fn, capsys):
        assert run_cli(["eval", fn, "--q", "0.5", self.Z]) == 2
        assert "z must be finite" in capsys.readouterr().err

    def test_laguerre_x(self, capsys):
        assert run_cli(["eval", "laguerre", "--q", "0.5", "--n", "3",
                        "--x=1.5e308+1.5e308j"]) == 2
        assert "x must be finite" in capsys.readouterr().err


class TestTauTimesDegreeOverflow:
    # at tau = 1e307 and q = 0.5, tau * n overflows from n = 18 on: every
    # term k >= 1 of the reversed sum is then exactly zero, so a row is its
    # term 0 alone, as row 17's is to double precision, and no cell is nan
    ARGV = ["verify", "--q", "0.5", "--z=1", "--tau=1e307", "--theta", "1/3", "--n", "17..18"]

    def test_rows_agree_but_for_n(self, capsys):
        assert run_cli(self.ARGV) == 3  # neither row is eligible
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [row.pop("n") for row in rows] == ["17", "18"]
        assert rows[0] == rows[1]
        assert rows[0]["exact_re"] == "1.0" and "nan" not in rows[0]["notes"]

    def test_json_has_no_nan(self, capsys):
        assert run_cli(self.ARGV + ["--format", "json"]) == 3
        rows = json.loads(capsys.readouterr().out,
                          parse_constant=lambda c: pytest.fail(f"{c} in JSON"))
        assert [row.pop("n") for row in rows] == [17, 18] and rows[0] == rows[1]

    def test_eval_normalized_laguerre(self, capsys):
        values = []
        for tau in ("1e307", "1e308"):
            assert run_cli(["eval", "normalized_laguerre", "--q", "0.5", "--z=1", "--n", "5",
                            f"--tau={tau}", "--theta", "1/3"]) == 0
            values.append(capsys.readouterr().out.split(" = ", 1)[1])
        assert "nan" not in values[1] and values[0] == values[1]

    def test_sweep(self, capsys):
        assert run_cli(["sweep", "--q", "0.5", "--z=1", "--tau-grid", "1e308",
                        "--theta", "1/3"]) == 0
        (row,) = csv.DictReader(capsys.readouterr().out.splitlines())
        assert math.isfinite(float(row["first_observed_error"]))


class TestPochhammerPastTheCap:
    # past MAX_TERMS = 10000 a finite order ends at the first factor from
    # which every factor is exactly 1: at q = 0.5 that is k = 53
    def test_factors_exactly_one_end_the_product(self, capsys):
        assert run_cli(["eval", "pochhammer", "--a=0.5", "--q", "0.5", "--n", "20000"]) == 0
        past = capsys.readouterr().out
        assert run_cli(["eval", "pochhammer", "--a=0.5", "--q", "0.5", "--n", "53"]) == 0
        assert past == capsys.readouterr().out.replace("n=53", "n=20000")
        assert "= 0.2887880950866024" in past

    def test_factors_not_exactly_one_within_the_cap(self, capsys):
        assert run_cli(["eval", "pochhammer", "--a=0.5", "--q", "0.999", "--n", "20000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: (a;q)_n with |a|=0.5, q=0.999, n=20000: its factors "
                                "are not all exactly 1 within 10000\n")


class TestPochhammerRange:
    def test_overflowing_product_is_a_range_error(self, capsys):
        # the product's inf * inf cross terms would print (nan+nanj)
        assert run_cli(["eval", "pochhammer", "--q", "0.5", "--n", "3",
                        "--a=1.5e308+1.5e308j"]) == 1
        captured = capsys.readouterr()
        assert "nan" not in captured.out
        assert "leaves double range" in captured.err

    @pytest.mark.parametrize("q", ["0.5", "0.99"])
    def test_infinite_order_with_overflowing_a(self, q, capsys):
        # |a| overflows though both components are finite: the same range
        # error as a finite order, not abs()'s message or the factor cap's
        assert run_cli(["eval", "pochhammer", "--q", q, "--n", "inf",
                        "--a=1.5e308+1.5e308j"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "leaves double range" in captured.err
        assert "absolute value too large" not in captured.err
