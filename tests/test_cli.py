import csv
import re

import pytest

from sobrecon import bench, verify
from sobrecon.cli import main


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestVerifyCommand:
    def test_identities_suite_passes(self, capsys):
        code = main(["verify", "identities", "--seed", "7", "--trials", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS fund-int identity" in out
        assert re.search(r"\d+/\d+ checks passed", out)

    def test_roundtrip_small(self, capsys):
        code = main(["verify", "roundtrip", "--trials", "5"])
        assert code == 0
        assert "roundtrip-forward N=3" in capsys.readouterr().out

    @pytest.mark.parametrize("suite", ["roundtrip", "identities", "optimality", "all"])
    @pytest.mark.parametrize("flag, value, word", [
        pytest.param("--trials", "0", "trial", id="0"),
        pytest.param("--trials", "-1", "trial", id="-1"),
        pytest.param("--seed", "-19", "seed", id="seed=-19"),
    ])
    def test_no_trials_exits_2_before_any_suite(self, suite, flag, value, word, capsys):
        # zero trials would pass every check vacuously; a negative seed is
        # refused for every suite alike, although roundtrip offsets each
        # configuration's seed above zero
        code = main(["verify", suite, flag, value])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("error: ") and word in err and value in err
        assert out == ""

    @pytest.mark.parametrize("measured, shown", [(float("nan"), "nan"), (1e-9, "1.00e-09")])
    def test_nan_or_inexact_measurement_fails_its_line(self, measured, shown, capsys,
                                                        monkeypatch):
        # every coeff_distance after the first (an exact 0) reads `measured`:
        # a NaN must fail as a value above the bound does, not be dropped
        real = verify.coeff_distance
        calls = []

        def distance(f, g):
            calls.append(None)
            return real(f, g) if len(calls) == 1 else measured

        monkeypatch.setattr(verify, "coeff_distance", distance)
        code = main(["verify", "roundtrip", "--trials", "2"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert lines[0] == f"FAIL roundtrip-forward N=1 delta=(2,) (max coeff err {shown})"
        assert all(ln.startswith("FAIL ") and ln.endswith(f"(max coeff err {shown})")
                   for ln in lines[:-1])
        assert lines[-1] == "0/12 checks passed"

    def test_all_prints_twenty_named_lines_in_order(self):
        # names only: the measured numbers depend on the BLAS
        names = [r.name for r in verify.run_suite("all", trials=1)]
        assert names == [
            *(f"roundtrip-{way} N={n} delta={delta}" for n, delta in (
                (1, (2,)), (1, (3,)), (2, (2, 1)), (2, (3, 3)), (3, (1, 2, 1)), (3, (2, 1, 3)))
              for way in ("forward", "inverse")),
            "fund-int identity (k <= top <= 4)",
            "fundamental-theorem roundtrip (delta = e_k)",
            "reconstruction linearity",
            "norm ratio empirically bounded",
            "trace-norm roundtrip",
            "L2 optimality of Legendre projection",
            "L2 optimality of step projection",
            "dc-norm optimality of trace projection",
        ]


class TestExpandCommand:
    def test_example1_terms_sum_to_value(self, capsys):
        code = main(["expand", "--example", "example1-1d", "--point", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("\n(") >= 0
        rows = [ln for ln in out.splitlines() if ln.strip().startswith("(")]
        assert len(rows) == 6  # orders 0..5
        gap = float(out.split("difference")[1].strip())
        assert gap <= 1e-8

    @pytest.mark.parametrize("delta", ["2,0", "0,3"])
    def test_example2_partial_orders_sum_to_value(self, delta, capsys):
        # order 0 on one axis puts identity axes and pinned faces into
        # term_at_point's trace reads
        code = main(["expand", "--example", "example2-2d", "--point", "0.25,-0.5",
                     "--delta", delta])
        out = capsys.readouterr().out
        assert code == 0
        assert float(out.split("difference")[1].strip()) <= 1e-12

    def test_rejects_bad_point(self, capsys):
        code = main(["expand", "--example", "example1-1d", "--point", "0.5,0.5"])
        assert code == 2

    @pytest.mark.parametrize("example, point, want", [
        ("example1-1d", "0.5,0.5", "point needs 1 coordinates, got 2"),
        ("example2-2d", "0.25", "point needs 2 coordinates, got 1"),
        ("example1-1d", "1.5", "outside domain on axis 0: 1.5"),
        ("example2-2d", "0.25,-1.5", "outside domain on axis 1: -1.5"),
    ])
    def test_refused_point_prints_only_the_error(self, example, point, want, capsys):
        # the point is checked before the table title and header are printed
        code = main(["expand", "--example", example, "--point", point])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and want in err


    @pytest.mark.parametrize("example, point, delta, want", [
        ("example1-1d", "0.5", "6", "expansion order (6,) exceeds smoothness (5,)"),
        ("example2-2d", "0.25,-0.5", "4,1", "expansion order (4, 1) exceeds smoothness (3, 3)"),
        # with a bad point as well, the order is refused first
        ("example1-1d", "1.5", "6", "expansion order (6,) exceeds smoothness (5,)"),
        ("example2-2d", "0.25", "4,1", "expansion order (4, 1) exceeds smoothness (3, 3)"),
    ])
    def test_order_above_smoothness_prints_only_the_error(self, example, point, delta,
                                                          want, capsys):
        code = main(["expand", "--example", example, "--point", point, "--delta", delta])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == f"error: {want}\n"


class TestSweepCommand:
    def test_writes_csv_and_reports_slope(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = main([
            "sweep", "--example", "example1-1d", "--method", "step",
            "--gamma", "1", "--cells", "4,8,16", "--out", str(out_dir),
        ])
        assert code == 0
        path = out_dir / "example1-1d_step_gamma1.csv"
        rows = read_csv_rows(path)
        assert rows[0] == ["param", "l2_error", "s_error", "w_error", "runtime_s"]
        assert [r[0] for r in rows[1:]] == ["4", "8", "16"]
        assert "L2 slope" in capsys.readouterr().out

    def test_byte_identical_rerun_modulo_runtime(self, tmp_path):
        args = ["sweep", "--example", "example2-2d", "--method", "step",
                "--gamma", "3,3", "--cells", "2,4"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        name = "example2-2d_step_gamma3-3.csv"
        rows_a = read_csv_rows(out_a / name)
        rows_b = read_csv_rows(out_b / name)
        for ra, rb in zip(rows_a, rows_b):
            assert ra[:4] == rb[:4]  # identical bytes apart from runtime_s


class TestReproduceCommand:
    def test_fig4_reports_exact_recovery(self, tmp_path, capsys):
        code = main(["reproduce", "fig4", "--out", str(tmp_path),
                     "--cells", "2,4,8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS fig4 exact recovery at K=4 (L2)" in out
        assert "PASS fig4 exact recovery at K=4 (S)" in out
        assert (tmp_path / "example2-2d_step_gamma3-3.csv").exists()

    def test_failed_point_prints_every_criteria_line(self, tmp_path, capsys, monkeypatch):
        # one failed point in the slope window fails the slope rows that read
        # it, with fit_slope's reason; every other row is still printed
        real = bench.bundle_errors

        def fail_at_64(u, bundle):
            # the top trace of a fig1 bundle has the sweep's Legendre degree
            if bundle.order == (5,) and bundle.entries[(5,)].degree == (64,):
                raise RuntimeError("no point")
            return real(u, bundle)

        monkeypatch.setattr(bench, "bundle_errors", fail_at_64)
        code = main(["reproduce", "fig1", "--degrees", "16,32,64", "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 1
        assert err == ""
        assert "  point 64 failed: RuntimeError: no point\n" in out
        lines = out.split("\nfig1 criteria:\n")[1].splitlines()
        reason = "(window (16, 256) contains zero/invalid errors)"
        assert [ln.split(" (")[0] for ln in lines] == [
            "  PASS fig1 L2 slope gamma=0", "  FAIL fig1 L2 slope gamma=5",
            "  FAIL fig1 S slope gamma=5", "  PASS fig1 S non-decreasing gamma=0"]
        assert lines[1].endswith(reason) and lines[2].endswith(reason)

    def test_zero_first_error_prints_every_criteria_line(self, tmp_path, capsys, monkeypatch):
        # a hold row whose first error reads 0 fails alone; the others print
        real = bench.bundle_errors

        def zero_s_at_2(u, bundle):
            l2, s, w = real(u, bundle)
            at_2 = bundle.order == (0,) and bundle.entries[(0,)].degree == (2,)
            return (l2, 0.0, w) if at_2 else (l2, s, w)

        monkeypatch.setattr(bench, "bundle_errors", zero_s_at_2)
        code = main(["reproduce", "fig1", "--degrees", "2,16,32,64", "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 1
        assert err == ""
        lines = out.split("\nfig1 criteria:\n")[1].splitlines()
        assert [ln.split(" (")[0] for ln in lines] == [
            "  PASS fig1 L2 slope gamma=0", "  PASS fig1 L2 slope gamma=5",
            "  PASS fig1 S slope gamma=5", "  FAIL fig1 S non-decreasing gamma=0"]
        assert lines[3].endswith("(first error is 0, last/first is undefined)")

    @pytest.mark.parametrize("argv, need", [
        (["reproduce", "fig4", "--cells", "2,8"], "read K=4"),
        (["reproduce", "fig1", "--degrees", "2,4,8,16,32"], "[16, 256] and need at least 3"),
        (["reproduce", "fig2", "--cells", "8,16,32"], "[16, 256] and need at least 3"),
        (["reproduce", "fig3", "--degrees", "2,4,64"], "[2, 32] and need at least 3"),
        (["reproduce", "fig2", "--cells", "64,32,16"], "must increase strictly"),
    ])
    def test_parameters_the_criteria_cannot_read_exit_2(self, argv, need, tmp_path, capsys):
        # the criteria need K=4 (fig4) or three points in the slope window;
        # without them the figure is refused before any point runs
        code = main(argv + ["--out", str(tmp_path / "results")])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("error: ") and need in err
        assert out == ""
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["reproduce", "fig2", "--degrees", "2,4"], "--degrees"),
        (["reproduce", "fig1", "--cells", "2,4"], "--cells"),
        (["sweep", "--example", "example1-1d", "--method", "step", "--degrees", "4,8"],
         "--degrees"),
        (["sweep", "--example", "example1-1d", "--method", "legendre", "--cells", "4,8"],
         "--cells"),
    ])
    def test_other_methods_parameter_flag_exits_2(self, argv, flag, tmp_path, capsys):
        code = main(argv + ["--out", str(tmp_path / "results")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("argv", [
        ["reproduce", "fig1", "--degrees", "2,4,8", "--quad-panels", "8"],
        ["reproduce", "fig2", "--cells", "2,4,8", "--quad-nodes", "8"],
        ["sweep", "--example", "example1-1d", "--method", "legendre", "--degrees", "2,4",
         "--quad-nodes", "0"],
        ["sweep", "--example", "example1-1d", "--method", "legendre", "--degrees", "2,4",
         "--quad-nodes", "24"],
        ["sweep", "--example", "example2-2d", "--method", "step", "--cells", "2,4",
         "--quad-panels", "4"],
    ])
    def test_quadrature_size_refused_before_any_point(self, argv, tmp_path, capsys):
        # reproduce and sweep run fixed rules and take no size, whatever its
        # value: the parser refuses the flag before any point runs
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "results")])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert "unrecognized arguments: --quad-" in err
        assert out == ""
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--example", "example1-1d", "--method", "step", "--cells", "0,2,4"],
        ["sweep", "--example", "example1-1d", "--method", "legendre", "--degrees=-1,2,4"],
        ["reproduce", "fig2", "--cells", "0,2,4"],
    ])
    def test_parameter_below_the_methods_least_exits_2(self, argv, tmp_path, capsys):
        code = main(argv + ["--out", str(tmp_path / "results")])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("error: ") and "needs parameters >=" in err
        assert "param=" not in out and "failed" not in out
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("gamma", ["6", "4,6"])
    def test_order_above_smoothness_exits_2(self, gamma, tmp_path, capsys):
        example = "example1-1d" if "," not in gamma else "example2-2d"
        code = main(["sweep", "--example", example, "--method", "step", "--gamma", gamma,
                     "--cells", "2,4,8", "--out", str(tmp_path / "results")])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("error: ") and "exceeds smoothness" in err
        assert "param=" not in out and "failed" not in out
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("flag", ["--quad-nodes", "--quad-panels"])
    def test_expand_refuses_zero_quadrature_size(self, flag, capsys):
        code = main(["expand", "--example", "example1-1d", "--point", "0.5", flag, "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_expand_refuses_a_point_outside_the_domain(self, capsys):
        code = main(["expand", "--example", "example1-1d", "--point", "1.5"])
        assert code == 2
        assert "outside domain" in capsys.readouterr().err

    def test_unknown_example_exits_2(self, capsys):
        code = main(["sweep", "--example", "nope", "--method", "step"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
