"""Config grammar, pipeline validation, CLI subcommands, determinism."""

import os
import re
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

import qmlab
from qmlab.cli import load_shipped_config, main, shipped_config_names
from qmlab.config import (
    ConfigError,
    parse_config,
    parse_graph_expr,
    parse_symbol_expr,
    run,
)
from qmlab.reporting import measurements_csv, report_markdown

MINIMAL = """
[experiment]
name = mini
h_list = 2^-5 2^-6 2^-7

[stage construct]
alpha = 0.5

[stage norms]
p = inf
"""


class TestParsing:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.name == "mini"
        assert cfg.h_list == [2.0 ** -5, 2.0 ** -6, 2.0 ** -7]
        assert [s.kind for s in cfg.stages] == ["construct", "norms"]
        assert cfg.grid == {}  # defaults filled at run time

    def test_empty_file_no_pipeline(self):
        with pytest.raises(ConfigError, match="no pipeline"):
            parse_config("")

    def test_h_range_error(self):
        bad = MINIMAL.replace("2^-5 2^-6 2^-7", "1.5 0.1")
        with pytest.raises(ConfigError, match=r"h = 1\.5"):
            parse_config(bad)

    def test_h_list_bad_tokens_refused(self):
        # tokens that are not numbers used to be dropped silently
        bad = MINIMAL.replace("2^-5 2^-6 2^-7", "2^-5 0.5e x 2^-6")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert "h_list" in str(err.value)
        assert "'0.5e'" in str(err.value) and "'x'" in str(err.value)
        with pytest.raises(ConfigError, match="h_list"):
            parse_config(MINIMAL.replace("2^-5 2^-6 2^-7", "true 0.1"))

    def test_unknown_keys_with_line_numbers(self):
        text = MINIMAL + "\n[stage norms]\nbogus = 3\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "bogus" in str(err.value)
        assert "line" in str(err.value)
        # seed set nothing, so it is no longer a key
        with pytest.raises(ConfigError, match="line 4: unknown experiment key 'seed'"):
            parse_config(MINIMAL.replace("h_list", "seed = 1\nh_list"))

    def test_all_errors_collected(self):
        text = """
[experiment]
name = broken
h_list = 1.5
junk = 1

[stage norms]
p = 2
"""
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        msg = str(err.value)
        assert "junk" in msg            # unknown key
        assert "h = 1.5" in msg          # range error
        assert "needs a field" in msg    # broken chain

    def test_broken_chain(self):
        text = """
[experiment]
name = chainless
h_list = 0.1

[stage defect]
symbol = circle_minus_one
"""
        with pytest.raises(ConfigError, match="needs a field"):
            parse_config(text)

    def test_unknown_stage_and_assert_kinds(self):
        with pytest.raises(ConfigError, match="unknown stage"):
            parse_config("[experiment]\nname = x\nh_list = 0.1\n[stage warp]\n")
        with pytest.raises(ConfigError, match="unknown assertion kind"):
            parse_config(MINIMAL + "\n[assert x]\nkind = magic\n")

    def test_multi_token_assertion_kind_refused(self):
        with pytest.raises(ConfigError, match="line 13: unknown assertion kind 'flag all'"):
            parse_config(MINIMAL + "\n[assert x]\nkind = flag all\nquantity = lp_norm\n")

    def test_symbol_expressions(self):
        sym = parse_symbol_expr("contact_circle(k=2, c=1.0)")
        assert sym.label == "contact_circle(k=2, c=1.0)"
        assert parse_symbol_expr("circle_minus_one").label == "circle_minus_one"
        assert parse_symbol_expr("xi2_power(m=3)").label == "xi2^3"
        with pytest.raises(ValueError, match="unknown symbol"):
            parse_symbol_expr("warp(k=1)")
        with pytest.raises(ValueError, match="key=value"):
            parse_symbol_expr("contact_circle(2, 1.0)")
        g = parse_graph_expr("tilted_circle(tilt=0.2)")
        assert g.name == "tilted_circle"

    def test_non_integer_order_refused(self):
        # int(k) used to build contact_circle(k=1.7) as k = 1
        with pytest.raises(ValueError, match="k must be an integer, got 1.7"):
            parse_symbol_expr("contact_circle(k=1.7, c=1)")
        with pytest.raises(ValueError, match="m must be an integer"):
            parse_symbol_expr("xi2_power(m=2.5)")
        with pytest.raises(ValueError, match="k must be an integer"):
            parse_graph_expr("monomial(k=1.5, c=1.0)")
        assert parse_symbol_expr("contact_circle(k=2, c=1)").label == "contact_circle(k=2, c=1.0)"
        assert parse_symbol_expr("contact_circle(k=2.0, c=1)").label == "contact_circle(k=2, c=1.0)"

    @pytest.mark.parametrize("stage, key, bad, good", [
        ("flat_quasimode", "k", "1.5", "2.0"),
        ("cwt_norms", "k", "1.5", "1"),
        ("cwt_norms", "per_decade", "2.5", "24"),
        ("kernel", "k", "1.5", "1"),
        ("kernel", "j_list", "0 1.5", "0 2.0"),
        ("egorov", "k_list", "1 2.5", "1 2"),
        ("defect", "powers", "1 0.5", "1 0"),
    ])
    def test_fractional_stage_integer_refused(self, stage, key, bad, good):
        # int() used to run k = 1.5 as k = 1, with no error row
        extra = "symbol = xi1\n" if stage == "defect" else "k = 1\n" if key == "per_decade" else ""
        text = MINIMAL + f"\n[stage {stage}]\n{extra}{key} = {{}}\n"
        with pytest.raises(ConfigError, match=f"{key} must be an integer, got {bad.split()[-1]}"):
            parse_config(text.format(bad))
        value = parse_config(text.format(good)).stages[-1].params[key]
        values = value if isinstance(value, list) else [value]
        assert values == [int(float(v)) for v in good.split()]
        assert all(type(v) is int for v in values)

    @pytest.mark.parametrize("stage, key, bad", [
        ("construct", "alpha", "true"),
        ("construct", "alpha", "0.5x"),
        ("flat_quasimode", "sigma1_factor", "false"),
        ("flat_quasimode", "sigma2_factor", "wide"),
        ("cwt_norms", "a_min_pow", "true"),
        ("cwt_norms", "a_max", "big"),
        ("cwt_norms", "reference_a", "nan"),
        ("egorov", "tilt", "true"),
        ("egorov", "x1_list", "0.1 abc"),
        ("norms", "p", "2 true"),
    ])
    def test_non_real_stage_parameter_refused(self, stage, key, bad):
        # alpha = true used to run as alpha = 1.0, and 0.5x only failed per h
        text = MINIMAL + f"\n[stage {stage}]\n{key} = {bad}\n"
        with pytest.raises(ConfigError, match=f"line \\d+: {key} must be a real number"):
            parse_config(text)

    def test_real_stage_parameters_parsed(self):
        cfg = parse_config(MINIMAL.replace("alpha = 0.5", "alpha = 2^-1\nsmoothed_edges = true")
                           + "\n[stage cwt_norms]\nk = 1\na_max = 4\n")
        construct, norms, cwt = (s.params for s in cfg.stages)
        assert construct == {"alpha": 0.5, "smoothed_edges": True}
        assert norms["p"] == float("inf")
        assert type(cwt["a_max"]) is float and cwt["a_max"] == 4.0

    @pytest.mark.parametrize("bad", ["yes", "2", "1", "true false"])
    def test_smoothed_edges_only_true_or_false(self, bad):
        text = MINIMAL.replace("alpha = 0.5", f"alpha = 0.5\nsmoothed_edges = {bad}")
        with pytest.raises(ConfigError, match="smoothed_edges"):
            parse_config(text)

    def test_list_for_a_single_value_key_refused(self):
        with pytest.raises(ConfigError, match="alpha takes one value, got '0.5 0.25'"):
            parse_config(MINIMAL.replace("alpha = 0.5", "alpha = 0.5 0.25"))

    @pytest.mark.parametrize("expr, decimal", [
        ("-delta(p=6, k=1)", -0.16666666666666666),
        ("-delta(p=8, k=1)", -0.1875),
        ("-delta(p=inf, k=1)", -0.25),
        ("-delta(p=8, k=2)", -0.20833333333333334),
        ("-delta(p=inf, k=2)", -0.3333333333333333),
    ])
    def test_expected_from_closed_form(self, expr, decimal):
        # each closed form against the decimal the thm1 configs carried before
        text = MINIMAL + f"\n[assert s]\nkind = slope\nquantity = lp_norm\nexpected = {expr}\n"
        assert parse_config(text).assertions[0].params["expected"] == decimal

    @pytest.mark.parametrize("expr, message", [
        ("-sogge(p=8)", r"unknown closed form '-sogge\(p=8\)'"),
        ("fast", "unknown closed form 'fast'"),
        ("-delta(p=8)", r"unknown closed form '-delta\(p=8\)'"),
        ("-delta(p=7.5, k=1)", "p must be an integer, got 7.5"),
        ("-delta(p=1, k=1)", "p must be >= 2"),
        ("-delta(p=8, k=0)", "k must be >= 1"),
        ("-delta(p=8, k=one)", "could not convert"),
    ])
    def test_bad_closed_form_refused(self, expr, message):
        text = MINIMAL + f"\n[assert s]\nkind = slope\nquantity = lp_norm\nexpected = {expr}\n"
        with pytest.raises(ConfigError, match=f"line 15: {message}"):
            parse_config(text)

    @pytest.mark.parametrize("body, message", [
        # each of these used to parse: tol = true then read as 1.0 and passed the slope
        ("kind = slope\nquantity = lp_norm\nexpected = -0.2\ntol = true",
         "line 16: tol must be a real number, got True"),
        ("kind = value_max\nquantity = lp_norm\nlimit = lots",
         "line 15: limit must be a real number, got 'lots'"),
        ("kind = slope\nquantity = lp_norm\np = 6 8\nexpected = -0.2",
         "line 15: p takes one value, got '6 8'"),
        ("kind = slope\nquantity = lp_norm\nk = 1.5\nexpected = -0.2",
         "line 15: k must be an integer, got 1.5"),
        ("kind = slope\nquantity = lp_norm\np = 8",
         r"assertion 's' is missing its required keys \['expected'\]"),
        ("kind = ratio_spread\nquantity = lp_norm",
         r"assertion 's' is missing its required keys \['limit'\]"),
    ])
    def test_mistyped_or_missing_assertion_keys_refused(self, body, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(MINIMAL + f"\n[assert s]\n{body}\n")

    def test_duplicate_keys_refused(self):
        # the last value used to win silently
        with pytest.raises(ConfigError, match=r"duplicate key 'h_list' in \[experiment\]"):
            parse_config(MINIMAL.replace("h_list = 2^-5 2^-6 2^-7", "h_list = 2^-5\nh_list = 2^-6"))
        with pytest.raises(ConfigError, match=r"duplicate key 'alpha' in \[stage construct\]"):
            parse_config(MINIMAL.replace("alpha = 0.5", "alpha = 0.5\nalpha = 0.25"))
        with pytest.raises(ConfigError, match=r"duplicate key 'limit' in \[assert cap\]"):
            parse_config(MINIMAL + "\n[assert cap]\nkind = value_max\nquantity = lp_norm\n"
                                   "limit = 1\nlimit = 2\n")
        twice = MINIMAL + "\n[stage construct]\nalpha = 0.25\n\n[stage norms]\np = 2\n"
        assert [s.params for s in parse_config(twice).stages][2] == {"alpha": 0.25}


class TestShippedConfigs:
    def test_catalog_complete(self):
        assert set(shipped_config_names()) == {
            "sogge_baseline", "thm1_k1", "thm1_k2", "cwt_decay", "kernel_k1",
            "egorov_contact",
        }

    @pytest.mark.parametrize("name", ["sogge_baseline", "thm1_k1", "thm1_k2",
                                      "cwt_decay", "kernel_k1", "egorov_contact"])
    def test_all_parse(self, name):
        cfg = parse_config(load_shipped_config(name))
        assert cfg.name == name
        assert cfg.assertions


class TestRun:
    def test_report_structure_and_failure_exit(self, tmp_path):
        failing = MINIMAL + """
[assert wrong_slope]
kind = slope
quantity = lp_norm
p = inf
expected = -0.9
tol = 0.01
"""
        cfg = parse_config(failing)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run(cfg)
        assert not report.passed
        md = report_markdown(report)
        assert "FAIL" in md and "wrong_slope" in md
        csv = measurements_csv(report)
        assert csv.splitlines()[0] == "experiment,h,p,k,j,alpha,quantity,value"
        assert any("lp_norm" in line for line in csv.splitlines())

    def test_p_less_slope_over_several_p_refused(self):
        # a slope without p used to fit p = 6, 8 and inf together
        text = MINIMAL.replace("p = inf", "p = 6 8 inf") + """
[assert blended]
kind = slope
quantity = lp_norm
expected = -0.2
tol = 0.5
"""
        cfg = parse_config(text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ConfigError, match=r"p = 6, 8, inf"):
                run(cfg)

    def test_p_less_slope_over_one_p_accepted(self):
        text = MINIMAL + """
[assert only_p]
kind = slope_min
quantity = lp_norm
expected = -0.25
tol = 0.05
"""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run(parse_config(text))
        assert report.passed

    TWO_ALPHAS = MINIMAL.replace("p = inf", "p = 8") + """
[stage construct]
alpha = 0.3333333333333333

[stage norms]
p = 8

[assert blended]
kind = slope
quantity = lp_norm
p = 8
expected = -delta(p=8, k=1)
tol = 0.05
"""

    def test_slope_over_several_alpha_refused(self):
        # fitted as one power law, the six points read -0.209 and passed against -delta(8, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ConfigError, match=r"lp_norm is measured at alpha = 0\.333333, "
                                                  r"0\.5; the assertion must name one alpha"):
                run(parse_config(self.TWO_ALPHAS))

    def test_slope_at_named_alpha_selects_it(self):
        named = self.TWO_ALPHAS.replace("p = 8\nexpected", "p = 8\nalpha = 0.5\nexpected")
        alone = MINIMAL.replace("p = inf", "p = 8") + named[named.index("[assert"):]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            both, one = run(parse_config(named)), run(parse_config(alone))
        assert both.assertions[0].measured == one.assertions[0].measured
        assert both.passed

    def test_slope_over_several_k_refused(self):
        text = load_shipped_config("egorov_contact").replace(
            "h_list = 2^-6", "h_list = 2^-5 2^-6 2^-7") + """
[assert order_slope]
kind = slope
quantity = contact_order(x1=0.1)
expected = 0.0
tol = 0.01
"""
        with pytest.raises(ConfigError, match=r"at k = 1, 2; the assertion must name one k"):
            run(parse_config(text))
        report = run(parse_config(text.replace("tol = 0.01", "tol = 0.01\nk = 2")))
        assert report.passed and abs(report.assertions[-1].measured) < 1e-12

    def test_sweep_error_row_is_well_formed_csv(self):
        import csv
        import io

        # lp_norm refuses p = 0.5 at every h, with a message that contains a comma
        text = MINIMAL.replace("2^-5 2^-6 2^-7", "0.5 2^-5").replace("p = inf", "p = 2 0.5")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run(parse_config(text))
        assert "," in report.rows[1].error
        rows = list(csv.reader(io.StringIO(measurements_csv(report))))
        assert all(len(r) == len(rows[0]) for r in rows)
        assert rows[-1][-2:] == ["sweep_error", "nan"]
        assert report.rows[1].error in report_markdown(report)

    def test_stage_refusal_recorded(self):
        text = """
[experiment]
name = refusals
h_list = 0.5 2^-5

[grid]
n_max = 64

[stage construct]
alpha = 0.5

[stage norms]
p = 2
"""
        cfg = parse_config(text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run(cfg)
        # h = 2^-5 needs N = 128 > n_max: refused and recorded, sweep continues
        assert report.rows[0].error is None
        assert report.rows[1].error is not None and "UnderResolved" in report.rows[1].error


class TestCli:
    def test_construct_defect_propagate_cwt(self, tmp_path):
        field = tmp_path / "t.qmf"
        assert main(["construct", "--alpha", "0.5", "--h", "0.03125",
                     "--out", str(field)]) == 0
        out = tmp_path / "defects.csv"
        assert main(["defect", "--in", str(field), "--symbol", "circle_minus_one",
                     "--symbol2", "contact_circle(k=1, c=1.0)", "--m1", "1", "--m2", "1",
                     "--alpha", "0.5", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "h,alpha,M1,M2,defect,ratio_to_power"
        assert len(lines) == 2
        prop = tmp_path / "v.qmf"
        assert main(["propagate", "--a", "circle", "--in", str(field),
                     "--out", str(prop)]) == 0
        coeffs = tmp_path / "coeffs.csv"
        assert main(["cwt", "--in", str(prop), "--k", "1", "--per-decade", "6",
                     "--a-min-pow", "0.4", "--out", str(coeffs)]) == 0
        assert coeffs.read_text().splitlines()[0] == "a,b,j,norm"

    def test_kernel_subcommand(self, capsys):
        assert main(["kernel", "--h", "0.015625", "--j", "2", "--a", "0.5",
                     "--t", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "large_sep" in out

    def test_report_exit_codes(self, tmp_path):
        good = tmp_path / "good.cfg"
        good.write_text(MINIMAL + """
[assert slope_ok]
kind = slope
quantity = lp_norm
p = inf
expected = -0.25
tol = 0.05
""")
        assert main(["report", "--config", str(good), "--out", str(tmp_path / "r1")]) == 0
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINIMAL + """
[assert slope_bad]
kind = slope
quantity = lp_norm
p = inf
expected = -0.9
tol = 0.01
""")
        assert main(["report", "--config", str(bad), "--out", str(tmp_path / "r2")]) == 2
        broken = tmp_path / "broken.cfg"
        broken.write_text("[experiment]\nname = x\n")
        assert main(["report", "--config", str(broken)]) == 1

    def test_failing_assertion_shows_its_reason(self, tmp_path, capsys):
        two_h = tmp_path / "two_h.cfg"
        two_h.write_text(MINIMAL.replace("2^-5 2^-6 2^-7", "2^-5 2^-6") + """
[assert slope_two_h]
kind = slope
quantity = lp_norm
p = inf
expected = -0.25
tol = 0.05
""")
        assert main(["report", "--config", str(two_h), "--out", str(tmp_path / "r")]) == 2
        reason = "need >= 3 rows for a power-law fit, got 2"
        assert reason in capsys.readouterr().out
        md = (tmp_path / "r" / "mini.md").read_text()
        row = next(line for line in md.splitlines() if line.startswith("| slope_two_h "))
        assert row.endswith(f"| FAIL | ValueError: {reason} |")

    def test_unknown_shipped_config(self):
        assert main(["sweep", "--config", "no_such_config"]) == 1


def _run_sweep_subprocess(tmp_path, tag):
    out = tmp_path / tag
    subprocess.run(
        [sys.executable, "-m", "qmlab.cli", "sweep", "--config", "thm1_k1",
         "--out", str(out)],
        check=True, capture_output=True,
    )
    return (out / "thm1_k1.csv").read_bytes()


def test_library_imports_numpy_only():
    # a fresh interpreter: the CLI, a config without and a config with a wavelet
    # stage load no third-party package beside NumPy (SciPy is for the benchmark)
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from qmlab.cli import load_shipped_config\n"
        "from qmlab.config import parse_config, run\n"
        "for name in ('egorov_contact', 'cwt_decay'):\n"
        "    assert run(parse_config(load_shipped_config(name))).passed, name\n"
        "top = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(top - set(sys.stdlib_module_names) - {'qmlab', 'numpy'}))\n"
    )
    src = os.path.dirname(os.path.dirname(qmlab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env=env)
    assert out.stdout.splitlines()[-1] == "[]"


class TestDeterminism:
    def test_csv_bytes_stable_across_runs(self, tmp_path):
        a = _run_sweep_subprocess(tmp_path, "r1")
        b = _run_sweep_subprocess(tmp_path, "r2")
        assert a == b

    def test_markdown_stable_modulo_timing(self, tmp_path):
        cfg = parse_config(load_shipped_config("egorov_contact"))
        r1, r2 = run(cfg), run(cfg)
        strip = lambda text: "\n".join(l for l in text.splitlines() if "timing" not in l)
        assert strip(report_markdown(r1)) == strip(report_markdown(r2))
        assert measurements_csv(r1) == measurements_csv(r2)


class TestStageDeclarations:
    """Each stage kind is one function whose signature declares its keys."""

    KEYS = {
        "construct": {"alpha", "normalization", "smoothed_edges"},
        "flat_quasimode": {"k", "sigma1_factor", "sigma2_factor"},
        "propagate": {"graph"},
        "norms": {"p"},
        "defect": {"symbol", "symbol2", "powers"},
        "cwt_norms": {"k", "a_min_pow", "a_max", "per_decade", "reference_a"},
        "kernel": {"graph", "k", "j_list", "a_list"},
        "egorov": {"tilt", "k_list", "x1_list"},
    }
    REQUIRED = {"k": "1", "symbol": "xi1"}  # a value for each key without a default

    def test_one_function_per_kind(self):
        import inspect

        from qmlab.config import STAGE_KINDS

        assert set(STAGE_KINDS) == set(self.KEYS)
        fns = [entry[0] for entry in STAGE_KINDS.values()]
        assert len(set(fns)) == len(fns) and all(inspect.isfunction(fn) for fn in fns)
        for kind, (fn, consumes, produces) in STAGE_KINDS.items():
            assert fn.__name__ == f"_{kind}"
            assert isinstance(consumes, bool) and isinstance(produces, bool)

    @staticmethod
    def _text(value) -> str:
        if isinstance(value, tuple):
            return " ".join(str(v) for v in value)
        return str(value).lower() if isinstance(value, bool) else str(value)

    @pytest.mark.parametrize("kind", sorted(KEYS))
    def test_parse_accepts_exactly_the_declared_keys(self, kind):
        import inspect

        from qmlab.config import STAGE_KINDS

        params = list(inspect.signature(STAGE_KINDS[kind][0]).parameters.values())[1:]
        assert {p.name for p in params} == self.KEYS[kind]
        lines = [f"{p.name} = " + (self.REQUIRED[p.name] if p.default is p.empty
                                   else "xi1" if p.default is None else self._text(p.default))
                 for p in params]
        text = MINIMAL + f"\n[stage {kind}]\n" + "\n".join(lines) + "\n"
        assert set(parse_config(text).stages[-1].params) == self.KEYS[kind]
        with pytest.raises(ConfigError, match=f"unknown key 'bogus' for stage {kind}"):
            parse_config(text + "bogus = 1\n")

    def test_construct_cli_shares_the_stage_defaults(self, tmp_path):
        from qmlab.config import STAGE_KINDS, _arguments, _Context
        from qmlab.grid import write_field

        h, alpha = 2.0 ** -6, 1.0 / 3.0
        cli_out = tmp_path / "cli.qmf"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["construct", "--alpha", repr(alpha), "--h", repr(h),
                         "--out", str(cli_out)]) == 0
            cfg = parse_config(f"[experiment]\nname = c\nh_list = {h!r}\n[grid]\n"
                               f"[stage construct]\nalpha = {alpha!r}\n")
            assert cfg.grid == {}
            ctx = _Context(h, cfg.grid)
            STAGE_KINDS["construct"][0](ctx, **_arguments("construct", cfg.stages[0].params))
        write_field(ctx.fld, tmp_path / "stage.qmf")
        assert cli_out.read_bytes() == (tmp_path / "stage.qmf").read_bytes()


class TestCwtCliCells:
    def test_cells_are_plain_numbers(self, tmp_path):
        from qmlab import wavelets
        from qmlab.grid import read_field

        field = tmp_path / "t.qmf"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["construct", "--alpha", "0.5", "--h", "0.03125",
                         "--out", str(field)]) == 0
        out = tmp_path / "coeffs.csv"
        assert main(["cwt", "--in", str(field), "--k", "1", "--per-decade", "6",
                     "--a-min-pow", "0.4", "--out", str(out)]) == 0
        fld = read_field(str(field))
        h = fld.grid.h
        part = wavelets.make_partition(h, 1)
        tab = wavelets.coefficient_norm_table(
            fld, wavelets.default_wavelet(),
            wavelets.default_scale_grid(h ** 0.4, 4.0, per_decade=6), part)
        lines = out.read_text().splitlines()[1:]
        assert len(lines) == len(tab["a"]) * (part.J + 1)
        for n, line in enumerate(lines):
            i, j = divmod(n, part.J + 1)
            cells = line.split(",")
            assert len(cells) == 4 and cells[1] == "" and cells[2] == str(j)
            assert float(cells[0]) == tab["a"][i]
            assert float(cells[3]) == tab["bands"][i, j]


class TestDefectPowers:
    """Powers are pairs; a lone symbol takes only (M >= 1, 0)."""

    def _config(self, defect: str) -> str:
        return MINIMAL.replace("2^-5 2^-6 2^-7", "2^-5") + "\n[stage defect]\n" + defect

    @pytest.mark.parametrize("defect, message", [
        ("symbol = xi1\npowers = 0 0\n", r"without symbol2 .* got \[\(0, 0\)\]"),
        ("symbol = xi1\npowers = 1 2\n", r"without symbol2 .* got \[\(1, 2\)\]"),
        ("symbol = xi1\npowers = 1 0 2\n", r"powers takes \(M1, M2\) pairs, got \[1, 0, 2\]"),
        ("symbol = xi1\nsymbol2 = circle_minus_one\npowers = 1 0 1\n",
         r"powers takes \(M1, M2\) pairs, got \[1, 0, 1\]"),
    ])
    def test_refused_at_parse_time(self, defect, message):
        with pytest.raises(ConfigError, match=r"stage 3 \(defect\): " + message):
            parse_config(self._config(defect))

    def test_rows_hold_the_powers_they_name(self):
        from qmlab import quasimodes

        text = self._config("symbol = circle_minus_one\npowers = 2 0\n"
                            "\n[stage defect]\nsymbol = circle_minus_one\n"
                            "symbol2 = contact_circle(k=1, c=1.0)\npowers = 0 1 1 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = run(parse_config(text)).rows[0].measurements
            fld = quasimodes.build_t_alpha(quasimodes.TAlphaSpec(h=2.0 ** -5, alpha=0.5),
                                           quasimodes.grid_for_t_alpha(2.0 ** -5))
        p1 = parse_symbol_expr("circle_minus_one")
        p2 = parse_symbol_expr("contact_circle(k=1, c=1.0)")
        assert rows[("defect_m2_0", None, None, None, 0.5)] == quasimodes.defect(p1, fld, 2).defect
        for m1, m2 in [(0, 1), (1, 0)]:
            assert rows[(f"defect_m{m1}_{m2}", None, None, None, 0.5)] == (
                quasimodes.joint_defect(p1, p2, fld, m1, m2).defect)

    @pytest.mark.parametrize("flags, pair", [(["--m1", "0"], r"\(0, 0\)"),
                                             (["--m2", "3"], r"\(1, 3\)")])
    def test_cli_refuses_the_same_inputs(self, tmp_path, capsys, flags, pair):
        field = tmp_path / "t.qmf"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["construct", "--alpha", "0.5", "--h", "0.03125",
                         "--out", str(field)]) == 0
        capsys.readouterr()
        assert main(["defect", "--in", str(field), "--symbol", "circle_minus_one"] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(r"without symbol2 each pair of powers is \(M >= 1, 0\), got \[" + pair,
                         captured.err)


class TestRequiredKeysAndGrid:
    @pytest.mark.parametrize("stage, key", [
        ("[stage flat_quasimode]\nsigma1_factor = 3\n", "flat_quasimode"),
        ("[stage cwt_norms]\nper_decade = 12\n", "cwt_norms"),
        ("[stage defect]\npowers = 1 0\n", "defect"),
    ])
    def test_missing_required_key_refused(self, stage, key):
        name = {"defect": "symbol"}.get(key, "k")
        with pytest.raises(ConfigError,
                           match=rf"stage 3 \({key}\) is missing its required key '{name}'"):
            parse_config(MINIMAL + "\n" + stage)

    @pytest.mark.parametrize("line, message", [
        ("n_max = 2048.5", "n_max must be an integer, got 2048.5"),
        ("half_width = true", "half_width must be a real number, got True"),
        ("points_per_axis = 64.9", "points_per_axis must be an integer, got 64.9"),
        ("coverage = wide", "coverage must be a real number, got 'wide'"),
        ("n_max = 1024 2048", "n_max takes one value, got '1024 2048'"),
    ])
    def test_grid_keys_typed_at_parse_time(self, line, message):
        text = MINIMAL.replace("[stage construct]", f"[grid]\n{line}\n\n[stage construct]")
        with pytest.raises(ConfigError, match=f"line 7: {re.escape(message)}"):
            parse_config(text)

    @pytest.mark.parametrize("line", ["n_max = 32", "coverage = 9"])
    def test_fixed_n_refuses_the_lattice_rule(self, line):
        key = line.split()[0]
        text = MINIMAL.replace("[stage construct]", f"[grid]\npoints_per_axis = 64\n{line}\n\n"
                                                    "[stage construct]")
        with pytest.raises(ConfigError, match=f"points_per_axis .* combined with {key}$"):
            parse_config(text)
        fixed = MINIMAL.replace("[stage construct]", "[grid]\npoints_per_axis = 64\n"
                                                     "half_width = 6\n\n[stage construct]")
        assert parse_config(fixed).grid == {"points_per_axis": 64, "half_width": 6.0}

    def test_grid_keys_parsed(self):
        text = MINIMAL.replace("[stage construct]", "[grid]\nhalf_width = 6\ncoverage = 1.5\n"
                                                    "n_max = 4096.0\n\n[stage construct]")
        grid = parse_config(text).grid
        assert grid == {"half_width": 6.0, "coverage": 1.5, "n_max": 4096}
        assert [type(grid[k]) for k in ("half_width", "coverage", "n_max")] == [float, float, int]


class TestFieldLifetime:
    """A stage that builds a field without reading one lets the old field go first."""

    def test_flat_build_runs_after_the_old_field_is_freed(self, monkeypatch):
        from qmlab import quasimodes

        real = quasimodes.build_flat_quasimode
        built, alive = [], []

        def building(grid, k, **kwargs):
            alive.append([ref() is not None for ref in built])
            u = real(grid, k, **kwargs)
            built.append(weakref.ref(u))
            return u

        monkeypatch.setattr(quasimodes, "build_flat_quasimode", building)
        assert run(parse_config(load_shipped_config("cwt_decay"))).passed
        assert alive == [[], [False]]  # k = 1, then k = 2 with the k = 1 field dead

    def test_propagate_still_receives_the_field(self, monkeypatch):
        from qmlab import config as config_module
        from qmlab import quasimodes

        real_build, real_push = quasimodes.build_flat_quasimode, config_module.quasimode_pushforward
        built, received = [], []

        def building(grid, k, **kwargs):
            built.append(real_build(grid, k, **kwargs))
            return built[-1]

        def pushing(graph, u):
            received.append(u)
            return real_push(graph, u)

        monkeypatch.setattr(quasimodes, "build_flat_quasimode", building)
        monkeypatch.setattr(config_module, "quasimode_pushforward", pushing)
        text = ("[experiment]\nname = pushed\nh_list = 2^-4\n\n[grid]\nhalf_width = 8\n"
                "points_per_axis = 64\n\n[stage flat_quasimode]\nk = 1\n\n"
                "[stage propagate]\ngraph = circle\n\n[stage norms]\np = 2\n")
        report = run(parse_config(text))
        assert report.passed and received == built and len(built) == 1
