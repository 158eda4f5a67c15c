import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mixlap import fields
from mixlap.assembly import build_mesh, build_system
from mixlap.cli import _build_parser, _config_from_args, _json_object, _validated, main, run
from mixlap.errors import ConfigError
from mixlap.kernel import OperatorParams
from mixlap.solve import solve_dirichlet


def test_parse_minimal_solve_config():
    cfg = _validated(_json_object(json.dumps({
        "command": "solve", "s": 0.5, "domain": [-1, 1], "n": 127,
        "f": "constant:1",
    })))
    assert cfg.command == "solve"
    assert cfg.s == 0.5
    assert cfg.n == 127


def test_parse_rejects_bad_order():
    with pytest.raises(ConfigError, match="s"):
        _validated(_json_object(json.dumps({"command": "solve", "s": 1.2})))


def test_parse_rejects_zero_nodes():
    with pytest.raises(ConfigError, match="n"):
        _validated(_json_object(json.dumps({"command": "solve", "n": 0})))


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="mystery"):
        _validated(_json_object(json.dumps({"command": "solve", "mystery": 1})))


def test_parse_rejects_bad_domain():
    with pytest.raises(ConfigError, match="domain"):
        _validated(_json_object(json.dumps({"command": "solve", "domain": [1, -1]})))


def test_parse_rejects_bad_load():
    with pytest.raises(ConfigError, match="f"):
        _validated(_json_object(json.dumps({"command": "solve", "f": "sine:3"})))


def test_parse_poly_and_csv_loads(tmp_path):
    cfg = _validated(_json_object(json.dumps({"command": "solve", "f": "poly:1,0,2"})))
    assert cfg.f == "poly:1,0,2"
    sample = tmp_path / "load.csv"
    sample.write_text("x,u\n-0.5,1.0\n0.5,1.0\n")
    cfg = _validated(_json_object(json.dumps({"command": "solve", "f": f"csv:{sample}"})))
    assert cfg.f.startswith("csv:")


def test_solve_run_emits_artifacts(tmp_path):
    cfg = _validated(_json_object(json.dumps({
        "command": "solve", "s": 0.5, "n": 31, "f": "constant:1",
        "output_dir": str(tmp_path),
    })))
    assert run(cfg) == 0
    csv = (tmp_path / "solution.csv").read_text().splitlines()
    assert len(csv) == 1 + 31
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "stiffness.txt").exists()


def test_rerun_reproduces_artifacts(tmp_path):
    doc = {"command": "solve", "s": 0.5, "n": 31, "f": "constant:1",
           "output_dir": str(tmp_path)}
    run(_validated(_json_object(json.dumps(doc))))
    first = (tmp_path / "solution.csv").read_bytes()
    (tmp_path / "solution.csv").unlink()
    run(_validated(_json_object(json.dumps(doc))))
    assert (tmp_path / "solution.csv").read_bytes() == first


def test_solve_at_n_65535_writes_the_stiffness_row(tmp_path):
    n = 65535
    for out in ("a", "b"):
        assert main(["solve", "--n", str(n), "--output-dir", str(tmp_path / out)]) == 0
    a = tmp_path / "a"
    assert len((a / "solution.csv").read_text().splitlines()) == n + 1
    stiffness = (a / "stiffness.txt").read_bytes()
    assert len(stiffness) < 3_000_000
    lines = stiffness.decode().splitlines()
    assert len(lines) == n + 2
    assert lines[1] == "65535 65535 4294836225"
    assert (tmp_path / "b" / "stiffness.txt").read_bytes() == stiffness


def test_domain_accepts_negative_numbers_in_exponent_form(tmp_path):
    assert main(["solve", "--domain", "-1e6", "1e6", "--n", "15",
                 "--output-dir", str(tmp_path)]) == 0
    first = (tmp_path / "solution.csv").read_text().splitlines()[1]
    assert first.startswith("-875000,")


def test_verify_summaries_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        code = main(["verify", "--s", "0.5", "--n", "63", "--seed", "42",
                     "--output-dir", str(out)])
        assert code == 0
    assert (out1 / "verify_summary.txt").read_bytes() == \
        (out2 / "verify_summary.txt").read_bytes()


@pytest.mark.parametrize("s", ["0.3", "0.9"])
def test_barrier_artifacts_byte_identical(tmp_path, s):
    for out in ("a", "b"):
        assert main(["barrier", "--s", s, "--output-dir", str(tmp_path / out)]) == 0
    for name in ("certificate.txt", "barrier.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_counterexample_summary_mentions_scale(tmp_path):
    code = main(["counterexample", "--s", "0.25", "--output-dir", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "counterexample_summary.txt").read_text()
    assert "eps0=" in text
    assert "passed" in text


def test_general_counterexample_in_dimension_3(tmp_path):
    code = main(["counterexample", "--variant", "general", "--dimension", "3", "--s", "0.5",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "counterexample_summary.txt").read_text()
    assert "N=3, eps0=0.5; sup |(-D)^s u| = 2.773; min wrong-sign image=18.45" in text


def test_boundary_counterexample_passes_at_n_1023(tmp_path):
    code = main(["counterexample", "--variant", "boundary", "--n", "1023",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "counterexample_summary.txt").read_text()
    assert text.startswith("counterexample_boundary_only: passed")


@pytest.mark.parametrize("s", ["1e-6", "1e-9"])
def test_boundary_counterexample_gate_scales_with_the_order(tmp_path, s):
    # the interior minimum scales with c_{1,s} ~ s (-3.2e-7 at s = 1e-6),
    # so its gate is relative to the load, not an absolute -1e-6
    jobs = {"verify_summary.txt": ["verify"],
            "counterexample_summary.txt": ["counterexample", "--variant", "boundary"]}
    for summary, job in jobs.items():
        assert main(job + ["--s", s, "--n", "31", "--output-dir", str(tmp_path)]) == 0, job
        line = next(t for t in (tmp_path / summary).read_text().splitlines()
                    if t.startswith("counterexample_boundary_only: passed"))
        values = dict(w.split("=") for w in line.split()
                      if w.startswith(("measured=", "threshold=")))
        measured, threshold = float(values["measured"]), float(values["threshold"])
        assert measured < 10.0 * threshold < 0.0
        assert -threshold < 10.0 * float(s)


@pytest.mark.parametrize("s", ["0.01", "0.5", "0.99"])
def test_subcommands_run_across_the_order_range(tmp_path, s):
    jobs = [["solve", "--n", "31"], ["verify", "--n", "31"], ["counterexample"]]
    if s != "0.99":  # the barrier is certified up to s = 0.941
        jobs.append(["barrier"])
    for job in jobs:
        assert main(job + ["--s", s, "--output-dir", str(tmp_path / job[0])]) == 0, job


def test_barrier_dump(tmp_path):
    code = main(["barrier", "--s", "0.6", "--output-dir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "barrier.csv").read_text().splitlines()
    assert lines[0] == "x,beta,gamma,Lgamma"
    cert = (tmp_path / "certificate.txt").read_text()
    assert "C_sharp" in cert and "certificate.lgamma_min" in cert
    # the CSV is the grid Lgamma >= 1 was certified on, with its certified values
    values = dict(line.split(" = ") for line in cert.splitlines())
    ell = float(values["ell"])
    x, lgamma = np.array([[float(v) for v in row.split(",")] for row in lines[1:]])[:, [0, 3]].T
    assert len(lines) == 201
    assert x.tobytes() == np.geomspace(ell * 1e-3, ell * 0.99, 200).tobytes()
    assert float(f"{lgamma.min():.17g}") == float(values["certificate.lgamma_min"])


@pytest.mark.parametrize("s", ["0.99", "0.999999"])
def test_barrier_refuses_an_order_without_a_window(tmp_path, capsys, s):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # only the typed error reaches the user
        assert main(["barrier", "--s", s, "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "floor 1e-06" in err


def test_cli_reports_config_errors(capsys):
    code = main(["solve", "--s", "1.5"])
    assert code == 2
    assert "s" in capsys.readouterr().err


def test_env_var_sets_default_output_dir(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("MIXLAP_OUTPUT_DIR", str(target))
    code = main(["solve", "--s", "0.5", "--n", "15", "--f", "constant:1"])
    assert code == 0
    assert (target / "solution.csv").exists()


def test_cli_reports_a_mesh_it_cannot_allocate(tmp_path, capsys):
    # n = 2^60 - 1 can be indexed, but numpy cannot size its node array
    assert main(["solve", "--n", "1152921504606846975", "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cannot be allocated" in err


def test_cli_reports_invalid_config_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"s": 0.5,')
    assert main(["solve", "--config", str(bad), "--output-dir", str(tmp_path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_cli_reports_missing_config_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["solve", "--config", str(missing), "--output-dir", str(tmp_path)]) == 2
    assert "missing.json" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("x,u\n-0.5,1.0\n0.5,abc\n", "not numeric"),
    ("x\n-0.5\n0.5\n", "x,u samples"),
    ("x,u\n", "x,u samples"),
])
def test_cli_reports_malformed_csv_load(tmp_path, capsys, text, message):
    sample = tmp_path / "bad.csv"
    sample.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # only the typed error reaches the user
        assert main(["solve", "--f", f"csv:{sample}", "--output-dir", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("doc, key", [
    ({"s": "abc"}, "s"),
    ({"n": "x"}, "n"),
    ({"seed": [3]}, "seed"),
    ({"seed": -1}, "seed"),
    ({"dimension": None}, "dimension"),
    ({"annulus_radius": "wide"}, "annulus_radius"),
    ({"domain": ["a", 1]}, "domain"),
    ({"quad": {"panels": "x"}}, "quad"),
    ({"quad": {"tolerance": [1e-8]}}, "quad"),
    # a bool is no number, and an integer keeps no fractional part
    ({"n": 7.9}, "n"),
    ({"n": True}, "n"),
    ({"seed": 2.5}, "seed"),
    ({"dimension": 2.5}, "dimension"),
    ({"s": True}, "s"),
    ({"domain": [False, True]}, "domain"),
])
def test_cli_reports_wrongly_typed_config_value(tmp_path, capsys, doc, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2
    assert f"error: {key}:" in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    ({"n": 7.9}, "error: n: 7.9 is not an integer"),
    ({"seed": [3]}, "error: seed: [3] is not an integer"),
    ({"s": "abc"}, "error: s: 'abc' is not a number"),
    ({"domain": [0, True]}, "error: domain: True is not a number"),
])
def test_cli_words_a_wrongly_typed_value_by_its_kind(tmp_path, capsys, doc, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == message + "\n"


def test_cli_has_no_quadrature_settings(tmp_path, capsys):
    # every driver evaluates at the default QuadratureSpec
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"quad": {"tolerance": 1e-9}}))
    assert main(["verify", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2
    assert "error: quad: unknown key" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["verify", "--tolerance", "1e-9", "--output-dir", str(tmp_path)])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["solve", "--n", str(2**63)],
    ["solve", "--n", str(2**62)],
    ["counterexample", "--variant", "boundary", "--n", str(2**63)],
])
def test_cli_refuses_a_mesh_too_large_to_index(tmp_path, capsys, argv):
    assert main([*argv, "--output-dir", str(tmp_path)]) == 2
    assert "too large to index" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_cli_refuses_a_mesh_the_doubles_cannot_hold(tmp_path, capsys, command):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # only the typed error reaches the user
        assert main([command, "--domain", "1e15", "1.0000000000000002e15", "--n", "15",
                     "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: mesh spacing h = ") and err.count("\n") == 1
    assert "apart there" in err and "Traceback" not in err


def test_cli_refuses_a_poly_load_that_overflows_without_a_warning(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # only the typed error reaches the user
        assert main(["solve", "--f", "poly:1e308,1e308", "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: load function produced non-finite samples\n"


def test_parse_accepts_an_integral_float_for_an_integer():
    cfg = _validated(_json_object(json.dumps({"command": "verify", "n": 7.0, "seed": 3.0})))
    assert (cfg.n, cfg.seed) == (7, 3) and type(cfg.n) is int


@pytest.mark.parametrize("domain, message", [
    (["0", "inf"], "domain: must be finite"),
    (["-inf", "1"], "domain: must be finite"),
    (["-1e308", "1e308"], "mesh requires finite a, b and spacing h > 0"),
])
def test_cli_refuses_non_finite_domains(tmp_path, capsys, domain, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--domain", *domain, "--output-dir", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--domain", "-1e200", "1e200"], ["--f", "constant:1e200"]])
def test_cli_refuses_a_solve_that_leaves_the_double_range(tmp_path, capsys, argv):
    # the PCG inner products overflow; the refusal names that cause, not a
    # breakdown, and no numpy warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", *argv, "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "left the double range" in err
    assert "breakdown" not in err


def test_cli_solves_a_tiny_domain_at_the_load_binary_scale(tmp_path):
    # on (0, 1e-150) PCG's inner products underflow unless the load is scaled.
    # The nonlocal part carries the weight (L/2)^(2-2s) = 5e-151 here, so u is
    # the local solution x (L - x) / 2 to roundoff, and x_norm is the H^1
    # seminorm of its hat interpolant, L^1.5 sqrt((1 - (n+1)^-2) / 12)
    L = 1e-150
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in ("solve", "verify"):
            assert main([command, "--domain", "0", "1e-150", "--n", "63", "--s", "0.5",
                         "--output-dir", str(tmp_path / command)]) == 0
    doc = json.loads((tmp_path / "solve" / "report.json").read_text())
    assert doc["max_abs_u"] == pytest.approx(L * L / 8.0, rel=1e-12)
    assert doc["x_norm"] == pytest.approx(L**1.5 * math.sqrt((1.0 - 64.0**-2) / 12.0), rel=1e-12)
    assert (tmp_path / "verify" / "verify_summary.txt").read_text().endswith("all passed\n")


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_cli_refuses_a_solution_below_the_double_range(tmp_path, capsys, command):
    # on (-1e-300, 1e-300) u is about L^2/8 = 5e-601: it would read 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--domain", "-1e-300", "1e-300", "--n", "63",
                     "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the solution or its energy left the double range")
    assert err.count("\n") == 1


def _refuse_constant(name):
    raise ValueError(f"report.json holds {name}")


@pytest.mark.parametrize("domain, c", [
    (("0", "1e-100"), "1e160"),   # |f|^2 overflows
    (("0", "1e100"), "1e-165"),   # |f|^2 underflows to 0
    (("0", "1e100"), "1e-160"),   # |f|^2 is subnormal
])
def test_load_norm_holds_past_the_range_of_its_square(tmp_path, domain, c):
    # ||f||_2 of a constant load is |c| sqrt(b - a) even where c^2 leaves the
    # double range; the solve writes it silently and report.json stays JSON
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--domain", *domain, "--f", f"constant:{c}", "--n", "63",
                     "--output-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "report.json").read_text(), parse_constant=_refuse_constant)
    expected = float(c) * (float(domain[1]) - float(domain[0])) ** 0.5
    assert doc["l2_f_norm"] == pytest.approx(expected, rel=1e-12)


def test_gradient_norm_holds_past_the_range_of_its_square(tmp_path):
    # on (-1e100, 1e100) the squared steps of u ~ 1e197 overflow.  x_norm is
    # the reference solve's on (-1, 1), whose nonlocal part carries the weight
    # w = (L/2)^(2-2s), times (L/2)^1.5, and report.json stays JSON
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--domain", "-1e100", "1e100", "--n", "63", "--s", "0.99",
                     "--output-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "report.json").read_text(), parse_constant=_refuse_constant)
    half, s = 1e100, 0.99
    sys_ = build_system(build_mesh(-1.0, 1.0, 63), OperatorParams(1, s))
    ref = solve_dirichlet(replace(sys_, nonlocal_row=half ** (2.0 - 2.0 * s) * sys_.nonlocal_row),
                          fields.constant(1.0))
    assert doc["x_norm"] == pytest.approx(ref.x_norm * half**1.5, rel=1e-12)


# each command with a value for every key it reads besides output_dir; a
# counterexample reads the keys of its variant
READ_KEYS = [
    ("solve", {"s": 0.3, "domain": [0.0, 2.0], "n": 15, "f": "poly:1,2"}),
    ("barrier", {"s": 0.3}),
    ("verify", {"s": 0.3, "domain": [0.0, 2.0], "n": 15, "seed": 4}),
    ("counterexample", {"s": 0.3, "variant": "ces"}),
    ("counterexample", {"s": 0.7, "variant": "general", "dimension": 2}),
    ("counterexample", {"s": 0.3, "variant": "boundary", "n": 15, "annulus_radius": 3.0}),
]


@pytest.mark.parametrize("command, doc", READ_KEYS)
def test_each_command_accepts_the_keys_it_reads(tmp_path, command, doc):
    doc = {**doc, "output_dir": str(tmp_path / "out")}
    flags = [command]
    for key, val in doc.items():
        flags += [f"--{key.replace('_', '-')}", *map(str, val if key == "domain" else [val])]
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(doc))
    for argv in (flags, [command, "--config", str(cfg_file)]):
        cfg = _config_from_args(_build_parser().parse_args(argv))
        assert cfg.command == command
        for key, val in doc.items():
            assert getattr(cfg, key) == (tuple(val) if key == "domain" else val), (argv, key)


@pytest.mark.parametrize("command, doc, message", [
    ("solve", {"command": "solve", "dimension": 3, "variant": "ces", "n": 7},
     "variant: not read by solve"),
    ("barrier", {"s": 0.3, "n": 5, "f": "constant:2", "seed": 4, "domain": [0, 9]},
     "domain: not read by barrier"),
    # auto resolves to general at s = 1/2, and general reads no n
    ("counterexample", {"s": 0.5, "n": 255}, "n: not read by counterexample --variant general"),
    ("counterexample", {"variant": "ces", "s": 0.2, "dimension": 2},
     "dimension: not read by counterexample --variant ces"),
])
def test_a_config_key_the_command_does_not_read_is_refused(tmp_path, capsys, command, doc,
                                                          message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.glob("*.txt")) and not list(tmp_path.glob("*.csv"))
    with pytest.raises(ConfigError, match=message):
        _validated(_json_object(json.dumps({**doc, "command": command})))


def test_a_flag_the_command_does_not_read_is_refused(tmp_path, capsys):
    argv = ["barrier", "--s", "0.3", "--n", "5", "--f", "constant:2", "--seed", "4",
            "--domain", "0", "9", "--output-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments: --n 5 --f constant:2 --seed 4 --domain 0 9" in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--s", "0.5", "--n", "255"], "n: not read by counterexample --variant general"),
    (["--variant", "ces", "--s", "0.2", "--dimension", "2"],
     "dimension: not read by counterexample --variant ces"),
])
def test_a_counterexample_flag_its_variant_does_not_read_is_refused(tmp_path, capsys, argv,
                                                                     message):
    # every variant's keys have flags, so the refusal comes from the config check
    assert main(["counterexample", *argv, "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "counterexample_summary.txt").exists()


def test_cli_refuses_a_subnormal_spacing_without_a_warning(tmp_path, capsys):
    # the row's infinite entries once made the tau spectrum's transform warn
    # "invalid value" before the refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # only the typed error reaches the user
        assert main(["solve", "--domain", "0", "1e-310", "--n", "7",
                     "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("error: the tau spectrum of the Toeplitz row "
                                       "is not positive and finite\n")


def test_parser_is_built_once_and_keeps_no_state():
    assert _build_parser() is _build_parser()
    first = _build_parser().parse_args(["verify", "--seed", "3", "--s", "0.3"])
    second = _build_parser().parse_args(["verify"])
    assert (first.seed, first.s) == (3, 0.3) and (second.seed, second.s) == (None, None)


def _edge_inputs():
    """Cheap edge inputs: orders at both ends and around 1/2, subnormal and
    tiny normal orders, one to three nodes, a subnormal, an unresolvable, a
    huge and two tiny domains, an overflowing load, the barrier, the CES, boundary and 1D
    general counterexamples, and annulus radii the ring cannot resolve."""
    for i, s in enumerate(("1e-09", "0.4999999999", "0.5", "0.5000000001", "0.999999")):
        n = str(1 + i % 3)
        yield ["barrier", "--s", s]
        yield ["solve", "--s", s, "--n", n]
        yield ["verify", "--s", s, "--n", n]
        yield ["counterexample", "--variant", "ces", "--s", s]
        yield ["counterexample", "--variant", "boundary", "--s", s, "--n", n]
    for domain in (["0", "1e-310"], ["1e15", "1.0000000000000002e15"], ["-1e100", "1e100"],
                   ["0", "1e-150"], ["-1e-300", "1e-300"]):
        yield ["solve", "--domain", *domain, "--n", "1"]
        yield ["verify", "--domain", *domain, "--n", "3"]
    yield ["solve", "--domain", "-1e100", "1e100", "--n", "63", "--s", "0.99"]
    yield ["solve", "--f", "poly:1e308,1e308", "--n", "2"]
    for s in ("1e-310", "5e-324"):
        yield ["solve", "--s", s, "--n", "3"]
    for s in ("1e-09", "0.999999"):
        yield ["counterexample", "--variant", "general", "--dimension", "1", "--s", s]
    yield ["barrier", "--s", "0.942"]
    # tiny normal orders, where the ring load and PCG's inner products underflow unrescaled
    for s in ("1e-200", "1e-300"):
        yield ["counterexample", "--variant", "boundary", "--s", s, "--n", "3"]
    yield ["verify", "--s", "1e-300", "--n", "3"]
    for radius in ("inf", "1e16"):
        yield ["counterexample", "--variant", "boundary", "--annulus-radius", radius, "--n", "3"]


# the inputs of the sweep below that do not exit 0: (exit status, text on
# stdout for 1 or on stderr for 2).  Refusals by design stay; the others
# name the open work that should flip them
_KNOWN_EXITS = {
    **{("counterexample", "--variant", "ces", "--s", s): (2, "needs s in (0, 1/2)")
       for s in ("0.5", "0.5000000001", "0.999999")},
    # no scaled system for a subnormal spacing yet
    ("solve", "--domain", "0", "1e-310", "--n", "1"): (2, "tau spectrum"),
    ("verify", "--domain", "0", "1e-310", "--n", "3"): (2, "h = 2.5e-311 is subnormal"),
    ("verify", "--domain", "1e15", "1.0000000000000002e15", "--n", "3"):
        (2, "too fine for doubles"),
    # the boundary Lipschitz gate fails a bound the paper proves
    ("verify", "--domain", "-1e100", "1e100", "--n", "3"): (1, "boundary_lipschitz: FAILED"),
    ("solve", "--f", "poly:1e308,1e308", "--n", "2"): (2, "non-finite samples"),
    # u is about 5e-601, below the normal range
    ("solve", "--domain", "-1e-300", "1e-300", "--n", "1"): (2, "left the double range"),
    ("verify", "--domain", "-1e-300", "1e-300", "--n", "3"): (2, "left the double range"),
    **{("solve", "--s", s, "--n", "3"): (2, f"s = {s} is subnormal")
       for s in ("1e-310", "5e-324")},
    # ROADMAP item 2, the barrier at every order the doubles can reach,
    # should build these three
    **{("barrier", "--s", s): (2, "below the window floor 1e-06")
       for s in ("0.5000000001", "0.999999")},
    ("barrier", "--s", "0.942"): (2, "failed at every window down to the floor 1e-06"),
    ("counterexample", "--variant", "boundary", "--annulus-radius", "inf", "--n", "3"):
        (2, "annulus_radius: must be finite and exceed 1"),
    # r+1 ... r+4 round to fewer than four doubles
    ("counterexample", "--variant", "boundary", "--annulus-radius", "1e16", "--n", "3"):
        (2, "the annulus radius 1e+16 is too large"),
}


def test_cli_edge_inputs_run_or_are_refused(tmp_path, capsys):
    # every input runs, fails a named gate (exit 1) or is refused with a
    # MixlapError (exit 2): no traceback and no numpy warning
    for i, argv in enumerate(_edge_inputs()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, "--output-dir", str(tmp_path / str(i))])
        out, err = capsys.readouterr()
        expected, text = _KNOWN_EXITS.get(tuple(argv), (0, ""))
        assert code == expected, argv
        assert text in (out if code == 1 else err), argv
        assert code != 1 or "FAILED" in out, argv
        assert code != 2 or (err.startswith("error: ") and err.count("\n") == 1), argv
