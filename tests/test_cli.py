import json
import warnings

import pytest

from mixlap.cli import main, parse_config, run
from mixlap.errors import ConfigError


def test_parse_minimal_solve_config():
    cfg = parse_config(json.dumps({
        "command": "solve", "s": 0.5, "domain": [-1, 1], "n": 127,
        "f": "constant:1",
    }))
    assert cfg.command == "solve"
    assert cfg.s == 0.5
    assert cfg.n == 127


def test_parse_rejects_bad_order():
    with pytest.raises(ConfigError, match="s"):
        parse_config(json.dumps({"command": "solve", "s": 1.2}))


def test_parse_rejects_zero_nodes():
    with pytest.raises(ConfigError, match="n"):
        parse_config(json.dumps({"command": "solve", "n": 0}))


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="mystery"):
        parse_config(json.dumps({"command": "solve", "mystery": 1}))


def test_parse_rejects_bad_domain():
    with pytest.raises(ConfigError, match="domain"):
        parse_config(json.dumps({"command": "solve", "domain": [1, -1]}))


def test_parse_rejects_bad_load():
    with pytest.raises(ConfigError, match="f"):
        parse_config(json.dumps({"command": "solve", "f": "sine:3"}))


def test_parse_poly_and_csv_loads(tmp_path):
    cfg = parse_config(json.dumps({"command": "solve", "f": "poly:1,0,2"}))
    assert cfg.f == "poly:1,0,2"
    sample = tmp_path / "load.csv"
    sample.write_text("x,u\n-0.5,1.0\n0.5,1.0\n")
    cfg = parse_config(json.dumps({"command": "solve", "f": f"csv:{sample}"}))
    assert cfg.f.startswith("csv:")


def test_solve_run_emits_artifacts(tmp_path):
    cfg = parse_config(json.dumps({
        "command": "solve", "s": 0.5, "n": 31, "f": "constant:1",
        "output_dir": str(tmp_path),
    }))
    assert run(cfg) == 0
    csv = (tmp_path / "solution.csv").read_text().splitlines()
    assert len(csv) == 1 + 31
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "stiffness.txt").exists()


def test_rerun_reproduces_artifacts(tmp_path):
    doc = {"command": "solve", "s": 0.5, "n": 31, "f": "constant:1",
           "output_dir": str(tmp_path)}
    run(parse_config(json.dumps(doc)))
    first = (tmp_path / "solution.csv").read_bytes()
    (tmp_path / "solution.csv").unlink()
    run(parse_config(json.dumps(doc)))
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


def test_counterexample_summary_mentions_scale(tmp_path):
    code = main(["counterexample", "--s", "0.25", "--output-dir", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "counterexample_summary.txt").read_text()
    assert "eps0=" in text
    assert "passed" in text


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
    if s != "0.99":  # the barrier is certified up to s = 0.91
        jobs.append(["barrier"])
    for job in jobs:
        assert main(job + ["--s", s, "--output-dir", str(tmp_path / job[0])]) == 0, job


def test_barrier_dump(tmp_path):
    code = main(["barrier", "--s", "0.6", "--output-dir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "barrier.csv").read_text().splitlines()
    assert lines[0] == "x,beta,gamma,Lgamma"
    assert len(lines) == 51
    cert = (tmp_path / "certificate.txt").read_text()
    assert "C_sharp" in cert and "certificate.lgamma_min" in cert


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
])
def test_cli_reports_wrongly_typed_config_value(tmp_path, capsys, doc, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2
    assert f"error: {key}:" in capsys.readouterr().err


def test_cli_has_no_quadrature_settings(tmp_path, capsys):
    # every driver evaluates at the default QuadratureSpec
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"quad": {"tolerance": 1e-9}}))
    assert main(["verify", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2
    assert "error: quad: unknown key" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["verify", "--tolerance", "1e-9", "--output-dir", str(tmp_path)])
    assert info.value.code == 2
