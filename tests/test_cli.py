import hashlib
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import mhmm.cli
import mhmm.fit
import mhmm.model
from mhmm import (
    MhmmModel,
    NumericalError,
    VariableScheme,
    fit_spec,
    read_model,
    read_model_spec,
    read_series_csv,
    write_model,
)
from mhmm.cli import main

TINY = (
    "latent E1 2\nobserved F1 3\nemit E1 -> F1\n"
    "option restarts 1\noption max_iter 500\noption seed 3\n"
)
TINY_FULLDEP = (
    "latent E1 2\nlatent E2 2\nobserved F1 2\nobserved F2 2\n"
    "dir E1 -> E2\ndir E2 -> E1\nbidir E1 <-> E2\n"
    "emit E1 -> F1\nemit E1 -> F2\nemit E2 -> F1\nemit E2 -> F2\n"
    "bidir F1 <-> F2\n"
    "option restarts 2\noption max_iter 120\noption seed 1\n"
)
TINY_NOGRANGER = TINY_FULLDEP.replace("dir E1 -> E2\ndir E2 -> E1\n", "")


@pytest.fixture
def tiny_model_file(tmp_path):
    lat = VariableScheme.of(("E1", 2))
    obs = VariableScheme.of(("F1", 3))
    m = MhmmModel.from_tables(
        lat,
        obs,
        np.array([[0.85, 0.15], [0.2, 0.8]]),
        np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]),
    )
    path = tmp_path / "gen.model"
    path.write_text(write_model(m))
    return path


def write_spec(tmp_path, name, text):
    path = tmp_path / f"{name}.spec"
    path.write_text(text)
    return path


def test_simulate_then_fit(tmp_path, tiny_model_file, capsys):
    sim_dir = tmp_path / "sim"
    rc = main(
        [
            "simulate",
            "--spec", str(tiny_model_file),
            "--length", "250",
            "--seed", "9",
            "--out", str(sim_dir),
        ]
    )
    assert rc == 0
    series_path = sim_dir / "series.csv"
    assert series_path.exists()
    assert series_path.read_text().splitlines()[0] == "F1"

    spec_path = write_spec(tmp_path, "tiny", TINY)
    fit_dir = tmp_path / "fit"
    rc = main(
        ["fit", "--spec", str(spec_path), "--data", str(series_path), "--out", str(fit_dir)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "tiny: loglike " in out
    for suffix in (".model", ".coefficients.txt", ".fit.txt"):
        assert (fit_dir / f"tiny{suffix}").exists()
    report = (fit_dir / "tiny.fit.txt").read_text()
    assert "converged yes" in report
    assert "model tiny" in report
    fitted = read_model((fit_dir / "tiny.model").read_text())
    assert fitted.obs_scheme == VariableScheme.of(("F1", 3))


def test_stalled_fit_reports_not_converged(tmp_path, tiny_model_file, monkeypatch):
    # every E-step reports a far lower likelihood than the one before, so no
    # damped EM step is ever accepted
    calls = itertools.count()
    real = mhmm.fit.expected_counts

    def sinking(models, series, needs_counts=None):
        # the stop rule sees the sunk log-likelihood, as with a real E-step
        shifts = [1e6 * next(calls) for _ in models]
        asks = needs_counts and (lambda r, log_lik: needs_counts(r, log_lik - shifts[r]))
        results = real(models, series, asks)
        return [
            (counts_trans, counts_emit, log_lik - shift)
            for (counts_trans, counts_emit, log_lik), shift in zip(results, shifts)
        ]

    monkeypatch.setattr(mhmm.fit, "expected_counts", sinking)
    sim_dir = tmp_path / "sim"
    main(["simulate", "--spec", str(tiny_model_file), "--length", "100", "--out", str(sim_dir)])
    spec_path = write_spec(tmp_path, "tiny", TINY)
    fit_dir = tmp_path / "fit"
    rc = main(
        ["fit", "--spec", str(spec_path), "--data", str(sim_dir / "series.csv"), "--out", str(fit_dir)]
    )
    assert rc == 0
    report = (fit_dir / "tiny.fit.txt").read_text()
    assert "converged no" in report
    assert "iterations 1" in report


def test_fit_refuses_a_recursion_beyond_the_size_limit(
    tmp_path, tiny_model_file, monkeypatch, capsys
):
    assert main(["simulate", "--spec", str(tiny_model_file), "--length", "250",
                 "--out", str(tmp_path)]) == 0
    monkeypatch.setattr(mhmm.model, "RECURSION_BYTES", 1000)
    spec_path = write_spec(tmp_path, "tiny", TINY)
    fit_dir = tmp_path / "fit"
    rc = main(["fit", "--spec", str(spec_path), "--data", str(tmp_path / "series.csv"),
               "--out", str(fit_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    # b, alpha and beta of the one restart: 3 * 250 steps * 2 states * 8 bytes
    assert err.startswith("error:domain:") and "needs 12,000 bytes" in err
    assert not (fit_dir / "tiny.model").exists()


def test_fit_outputs_are_deterministic(tmp_path, tiny_model_file):
    sim_dir = tmp_path / "sim"
    main(["simulate", "--spec", str(tiny_model_file), "--length", "150", "--out", str(sim_dir)])
    spec_path = write_spec(tmp_path, "tiny", TINY)
    outputs = []
    for sub in ("a", "b"):
        fit_dir = tmp_path / sub
        main(["fit", "--spec", str(spec_path), "--data", str(sim_dir / "series.csv"), "--out", str(fit_dir)])
        outputs.append((fit_dir / "tiny.model").read_text() + (fit_dir / "tiny.coefficients.txt").read_text())
    assert outputs[0] == outputs[1]


def test_fit_report_prints_dim_after_par(tmp_path, tiny_model_file):
    sim_dir = tmp_path / "sim"
    main(["simulate", "--spec", str(tiny_model_file), "--length", "100", "--out", str(sim_dir)])
    spec_path = write_spec(tmp_path, "tiny", TINY)
    fit_dir = tmp_path / "fit"
    main(["fit", "--spec", str(spec_path), "--data", str(sim_dir / "series.csv"), "--out", str(fit_dir)])
    report = (fit_dir / "tiny.fit.txt").read_text().splitlines()
    at = report.index("par 6")
    assert report[at + 1] == "dim 6"


def test_cli_seed_overrides_spec_option(tmp_path, tiny_model_file, capsys):
    sim_dir = tmp_path / "sim"
    main(["simulate", "--spec", str(tiny_model_file), "--length", "100", "--out", str(sim_dir)])
    spec_path = write_spec(tmp_path, "tiny", TINY)
    fit_dir = tmp_path / "fit"
    rc = main(
        [
            "fit",
            "--spec", str(spec_path),
            "--data", str(sim_dir / "series.csv"),
            "--out", str(fit_dir),
            "--seed", "77",
            "--restarts", "2",
        ]
    )
    assert rc == 0
    report = (fit_dir / "tiny.fit.txt").read_text()
    assert "seed 77" in report


def simulate_two_var_series(tmp_path):
    lat = VariableScheme.of(("E1", 2), ("E2", 2))
    obs = VariableScheme.of(("F1", 2), ("F2", 2))
    rng = np.random.default_rng(12)
    transition = np.kron(np.array([[0.8, 0.2], [0.25, 0.75]]), np.array([[0.7, 0.3], [0.2, 0.8]]))
    emission = rng.dirichlet(np.full(4, 2.0), size=4)
    m = MhmmModel.from_tables(lat, obs, transition, emission)
    path = tmp_path / "two.model"
    path.write_text(write_model(m))
    sim_dir = tmp_path / "sim2"
    main(["simulate", "--spec", str(path), "--length", "220", "--seed", "4", "--out", str(sim_dir)])
    return sim_dir / "series.csv"


def test_compare_writes_table_with_reference_first(tmp_path, capsys):
    data = simulate_two_var_series(tmp_path)
    sat = write_spec(tmp_path, "saturated", TINY_FULLDEP)
    ng = write_spec(tmp_path, "nogranger", TINY_NOGRANGER)
    cmp_dir = tmp_path / "cmp"
    rc = main(
        [
            "compare",
            "--spec", str(sat),
            "--spec", str(ng),
            "--data", str(data),
            "--out", str(cmp_dir),
        ]
    )
    assert rc == 0
    text = (cmp_dir / "comparison.txt").read_text()
    lines = text.splitlines()
    assert lines[0].split()[0] == "model"
    assert lines[2].startswith("saturated")
    assert lines[3].startswith("nogranger")
    assert lines[-1] == "reference: saturated"
    csv = (cmp_dir / "comparison.csv").read_text().splitlines()
    assert csv[0] == "model,lrt,df,p_value,par,loglike,aic,converged"
    sat_row = csv[1].split(",")
    ng_row = csv[2].split(",")
    assert int(sat_row[2]) == 0
    assert int(ng_row[2]) == int(sat_row[4]) - int(ng_row[4])
    # stdout shows the same table
    out = capsys.readouterr().out
    assert "reference: saturated" in out


def test_compare_exits_3_with_the_first_failing_spec_in_order(tmp_path, monkeypatch, capsys):
    # every restart of both Granger-restricted specs fails in its first
    # delta M-step, with a message that tells the two specs apart
    real = mhmm.fit.batched_m_step

    def failing(space, counts, mask, warm=None, **kwargs):
        if space.kind == "delta" and mask.any():
            return [NumericalError(f"forced failure {np.abs(row).sum():.6f}") for row in warm]
        return real(space, counts, mask, warm=warm, **kwargs)

    monkeypatch.setattr(mhmm.fit, "batched_m_step", failing)
    data = simulate_two_var_series(tmp_path)
    texts = {
        "saturated": TINY_FULLDEP,
        "nogranger": TINY_NOGRANGER.replace("option seed 1", "option seed 2"),
        "nogranger3": TINY_NOGRANGER.replace("option seed 1", "option seed 3"),
    }
    paths = [write_spec(tmp_path, label, text) for label, text in texts.items()]
    specs = [read_model_spec(path) for path in paths]
    series = read_series_csv(data.read_text(), specs[0].obs_scheme)
    messages = []
    for spec in specs:
        try:
            fit_spec(spec, series)
        except NumericalError as exc:
            messages.append(str(exc))
    assert len(set(messages)) == 2
    argv = ["compare", "--data", str(data), "--out", str(tmp_path / "cmp")]
    rc = main(argv + [arg for path in paths for arg in ("--spec", str(path))])
    assert rc == 3
    assert capsys.readouterr().err == f"error:numeric: {messages[0]}\n"


# sha256 of the artifacts of the fit below, recorded with the sequential
# restart loop that lock-step restarts replaced
GOLDEN_NOGRANGER = {
    ".model": "d105307dd8528c80ba521aeec88d821e0380b4d71339c9fb8268e2089b7e2b66",
    ".coefficients.txt": "52965e9b7b3871e703d844bf9ebb64486f55923dd620d3f1716c0b3973acda46",
}


def test_seeded_fit_artifacts_match_golden_digests(tmp_path):
    data = simulate_two_var_series(tmp_path)
    spec = write_spec(tmp_path, "ng", TINY_NOGRANGER)
    fit_dir = tmp_path / "fit"
    rc = main(
        ["fit", "--spec", str(spec), "--data", str(data), "--out", str(fit_dir), "--restarts", "3"]
    )
    assert rc == 0
    for suffix, digest in GOLDEN_NOGRANGER.items():
        assert hashlib.sha256((fit_dir / f"ng{suffix}").read_bytes()).hexdigest() == digest
    report = (fit_dir / "ng.fit.txt").read_text().splitlines()
    assert all(len(line.split(" ", 1)) == 2 for line in report)
    assert "best_restart 1" in report
    assert "stop_reason max_iter" in report
    restarts = [line.split() for line in report if line.startswith("restart ")]
    assert [cells[1] for cells in restarts] == ["0", "1", "2"]
    assert restarts[1][2:4] == ["loglike", "-298.7164"]
    assert all(cells[4:] == ["iterations", "120", "stop_reason", "max_iter"] for cells in restarts)


def test_compare_requires_two_specs(tmp_path, capsys):
    spec = write_spec(tmp_path, "one", TINY)
    rc = main(["compare", "--spec", str(spec), "--data", "nowhere.csv", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:parse:")


def test_compare_rejects_repeated_labels_before_reading_data(tmp_path, capsys):
    # labels are file stems, so a/ng.spec and b/ng.spec would give two rows "ng"
    argv = ["compare", "--data", "nowhere.csv", "--out", str(tmp_path / "cmp")]
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        argv += ["--spec", str(write_spec(tmp_path / sub, "ng", TINY_NOGRANGER))]
    rc = main(argv)
    assert rc == 2
    assert capsys.readouterr().err == (
        "error:parse: compare labels must be distinct; 'ng' is repeated\n"
    )
    assert not (tmp_path / "cmp").exists()


def test_count_params_output(tmp_path, capsys):
    spec = write_spec(tmp_path, "ng", TINY_NOGRANGER)
    rc = main(["count-params", "--spec", str(spec)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "total 24"
    assert out[1] == "zeroed 4"
    assert out[2] == "distinct 4"
    assert out[3] == "  granger 4"
    assert out[-1] == "free 20"


def test_independencies_output(tmp_path, capsys):
    spec = write_spec(tmp_path, "ng", TINY_NOGRANGER)
    rc = main(["independencies", "--spec", str(spec)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert "E[E1](t) _||_ E[E2](t-1) | E[E1](t-1)" in lines


GEN_SPEC = """
latent G 2
latent A 2
latent B 2
observed F1 2
observed F2 2
dir G -> A
dir G -> B
emit G -> F1
emit G -> F2
emit {a} -> F1
emit {b} -> F2
"""


def test_equivalent_reports_mapping(tmp_path, capsys):
    s1 = write_spec(tmp_path, "one", GEN_SPEC.format(a="A", b="B"))
    s2 = write_spec(tmp_path, "two", GEN_SPEC.format(a="B", b="A"))
    rc = main(["equivalent", "--spec", str(s1), "--spec", str(s2)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert "A -> B" in out
    assert "B -> A" in out
    assert "G -> G" in out


def test_equivalent_detects_mismatch(tmp_path, capsys):
    s1 = write_spec(tmp_path, "one", GEN_SPEC.format(a="A", b="B"))
    broken = GEN_SPEC.format(a="A", b="B").replace("emit G -> F1\n", "")
    s2 = write_spec(tmp_path, "two", broken)
    rc = main(["equivalent", "--spec", str(s1), "--spec", str(s2)])
    assert rc == 0
    assert "not equivalent" in capsys.readouterr().out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = write_spec(tmp_path, "bad", "latent E1 1\n")
    rc = main(["count-params", "--spec", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:parse:")


@pytest.mark.parametrize("section", ["[transition]", "[emission]", "[initial]"])
def test_simulate_rejects_nan_model_cell(tmp_path, tiny_model_file, capsys, section):
    lines = tiny_model_file.read_text().splitlines()
    cell = lines.index(section) + 1
    lines[cell] = f"{lines[cell].split()[0]} nan"
    tiny_model_file.write_text("\n".join(lines) + "\n")
    rc = main(["simulate", "--spec", str(tiny_model_file), "--length", "10", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:domain:")


@pytest.mark.parametrize("law", ["missing", "doubled", "negative"])
def test_simulate_rejects_an_initial_law_that_is_not_a_distribution(
    tmp_path, tiny_model_file, capsys, law
):
    # [initial] is the last section; each edit keeps the law invariant for
    # the transition table, and a missing section reads as all zeros
    lines = tiny_model_file.read_text().splitlines()
    start = lines.index("[initial]")
    lines, cells = lines[:start], lines[start:]
    if law != "missing":
        factor = 2.0 if law == "doubled" else -1.0
        lines.append(cells[0])
        lines += [f"{key} {factor * float(value)!r}" for key, value in map(str.split, cells[1:])]
    tiny_model_file.write_text("\n".join(lines) + "\n")
    rc = main(["simulate", "--spec", str(tiny_model_file), "--length", "10", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:domain: initial law must be")


def test_simulate_rejects_a_negative_seed(tmp_path, tiny_model_file, capsys):
    argv = ["simulate", "--spec", str(tiny_model_file), "--length", "10", "--seed", "-1"]
    rc = main(argv + ["--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == "error:domain: seed must be a nonnegative integer\n"


def test_missing_file_exit_code(tmp_path, capsys):
    rc = main(["count-params", "--spec", str(tmp_path / "absent.spec")])
    assert rc == 2


def test_unknown_command_is_parse_error(capsys):
    rc = main(["warp"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:parse:")


def test_numeric_failure_exit_code(tmp_path, tiny_model_file, monkeypatch, capsys):
    sim_dir = tmp_path / "sim"
    main(["simulate", "--spec", str(tiny_model_file), "--length", "60", "--out", str(sim_dir)])
    spec_path = write_spec(tmp_path, "tiny", TINY)

    def explode(*args, **kwargs):
        raise NumericalError("every EM restart failed numerically")

    monkeypatch.setattr(mhmm.fit, "em_fit", explode)
    monkeypatch.setattr("mhmm.modelspec.em_fit", explode)
    rc = main(
        [
            "fit",
            "--spec", str(spec_path),
            "--data", str(sim_dir / "series.csv"),
            "--out", str(tmp_path / "fit"),
        ]
    )
    assert rc == 3
    assert capsys.readouterr().err.startswith("error:numeric:")


def test_memory_error_prints_one_capacity_line(tmp_path, tiny_model_file, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(mhmm.cli, "simulate", exhausted)
    rc = main(["simulate", "--spec", str(tiny_model_file), "--length", "10", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error:capacity: Unable to allocate 74.5 GiB for an array\n"


def test_module_entry_point_runs(tmp_path):
    spec = write_spec(tmp_path, "ng", TINY_NOGRANGER)
    proc = subprocess.run(
        [sys.executable, "-m", "mhmm", "count-params", "--spec", str(spec)],
        capture_output=True,
        text=True,
        # the child imports mhmm from wherever this test process found it
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("total 24")
