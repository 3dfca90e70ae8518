import json
import os

import numpy as np
import pytest

import qozcp.cli
from qozcp.ambiguity import AmbiguitySurface, DelayDopplerGrid, ambiguity_surface
from qozcp.cli import (
    main,
    read_archive,
    write_archive,
    write_surface_table,
)
from qozcp.sequences import cross_correlation
from qozcp.solver import SolverConfig, solve
from qozcp.waveform import golay_pair, ptm_a_schedule

from oracles import write_surface_table_per_cell


def _design(tmp_path, name="pair.json", extra=()):
    out = tmp_path / name
    rc = main([
        "design", "--length", "16", "--zone", "8", "--seed", "3",
        "--max-iter", "40", "--out", str(out), *extra,
    ])
    assert rc == 0
    return out


def test_design_writes_archive(tmp_path, capsys):
    out = _design(tmp_path)
    assert out.exists()
    doc = json.loads(out.read_text())
    assert doc["format_version"] == 1
    assert doc["L"] == 16 and doc["Z"] == 8
    assert len(doc["x"]) == 16 and len(doc["y"]) == 16
    assert "max_cross_correlation_in_zone" in doc["metrics"]
    assert doc["config"]["target"] == SolverConfig(L=16, Z=8).target
    stdout = capsys.readouterr().out
    assert "wrote" in stdout
    assert "max_complementary_sidelobe_in_zone" in stdout
    assert "stop: target after 14 iterations" in stdout


def test_design_target_flag(tmp_path, capsys):
    out = _design(tmp_path, extra=("--target", "1e-3"))
    doc = json.loads(out.read_text())
    assert doc["config"]["target"] == 1e-3
    iterations = len(doc["objective_history"]) - 1
    assert iterations < 40
    assert f"stop: target after {iterations} iterations" in capsys.readouterr().out
    assert doc["metrics"]["max_complementary_sidelobe_in_zone"] <= 1e-3
    assert doc["metrics"]["max_cross_correlation_in_zone"] <= 1e-3


def test_archive_round_trip_is_lossless(tmp_path):
    config = SolverConfig(L=16, Z=8, seed=1, max_iter=20)
    pair, state = solve(config)
    path = tmp_path / "a.json"
    write_archive(str(path), pair, config, metrics={},
                  objective_history=state.objective_history)
    loaded, doc = read_archive(str(path))
    assert np.array_equal(loaded.x, pair.x)
    assert np.array_equal(loaded.y, pair.y)
    # re-serializing the loaded pair byte-matches the original archive
    path2 = tmp_path / "b.json"
    write_archive(str(path2), loaded, config, metrics={},
                  objective_history=doc["objective_history"])
    assert path.read_bytes() == path2.read_bytes()


def test_design_deterministic_given_flags(tmp_path):
    a = _design(tmp_path, "a.json")
    b = _design(tmp_path, "b.json")
    assert a.read_bytes() == b.read_bytes()


def test_design_restarts_keep_best(tmp_path):
    single = _design(tmp_path, "one.json")
    multi = _design(tmp_path, "many.json", extra=("--restarts", "3"))
    obj_one = json.loads(single.read_text())["objective_history"][-1]
    obj_many = json.loads(multi.read_text())["objective_history"][-1]
    assert obj_many <= obj_one


def test_design_restarts_record_winning_seed(tmp_path):
    out = tmp_path / "r.json"
    assert main(["design", "--length", "16", "--zone", "8", "--seed", "2",
                 "--restarts", "3", "--max-iter", "40", "--out", str(out)]) == 0
    finals = {seed: solve(SolverConfig(L=16, Z=8, seed=seed, max_iter=40))[1]
              .objective_history[-1] for seed in (2, 3, 4)}
    winner = min(finals, key=finals.get)
    assert winner != 2      # a later restart wins, so the base seed would be wrong
    assert json.loads(out.read_text())["config"]["seed"] == winner


def test_design_rejects_papr_flag_in_unimodular_mode(tmp_path):
    out = tmp_path / "x.json"
    rc = main([
        "design", "--length", "16", "--zone", "8", "--mode", "unimodular",
        "--papr", "3", "--out", str(out),
    ])
    assert rc == 2
    assert not out.exists()


def test_design_rejects_bad_zone(tmp_path):
    out = tmp_path / "x.json"
    rc = main(["design", "--length", "16", "--zone", "17", "--out", str(out)])
    assert rc != 0
    assert not out.exists()


def test_evaluate_golay_outputs(tmp_path):
    prefix = tmp_path / "ev"
    rc = main([
        "evaluate", "--pair", "golay:16", "--zone", "8",
        "--out-prefix", str(prefix),
    ])
    assert rc == 0
    aaf = (tmp_path / "ev_aaf.csv").read_text().splitlines()
    assert aaf[0] == "k,theta,re,im,modulus"
    assert len(aaf) == 1 + 15 * 512
    assert (tmp_path / "ev_caf.csv").exists()
    metrics = json.loads((tmp_path / "ev_metrics.json").read_text())
    assert metrics["max_complementary_sidelobe_in_zone"] < 1e-10
    assert metrics["max_caf_omega2"] >= 1.0


def test_evaluate_surface_values_parse_losslessly(tmp_path):
    prefix = tmp_path / "ev"
    main(["evaluate", "--pair", "golay:8", "--zone", "4", "--pri", "4",
          "--doppler-samples", "3", "--out-prefix", str(prefix)])
    rows = (tmp_path / "ev_aaf.csv").read_text().splitlines()[1:]
    from qozcp.ambiguity import DelayDopplerGrid, ambiguity_surface
    from qozcp.waveform import golay_pair, ptm_a_schedule

    grid = DelayDopplerGrid.zone(4, 3.0, 3)
    surf = ambiguity_surface(ptm_a_schedule(golay_pair(8), 4), 0, 0, grid)
    for idx, row in enumerate(rows):
        k, theta, re, im, mod = row.split(",")
        i, j = divmod(idx, 3)
        assert int(k) == grid.delays[i]
        assert float(theta) == grid.dopplers[j]
        assert complex(float(re), float(im)) == complex(surf.values[i, j])


def test_evaluate_siso_has_no_caf(tmp_path):
    prefix = tmp_path / "s"
    rc = main(["evaluate", "--pair", "golay:16", "--zone", "8",
               "--schedule", "ptm-siso", "--out-prefix", str(prefix)])
    assert rc == 0
    assert (tmp_path / "s_aaf.csv").exists()
    assert not (tmp_path / "s_caf.csv").exists()


def test_evaluate_missing_archive_exits_2(tmp_path):
    rc = main(["evaluate", "--pair", str(tmp_path / "nope.json"),
               "--zone", "4", "--out-prefix", str(tmp_path / "o")])
    assert rc == 2
    assert list(tmp_path.iterdir()) == []


def test_evaluate_corrupt_archive_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"L\": 4}")
    rc = main(["evaluate", "--pair", str(bad), "--zone", "2",
               "--out-prefix", str(tmp_path / "o")])
    assert rc == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def test_evaluate_accepts_archive(tmp_path):
    archive = _design(tmp_path)
    prefix = tmp_path / "arch"
    rc = main(["evaluate", "--pair", str(archive), "--out-prefix", str(prefix)])
    assert rc == 0
    metrics = json.loads((tmp_path / "arch_metrics.json").read_text())
    assert metrics["peak_value"] > 0


def test_compare_pair_with_itself(tmp_path, capsys):
    rc = main(["compare", "--pair", "golay:16", "--pair", "golay:16",
               "--zone", "8"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    for line in lines:
        cols = line.split()
        assert cols[-1] == cols[-2]


def test_compare_golay_vs_designed(tmp_path, capsys):
    archive = _design(tmp_path)
    rc = main(["compare", "--pair", "golay:16", "--pair", str(archive)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max cross-correlation" in out


def test_compare_requires_zone_source(tmp_path):
    rc = main(["compare", "--pair", "golay:16", "--pair", "golay:16"])
    assert rc == 2


def _two_zone_archives(tmp_path):
    a = _design(tmp_path, "z8.json")
    b = tmp_path / "z4.json"
    assert main(["design", "--length", "16", "--zone", "4", "--seed", "3",
                 "--max-iter", "40", "--out", str(b)]) == 0
    return a, b


def test_compare_archives_with_different_zones_need_zone(tmp_path, capsys):
    a, b = _two_zone_archives(tmp_path)
    capsys.readouterr()
    assert main(["compare", "--pair", str(a), "--pair", str(b)]) == 2
    assert "archives disagree on Z" in capsys.readouterr().err


def test_compare_zone_overrides_archives_with_different_zones(tmp_path, capsys):
    a, b = _two_zone_archives(tmp_path)
    capsys.readouterr()
    assert main(["compare", "--pair", str(a), "--pair", str(b), "--zone", "6"]) == 0
    row = capsys.readouterr().out.splitlines()[2]
    assert row.startswith("max cross-correlation (|k|<Z)")
    # both columns are read inside the --zone, not either archive's zone
    for col, path in zip(row.split()[-2:], (a, b)):
        pair, _ = read_archive(str(path))
        c = cross_correlation(pair.x, pair.y)
        assert float(col) == pytest.approx(float(np.max(np.abs(c[16 - 6:15 + 6]))), rel=1e-5)


def test_compare_length_mismatch(tmp_path):
    rc = main(["compare", "--pair", "golay:8", "--pair", "golay:16",
               "--zone", "4"])
    assert rc == 2


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("QOZCP_OUT_DIR", str(tmp_path))
    rc = main(["design", "--length", "16", "--zone", "8", "--seed", "0",
               "--max-iter", "10", "--out", "rel.json"])
    assert rc == 0
    assert (tmp_path / "rel.json").exists()


def test_bad_golay_spec_exits_2():
    rc = main(["evaluate", "--pair", "golay:12", "--zone", "4",
               "--out-prefix", "/tmp/should_not_exist"])
    assert rc == 2


def test_usage_error_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in (["design", "--length", "16"], ["compare", "--pair", "golay:16"],
                 ["compare"] + ["--pair", "golay:16"] * 3):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: qozcp")
        if argv[0] == "compare":
            assert "error: compare needs exactly two --pair inputs" in err
    assert list(tmp_path.iterdir()) == []


def test_design_default_papr_cap_fits_short_sequences(tmp_path):
    # The default cap is min(5, L): a cap above L is invalid, and L never binds.
    out = tmp_path / "short.json"
    assert main(["design", "--length", "4", "--zone", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["p_r"] == 4.0


def test_evaluate_csv_and_metrics_share_one_modulus(tmp_path):
    prefix = tmp_path / "ev"
    assert main(["evaluate", "--pair", "golay:64", "--zone", "30", "--pri", "1024",
                 "--out-prefix", str(prefix)]) == 0
    rows = (tmp_path / "ev_caf.csv").read_text().splitlines()[1:]
    csv_max = max(float(row.rsplit(",", 1)[1]) for row in rows)
    metrics = json.loads((tmp_path / "ev_metrics.json").read_text())
    assert csv_max == metrics["max_caf_omega2"]


def test_console_entry_point():
    import re
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^qozcp\s*=\s*"qozcp\.cli:main"\s*$', scripts, re.M)

    # The script is on PATH only after an install; a plain checkout runs the
    # same main through the package's __main__.
    script = shutil.which("qozcp")
    cmd = [script] if script else [sys.executable, "-m", "qozcp"]
    res = subprocess.run([*cmd, "--help"], capture_output=True, text=True)
    assert res.returncode == 0
    assert "design" in res.stdout and "evaluate" in res.stdout


def _set_entry(doc, value):
    doc["x"][3] = value


# Each case turns a valid L=16, Z=8 archive into a malformed one.
MALFORMED_ARCHIVES = {
    "nan_entry": lambda doc: _set_entry(doc, [float("nan"), 0.0]),
    "one_element_entry": lambda doc: _set_entry(doc, [1.0]),
    "x_not_a_list": lambda doc: doc.update(x=1.0),
    "non_integer_z": lambda doc: doc.update(Z=7.5),
    "z_above_l": lambda doc: doc.update(Z=17),
    "future_format_version": lambda doc: doc.update(format_version=99),
    # both compare equal to 1
    "boolean_format_version": lambda doc: doc.update(format_version=True),
    "float_format_version": lambda doc: doc.update(format_version=1.0),
    "boolean_entry": lambda doc: _set_entry(doc, [True, False]),
    "integer_beyond_float_entry": lambda doc: _set_entry(doc, [10 ** 400, 0]),
    # finite, but its correlations overflow
    "overflowing_entry": lambda doc: _set_entry(doc, [1e308, -1e308]),
    "l_differs_from_length": lambda doc: doc.update(L=15),
    # returned, so it replaces the document
    "top_level_array": lambda doc: [doc],
}


@pytest.mark.parametrize("command", ["evaluate", "compare"])
@pytest.mark.parametrize("case", sorted(MALFORMED_ARCHIVES))
def test_malformed_archive_exits_2(tmp_path, command, case):
    config = SolverConfig(L=16, Z=8)
    path = tmp_path / "bad.json"
    write_archive(str(path), golay_pair(16), config, metrics={})
    doc = json.loads(path.read_text())
    doc = MALFORMED_ARCHIVES[case](doc) or doc
    path.write_text(json.dumps(doc))
    if command == "evaluate":
        argv = ["evaluate", "--pair", str(path), "--out-prefix", str(tmp_path / "o")]
    else:
        argv = ["compare", "--pair", str(path), "--pair", "golay:16"]
    assert main(argv) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


@pytest.mark.parametrize("argv", [
    ["design", "--length", "1", "--zone", "2", "--out", "{d}/a.json"],
    ["design", "--length", "16", "--zone", "8", "--alpha", "2", "--out", "{d}/a.json"],
    ["design", "--length", "16", "--zone", "8", "--papr", "nan", "--out", "{d}/a.json"],
    ["design", "--length", "16", "--zone", "8", "--max-iter", "-5", "--out", "{d}/a.json"],
    ["design", "--length", "16", "--zone", "8", "--tol", "nan", "--out", "{d}/a.json"],
    ["design", "--length", "16", "--zone", "8", "--target", "-1", "--out", "{d}/a.json"],
    ["design", "--length", "16", "--zone", "8", "--target", "nan", "--out", "{d}/a.json"],
    ["design", "--length", "16", "--zone", "8", "--target", "inf", "--out", "{d}/a.json"],
    ["design", "--length", "16", "--zone", "8", "--tol", "inf", "--out", "{d}/a.json"],
    ["design", "--length", "16", "--zone", "8", "--seed", "-1", "--out", "{d}/a.json"],
    ["design", "--length", "16", "--zone", "8", "--out", ""],
    ["evaluate", "--pair", "golay:16", "--zone", "8", "--out-prefix", ""],
    ["evaluate", "--pair", "golay:16", "--zone", "8", "--doppler-samples", "0",
     "--out-prefix", "{d}/e"],
    ["evaluate", "--pair", "golay:16", "--zone", "8", "--doppler-max", "nan",
     "--out-prefix", "{d}/e"],
    ["evaluate", "--pair", "golay:16", "--zone", "8", "--schedule", "ptm-siso",
     "--pri", "0", "--out-prefix", "{d}/e"],
    ["compare", "--pair", "golay:16", "--pair", "golay:16", "--zone", "17"],
    ["evaluate", "--pair", "golay:abc", "--zone", "4", "--out-prefix", "{d}/e"],
    ["design", "--length", "16", "--zone", "8", "--restarts", "0", "--out", "{d}/a.json"],
    ["design", "--length", "4", "--zone", "2", "--papr", "7", "--out", "{d}/a.json"],
    ["evaluate", "--pair", "golay:8", "--doppler-max", "-1", "--out-prefix", "{d}/e"],
], ids=["length-1", "alpha-2", "papr-nan", "max-iter-negative", "tol-nan",
        "target-negative", "target-nan", "target-inf", "tol-inf", "seed-negative", "out-empty",
        "out-prefix-empty", "doppler-samples-0", "doppler-max-nan", "siso-pri-0", "compare-zone-above-l",
        "golay-length-not-a-number", "restarts-0", "papr-above-l", "doppler-max-negative"])
def test_bad_flags_exit_2(tmp_path, monkeypatch, argv):
    # An empty output path would resolve in the working directory.
    monkeypatch.chdir(tmp_path)
    assert main([a.format(d=tmp_path) for a in argv]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, blamed", [
    (["evaluate", "--pair", "{d}/big.json", "--out-prefix", "{d}/e"], "pair '"),
    (["compare", "--pair", "{d}/big.json", "--pair", "golay:16"], "pair '"),
    (["evaluate", "--pair", "golay:16", "--doppler-max", "inf", "--out-prefix", "{d}/e"],
     "doppler values"),
    # finite phases theta, but theta * n overflows at the last PRI
    (["evaluate", "--pair", "golay:16", "--zone", "8", "--doppler-max", "1e308",
      "--out-prefix", "{d}/e"], "--doppler-max"),
    (["evaluate", "--pair", "golay:8", "--doppler-max", "-1", "--out-prefix", "{d}/e"],
     "doppler_max must be nonnegative"),
], ids=["evaluate-overflow", "compare-overflow", "doppler-max-inf", "doppler-span-overflow",
        "doppler-max-negative"])
def test_rejection_prints_only_the_error_line(tmp_path, argv, blamed):
    # Run as a user does, outside pytest's warning filter, so that a numpy
    # RuntimeWarning would reach stderr instead of raising.
    import subprocess
    import sys

    path = tmp_path / "big.json"
    write_archive(str(path), golay_pair(16), SolverConfig(L=16, Z=8), metrics={})
    doc = json.loads(path.read_text())
    doc["x"] = [[1e308, -1e308]] * 16
    path.write_text(json.dumps(doc))
    res = subprocess.run([sys.executable, "-m", "qozcp", *[a.format(d=tmp_path) for a in argv]],
                         capture_output=True, text=True)
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
    assert blamed in res.stderr
    assert res.stdout == ""
    assert [p.name for p in tmp_path.iterdir()] == ["big.json"]


def test_internal_error_names_the_exception_type(tmp_path, monkeypatch, capsys):
    def out_of_memory(config):
        raise MemoryError()

    monkeypatch.setattr(qozcp.cli, "solve", out_of_memory)
    assert main(["design", "--length", "16", "--zone", "8",
                 "--out", str(tmp_path / "a.json")]) == 1
    assert capsys.readouterr().err == "internal error: MemoryError\n"
    assert list(tmp_path.iterdir()) == []


def test_missing_output_directory_exits_2_before_work(tmp_path, monkeypatch):
    def no_solve(config):
        raise AssertionError("solve ran before the output directory was checked")

    monkeypatch.setattr(qozcp.cli, "solve", no_solve)
    missing = tmp_path / "missing"
    rc = main(["design", "--length", "16", "--zone", "8",
               "--out", str(missing / "a.json")])
    assert rc == 2
    rc = main(["evaluate", "--pair", "golay:16", "--zone", "8",
               "--out-prefix", str(missing / "e")])
    assert rc == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, taken", [
    (["design", "--length", "8", "--zone", "4", "--out", "{d}/a.json"], "a.json"),
    (["evaluate", "--pair", "golay:16", "--zone", "8", "--out-prefix", "{d}/e"], "e_aaf.csv"),
    (["evaluate", "--pair", "golay:16", "--zone", "8", "--out-prefix", "{d}/e"], "e_caf.csv"),
    (["evaluate", "--pair", "golay:16", "--zone", "8", "--schedule", "ptm-siso",
      "--out-prefix", "{d}/e"], "e_metrics.json"),
], ids=["design", "evaluate-aaf", "evaluate-caf", "evaluate-siso-metrics"])
def test_output_naming_a_directory_exits_2_before_work(tmp_path, monkeypatch, argv, taken):
    def no_work(*args):
        raise AssertionError("work ran before the output paths were checked")

    monkeypatch.setattr(qozcp.cli, "solve", no_work)
    monkeypatch.setattr(qozcp.cli, "ambiguity_surface", no_work)
    (tmp_path / taken).mkdir()
    assert main([a.format(d=tmp_path) for a in argv]) == 2
    assert [p.name for p in tmp_path.iterdir()] == [taken]
    assert list((tmp_path / taken).iterdir()) == []


def test_evaluate_siso_ignores_a_caf_directory(tmp_path):
    # a one-row schedule writes no CAF table, so that name may be taken
    (tmp_path / "e_caf.csv").mkdir()
    rc = main(["evaluate", "--pair", "golay:16", "--zone", "8", "--schedule", "ptm-siso",
               "--pri", "4", "--doppler-samples", "4", "--out-prefix", str(tmp_path / "e")])
    assert rc == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "e_aaf.csv", "e_caf.csv", "e_metrics.json"]


def _failing_writes(path):
    """Writes to ``path`` that each fail, with the exception each raises."""
    config = SolverConfig(L=16, Z=8)
    # json cannot encode the object, so the archive stops mid-document
    yield TypeError, lambda: write_archive(str(path), golay_pair(16), config,
                                           metrics={"bad": object()})
    # values of any shape but the grid's raise before the table is opened
    grid = DelayDopplerGrid(delays=np.arange(-2, 3), dopplers=np.array([0.0, 1.0]))
    for shape in [(4, 2),       # one delay row fewer than the grid
                  (5, 1),       # one Doppler column fewer
                  (5, 3),       # one Doppler column more
                  (6, 2),       # one delay row more
                  (5, 2, 1),    # an extra axis, whose cells would print as lists
                  (10,)]:       # the grid's cells flattened
        surface = AmbiguitySurface(grid=grid, values=np.ones(shape, dtype=complex))
        yield ValueError, lambda surface=surface: write_surface_table(str(path), surface)


@pytest.mark.parametrize("existing", [False, True])
def test_failed_write_leaves_no_partial_file(tmp_path, existing):
    path = tmp_path / "out"
    if existing:
        path.write_text("previous contents\n")
    for error, write in _failing_writes(path):
        with pytest.raises(error):
            write()
        if existing:
            assert path.read_text() == "previous contents\n"
            assert [p.name for p in tmp_path.iterdir()] == ["out"]
        else:
            assert list(tmp_path.iterdir()) == []


def test_metrics_agree_across_design_evaluate_compare(tmp_path, capsys):
    archive = _design(tmp_path)
    design_metrics = json.loads(archive.read_text())["metrics"]
    prefix = tmp_path / "ev"
    assert main(["evaluate", "--pair", str(archive), "--pri", "8",
                 "--out-prefix", str(prefix)]) == 0
    assert json.loads((tmp_path / "ev_metrics.json").read_text()) == design_metrics
    capsys.readouterr()
    assert main(["compare", "--pair", "golay:16", "--pair", str(archive)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    keys = ["max_complementary_sidelobe_in_zone", "max_cross_correlation_in_zone",
            "max_aaf_sidelobe_omega1", "max_caf_omega2"]
    assert len(rows) == len(keys)
    for row, key in zip(rows, keys):
        assert row.split()[-1] == f"{design_metrics[key]:.6e}"


@pytest.mark.parametrize("existing", [False, True])
def test_evaluate_failure_replaces_no_output(tmp_path, monkeypatch, existing):
    # the metrics JSON is written last; its failure must keep both tables out too
    def failing_json(path, doc):
        raise OSError("disk full")

    monkeypatch.setattr(qozcp.cli, "_write_json", failing_json)
    aaf = tmp_path / "ev_aaf.csv"
    if existing:
        aaf.write_text("previous contents\n")
    rc = main(["evaluate", "--pair", "golay:16", "--zone", "8", "--pri", "8",
               "--doppler-samples", "4", "--out-prefix", str(tmp_path / "ev")])
    assert rc == 1
    assert not (tmp_path / "ev_caf.csv").exists()
    assert not list(tmp_path.glob("*.tmp"))
    if existing:
        assert aaf.read_text() == "previous contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["ev_aaf.csv"]
    else:
        assert list(tmp_path.iterdir()) == []


def test_surface_table_bytes_match_per_cell_oracle(tmp_path):
    rng = np.random.default_rng(0)
    grid = DelayDopplerGrid.zone(6, 3.0, 7)
    shape = (grid.delays.size, grid.dopplers.size)
    random_surface = AmbiguitySurface(
        grid=grid, values=rng.normal(size=shape) + 1j * rng.normal(size=shape))
    # the modulus must be abs() of the Python complex, not np.abs
    assert any(abs(complex(v)) != float(np.abs(v)) for v in random_surface.values.flat)
    golay = ambiguity_surface(ptm_a_schedule(golay_pair(16), 8), 0, 1,
                              DelayDopplerGrid.zone(8, 3.0, 9))
    for surface in (random_surface, golay):
        write_surface_table(str(tmp_path / "fast.csv"), surface)
        write_surface_table_per_cell(str(tmp_path / "oracle.csv"), surface)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
