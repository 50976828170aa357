"""Config parsing, report plumbing, and the qfi command surface."""

import json

import numpy as np
import pytest

from qfikit.cli import (
    ConfigError,
    RunReport,
    execute,
    main,
    parse_config,
    parse_grid,
    report_csv,
    report_json,
)

CANONICAL_TRANSDUCER = {
    "kind": "transducer",
    "parameters": {"x": 1e-5, "T": 1.0, "eps": 1.0},
}

CANONICAL_DEPHASING = {
    "kind": "dephasing",
    "parameters": {"x": 0.0, "T": 1.0, "N": 256, "gamma": 1.0},
    "operators": {"h0": "pauli_z", "jump": "pauli_z"},
    "states": {"psi": "plus_x"},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return str(path)


class TestParseGrid:
    def test_linear(self):
        np.testing.assert_allclose(parse_grid("lin:0:1:5"), [0, 0.25, 0.5, 0.75, 1])

    def test_log(self):
        np.testing.assert_allclose(parse_grid("log:1e-2:1e2:5"),
                                   [1e-2, 1e-1, 1, 1e1, 1e2], rtol=1e-12)

    def test_single_point(self):
        np.testing.assert_allclose(parse_grid("lin:0:0:1"), [0.0])

    # float() reads nan and inf, which configs refuse as numbers
    @pytest.mark.parametrize("bad", ["lin:0:1", "geom:0:1:5", "log:0:1:5",
                                     "lin:a:1:5", "lin:0:1:0", "lin:0:nan:2",
                                     "lin:1:inf:2", "lin:-inf:0:3", "log:nan:1:2",
                                     "log:1:inf:3"])
    def test_rejects(self, bad):
        with pytest.raises(ConfigError):
            parse_grid(bad)


class TestParseConfig:
    def test_minimal_transducer(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, CANONICAL_TRANSDUCER))
        assert cfg.kind == "transducer"
        assert cfg.parameters["eps"] == 1.0
        assert cfg.output_path is None
        assert cfg.output_format == "json"
        assert len(cfg.config_hash) == 64

    def test_round_trip_stability(self, tmp_path):
        # parsing the same bytes twice gives the same normalized view
        path = write_config(tmp_path, CANONICAL_DEPHASING)
        first = parse_config(path)
        second = parse_config(path)
        assert first.parameters == second.parameters
        assert first.config_hash == second.config_hash
        np.testing.assert_array_equal(first.operators["h0"], second.operators["h0"])

    def test_unknown_top_key_anchored(self, tmp_path):
        path = write_config(tmp_path, {**CANONICAL_TRANSDUCER, "extra": 1})
        with pytest.raises(ConfigError, match=r"config\.json:\d+: unknown key 'extra'"):
            parse_config(path)

    def test_unknown_parameter_anchored(self, tmp_path):
        payload = {"kind": "dephasing", "parameters": {"gama": 1.0}}
        with pytest.raises(ConfigError, match="unknown key 'gama' in parameters"):
            parse_config(write_config(tmp_path, payload))

    def test_syntax_error_anchored(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "kind": "dephasing",\n  oops\n}\n')
        with pytest.raises(ConfigError, match=r"broken\.json:3"):
            parse_config(str(path))

    @pytest.mark.parametrize("key, value, line", [("gamma", "NaN", 7),
                                                  ("tol", "-Infinity", 8),
                                                  ("T", "1e999", 5)])
    def test_non_finite_number_anchored(self, tmp_path, key, value, line):
        # json.loads reads NaN and Infinity and overflows 1e999 to inf; a
        # config is strict JSON, so each is refused at its own line
        params = {"x": 0.0, "T": 1.0, "N": 256, "gamma": 1.0, "tol": 1e-6}
        text = json.dumps({**CANONICAL_DEPHASING, "parameters": params}, indent=2)
        text = text.replace(f'"{key}": {json.dumps(params[key])}', f'"{key}": {value}')
        path = tmp_path / "config.json"
        path.write_text(text + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"config\.json:{line}: number {value} is not finite"):
            parse_config(str(path))

    def test_non_finite_number_in_a_matrix_anchored(self, tmp_path):
        # a string that reads NaN is a label, not a number
        path = tmp_path / "config.json"
        path.write_text('{"kind": "custom_channel", "states": {"psi": "zero"},\n'
                        ' "outcomes": [{"label": "NaN", "matrix": "identity",\n'
                        '   "derivative": [[[0, Infinity], [0, 0]], [[0, 0], [0, 0]]]}]}\n',
                        encoding="utf-8")
        with pytest.raises(ConfigError, match=r"config\.json:3: number Infinity is not finite"):
            parse_config(str(path))

    def test_finite_numbers_parse_unchanged(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, {**CANONICAL_DEPHASING, "parameters": {
            **CANONICAL_DEPHASING["parameters"], "x": 0.1, "tol": 1e-300}}))
        assert cfg.parameters["x"] == 0.1 and cfg.parameters["tol"] == 1e-300
        assert cfg.parameters["N"] == 256 and isinstance(cfg.parameters["N"], int)

    def test_bad_kind(self, tmp_path):
        with pytest.raises(ConfigError, match="kind must be one of"):
            parse_config(write_config(tmp_path, {"kind": "qubit"}))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(str(tmp_path / "absent.json"))

    def test_ragged_matrix_names_key(self, tmp_path):
        payload = {
            "kind": "dephasing",
            "operators": {"h0": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [-1, 0]]]},
        }
        with pytest.raises(ConfigError, match="'h0'.*rows must all have"):
            parse_config(write_config(tmp_path, payload))

    def test_bad_cell_names_key(self, tmp_path):
        payload = {"kind": "dephasing", "operators": {"jump": [[[1, 0], [0]], [[0, 0], [1, 0]]]}}
        with pytest.raises(ConfigError, match=r"'jump'.*\[re, im\]"):
            parse_config(write_config(tmp_path, payload))

    def test_matrix_literal_parses(self, tmp_path):
        payload = {
            "kind": "dephasing",
            "operators": {"h0": [[[1, 0], [0, -1]], [[0, 1], [-1, 0]]]},
        }
        cfg = parse_config(write_config(tmp_path, payload))
        expected = np.array([[1, -1j], [1j, -1]], dtype=complex)
        np.testing.assert_array_equal(cfg.operators["h0"], expected)

    def test_unknown_preset(self, tmp_path):
        payload = {"kind": "dephasing", "operators": {"h0": "pauli_w"}}
        with pytest.raises(ConfigError, match="unknown operator preset 'pauli_w'"):
            parse_config(write_config(tmp_path, payload))

    def test_state_preset(self, tmp_path):
        payload = {**CANONICAL_DEPHASING, "states": {"psi": "minus_x"}}
        cfg = parse_config(write_config(tmp_path, payload))
        np.testing.assert_allclose(cfg.states["psi"],
                                   np.array([1, -1]) / np.sqrt(2), atol=1e-15)

    def test_eps_and_grid_conflict(self, tmp_path):
        payload = {"kind": "transducer",
                   "parameters": {"eps": 1.0, "eps_grid": "log:0.1:10:3"}}
        with pytest.raises(ConfigError, match="either eps or eps_grid"):
            parse_config(write_config(tmp_path, payload))

    def test_eps_grid_string_normalized(self, tmp_path):
        payload = {"kind": "transducer", "parameters": {"eps_grid": "log:1e-1:1e1:3"}}
        cfg = parse_config(write_config(tmp_path, payload))
        np.testing.assert_allclose(cfg.parameters["eps_grid"], [0.1, 1.0, 10.0],
                                   rtol=1e-12)

    def test_eps_grid_array(self, tmp_path):
        payload = {"kind": "transducer", "parameters": {"eps_grid": [0.5, 2.0]}}
        cfg = parse_config(write_config(tmp_path, payload))
        assert cfg.parameters["eps_grid"] == [0.5, 2.0]

    def test_n_must_be_integer(self, tmp_path):
        payload = {"kind": "dephasing", "parameters": {"N": 2.5}}
        with pytest.raises(ConfigError, match="'N' must be an integer"):
            parse_config(write_config(tmp_path, payload))

    def test_bad_scheme(self, tmp_path):
        payload = {"kind": "dephasing", "parameters": {"scheme": "midpoint"}}
        with pytest.raises(ConfigError, match="unknown scheme"):
            parse_config(write_config(tmp_path, payload))

    def test_bad_expect_value(self, tmp_path):
        payload = {**CANONICAL_TRANSDUCER, "expect": {"theorem2": "fail"}}
        with pytest.raises(ConfigError, match='must be "pass"'):
            parse_config(write_config(tmp_path, payload))

    def test_bad_output_format(self, tmp_path):
        payload = {**CANONICAL_TRANSDUCER, "output": {"format": "xml"}}
        with pytest.raises(ConfigError, match="csv or json"):
            parse_config(write_config(tmp_path, payload))

    def test_custom_channel_requires_outcomes(self, tmp_path):
        payload = {"kind": "custom_channel", "states": {"psi": "zero"}}
        with pytest.raises(ConfigError, match="nonempty outcomes"):
            parse_config(write_config(tmp_path, payload))

    def test_custom_channel_outcome_keys(self, tmp_path):
        payload = {
            "kind": "custom_channel",
            "states": {"psi": "zero"},
            "outcomes": [{"label": "a", "matrix": "identity"}],
        }
        with pytest.raises(ConfigError, match="missing 'derivative'"):
            parse_config(write_config(tmp_path, payload))

    def test_jump_rate_validated(self, tmp_path):
        payload = {
            "kind": "custom_collision",
            "operators": {"h0": "pauli_z"},
            "jumps": [{"op": "pauli_z", "rate": -1.0}],
        }
        with pytest.raises(ConfigError, match="rate must be a nonnegative"):
            parse_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize("tol", [0, 0.0, -1.0])
    def test_non_positive_tol_anchored(self, tmp_path, tol):
        # every verdict compares a residual against tol, so tol <= 0 fails
        # them all without saying why
        payload = {**CANONICAL_DEPHASING,
                   "parameters": {**CANONICAL_DEPHASING["parameters"], "tol": tol}}
        path = write_config(tmp_path, payload)
        text = (tmp_path / "config.json").read_text(encoding="utf-8").splitlines()
        line = next(n for n, row in enumerate(text, 1) if '"tol"' in row)
        with pytest.raises(ConfigError,
                           match=rf"config\.json:{line}: parameter 'tol' must be positive"):
            parse_config(path)

    @pytest.mark.parametrize("payload, key, bound", [
        (CANONICAL_TRANSDUCER, "T", "positive"),
        (CANONICAL_DEPHASING, "T", "positive"),
        (CANONICAL_DEPHASING, "N", "at least 1"),
        (CANONICAL_DEPHASING, "gamma", "nonnegative"),
        (CANONICAL_TRANSDUCER, "eps", "nonnegative"),
    ], ids=["transducer-T", "dephasing-T", "N", "gamma", "eps"])
    def test_parameter_outside_schema_bound_anchored(self, tmp_path, payload, key, bound):
        # a transducer at T = -1 would otherwise print the T = 1 table, since
        # its information goes as T^2
        value = 0 if key == "N" else -1.0
        payload = {**payload, "parameters": {**payload["parameters"], key: value}}
        path = write_config(tmp_path, payload)
        text = (tmp_path / "config.json").read_text(encoding="utf-8").splitlines()
        line = next(n for n, row in enumerate(text, 1) if f'"{key}"' in row)
        with pytest.raises(ConfigError,
                           match=rf"config\.json:{line}: parameter '{key}' must be {bound}"):
            parse_config(path)

    @pytest.mark.parametrize("key, payload", [
        ("rate", {"kind": "custom_collision", "operators": {"h0": "pauli_z"},
                  "jumps": [{"op": "pauli_z", "rate": 0.5},
                            {"op": "pauli_x", "rate": -1.0}]}),
        ("matrix", {"kind": "custom_channel", "states": {"psi": "zero"},
                    "outcomes": [{"label": "a", "matrix": "identity", "derivative": "identity"},
                                 {"label": "b", "matrix": [[[1, 0]], [[0, 0], [1, 0]]],
                                  "derivative": "identity"}]}),
    ], ids=["jumps", "outcomes"])
    def test_second_entry_anchored_at_its_line(self, tmp_path, key, payload):
        path = write_config(tmp_path, payload)
        text = (tmp_path / "config.json").read_text(encoding="utf-8").splitlines()
        lines = [n for n, row in enumerate(text, 1) if f'"{key}"' in row]
        assert len(lines) == 2
        with pytest.raises(ConfigError, match=rf"config\.json:{lines[1]}: "):
            parse_config(path)


class TestRunReport:
    def test_json_round_trip(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, CANONICAL_TRANSDUCER))
        report = execute(cfg)
        text = report_json(report)
        parsed = RunReport.from_json_dict(json.loads(text))
        assert parsed == report
        again = RunReport.from_json_dict(json.loads(report_json(parsed)))
        assert again == parsed

    def test_json_keys_sorted(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, CANONICAL_TRANSDUCER))
        text = report_json(execute(cfg))
        data = json.loads(text)
        dumped = json.dumps(data, sort_keys=True, indent=2) + "\n"
        assert text == dumped

    def test_report_carries_hash_and_version(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, CANONICAL_TRANSDUCER))
        report = execute(cfg)
        assert report.config_hash == cfg.config_hash
        assert report.version
        assert report.wall_time_s > 0

    def test_complex_metric_expands_in_csv(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, CANONICAL_TRANSDUCER))
        text = report_csv(execute(cfg))
        header = text.splitlines()[0].split(",")
        assert "f_total_re" in header and "f_total_im" in header
        assert "f_total" not in header
        assert header == sorted(header, key=lambda c: c.replace("_re", "").replace("_im", ""))

    def test_csv_uses_lf_and_17_digits(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, CANONICAL_TRANSDUCER))
        text = report_csv(execute(cfg))
        assert "\r" not in text
        assert text.endswith("\n")
        row = text.splitlines()[1].split(",")
        assert any(len(cell.replace("-", "").replace(".", "").replace("e", "")) >= 16
                   for cell in row)


class TestRunCommand:
    def test_transducer_run_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, CANONICAL_TRANSDUCER)
        assert main(["run", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["metrics"]["i_q"] == pytest.approx(4.0, rel=1e-9)
        assert data["verdicts"]["theorem2"]["status"] == "n.a."

    def test_fig1b_table(self, tmp_path):
        payload = {
            "kind": "transducer",
            "parameters": {"x": 1e-5, "T": 1.0,
                           "eps_grid": "log:1e-3:1e3:41", "tol": 2e-5},
            "expect": {"theorem1_perp": "pass"},
            "output": {"path": str(tmp_path / "fig1b.csv"), "format": "csv"},
        }
        assert main(["run", write_config(tmp_path, payload)]) == 0
        lines = (tmp_path / "fig1b.csv").read_text().splitlines()
        assert lines[0] == "eps,I_sigma_1,I_sigma_2,avg_total,sum_total"
        assert len(lines) == 42
        avg = [float(line.split(",")[3]) for line in lines[1:]]
        assert max(abs(v - 4.0) for v in avg) < 1e-3

    @pytest.mark.parametrize("grid", [[0.5, -1.0, 2.0], "lin:-1:1:3"],
                             ids=["array", "grid_string"])
    def test_negative_mixing_in_grid_exits_one(self, tmp_path, capsys, grid):
        # refused at parse time, anchored at the eps_grid line
        payload = {"kind": "transducer",
                   "parameters": {"x": 1e-5, "T": 1.0, "eps_grid": grid}}
        out = tmp_path / "table.csv"
        path = write_config(tmp_path, payload)
        assert main(["run", path, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "mixing must be nonnegative, got -1.0" in err
        entry = 1 if isinstance(grid, list) else 0
        text = (tmp_path / "config.json").read_text(encoding="utf-8").splitlines()
        line = next(n for n, row in enumerate(text, 1) if '"eps_grid"' in row)
        assert f"config.json:{line}: eps_grid entry {entry}: mixing" in err
        assert not out.exists()

    def test_dephasing_kappa(self, tmp_path, capsys):
        payload = {**CANONICAL_DEPHASING,
                   "parameters": {**CANONICAL_DEPHASING["parameters"], "N": 1024}}
        assert main(["run", write_config(tmp_path, payload)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["metrics"]["kappa"] == pytest.approx(1 - np.exp(-1.0), abs=1e-4)
        assert data["verdicts"]["theorem2"]["status"] == "fail"

    def test_expect_failure_exits_two(self, tmp_path, capsys):
        payload = {**CANONICAL_DEPHASING, "expect": {"theorem2": "pass"}}
        assert main(["run", write_config(tmp_path, payload)]) == 2
        capsys.readouterr()

    def test_parse_error_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "dephasing", "parameters": {"gama": 1}}')
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "unknown key 'gama'" in err

    def test_malformed_matrix_exits_one(self, tmp_path, capsys):
        payload = {
            "kind": "dephasing",
            "operators": {"h0": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [-1, 0]]]},
        }
        assert main(["run", write_config(tmp_path, payload)]) == 1
        assert "'h0'" in capsys.readouterr().err

    def test_noncommuting_model_exits_one(self, tmp_path, capsys):
        payload = {**CANONICAL_DEPHASING, "operators": {"h0": "pauli_z", "jump": "pauli_x"}}
        assert main(["run", write_config(tmp_path, payload)]) == 1
        assert "commute" in capsys.readouterr().err

    def test_custom_channel_run(self, tmp_path, capsys):
        half = 1 / np.sqrt(2)
        payload = {
            "kind": "custom_channel",
            "parameters": {"x": 0.0},
            "states": {"psi": "zero"},
            "outcomes": [
                {"label": "a",
                 "matrix": [[[half, 0], [0, 0]], [[0, 0], [half, 0]]],
                 "derivative": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]},
                {"label": "b",
                 "matrix": [[[half, 0], [0, 0]], [[0, 0], [half, 0]]],
                 "derivative": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]},
            ],
        }
        assert main(["run", write_config(tmp_path, payload)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["metrics"]["i_q"] == pytest.approx(0.0, abs=1e-12)
        assert data["verdicts"]["theorem1_perp"]["status"] == "pass"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tol_exits_one(self, tmp_path, capsys, tol):
        assert main(["run", write_config(tmp_path, CANONICAL_DEPHASING), f"--tol={tol}"]) == 1
        captured = capsys.readouterr()
        assert "--tol must be a finite number" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("tol", ["0", "-0.5"])
    def test_non_positive_tol_exits_one(self, tmp_path, capsys, tol):
        assert main(["run", write_config(tmp_path, CANONICAL_DEPHASING), f"--tol={tol}"]) == 1
        captured = capsys.readouterr()
        assert "--tol must be positive" in captured.err
        assert captured.out == ""

    def test_custom_channel_with_tiny_information(self, tmp_path, capsys):
        # total I_Q = 4e-16 is nonzero but below the floor that leaves
        # kappa undefined; the run reports it like a zero-information one
        def diag(a, b):
            return [[[a.real, a.imag], [0, 0]], [[0, 0], [b.real, b.imag]]]

        payload = {
            "kind": "custom_channel",
            "parameters": {"x": 0.0},
            "states": {"psi": "plus_x"},
            "outcomes": [
                {"label": "a", "matrix": diag(0.6, 0.6), "derivative": diag(-6e-9j, 6e-9j)},
                {"label": "b", "matrix": diag(0.8, 0.8), "derivative": diag(-8e-9j, 8e-9j)},
            ],
            "retained": ["a"],
        }
        assert main(["run", write_config(tmp_path, payload)]) == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert metrics["i_q"] == pytest.approx(4e-16, rel=1e-9)
        assert "kappa" not in metrics
        assert not [name for name in metrics if name.startswith("I_sigma_")]

    def test_custom_collision_run(self, tmp_path, capsys):
        payload = {
            "kind": "custom_collision",
            "parameters": {"x": 0.0, "T": 1.0, "N": 512},
            "operators": {"h0": "pauli_z"},
            "states": {"psi": "plus_x"},
            "jumps": [{"op": "pauli_z", "rate": 0.5}],
        }
        assert main(["run", write_config(tmp_path, payload)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["metrics"]["kappa"] == pytest.approx(1 - np.exp(-0.5), abs=1e-4)

    def test_output_override(self, tmp_path):
        path = write_config(tmp_path, CANONICAL_TRANSDUCER)
        out = tmp_path / "here.csv"
        assert main(["run", path, "--format", "csv", "--output", str(out)]) == 0
        assert out.exists()
        assert out.read_text().startswith("I_sigma_1")

    def test_determinism_byte_identical(self, tmp_path):
        path = write_config(tmp_path, CANONICAL_TRANSDUCER)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", path, "--format", "csv", "--output", str(a)]) == 0
        assert main(["run", path, "--format", "csv", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSweepCommand:
    def test_gamma_zero_row(self, tmp_path, capsys):
        path = write_config(tmp_path, CANONICAL_DEPHASING)
        assert main(["sweep", path, "--param", "gamma", "--grid", "lin:0:0:1",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "gamma,kappa,p_check,i_sigma,i_q_baseline"
        assert len(lines) == 2
        assert float(lines[1].split(",")[1]) == 0.0

    def test_kappa_monotone_in_time(self, tmp_path, capsys):
        path = write_config(tmp_path, CANONICAL_DEPHASING)
        assert main(["sweep", path, "--param", "T", "--grid", "log:0.1:3:6",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        kappas = [float(line.split(",")[1]) for line in lines]
        assert all(b > a for a, b in zip(kappas, kappas[1:]))

    def test_eps_sweep_reproduces_fig1b(self, tmp_path, capsys):
        sweep_cfg = write_config(tmp_path, CANONICAL_TRANSDUCER, "sweep.json")
        assert main(["sweep", sweep_cfg, "--param", "eps",
                     "--grid", "log:1e-3:1e3:9", "--format", "csv",
                     "--tol", "2e-5"]) == 0
        sweep_lines = capsys.readouterr().out.splitlines()
        grid_payload = {
            "kind": "transducer",
            "parameters": {"x": 1e-5, "T": 1.0, "eps_grid": "log:1e-3:1e3:9"},
        }
        grid_cfg = write_config(tmp_path, grid_payload, "grid.json")
        assert main(["run", grid_cfg, "--format", "csv"]) == 0
        run_lines = capsys.readouterr().out.splitlines()
        assert sweep_lines[0] == run_lines[0]
        assert sweep_lines[1:] == run_lines[1:]

    def test_eps_sweep_matches_grid_run_for_non_centred_environment(self, tmp_path,
                                                                     capsys):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h0_env = (a + a.conj().T) / 2.0 + 0.9 * np.eye(3)
        env = rng.normal(size=3) + 1j * rng.normal(size=3)
        env /= np.linalg.norm(env)
        base = {
            "kind": "transducer",
            "parameters": {"x": 1e-5, "T": 1.0, "eps": 1.0},
            "operators": {"h0_env": [[[z.real, z.imag] for z in row] for row in h0_env]},
            "states": {"env_initial": [[z.real, z.imag] for z in env]},
        }
        sweep_cfg = write_config(tmp_path, base, "sweep.json")
        assert main(["sweep", sweep_cfg, "--param", "eps",
                     "--grid", "log:1e-3:1e3:7", "--format", "csv"]) == 0
        sweep_lines = capsys.readouterr().out.splitlines()
        grid_params = {"x": 1e-5, "T": 1.0, "eps_grid": "log:1e-3:1e3:7"}
        grid_cfg = write_config(tmp_path, {**base, "parameters": grid_params}, "grid.json")
        assert main(["run", grid_cfg, "--format", "csv"]) == 0
        run_lines = capsys.readouterr().out.splitlines()
        assert sweep_lines[1:] == run_lines[1:]

    def test_rows_in_grid_order_with_jobs(self, tmp_path, capsys):
        path = write_config(tmp_path, CANONICAL_DEPHASING)
        assert main(["sweep", path, "--param", "gamma", "--grid", "lin:0.2:1:5",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        gammas = [float(line.split(",")[0]) for line in lines]
        np.testing.assert_allclose(gammas, [0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-12)

    def test_non_integer_step_grid_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, CANONICAL_DEPHASING)
        assert main(["sweep", path, "--param", "N", "--grid", "lin:100:300.7:3"]) == 1
        assert "N must be an integer" in capsys.readouterr().err

    def test_step_grid_rows_carry_the_n_that_ran(self, tmp_path, capsys, monkeypatch):
        import qfikit.cli

        ran = []
        original = qfikit.cli.execute

        def recorded(config, **kwargs):
            ran.append(config.parameters["N"])
            return original(config, **kwargs)

        monkeypatch.setattr(qfikit.cli, "execute", recorded)
        path = write_config(tmp_path, CANONICAL_DEPHASING)
        # logspace puts 64 and 128 just below the integers
        assert main(["sweep", path, "--param", "N", "--grid", "log:64:1024:5",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert ran == [64, 128, 256, 512, 1024]
        assert [line.split(",")[0] for line in lines] == ["64", "128", "256", "512", "1024"]

    def test_metric_a_point_omits_is_left_empty(self, tmp_path, capsys):
        # a flat identity channel carries no information, so kappa is
        # undefined at every point; a 0 would read as "nothing lost"
        payload = {
            "kind": "custom_channel",
            "parameters": {"x": 0.0},
            "states": {"psi": "zero"},
            "outcomes": [{"label": "u",
                          "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                          "derivative": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}],
        }
        path = write_config(tmp_path, payload)
        assert main(["run", path]) == 0
        assert "kappa" not in json.loads(capsys.readouterr().out)["metrics"]
        sweep = ["sweep", path, "--param", "x", "--grid", "lin:0:1:3"]
        assert main(sweep + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,i_q,avg_ps_qfi,kappa"
        assert [line.split(",")[3] for line in lines[1:]] == ["", "", ""]
        assert main(sweep + ["--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["table"]["rows"]
        assert [row[3] for row in rows] == [None, None, None]
        assert [row[1] for row in rows] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("payload, param, grid, bound", [
        (CANONICAL_DEPHASING, "T", "lin:1:-1:3", "positive"),
        (CANONICAL_DEPHASING, "N", "lin:8:0:3", "at least 1"),
        (CANONICAL_DEPHASING, "gamma", "lin:1:-1:3", "nonnegative"),
        (CANONICAL_TRANSDUCER, "eps", "lin:1:-1:3", "nonnegative"),
    ], ids=["T", "N", "gamma", "eps"])
    def test_grid_outside_schema_bound_runs_no_point(self, tmp_path, capsys, monkeypatch,
                                                     payload, param, grid, bound):
        import qfikit.cli

        ran = []
        monkeypatch.setattr(qfikit.cli, "execute", lambda *args, **kwargs: ran.append(1))
        path = write_config(tmp_path, payload)
        assert main(["sweep", path, "--param", param, "--grid", grid]) == 1
        assert f"parameter '{param}' must be {bound}" in capsys.readouterr().err
        assert not ran

    def test_unknown_parameter_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, CANONICAL_DEPHASING)
        assert main(["sweep", path, "--param", "eps", "--grid", "lin:0:1:3"]) == 1
        assert "not in the config" in capsys.readouterr().err

    def test_gridded_config_rejected(self, tmp_path, capsys):
        payload = {"kind": "transducer", "parameters": {"eps_grid": [0.5, 2.0]}}
        path = write_config(tmp_path, payload)
        assert main(["sweep", path, "--param", "x", "--grid", "lin:0:1:2"]) == 1
        assert "eps_grid" in capsys.readouterr().err

    def test_bad_grid_spec(self, tmp_path, capsys):
        path = write_config(tmp_path, CANONICAL_DEPHASING)
        assert main(["sweep", path, "--param", "gamma", "--grid", "geom:1:2:3"]) == 1
        capsys.readouterr()


class TestFlagPlacement:
    """--tol, --output and --format belong to run and sweep; anywhere else
    they are usage errors, not options parsed and then ignored."""

    def _usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        return capsys.readouterr()

    def test_tol_before_the_command(self, tmp_path, capsys):
        path = write_config(tmp_path, CANONICAL_DEPHASING)
        captured = self._usage_error(["--tol", "10", "run", path], capsys)
        assert captured.out == "" and "usage: qfi" in captured.err

    def test_output_before_the_command(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        path = write_config(tmp_path, CANONICAL_DEPHASING)
        self._usage_error(["--output", str(out), "run", path], capsys)
        assert not out.exists()

    def test_output_flags_on_verify(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.txt"
        captured = self._usage_error(
            ["verify", "--suite", "gauge", "--tol", "5", "--output", str(out)], capsys)
        assert "unrecognized arguments: --tol 5 --output" in captured.err


class TestVerifyCommand:
    def test_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 1
        assert "unknown suite" in capsys.readouterr().err

    def test_gauge_suite_passes(self, capsys):
        assert main(["verify", "--suite", "gauge"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "25 instances" in out

    def test_chain_suite_passes(self, capsys):
        assert main(["verify", "--suite", "chain"]) == 0
        out = capsys.readouterr().out
        assert "0 violations" in out

    def test_theorem_soundness_suite_passes(self, capsys):
        assert main(["verify", "--suite", "theorem-soundness"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    def test_every_suite_prints_its_golden_lines(self, capsys):
        # byte for byte, in `qfi verify` order; moving any line is a named
        # re-capture of the golden
        from qfikit.verify import SUITES

        for suite in SUITES:
            assert main(["verify", "--suite", suite]) == 0
        with open("tests/golden/verify_lines.txt", encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()

    def test_theorem_soundness_propagates_the_probe(self, capsys, monkeypatch):
        # each collision model is one collision.run: the jump-free baseline
        # as an end row and the model propagated on the probe, no matrix
        # trajectory
        import qfikit.collision
        import qfikit.verify

        matrix_runs, probe_runs, end_rows = [], [], []
        original_propagate = qfikit.collision.propagate
        original_probe = qfikit.collision._probe_propagation
        original_end = qfikit.collision._end_row

        def counted_propagate(*args, **kwargs):
            matrix_runs.append(args)
            return original_propagate(*args, **kwargs)

        def counted_probe(*args):
            probe_runs.append(args)
            return original_probe(*args)

        def counted_end(*args):
            end_rows.append(args)
            return original_end(*args)

        monkeypatch.setattr(qfikit.collision, "propagate", counted_propagate)
        # verify may bind propagate by name as well
        monkeypatch.setattr(qfikit.verify, "propagate", counted_propagate, raising=False)
        monkeypatch.setattr(qfikit.collision, "_probe_propagation", counted_probe)
        monkeypatch.setattr(qfikit.collision, "_end_row", counted_end)
        assert main(["verify", "--suite", "theorem-soundness"]) == 0
        capsys.readouterr()
        assert not matrix_runs
        assert len(probe_runs) == 2
        assert len(end_rows) == 2

    def test_completeness_suite_and_bundled_run_form_no_matrix_trajectory(
            self, tmp_path, capsys, monkeypatch):
        # constant specs: the completeness residuals come from doubled
        # d x d sums and the bundled run from two probe propagations
        import qfikit.collision
        import qfikit.verify

        matrix_runs = []
        original_propagate = qfikit.collision.propagate

        def counted_propagate(*args, **kwargs):
            matrix_runs.append(args)
            return original_propagate(*args, **kwargs)

        monkeypatch.setattr(qfikit.collision, "propagate", counted_propagate)
        monkeypatch.setattr(qfikit.verify, "propagate", counted_propagate, raising=False)
        assert main(["verify", "--suite", "completeness"]) == 0
        assert main(["run", "configs/dephasing.json", "--output",
                     str(tmp_path / "dephasing.json")]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2
        assert not matrix_runs


class TestBundledConfigs:
    def test_fig1b_config_parses(self):
        cfg = parse_config("configs/fig1b.json")
        assert cfg.kind == "transducer"
        assert len(cfg.parameters["eps_grid"]) == 41
        assert cfg.expect == {"theorem1_perp": "pass"}

    def test_dephasing_config_parses(self):
        cfg = parse_config("configs/dephasing.json")
        assert cfg.kind == "dephasing"
        assert cfg.parameters["N"] == 16384

    def test_schema_lists_what_the_parser_accepts(self):
        from qfikit import cli

        with open("docs/schema.json", encoding="utf-8") as fh:
            schema = json.load(fh)
        props = schema["properties"]
        assert props["kind"]["enum"] == list(cli.KINDS)
        assert set(props["parameters"]["properties"]) == set().union(*cli._PARAM_KEYS.values())
        assert set(props) == set().union(*cli._TOP_KEYS.values())
        assert schema["$defs"]["operator"]["oneOf"][0]["enum"] == list(cli.OPERATOR_PRESETS)
        assert schema["$defs"]["state"]["oneOf"][0]["enum"] == list(cli.STATE_PRESETS)
        assert set(props["expect"]["properties"]) == set(cli._VERDICT_NAMES)

    def test_schema_bounds_are_the_parsers(self, tmp_path):
        from qfikit import cli

        with open("docs/schema.json", encoding="utf-8") as fh:
            params = json.load(fh)["properties"]["parameters"]["properties"]
        for key, rule in params.items():
            low = rule.get("minimum", rule.get("exclusiveMinimum"))
            if low is None:
                assert key not in cli._BOUNDS
                continue
            accepts = cli._BOUNDS[key][0]
            assert accepts(low) == ("minimum" in rule)
            assert accepts(low + 1e-9) and not accepts(low - 1e-9)
        # an eps_grid array entry is held to the bound of eps
        items = next(alt["items"] for alt in params["eps_grid"]["oneOf"]
                     if alt["type"] == "array")
        assert items["minimum"] == params["eps"]["minimum"]
        for value, accepted in ((items["minimum"], True), (items["minimum"] + 1e-9, True),
                                (items["minimum"] - 1e-9, False)):
            path = write_config(tmp_path, {"kind": "transducer",
                                           "parameters": {"eps_grid": [1.0, value]}})
            if accepted:
                assert parse_config(path).parameters["eps_grid"] == [1.0, value]
            else:
                with pytest.raises(ConfigError, match="eps_grid entry 1: mixing must be"):
                    parse_config(path)

    def test_configs_validate_against_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        with open("docs/schema.json", encoding="utf-8") as fh:
            schema = json.load(fh)
        for name in ("configs/fig1b.json", "configs/dephasing.json"):
            with open(name, encoding="utf-8") as fh:
                jsonschema.validate(json.load(fh), schema)


JUMP_BLIND = {
    "kind": "custom_collision",
    "parameters": {"x": 0.3, "T": 1.0, "N": 16384, "scheme": "expm_step"},
    "operators": {"h0": [[[1, 0], [0, 0], [0, 0]],
                         [[0, 0], [-1, 0], [0, 0]],
                         [[0, 0], [0, 0], [5, 0]]]},
    "jumps": [{"op": [[[0, 0], [0, 0], [0, 0]],
                      [[0, 0], [0, 0], [0, 0]],
                      [[0, 0], [0, 0], [1, 0]]],
               "rate": 0.8}],
    "states": {"psi": [[0.7071067811865476, 0], [0.7071067811865476, 0], [0, 0]]},
    "expect": {"theorem2": "pass"},
}


class TestCollisionVerdicts:
    def test_jump_blind_certified_at_production_n(self, tmp_path, capsys):
        assert main(["run", write_config(tmp_path, JUMP_BLIND)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdicts"]["theorem2"]["status"] == "pass"
        assert data["metrics"]["kappa"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("tol, status", [(1e-6, "pass"), (1e-8, "fail")])
    def test_config_tol_reaches_theorem2(self, tmp_path, capsys, tol, status):
        # a barely lossy model: jump residual about sqrt(gamma) = 1e-7
        payload = {**CANONICAL_DEPHASING,
                   "parameters": {**CANONICAL_DEPHASING["parameters"],
                                  "gamma": 1e-14, "tol": tol}}
        main(["run", write_config(tmp_path, payload)])
        verdict = json.loads(capsys.readouterr().out)["verdicts"]["theorem2"]
        assert 1e-8 < verdict["worst_residual"] < 1e-6
        assert verdict["status"] == status

    def test_transducer_fd_step_rejected(self, tmp_path):
        payload = {**CANONICAL_TRANSDUCER,
                   "parameters": {**CANONICAL_TRANSDUCER["parameters"], "fd_step": 1e-6}}
        with pytest.raises(ConfigError, match=r"config\.json:\d+: unknown key 'fd_step'"):
            parse_config(write_config(tmp_path, payload))

    def test_run_propagates_the_probe_twice(self, tmp_path, capsys, monkeypatch):
        # the model is propagated once on the probe, and the jump-free
        # baseline only to its end row; no matrix trajectory is formed
        import qfikit.collision

        matrix_runs, probe_runs, end_rows = [], [], []
        exponentials = []
        original_propagate = qfikit.collision.propagate
        original_probe = qfikit.collision._probe_propagation
        original_end = qfikit.collision._end_row
        original_expm = qfikit.collision.expm

        def counted_propagate(*args, **kwargs):
            matrix_runs.append(args)
            return original_propagate(*args, **kwargs)

        def counted_probe(*args):
            probe_runs.append(args)
            return original_probe(*args)

        def counted_end(*args):
            end_rows.append(args[0].jumps)
            return original_end(*args)

        def counted_expm(a):
            exponentials.append(int(np.prod(np.shape(a)[:-2], dtype=int)))
            return original_expm(a)

        monkeypatch.setattr(qfikit.collision, "propagate", counted_propagate)
        monkeypatch.setattr(qfikit.collision, "_probe_propagation", counted_probe)
        monkeypatch.setattr(qfikit.collision, "_end_row", counted_end)
        monkeypatch.setattr(qfikit.collision, "expm", counted_expm)
        assert main(["run", write_config(tmp_path, CANONICAL_DEPHASING)]) == 0
        capsys.readouterr()
        assert not matrix_runs
        assert len(probe_runs) == 1 and probe_runs[0][0].jumps
        assert end_rows == [()]
        assert sum(exponentials) <= 2

    def test_run_reduces_each_trajectory_once(self, tmp_path, monkeypatch):
        # a collision run reads its probe rows as sums and maxima: neither
        # the bundled run nor a sweep forms a row of the first-jump channel
        # or a set of probe columns
        import qfikit.collision
        from qfikit.encoding import ProbeColumns

        rows, columns = [], []
        original_columns = ProbeColumns.__post_init__

        def counted_rows(*args):
            rows.append(args)

        def counted_columns(self):
            columns.append(1)
            original_columns(self)

        monkeypatch.setattr(qfikit.collision, "_first_jump_rows", counted_rows)
        monkeypatch.setattr(ProbeColumns, "__post_init__", counted_columns)
        out = str(tmp_path / "dephasing.json")
        assert main(["run", "configs/dephasing.json", "--output", out]) == 0
        path = write_config(tmp_path, CANONICAL_DEPHASING)
        assert main(["sweep", path, "--param", "gamma", "--grid", "lin:0.2:1.6:8",
                     "--output", str(tmp_path / "sweep.json")]) == 0
        sweep = json.loads((tmp_path / "sweep.json").read_text(encoding="utf-8"))
        assert len(sweep["table"]["rows"]) == 8
        assert not rows and not columns


SCIPY_FREE_RUN = """
import sys
from qfikit.cli import main
for argv in (["run", sys.argv[1], "--output", "dephasing.json"],
             ["run", sys.argv[2], "--output", "fig1b.csv"],
             ["verify", "--suite", "chain"],
             ["verify", "--suite", "gauge"],
             ["verify", "--suite", "completeness"]):
    assert main(argv) == 0, argv
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""


class TestRegressionGuards:
    def test_commands_never_import_scipy(self, tmp_path):
        # importing scipy.linalg costs about 0.2 s of every command's start-up
        import os
        import subprocess
        import sys
        from pathlib import Path

        import qfikit

        configs = Path("configs").resolve()
        env = dict(os.environ, PYTHONPATH=str(Path(qfikit.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_FREE_RUN, str(configs / "dephasing.json"),
             str(configs / "fig1b.json")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]

    def test_operator_count_does_not_grow_with_n(self, tmp_path, capsys, monkeypatch):
        from qfikit.quantum_core import Operator

        built = []
        original = Operator.__post_init__

        def counted(self):
            built.append(1)
            original(self)

        monkeypatch.setattr(Operator, "__post_init__", counted)
        counts = []
        for n_steps in (512, 4096):
            payload = {**CANONICAL_DEPHASING,
                       "parameters": {**CANONICAL_DEPHASING["parameters"], "N": n_steps}}
            built.clear()
            assert main(["run", write_config(tmp_path, payload)]) == 0
            counts.append(len(built))
        capsys.readouterr()
        assert counts[0] == counts[1]
        assert counts[0] < 100

    def test_bundled_dephasing_csv_matches_golden(self, tmp_path, capsys):
        out = tmp_path / "dephasing.csv"
        assert main(["run", "configs/dephasing.json", "--format", "csv",
                     "--output", str(out)]) == 0
        capsys.readouterr()
        with open("tests/golden/dephasing.csv", "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_bundled_fig1b_csv_matches_golden(self, tmp_path, capsys):
        # the exact-channel path: 41 transducer points, each one family call
        out = tmp_path / "fig1b.csv"
        assert main(["run", "configs/fig1b.json", "--format", "csv",
                     "--output", str(out)]) == 0
        capsys.readouterr()
        with open("tests/golden/fig1b.csv", "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_bundled_dephasing_meets_closed_form_within_rounding(self):
        # H0 = L = sigma_z at a constant rate: under expm_step the no-jump
        # product is exact at any N, so the only error left is rounding in
        # the 2N half-step products, each of which adds at most about eps
        # relative to a column of norm <= 1.
        from qfikit.collision import dephasing_closed_form
        from qfikit.quantum_core import Ket, Operator

        config = parse_config("configs/dephasing.json")
        p = config.parameters
        metrics = execute(config).metrics
        sz = Operator(np.diag([1.0, -1.0]).astype(complex))
        kappa = dephasing_closed_form(sz, Operator(p["gamma"] * np.eye(2)), p["T"],
                                      Ket(np.array([1.0, 1.0]) / np.sqrt(2.0)))
        budget = 2 * p["N"] * np.finfo(float).eps
        for got, want in ((metrics["kappa"], kappa),
                          (metrics["p_check"], np.exp(-p["gamma"] * p["T"]))):
            assert abs(got - want) <= budget * want

    def test_transducer_builds_each_point_once(self, tmp_path, monkeypatch):
        # an eps grid exponentiates the generator once and reads the one
        # dilation out in all its bases at once, with no channel per point
        import qfikit.scenarios
        from qfikit.quantum_core import MeasurementChannel

        calls = {"expm": 0, "kraus_from_dilation": 0, "MeasurementChannel": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in ("expm", "kraus_from_dilation"):
            monkeypatch.setattr(qfikit.scenarios, name,
                                counted(name, getattr(qfikit.scenarios, name)))
        monkeypatch.setattr(MeasurementChannel, "__post_init__",
                            counted("MeasurementChannel", MeasurementChannel.__post_init__))
        assert main(["run", "configs/fig1b.json", "--output", str(tmp_path / "fig1b.csv")]) == 0
        assert calls == {"expm": 1, "kraus_from_dilation": 0, "MeasurementChannel": 0}

    def test_grid_svd_count_does_not_grow_with_the_grid(self, tmp_path, monkeypatch):
        svd_calls = []
        original = np.linalg.svd

        def counted(*args, **kwargs):
            svd_calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        # a 3-level environment, so the readout completion takes its SVD too
        level = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [-1, 0]]]
        counts = []
        for points in (41, 161):
            payload = {"kind": "transducer",
                       "parameters": {"x": 1e-5, "T": 1.0,
                                      "eps_grid": f"log:1e-3:1e3:{points}"},
                       "operators": {"h0_env": level},
                       "states": {"env_initial": [[3 ** -0.5, 0]] * 3}}
            config = parse_config(write_config(tmp_path, payload))
            svd_calls.clear()
            assert len(execute(config).table["rows"]) == points
            counts.append(len(svd_calls))
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("name, reads", [("fig1b", 0), ("custom_channel", 1),
                                             ("transducer", 1)])
    def test_one_contraction_per_channel_point(self, tmp_path, monkeypatch, name, reads):
        # the report, its amplification rows and the theorem-1 verdicts of
        # an exact-channel point all read one set of probe columns; an eps
        # grid builds no channel and reads no derivative stack at all
        import qfikit.encoding

        original = qfikit.encoding.derivative_stack
        calls = []

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(qfikit.encoding, "derivative_stack", counted)
        payloads = {"custom_channel": _qutrit_channel_payload(),
                    "transducer": CANONICAL_TRANSDUCER}
        path = "configs/fig1b.json"
        if name in payloads:
            path = write_config(tmp_path, payloads[name])
        execute(parse_config(path))
        assert len(calls) == reads


CUSTOM_COLLISION = {
    "kind": "custom_collision",
    "parameters": {"x": 0.3, "T": 1.0, "N": 512, "scheme": "euler_paper"},
    "operators": {"h0": "pauli_x", "control": "pauli_z"},
    "states": {"psi": "plus_x"},
    "jumps": [{"op": "pauli_z", "rate": 0.5}, {"op": "pauli_y", "rate": 0.2}],
}


class TestColumnRuns:
    """Collision runs take their verdicts from probe columns, not channels."""

    @pytest.mark.parametrize("payload", [CANONICAL_DEPHASING, CUSTOM_COLLISION],
                             ids=["dephasing", "custom_collision"])
    def test_collision_run_builds_no_channel(self, tmp_path, monkeypatch, payload):
        import qfikit.collision
        from qfikit.quantum_core import MeasurementChannel

        built, assembled = [], []
        original = MeasurementChannel.__post_init__

        def counting(self):
            built.append(1)
            original(self)

        def counted_assembly(*args, **kwargs):
            assembled.append(1)

        monkeypatch.setattr(MeasurementChannel, "__post_init__", counting)
        monkeypatch.setattr(qfikit.collision, "_assemble_channel", counted_assembly)
        report = execute(parse_config(write_config(tmp_path, payload)))
        assert not built and not assembled
        for name in ("theorem1_perp", "theorem1_generic", "theorem2"):
            assert report.verdicts[name]["status"] in ("pass", "fail")

    def test_blowup_exits_one_with_residual_error(self, tmp_path, capsys):
        # the euler_paper blow-up of the library's integrator-failure test:
        # H0 = x sigma_z at x = 500 on 32 steps
        payload = {
            "kind": "custom_collision",
            "parameters": {"x": 500.0, "T": 1.0, "N": 32, "scheme": "euler_paper"},
            "operators": {"h0": "pauli_z"},
            "states": {"psi": "plus_x"},
        }
        assert main(["run", write_config(tmp_path, payload)]) == 1
        err = capsys.readouterr().err
        assert "completeness residual" in err and "predicted bound" in err

    def test_bundled_dephasing_verdicts_match_golden(self, tmp_path, capsys):
        out = tmp_path / "dephasing.json"
        assert main(["run", "configs/dephasing.json", "--format", "json",
                     "--output", str(out)]) == 0
        capsys.readouterr()
        got = json.loads(out.read_text(encoding="utf-8"))["verdicts"]
        with open("tests/golden/dephasing_verdicts.json", encoding="utf-8") as fh:
            want = json.load(fh)["verdicts"]
        assert got.keys() == want.keys()
        for name, verdict in want.items():
            assert got[name]["status"] == verdict["status"]
            assert got[name]["worst_residual"] == pytest.approx(
                verdict["worst_residual"], rel=1e-12, abs=0.0)


def _qutrit_channel_payload() -> dict:
    """A fixed 3-outcome qutrit channel M_w = A_w exp(-i x H) at x = 0.

    The diagonal A_w share each level's weight as 0.6^2 + 0.8^2, so the
    channel is complete; the derivatives are dM_w = -i A_w H. Outcome
    "3" is discarded.
    """
    a = [np.diag([0.6, 0.8, 0.0]), np.diag([0.8, 0.0, 0.6]), np.diag([0.0, 0.6, 0.8])]
    h = np.array([[1.0, 0.5, 0.2j], [0.5, -1.0, 0.3], [-0.2j, 0.3, 0.5]])

    def cells(mat):
        return [[[float(z.real), float(z.imag)] for z in row] for row in mat]

    return {
        "kind": "custom_channel",
        "parameters": {"x": 0.0},
        "states": {"psi": [[0.6, 0.0], [0.0, 0.48], [0.64, 0.0]]},
        "outcomes": [{"label": str(n + 1), "matrix": cells(aw.astype(complex)),
                      "derivative": cells(-1j * aw @ h)}
                     for n, aw in enumerate(a)],
        "retained": ["1", "2"],
    }


class TestCustomChannelGolden:
    """Byte-level goldens of the exact custom-channel runner."""

    def _run(self, tmp_path, capsys, fmt):
        out = tmp_path / f"qutrit.{fmt}"
        path = write_config(tmp_path, _qutrit_channel_payload())
        assert main(["run", path, "--format", fmt, "--output", str(out)]) == 0
        capsys.readouterr()
        return out

    def test_csv_matches_golden(self, tmp_path, capsys):
        out = self._run(tmp_path, capsys, "csv")
        header = out.read_text(encoding="utf-8").splitlines()[0].split(",")
        assert {"I_sigma_1", "I_sigma_2", "I_sigma_3", "kappa"} <= set(header)
        with open("tests/golden/custom_channel.csv", "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_verdicts_match_golden(self, tmp_path, capsys):
        got = json.loads(self._run(tmp_path, capsys, "json").read_text(
            encoding="utf-8"))["verdicts"]
        with open("tests/golden/custom_channel_verdicts.json", encoding="utf-8") as fh:
            want = json.load(fh)["verdicts"]
        assert got.keys() == want.keys()
        for name, verdict in want.items():
            assert got[name]["status"] == verdict["status"]
            assert got[name]["worst_residual"] == pytest.approx(
                verdict["worst_residual"], rel=1e-12, abs=0.0)
